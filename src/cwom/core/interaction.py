"""Interaction-induced time derivatives for the coupled photon-phonon fields.

Both field equations descend from one Hamiltonian,

    H_int = -hbar * integral dx [ g_ppp a+ a u + g_mmp (dx a+)(dx a) u
            + (g_mpm (dx a+) a (dx u) + h.c.) + g_ppm a+ a (dx u)
            + (g_mpp (dx a+) a u + h.c.) + g_mmm (dx a+)(dx a)(dx u) ],

by functional differentiation: da/dt = -i dH/da+, db/dt = -i dH/db+ (with
hbar divided out). The even-sector photon equation reads

    da/dt = i g_ppp u a - i g_mmp dx(u dx a)
            - i g_mpm dx(a dx u) + i g_mpm* (dx a)(dx u),

and the matching phonon equation

    db/dt = i g_ppp a+ a + i g_mmp (dx a+)(dx a)
            - i g_mpm dx((dx a+) a) - i g_mpm* dx(a+ dx a).

The odd-sector pieces follow from the same variational rule; they are not
usually written out, so the derivation is spelled out term by term in the
channel functions below. Every term carries exactly one a+ and one a, so
the interaction conserves total photon number identically.

The channels evaluate each term on its own, with one transform pair per
derivative; they are the term-by-term reference that the fused kernel is
checked against.

The nonlinear right-hand side :func:`interaction_rhs` evaluates the same
terms fused, with every derivative summed in k-space: one batched forward
and inverse transform of (a, u) give D a and D u; every photon term under
an outer D(.) is collected into one argument and every phonon term into a
second, and one more batched forward/inverse pair differentiates both.
That is 8 transforms per evaluation, against 16 for the even set through
the channels. The phonon equation needs D(a+); it is taken as conj(D a).
The identity D(conj a) = conj(D a) holds to rounding because the
first-derivative weight ik maps to its own conjugate under k -> -k for
every mode except Nyquist, which is its own mirror image and whose weight
is zeroed. A set with only g_ppp needs no transform at all.

The fused kernel :func:`fused_rhs` works on (..., n) arrays with the
constants resolved once into a :class:`CouplingTerms` table: Python
scalars for one set, (B, 1) columns for a batch of B sets of one class,
whose rows then match each set's own evaluation bit for bit.
:func:`interaction_rhs` is the one-state wrapper around it.
"""

from dataclasses import dataclass

import numpy as np

from .couplings import CouplingSet
from .fields import FieldState
from .grid import Grid1D
from .spectral import multiply_modes, spectral_derivative


def photon_channel(f: np.ndarray, u: np.ndarray, couplings: CouplingSet,
                   grid: Grid1D) -> np.ndarray:
    """Photon-equation interaction terms, bilinear in (f, u)."""
    c = couplings

    def D(z):
        return spectral_derivative(z, grid, 1)

    out = np.zeros(grid.n_points, dtype=np.complex128)
    df = du = None
    if c.g_ppp != 0:
        out += 1j * c.g_ppp * u * f
    if c.g_mmp != 0:
        df = D(f)
        out += -1j * c.g_mmp * D(u * df)
    if c.g_mpm != 0:
        df = D(f) if df is None else df
        du = D(u)
        out += -1j * c.g_mpm * D(f * du)
        out += 1j * np.conj(c.g_mpm) * df * du
    if c.g_ppm != 0:
        du = D(u) if du is None else du
        out += 1j * c.g_ppm * f * du
    if c.g_mpp != 0:
        df = D(f) if df is None else df
        out += -1j * c.g_mpp * D(f * u)
        out += 1j * np.conj(c.g_mpp) * df * u
    if c.g_mmm != 0:
        df = D(f) if df is None else df
        du = D(u) if du is None else du
        out += -1j * c.g_mmm * D(df * du)
    return out


def phonon_channel(fdag: np.ndarray, f: np.ndarray, couplings: CouplingSet,
                   grid: Grid1D) -> np.ndarray:
    """Phonon-equation interaction terms, bilinear in (fdag, f).

    ``fdag`` stands in for the daggered photon field, conj(a).
    """
    c = couplings

    def D(z):
        return spectral_derivative(z, grid, 1)

    out = np.zeros(grid.n_points, dtype=np.complex128)
    dfd = df = None
    if c.g_ppp != 0:
        out += 1j * c.g_ppp * fdag * f
    if c.g_mmp != 0:
        dfd, df = D(fdag), D(f)
        out += 1j * c.g_mmp * dfd * df
    if c.g_mpm != 0:
        dfd = D(fdag) if dfd is None else dfd
        df = D(f) if df is None else df
        out += -1j * c.g_mpm * D(dfd * f)
        out += -1j * np.conj(c.g_mpm) * D(fdag * df)
    if c.g_ppm != 0:
        out += -1j * c.g_ppm * D(fdag * f)
    if c.g_mpp != 0:
        dfd = D(fdag) if dfd is None else dfd
        df = D(f) if df is None else df
        out += 1j * c.g_mpp * dfd * f
        out += 1j * np.conj(c.g_mpp) * fdag * df
    if c.g_mmm != 0:
        dfd = D(fdag) if dfd is None else dfd
        df = D(f) if df is None else df
        out += -1j * c.g_mmm * D(dfd * df)
    return out


_TERM_NAMES = ("g_ppp", "g_mmp", "g_mpm", "g_ppm", "g_mpp", "g_mmm")


@dataclass(frozen=True)
class CouplingTerms:
    """The constants the fused right-hand side multiplies, resolved once.

    ``kind`` is "zero", "pointwise" (g_ppp only) or "derivative". For one
    :class:`CouplingSet` each constant is the set's Python scalar; for a
    batch of B sets, stepped as (B, n) field arrays, it is a (B, 1) column.
    A constant that is zero in every row is None and its terms are
    skipped; a zero in some rows only adds exact zeros to those rows. The
    conjugates of g_mpm and g_mpp are taken here, not per evaluation.
    """

    kind: str
    g_ppp: object = None
    g_mmp: object = None
    g_mpm: object = None
    g_ppm: object = None
    g_mpp: object = None
    g_mmm: object = None
    g_mpm_c: object = None
    g_mpp_c: object = None

    @classmethod
    def resolve(cls, couplings) -> "CouplingTerms":
        """Terms of one CouplingSet, or of a sequence of them as a batch.

        A batch must share one coupling class: the pointwise evaluation
        rounds differently from the fused one, so a mixed batch could not
        reproduce each set's own run and is rejected.
        """
        if isinstance(couplings, CouplingSet):
            kind = _coupling_class(couplings)
            values = {name: getattr(couplings, name) or None for name in _TERM_NAMES}
        else:
            sets = list(couplings)
            if not sets:
                raise ValueError("a coupling batch needs at least one set")
            kinds = [_coupling_class(c) for c in sets]
            if len(set(kinds)) > 1:
                raise ValueError(
                    f"a coupling batch must share one class, got {kinds}; "
                    "step each class as its own batch")
            kind = kinds[0]
            values = {}
            for name in _TERM_NAMES:
                col = np.array([getattr(c, name) for c in sets])[:, None]
                values[name] = col if np.any(col != 0) else None
        g_mpm, g_mpp = values["g_mpm"], values["g_mpp"]
        return cls(kind=kind, **values,
                   g_mpm_c=None if g_mpm is None else np.conj(g_mpm),
                   g_mpp_c=None if g_mpp is None else np.conj(g_mpp))


def _coupling_class(couplings: CouplingSet) -> str:
    if couplings.is_zero:
        return "zero"
    return "pointwise" if couplings.is_pointwise else "derivative"


def interaction_rhs(state: FieldState, couplings: CouplingSet):
    """Interaction-only (da/dt, db/dt) for the current field state.

    The displacement entering the photon equation is u = b + b*. Spatial
    derivatives are spectral, so the k-space scattering vertex is realized
    exactly mode by mode. Equal, to rounding, to
    ``photon_channel(a, u)`` and ``phonon_channel(conj(a), a)``; see the
    module docstring for the fused evaluation, :func:`fused_rhs`.
    """
    return fused_rhs(state.a, state.b, state.grid.derivative_weight,
                     CouplingTerms.resolve(couplings))


def fused_rhs(a: np.ndarray, b: np.ndarray, weight: np.ndarray,
              terms: CouplingTerms):
    """Interaction-only (da/dt, db/dt) of (..., n) photon and phonon arrays.

    ``weight`` is the grid's first-derivative weight and ``terms`` the
    resolved coupling constants; a batch's (B, 1) columns act row by row
    on (B, n) arrays, and each row equals the run of its own set.
    """
    t = terms
    if t.kind == "zero":
        return np.zeros_like(a), np.zeros_like(a)
    u = b + np.conj(b)
    ac = np.conj(a)
    if t.kind == "pointwise":
        return (1j * t.g_ppp) * u * a, (1j * t.g_ppp) * ac * a
    da, du = multiply_modes(np.stack((a, u)), weight)
    dac = np.conj(da)
    # photon: da/dt = i (pointwise) - i D(outer); phonon likewise
    photon_point = _weighted_sum(((t.g_ppp, u, a), (t.g_mpm_c, da, du),
                                  (t.g_ppm, a, du), (t.g_mpp_c, da, u)))
    photon_outer = _weighted_sum(((t.g_mmp, u, da), (t.g_mpm, a, du),
                                  (t.g_mpp, a, u), (t.g_mmm, da, du)))
    phonon_point = _weighted_sum(((t.g_ppp, ac, a), (t.g_mmp, dac, da),
                                  (t.g_mpp, dac, a), (t.g_mpp_c, ac, da)))
    phonon_outer = _weighted_sum(((t.g_mpm, dac, a), (t.g_mpm_c, ac, da),
                                  (t.g_ppm, ac, a), (t.g_mmm, dac, da)))
    d_photon, d_phonon = multiply_modes(np.stack((photon_outer, phonon_outer)), weight)
    return 1j * (photon_point - d_photon), 1j * (phonon_point - d_phonon)


def _weighted_sum(terms) -> np.ndarray:
    """sum of g * x * y over the (g, x, y) terms whose g is not None."""
    out = np.zeros(terms[0][1].shape, dtype=np.complex128)
    for g, x, y in terms:
        if g is not None:
            out += g * x * y
    return out


def _energy_density(a: np.ndarray, u: np.ndarray, couplings: CouplingSet,
                    grid: Grid1D, fa: np.ndarray = None) -> np.ndarray:
    """Interaction density from the fields; ``fa`` optionally holds fft(a)."""
    c = couplings
    if c.is_pointwise:
        # every derivative term multiplies an exact zero
        return np.real(c.g_ppp * np.abs(a) ** 2 * u)
    w = grid.derivative_weight
    if fa is None:
        fa = np.fft.fft(a)
    da = np.fft.ifft(w * fa)
    du = np.fft.ifft(w * np.fft.fft(u))
    dens = np.zeros(grid.n_points, dtype=np.complex128)
    dens += c.g_ppp * np.abs(a) ** 2 * u
    dens += c.g_mmp * np.abs(da) ** 2 * u
    dens += 2.0 * np.real(c.g_mpm * np.conj(da) * a * du)
    dens += c.g_ppm * np.abs(a) ** 2 * du
    dens += 2.0 * np.real(c.g_mpp * np.conj(da) * a) * u
    dens += c.g_mmm * np.abs(da) ** 2 * du
    return np.real(dens)


def total_energy(state: FieldState, couplings: CouplingSet,
                 dispersion_a, dispersion_b) -> float:
    """Classical Hamiltonian of the closed system, in units of hbar (rad/s).

    Free parts evaluate omega(-i dx) and Omega(-i dx) spectrally; the
    interaction part subtracts per the -hbar convention. The transform of
    a is shared between the free part and the derivative D a.
    """
    grid = state.grid
    return energy_from_bands(state, couplings, dispersion_a.values_on(grid),
                             dispersion_b.values_on(grid))


def energy_from_bands(state: FieldState, couplings: CouplingSet,
                      wa: np.ndarray, wb: np.ndarray) -> float:
    """:func:`total_energy` with the photon and phonon dispersion rows
    omega(k), Omega(k) already evaluated on ``state.grid.k_axis``, so a
    recording observer evaluates them once per run, not once per record.
    """
    grid = state.grid
    fa = np.fft.fft(state.a)
    fb = np.fft.fft(state.b)
    # Parseval: sum_x conj(f) (W f) dx = sum_k W |F_k|^2 dx / n
    free = (np.sum(wa * np.abs(fa) ** 2) + np.sum(wb * np.abs(fb) ** 2)) \
        * grid.dx / grid.n_points
    dens = _energy_density(state.a, state.displacement(), couplings, grid, fa)
    inter = np.sum(dens) * grid.dx
    return float(np.real(free) - float(inter))
