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

The channels are deliberately *bilinear* in (photon field, displacement)
and (photon-dagger field, photon field): the linearized fluctuation
equations reuse them with background and fluctuation fields in either slot.

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
"""

import numpy as np

from .couplings import CouplingSet
from .fields import FieldState
from .grid import Grid1D
from .spectral import spectral_derivative


def photon_channel(f: np.ndarray, u: np.ndarray, couplings: CouplingSet,
                   grid: Grid1D, conjugate: bool = False) -> np.ndarray:
    """Photon-equation interaction terms, bilinear in (f, u).

    With ``conjugate=True`` returns the formally conjugated operator
    (all coupling constants conjugated, i -> -i), which propagates the
    tracked conjugate partner in the doubled fluctuation system.
    """
    c = couplings
    s = -1.0 if conjugate else 1.0

    def g(val):
        return np.conj(val) if conjugate else val

    def D(z):
        return spectral_derivative(z, grid, 1)

    out = np.zeros(grid.n_points, dtype=np.complex128)
    df = du = None
    if c.g_ppp != 0:
        out += (1j * s) * g(c.g_ppp) * u * f
    if c.g_mmp != 0:
        df = D(f)
        out += (-1j * s) * g(c.g_mmp) * D(u * df)
    if c.g_mpm != 0:
        df = D(f) if df is None else df
        du = D(u)
        out += (-1j * s) * g(c.g_mpm) * D(f * du)
        out += (1j * s) * g(np.conj(c.g_mpm)) * df * du
    if c.g_ppm != 0:
        du = D(u) if du is None else du
        out += (1j * s) * g(c.g_ppm) * f * du
    if c.g_mpp != 0:
        df = D(f) if df is None else df
        out += (-1j * s) * g(c.g_mpp) * D(f * u)
        out += (1j * s) * g(np.conj(c.g_mpp)) * df * u
    if c.g_mmm != 0:
        df = D(f) if df is None else df
        du = D(u) if du is None else du
        out += (-1j * s) * g(c.g_mmm) * D(df * du)
    return out


def phonon_channel(fdag: np.ndarray, f: np.ndarray, couplings: CouplingSet,
                   grid: Grid1D, conjugate: bool = False) -> np.ndarray:
    """Phonon-equation interaction terms, bilinear in (fdag, f).

    ``fdag`` stands in for the daggered photon field; the nonlinear
    equations pass conj(a), the linearized ones pass background or
    fluctuation fields independently.
    """
    c = couplings
    s = -1.0 if conjugate else 1.0

    def g(val):
        return np.conj(val) if conjugate else val

    def D(z):
        return spectral_derivative(z, grid, 1)

    out = np.zeros(grid.n_points, dtype=np.complex128)
    dfd = df = None
    if c.g_ppp != 0:
        out += (1j * s) * g(c.g_ppp) * fdag * f
    if c.g_mmp != 0:
        dfd, df = D(fdag), D(f)
        out += (1j * s) * g(c.g_mmp) * dfd * df
    if c.g_mpm != 0:
        dfd = D(fdag) if dfd is None else dfd
        df = D(f) if df is None else df
        out += (-1j * s) * g(c.g_mpm) * D(dfd * f)
        out += (-1j * s) * g(np.conj(c.g_mpm)) * D(fdag * df)
    if c.g_ppm != 0:
        out += (-1j * s) * g(c.g_ppm) * D(fdag * f)
    if c.g_mpp != 0:
        dfd = D(fdag) if dfd is None else dfd
        df = D(f) if df is None else df
        out += (1j * s) * g(c.g_mpp) * dfd * f
        out += (1j * s) * g(np.conj(c.g_mpp)) * fdag * df
    if c.g_mmm != 0:
        dfd = D(fdag) if dfd is None else dfd
        df = D(f) if df is None else df
        out += (-1j * s) * g(c.g_mmm) * D(dfd * df)
    return out


def interaction_rhs(state: FieldState, couplings: CouplingSet):
    """Interaction-only (da/dt, db/dt) for the current field state.

    The displacement entering the photon equation is u = b + b*. Spatial
    derivatives are spectral, so the k-space scattering vertex is realized
    exactly mode by mode. Equal, to rounding, to
    ``photon_channel(a, u)`` and ``phonon_channel(conj(a), a)``; see the
    module docstring for the fused evaluation.
    """
    c = couplings
    a = state.a
    if c.is_zero:
        return np.zeros_like(a), np.zeros_like(a)
    u = state.displacement()
    ac = np.conj(a)
    if c.is_pointwise:
        return (1j * c.g_ppp) * u * a, (1j * c.g_ppp) * ac * a
    w = state.grid.derivative_weight
    da, du = np.fft.ifft(w * np.fft.fft(np.stack((a, u)), axis=-1), axis=-1)
    dac = np.conj(da)
    gmpm_c, gmpp_c = np.conj(c.g_mpm), np.conj(c.g_mpp)
    # photon: da/dt = i (pointwise) - i D(outer); phonon likewise
    photon_point = _weighted_sum(((c.g_ppp, u, a), (gmpm_c, da, du),
                                  (c.g_ppm, a, du), (gmpp_c, da, u)))
    photon_outer = _weighted_sum(((c.g_mmp, u, da), (c.g_mpm, a, du),
                                  (c.g_mpp, a, u), (c.g_mmm, da, du)))
    phonon_point = _weighted_sum(((c.g_ppp, ac, a), (c.g_mmp, dac, da),
                                  (c.g_mpp, dac, a), (gmpp_c, ac, da)))
    phonon_outer = _weighted_sum(((c.g_mpm, dac, a), (gmpm_c, ac, da),
                                  (c.g_ppm, ac, a), (c.g_mmm, dac, da)))
    d_photon, d_phonon = np.fft.ifft(
        w * np.fft.fft(np.stack((photon_outer, phonon_outer)), axis=-1), axis=-1)
    return 1j * (photon_point - d_photon), 1j * (phonon_point - d_phonon)


def _weighted_sum(terms) -> np.ndarray:
    """sum of g * x * y over the (g, x, y) terms whose g is non-zero."""
    out = np.zeros(terms[0][1].shape, dtype=np.complex128)
    for g, x, y in terms:
        if g != 0:
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


def interaction_energy_density(state: FieldState, couplings: CouplingSet) -> np.ndarray:
    """Interaction Hamiltonian density divided by -hbar (rad/s per meter)."""
    return _energy_density(state.a, state.displacement(), couplings, state.grid)


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
