"""Discrete optomechanical arrays and the array -> continuum mapping.

A closed 1D ring of sites with tight-binding photon hopping, static
(non-hopping, undamped) phonons and either a local on-site coupling or a
link coupling (phonons dressing the tunneling between neighbors), as the
array -> continuum study runs it. Site amplitudes map to continuum
fields as a_j = a(j dx) sqrt(dx), which preserves total photon number
exactly; the continuum coupling is g0_cont = g0_site sqrt(dx), so the
proper continuum limit holds g0_cont fixed while g0_site grows as
1/sqrt(dx).

The link coupling expands, around each link center, into the canonical
continuum terms: a pointwise coupling 2 g0 sqrt(dx), plus
second-order-in-dx derivative couplings obtained by integrating the
Taylor remainder by parts,

    g_ppp_eff = 2 g0 sqrt(dx)
    g_mmp_eff = -g0 sqrt(dx) dx^2
    g_mpm_eff = -g0 sqrt(dx) dx^2 / 4   (real),

with no first-derivative (odd-sector) photon terms: they cancel by the
inversion symmetry of the link geometry. The prefactors complete the
expansion in closed form; the array-vs-continuum convergence study in the
test suite confirms them numerically at second order.

:class:`LatticeStepper` is a model of the shared split-step core
(:class:`cwom.dynamics.stepper.SplitStepper`) over the stacked (a, b)
site amplitudes: the photon tunneling band gives the exact half-step
phases, the phonon row has none (the core skips it), and nothing is lost.
"""

from dataclasses import dataclass, field

import numpy as np

from .core.couplings import CouplingSet
from .core.fields import FieldState
from .core.grid import Grid1D
from .dynamics.stepper import SplitStepper

COUPLING_KINDS = ("site", "link")


def band_structure(J: dict, dx_lattice: float, k_samples) -> np.ndarray:
    """Tight-binding band omega(k) = -sum_l 2 J_l cos(k l dx) (rad/s).

    ``J`` maps positive hop distances to real tunneling rates; Hermiticity
    of the hopping Hamiltonian requires real J, so complex values are
    rejected rather than silently producing a complex band.
    """
    k = np.asarray(k_samples, dtype=float)
    band = np.zeros_like(k)
    for hop, rate in J.items():
        if not isinstance(hop, (int, np.integer)) or hop < 1:
            raise ValueError("hop distances must be integers >= 1")
        if isinstance(rate, complex) and rate.imag != 0.0:
            raise ValueError("complex tunneling rejected: the band would not "
                             "be real (non-Hermitian hopping)")
        band -= 2.0 * float(np.real(rate)) * np.cos(k * hop * dx_lattice)
    return band


@dataclass(frozen=True)
class ArrayConfig:
    """Discrete-array parameters (SI units; per-site rates) of a closed
    array with static phonons."""

    n_sites: int
    dx_lattice: float
    J: dict = field(default_factory=dict)
    g0_site: float = 0.0
    g0_link: float = 0.0
    omega_frame: float = 0.0   # constant subtracted from the photon band

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValueError("need at least two sites")
        if self.dx_lattice <= 0:
            raise ValueError("lattice constant must be positive")
        for hop in self.J:
            if not isinstance(hop, (int, np.integer)) or hop < 1:
                raise ValueError("hop distances must be integers >= 1")

    def photon_band(self) -> np.ndarray:
        k = 2.0 * np.pi * np.fft.fftfreq(self.n_sites, d=self.dx_lattice)
        return band_structure(self.J, self.dx_lattice, k) - self.omega_frame


class LatticeState:
    """Site amplitudes a (photons) and b (phonons), stored as the rows of
    one (2, n) array ``rows`` that the stepper steps; ``a`` and ``b`` are
    views of its rows. ``copy()`` is deep."""

    def __init__(self, a, b, time: float = 0.0):
        self.rows = np.stack((a, b)).astype(np.complex128, copy=False)
        self.time = time

    a = property(lambda self: self.rows[0], doc="The photon row.")
    b = property(lambda self: self.rows[1], doc="The phonon row.")

    def photon_number(self) -> float:
        return float(np.sum(np.abs(self.a) ** 2))

    def phonon_number(self) -> float:
        return float(np.sum(np.abs(self.b) ** 2))

    def copy(self) -> "LatticeState":
        return LatticeState(self.a, self.b, self.time)


class LatticeStepper(SplitStepper):
    """Split-step model of the array: exact tunneling half-steps in k-space,
    explicit RK4 on the site and link interaction.

    Rows of the stacked state: site photon amplitudes, site phonon
    amplitudes (static: a half-step phase of 1, no loss).
    """

    def __init__(self, config: ArrayConfig, dt: float):
        super().__init__(None, dt)
        self.config = config
        self._half = np.ones((2, config.n_sites), dtype=np.complex128)
        self._half[0] = np.exp(-0.5j * config.photon_band() * dt)
        self._set_losses(((0.0, 0.0), (0.0, 0.0)), 1.0)
        sites = np.arange(config.n_sites)
        self._next = np.roll(sites, -1)  # a[self._next][j] = a[j + 1]
        self._prev = np.roll(sites, 1)
        if not (config.g0_site or config.g0_link):
            self._rhs = None

    def _rhs(self, y, t):
        """Site and link interaction, written into one array."""
        site, link = self.config.g0_site, self.config.g0_link
        a, b = y
        u = b + np.conj(b)
        dy = np.empty_like(y)
        if site:
            dy[0] = 1j * site * u * a
            dy[1] = 1j * site * np.abs(a) ** 2
        if link:
            # u_j lives on the link between sites j and j+1
            a_next = a[self._next]
            da = 1j * link * (a_next * u + (a * u)[self._prev])
            db = 1j * link * (np.conj(a_next) * a + np.conj(a) * a_next)
            if site:
                dy[0] += da
                dy[1] += db
            else:
                dy[0], dy[1] = da, db
        return dy


def simulate_array(config: ArrayConfig, initial: LatticeState, dt: float,
                   n_steps: int) -> LatticeState:
    """The state of the discrete model after ``n_steps`` steps of dt from
    ``initial`` (a :class:`LatticeStepper` run)."""
    return LatticeStepper(config, dt).run(initial, n_steps).final_state


def to_continuum(a_sites, b_sites, dx_lattice: float) -> FieldState:
    """Map site amplitudes to continuum fields: a(j dx) = a_j / sqrt(dx).

    Total photon/phonon number is preserved exactly. Link-coupled phonons
    physically sit half a cell to the right of their site index; they are
    returned on the same grid, with the offset left to the caller's
    comparison.
    """
    a_sites = np.asarray(a_sites, dtype=complex)
    grid = Grid1D(len(a_sites), dx_lattice)
    root = np.sqrt(dx_lattice)
    return FieldState(grid, a_sites / root, np.asarray(b_sites, dtype=complex) / root)


def site_coupling_from_continuum(g0_cont: float, dx_lattice: float) -> float:
    """g0_site realizing a continuum coupling g0_cont: g0_cont/sqrt(dx)."""
    return g0_cont / np.sqrt(dx_lattice)


def link_effective_couplings(g0_link: float, dx_lattice: float) -> CouplingSet:
    """Continuum coupling set emerging from the link-coupled array at
    second order in the lattice constant. Even sector only: the link
    geometry is inversion symmetric, so no odd (first-derivative photon)
    terms survive."""
    root = np.sqrt(dx_lattice)
    return CouplingSet.even(
        g_ppp=2.0 * g0_link * root,
        g_mmp=-g0_link * root * dx_lattice ** 2,
        g_mpm=-g0_link * root * dx_lattice ** 2 / 4.0,
    )
