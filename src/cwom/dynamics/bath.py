"""Dissipation channels and their Langevin noise sampling.

Convention: classical trajectories sample *symmetrized* (Wigner) input
noise with per-mode variance n + 1/2, so ensemble averages reproduce
symmetrized quantum correlators directly. Normally-ordered observables are
recovered in post-processing by subtracting the vacuum half-quantum. The
delta correlators discretize as delta(x-x') -> 1/dx per cell and
delta(t-t') -> 1/dt per step.

A noise draw is two steps: :func:`noise_scales` validates a channel and
returns its scales, and :func:`draw_noise_field` draws one step's field
with them. The integrators settle the scales of each damped row once, at
construction, and only draw per step; :func:`sample_noise_field` is the
two composed, with the same bytes.
"""

from dataclasses import dataclass

import numpy as np

from ..constants import HBAR, K_B
from ..core.grid import Grid1D

SAMPLING_MODES = ("none", "wigner")


@dataclass(frozen=True)
class BathSpec:
    """Loss rates, thermal occupation, and the noise sampling convention.

    Parameters
    ----------
    kappa : photon energy decay rate (1/s).
    gamma_mech : phonon energy decay rate (1/s).
    n_th : mean thermal phonon occupation. Mutually exclusive with
        ``temperature``.
    temperature : bath temperature in K; converted to n_th via the Bose
        occupation at ``omega_ref`` (phonon bands are treated as flat
        enough to evaluate the occupation at one fixed frequency).
    omega_ref : phonon frequency (rad/s) at which n_th is evaluated.
    sampling : "none" for mean-field runs, "wigner" for stochastic
        trajectories.
    """

    kappa: float = 0.0
    gamma_mech: float = 0.0
    n_th: float = None
    temperature: float = None
    omega_ref: float = 0.0
    sampling: str = "none"

    def __post_init__(self):
        if self.kappa < 0 or self.gamma_mech < 0:
            raise ValueError("decay rates must be non-negative")
        if self.sampling not in SAMPLING_MODES:
            raise ValueError(f"sampling must be one of {SAMPLING_MODES}")
        if self.temperature is not None and self.n_th is not None:
            raise ValueError("temperature and n_th are mutually exclusive inputs")
        if self.temperature is not None:
            if self.omega_ref <= 0:
                raise ValueError("temperature input requires omega_ref > 0")
            if self.temperature < 0:
                raise ValueError("temperature must be non-negative")
            if self.temperature == 0:
                occ = 0.0
            else:
                occ = 1.0 / np.expm1(HBAR * self.omega_ref / (K_B * self.temperature))
            object.__setattr__(self, "n_th", float(occ))
        elif self.n_th is None:
            object.__setattr__(self, "n_th", 0.0)
        if self.n_th < 0:
            raise ValueError("n_th must be non-negative")

    @property
    def is_stochastic(self) -> bool:
        return self.sampling == "wigner"


def noise_scales(dx: float, rate: float, occupation: float,
                 dt: float) -> tuple:
    """The scales (sigma, sqrt(rate)) of one step's Langevin noise field on
    cells of width ``dx``, validated once: sigma = sqrt((occupation + 1/2)
    / (2 dx dt)) is the per-part standard deviation of xi."""
    if occupation < 0:
        raise ValueError("occupation must be non-negative")
    if rate < 0:
        raise ValueError("rate must be non-negative")
    if dt <= 0:
        raise ValueError("dt must be positive")
    return np.sqrt((occupation + 0.5) / (2.0 * dx * dt)), np.sqrt(rate)


def draw_noise_field(n: int, sigma, root_rate,
                     rng: np.random.Generator) -> np.ndarray:
    """Draw sqrt(rate) * xi on n cells from the scales of :func:`noise_scales`.

    One (2, n) draw is the stream of two n-draws (real parts, then
    imaginary parts); scaling them in place by sigma, then by sqrt(rate),
    rounds as the complex products sqrt(rate) * (sigma * xi) did.
    """
    parts = rng.standard_normal((2, n))
    parts *= sigma
    parts *= root_rate
    xi = np.empty(n, dtype=np.complex128)
    xi.real, xi.imag = parts
    return xi


def sample_noise_field(grid: Grid1D, rate: float, occupation: float, dt: float,
                       rng: np.random.Generator) -> np.ndarray:
    """Draw one step's Langevin noise field sqrt(rate) * xi.

    xi is complex Gaussian, independent per grid cell and per step, with
    symmetrized variance (occupation + 1/2) / (dx dt) per cell. An
    Euler-Maruyama update ``field += dt * sample_noise_field(...)`` then
    replenishes exactly the occupation lost to the matching damping term.
    The integrators settle :func:`noise_scales` once per damped row and
    call :func:`draw_noise_field` each step: the same bytes.
    """
    sigma, root_rate = noise_scales(grid.dx, rate, occupation, dt)
    return draw_noise_field(grid.n_points, sigma, root_rate, rng)
