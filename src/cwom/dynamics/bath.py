"""Dissipation channels and their Langevin noise sampling.

Convention: classical trajectories sample *symmetrized* (Wigner) input
noise with per-mode variance n + 1/2, so ensemble averages reproduce
symmetrized quantum correlators directly. Normally-ordered observables are
recovered in post-processing by subtracting the vacuum half-quantum. The
delta correlators discretize as delta(x-x') -> 1/dx per cell and
delta(t-t') -> 1/dt per step.

A noise draw is two steps: :func:`noise_scales` validates a channel and
returns its scales, and :func:`draw_noise_field` scales standard normals
with them, one step's (2, n) or a block of K steps' (K, 2, n) at once.
The integrators settle the scales of each damped row once, at
construction; a run draws the normals of a block of steps in one call
and scales each row's slice once per block (see
``dynamics.stepper``). :func:`sample_noise_field` is the two composed
for one step, with the same bytes.
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


def draw_noise_field(parts: np.ndarray, sigma, root_rate,
                     dt: float = None) -> np.ndarray:
    """Scale standard normals ``parts`` of shape (..., 2, n) in place into
    sqrt(rate) * xi on n cells, or into the Euler-Maruyama increment
    dt * sqrt(rate) * xi when ``dt`` is given; returns the complex (..., n).

    The scales come from :func:`noise_scales`. The (2, n) of one step is
    the stream of two n-draws (real parts, then imaginary parts), so a
    (K, 2, n) slice of one larger draw holds K steps in stream order.
    Scaling the parts by sigma, then by sqrt(rate), then by dt rounds as
    the complex products dt * (sqrt(rate) * (sigma * xi)) did.
    """
    parts *= sigma
    parts *= root_rate
    if dt is not None:
        parts *= dt
    xi = np.empty(parts.shape[:-2] + parts.shape[-1:], dtype=np.complex128)
    xi.real = parts[..., 0, :]
    xi.imag = parts[..., 1, :]
    return xi


def sample_noise_field(grid: Grid1D, rate: float, occupation: float, dt: float,
                       rng: np.random.Generator) -> np.ndarray:
    """Draw one step's Langevin noise field sqrt(rate) * xi.

    xi is complex Gaussian, independent per grid cell and per step, with
    symmetrized variance (occupation + 1/2) / (dx dt) per cell. An
    Euler-Maruyama update ``field += dt * sample_noise_field(...)`` then
    replenishes exactly the occupation lost to the matching damping term.
    The integrators settle :func:`noise_scales` once per damped row and
    scale their drawn normals with :func:`draw_noise_field`: the same
    bytes, times dt.
    """
    sigma, root_rate = noise_scales(grid.dx, rate, occupation, dt)
    return draw_noise_field(rng.standard_normal((2, grid.n_points)), sigma,
                            root_rate)
