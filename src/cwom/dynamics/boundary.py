"""Open-waveguide boundaries on a periodic grid.

The half-infinite waveguide is emulated by two pieces:

* an additive *source deposit* near one end, which launches the drive and
  the incoming vacuum noise as travelling waves, and
* an *absorbing ramp* at the far end, which damps anything that reaches
  it, including waves that exit through x = 0 and reappear across the
  periodic seam.

Deposit normalization. Adding sqrt(c) * (dt/dx) * s(t_n) per step, under
exact spectral advection at speed c, reconstructs the band-limited inflow
signal: a cw amplitude alpha launches a travelling wave of amplitude
alpha/sqrt(c), i.e. photon flux |alpha|^2, and white noise of variance
(n + 1/2)/dt per step produces a spatially white mover with equal-time
variance (n + 1/2)/dx per cell (the vacuum's 1/(2 dx) per-mover
correlator). Both follow from the sampling identity
sum_m sinc^2(u - m nu) = 1/nu for advection fractions nu = c dt/dx <= 1.

The coherent drive is deposited through a short Hann kernel normalized at
the resonant wavenumber, which suppresses the near-Nyquist source wake to
~1e-4; the noise is deposited into a single cell so its spectrum stays
white across the full band. Left-moving waves pass through the additive
source unmodified and leave through the seam into the ramp.
"""

from dataclasses import dataclass

import numpy as np

from ..core.dispersion import DispersionSpec
from ..core.grid import Grid1D
from .drive import EndfireDrive

MAX_ABSORBER_FRACTION = 0.1 + 1e-12
# the carrier's group velocity may vary by this fraction over +- pi/(8 dx)
VELOCITY_REL_TOL = 1e-3
# half-width in cells of the Hann kernel that deposits the coherent drive
KERNEL_HALFWIDTH = 2


class BoundaryError(ValueError):
    """Raised when a drive cannot be launched cleanly at the boundary."""


def boundary_velocity(dispersion: DispersionSpec, grid: Grid1D,
                      carrier_k: float) -> float:
    """Group speed at the carrier; rejects non-constant local dispersion.

    End-fire launching assumes a locally constant photon velocity. The
    group velocity is sampled over a band of +- pi/(8 dx) around the
    carrier and must not deviate from its carrier value by more than
    ``VELOCITY_REL_TOL`` relatively.
    """
    delta = np.pi / (8.0 * grid.dx)
    ks = carrier_k + np.linspace(-delta, delta, 17)
    try:
        vs = np.asarray(dispersion.group_velocity_at(ks), dtype=float)
    except ValueError as err:
        raise BoundaryError(f"cannot sample group velocity near carrier: {err}") from err
    v0 = float(dispersion.group_velocity_at(carrier_k))
    if abs(v0) == 0.0:
        raise BoundaryError("zero group velocity at the drive carrier")
    dev = np.max(np.abs(vs - v0))
    if dev > VELOCITY_REL_TOL * abs(v0):
        raise BoundaryError(
            "non-constant dispersion near the boundary: group velocity varies by "
            f"{dev:.3e} m/s ({dev / abs(v0):.2%}) within +-pi/(8 dx) of the carrier; "
            "end-fire injection requires a locally linear branch")
    return abs(v0)


class DepositPlan:
    """Precomputed per-step source terms for one end-fire drive.

    ``frame_omega`` is the frequency (rad/s) of the frame the driven field
    evolves in: 0 for the waveguide's lab frame, a branch's own frame in a
    multi-branch run. The drive's detuning is taken from it; the carrier
    wavenumber is the drive's ``k_L``. A constant, undetuned ``alpha_in``
    deposits the same source every step, so ``scale * alpha_in * kernel``
    is settled here once (and no source at all for ``alpha_in = 0``, as
    for a vacuum inlet); a callable or detuned drive is evaluated at each
    step's start time.
    """

    def __init__(self, grid: Grid1D, dispersion: DispersionSpec,
                 drive: EndfireDrive, frame_omega: float, dt: float):
        c = boundary_velocity(dispersion, grid, drive.k_L)
        nu = c * dt / grid.dx
        if nu > 1.0:
            raise BoundaryError(
                f"advection fraction c*dt/dx = {nu:.3f} > 1; "
                "reduce dt for clean injection")
        if drive.inlet_cell < KERNEL_HALFWIDTH \
                or drive.inlet_cell >= grid.n_points - KERNEL_HALFWIDTH:
            raise BoundaryError("inlet_cell too close to the grid edge for the "
                                "drive kernel")
        self.drive = drive
        self.detuning = drive.detuning(frame_omega)
        # Python floats: the per-step scalar products round as numpy's do
        # and cost a fraction of numpy scalar arithmetic
        self.scale = float(np.sqrt(c) * dt / grid.dx)
        self.noise_sigma = float(np.sqrt(0.5 / (2.0 * dt)))
        offs = np.arange(-KERNEL_HALFWIDTH, KERNEL_HALFWIDTH + 1)
        window = 0.5 * (1.0 + np.cos(np.pi * offs / (KERNEL_HALFWIDTH + 1)))
        cells = (drive.inlet_cell + offs) % grid.n_points
        # matched normalization: unit response of the resonant wavenumber
        khat = np.sum(window * np.exp(-1j * drive.k_L * cells * grid.dx))
        self.kernel_cells = slice(cells[0], cells[-1] + 1)  # never wraps
        self.kernel = window / khat
        self._constant = not callable(drive.alpha_in) and self.detuning == 0.0
        self._settled = self._source(0.0) if self._constant else None

    def _source(self, time: float):
        """The drive's deposit at ``time``; None when the amplitude is 0."""
        s = self.drive.amplitude(time)
        if self.detuning != 0.0:
            s = s * np.exp(-1j * self.detuning * time)
        return self.scale * s * self.kernel if s != 0.0 else None

    def apply(self, a: np.ndarray, time: float, pair=None):
        """Add one step's source (and inlet vacuum) to the photon row ``a``.

        ``a`` is written in place: the integrators pass the photon row of
        their stacked state, so no field container is built per deposit.
        ``time`` is the step's start time, at which the drive is sampled.
        Launched cw photon flux is |alpha_in|^2. ``pair``, two standard
        normals (re, im) that the integrator drew for this inlet and step,
        adds the Wigner vacuum to the injected mover, giving the 1/(2 dx)
        equal-time correlator diagonal downstream; without it the inlet
        adds none.
        """
        source = self._settled if self._constant else self._source(time)
        if source is not None:
            a[self.kernel_cells] += source
        if pair is not None:
            re, im = pair
            xi = self.noise_sigma * (re + 1j * im)
            a[self.drive.inlet_cell] += self.scale * xi


@dataclass(frozen=True)
class AbsorberProfile:
    """Smooth damping ramp sigma(x) (1/s) over the far end of the grid."""

    sigma: np.ndarray
    width_fraction: float

    def __post_init__(self):
        if self.width_fraction > MAX_ABSORBER_FRACTION:
            raise ValueError("absorbing ramp may occupy at most 10% of the grid")
        sig = np.asarray(self.sigma, dtype=float)
        if np.any(sig < 0):
            raise ValueError("damping profile must be non-negative")
        sig.flags.writeable = False
        object.__setattr__(self, "sigma", sig)

    def decay_factors(self, dt: float) -> np.ndarray:
        return np.exp(-self.sigma * dt)


def absorber_fits(n_points: int, width_fraction: float = 0.1) -> bool:
    """Whether :func:`make_absorber`'s bump over ``width_fraction`` of
    ``n_points`` cells spans the 8 cells its smooth rise and fall need."""
    return round(width_fraction * n_points) >= 8


def make_absorber(grid: Grid1D, speed: float, width_fraction: float = 0.1,
                  opacity: float = 10.0) -> AbsorberProfile:
    """Smooth damping bump over the far end of the grid.

    ``opacity`` is the single-pass amplitude attenuation exponent for a
    wave crossing at ``speed``: transmitted energy ~ exp(-2*opacity). The
    bump rises and falls with quintic smoothsteps and vanishes at both of
    its edges, so waves meet no damping discontinuity from either
    direction; in particular left-movers that exit through x = 0 and
    reappear across the periodic seam are absorbed without reflection.
    """
    n = grid.n_points
    if not absorber_fits(n, width_fraction):
        raise ValueError("absorbing bump needs at least 8 cells")
    width = int(round(width_fraction * n))
    xi = np.linspace(0.0, 1.0, width, endpoint=True)
    up = np.minimum(2.0 * xi, 1.0)
    down = np.minimum(2.0 - 2.0 * xi, 1.0)
    shape = np.minimum(_smoothstep5(up), _smoothstep5(down))
    # sigma_max chosen so integral sigma dx / speed = opacity; the up-down
    # quintic bump integrates to 1/2 over its unit support.
    sigma_max = 2.0 * opacity * abs(speed) / (width * grid.dx)
    sigma = np.zeros(n)
    sigma[n - width:] = sigma_max * shape
    return AbsorberProfile(sigma=sigma, width_fraction=width_fraction)


def _smoothstep5(x: np.ndarray) -> np.ndarray:
    return x ** 3 * (10.0 - 15.0 * x + 6.0 * x ** 2)
