"""Steady states under cw drive and the linearized fluctuation dynamics.

The steady state is found by damped time-marching of the noiseless
mean-field equations with the drive ramped up smoothly, which is robust
even where several steady solutions could coexist; the returned state is
labeled as the one reached from vacuum with a ramped drive.

Fluctuations around (alpha, beta) obey linear equations with the
position-dependent enhanced coupling g(x) = g0 alpha(x) and the static
frequency shift g_beta(x) = g0 (beta + beta*). Because the displacement
couples to both delta-b and its conjugate, the linear system is evolved in
the doubled (Bogoliubov) representation (da, da*, db, db*), with the
conjugate partners tracked explicitly rather than assuming conjugacy. The
linearization is generated mechanically from the bilinear interaction
kernels, so every coupling constant of the full model is linearized, not
only the pointwise one. Fluctuation boundaries carry no drive term.
:class:`LinearizedStepper` integrates the doubled system as a model of the
shared split-step core (:class:`cwom.dynamics.stepper.SplitStepper`), with
rows (da, da*, db, db*).
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core.couplings import CouplingSet
from .core.fields import FieldState, Frame
from .core.grid import Grid1D
from .core.interaction import phonon_channel, photon_channel
from .core.spectral import conjugate_dispersion_phase, dispersion_phase
from .dynamics.bath import BathSpec
from .dynamics.boundary import AbsorberProfile
from .dynamics.drive import DriveSpec, EndfireDrive, SideDrive
from .dynamics.stepper import DispersionPair, SplitStepper, Stepper

# steps between two convergence checks of the relaxation
CHECK_EVERY = 50


class SteadyStateError(RuntimeError):
    """Relaxation did not converge; carries the residual history."""

    def __init__(self, message: str, residual_history):
        super().__init__(message)
        self.residual_history = list(residual_history)


@dataclass
class SteadyState:
    """Mean fields and the derived linearized couplings.

    ``g_lin = g0 alpha(x)`` (Hz) and ``g_beta = g0 (beta + beta*)`` (Hz,
    real); ``residual`` is the final max |d field/dt| / field scale in 1/s.
    """

    grid: Grid1D
    alpha: np.ndarray
    beta: np.ndarray
    g_lin: np.ndarray
    g_beta: np.ndarray
    residual: float
    reached_from: str = "vacuum + ramped drive"

    @staticmethod
    def from_fields(grid: Grid1D, alpha, beta, g0: float,
                    residual: float = 0.0,
                    reached_from: str = "constructed") -> "SteadyState":
        alpha = np.asarray(alpha, dtype=complex)
        beta = np.asarray(beta, dtype=complex)
        return SteadyState(grid=grid, alpha=alpha, beta=beta,
                           g_lin=g0 * alpha,
                           g_beta=np.real(g0 * (beta + np.conj(beta))),
                           residual=residual, reached_from=reached_from)


def _ramped(drive: Optional[DriveSpec], ramp_time: float):
    if drive is None or ramp_time <= 0:
        return drive
    if isinstance(drive, EndfireDrive):
        base = drive.alpha_in

        def envelope(t, base=base):
            amp = base(t) if callable(base) else base
            r = min(t / ramp_time, 1.0)
            return amp * np.sin(0.5 * np.pi * r) ** 2

        return EndfireDrive(alpha_in=envelope, omega_L=drive.omega_L,
                            k_L=drive.k_L, inlet_cell=drive.inlet_cell)
    if isinstance(drive, SideDrive):
        base_profile = drive.profile

        def profile(x, t, base_profile=base_profile):
            r = min(t / ramp_time, 1.0)
            return base_profile(x, t) * np.sin(0.5 * np.pi * r) ** 2

        return SideDrive(kappa_ex=drive.kappa_ex, profile=profile)
    return drive


def find_steady_state(grid: Grid1D, couplings: CouplingSet,
                      dispersions: DispersionPair, bath: BathSpec,
                      drive: DriveSpec, dt: float, max_time: float,
                      ramp_time: float = 0.0, tol: float = None,
                      absorber: AbsorberProfile = None,
                      frame: Frame = None,
                      refine_dt: float = None,
                      refine_time: float = None) -> SteadyState:
    """Relax the noiseless mean field to its cw steady state.

    Converged when max |field change| / (dt * field scale), checked every
    ``CHECK_EVERY`` steps, drops below ``tol`` (1/s); the default is 1e-10
    of the fastest damping rate. Requires kappa, gamma_mech > 0: damped
    relaxation needs dissipation, and ``max_time`` (and ``refine_time``)
    of at least ``CHECK_EVERY`` steps. The state is read at the checks
    only, so between two checks the closing half free step of one step and
    the opening one of the next are one full free step (the seam flags of
    :meth:`SplitStepper.step_inplace`); it is whole at every check and at
    the end of each stage.

    The split integrator's fixed point carries an O(dt^2) offset from the
    continuous steady state; ``refine_dt`` runs a warm-started
    continuation at a finer step after the coarse march converges, which
    removes most of that offset at a fraction of the cost of marching at
    the fine step throughout. Raises :class:`SteadyStateError` with the
    residual history on non-convergence.
    """
    if bath.kappa <= 0 or bath.gamma_mech <= 0:
        raise ValueError("steady-state relaxation requires kappa > 0 and "
                         "gamma_mech > 0")
    if bath.is_stochastic:
        raise ValueError("steady states are mean-field: use sampling='none'")
    if tol is None:
        tol = 1e-10 * max(bath.kappa, bath.gamma_mech)
    state = FieldState.vacuum(grid, frame=frame)
    history = []
    stages = [("max_time", dt, max_time, _ramped(drive, ramp_time), ramp_time)]
    if refine_dt is not None:
        if refine_time is None:
            raise ValueError("refine_dt requires refine_time")
        stages.append(("refine_time", refine_dt, refine_time, drive, 0.0))
    runs = []
    for name, stage_dt, stage_time, stage_drive, stage_ramp in stages:
        stepper = Stepper(grid, couplings, dispersions, bath=bath,
                          drive=stage_drive, absorber=absorber, dt=stage_dt,
                          frame=frame)
        n_steps = int(np.ceil(stage_time / stage_dt))
        if n_steps < CHECK_EVERY:
            raise ValueError(
                f"{name} = {stage_time:.3e} s is {n_steps} steps of dt = "
                f"{stage_dt:.3e} s, fewer than the {CHECK_EVERY} steps between "
                "two convergence checks")
        runs.append((stepper, n_steps, stage_time, stage_ramp))
    for stepper, n_steps, stage_time, stage_ramp in runs:
        t_start = state.time
        prev_a = state.a.copy()
        prev_b = state.b.copy()
        converged = False
        for i in range(n_steps):
            check = (i + 1) % CHECK_EVERY == 0
            stepper.step_inplace(state, step_index=i,
                                 open_half=i % CHECK_EVERY == 0,
                                 close_full=not (check or i == n_steps - 1))
            if check:
                scale = max(np.max(np.abs(state.a)), np.max(np.abs(state.b)),
                            1e-300)
                rate = max(np.max(np.abs(state.a - prev_a)),
                           np.max(np.abs(state.b - prev_b))) \
                    / (CHECK_EVERY * stepper.dt * scale)
                history.append(rate)
                if rate < tol and state.time - t_start > stage_ramp:
                    converged = True
                    break
                prev_a = state.a.copy()
                prev_b = state.b.copy()
        if not converged:
            raise SteadyStateError(
                f"no steady state within {stage_time:.3e} s at dt = "
                f"{stepper.dt:.3e} s: residual {history[-1]:.3e} 1/s vs tol "
                f"{tol:.3e} 1/s (other steady solutions may exist; this solver "
                "only reports the one reached from vacuum with a ramped drive)",
                history)
    return SteadyState.from_fields(
        grid, state.a, state.b, couplings.g_ppp, residual=history[-1],
        reached_from="vacuum + ramped drive")


def mean_field_residual(steady: SteadyState, couplings: CouplingSet,
                        dispersions: DispersionPair, bath: BathSpec,
                        drive: DriveSpec = None, dt: float = 1e-6,
                        frame: Frame = None) -> float:
    """Re-substitution check: max |d field/dt| / scale of a steady state."""
    state = FieldState(steady.grid, steady.alpha.copy(), steady.beta.copy(),
                       frame=frame)
    stepper = Stepper(steady.grid, couplings, dispersions, bath=bath, drive=drive,
                      dt=dt, frame=state.frame)
    before_a, before_b = state.a.copy(), state.b.copy()
    stepper.step_inplace(state)
    scale = max(np.max(np.abs(before_a)), np.max(np.abs(before_b)), 1e-300)
    return float(max(np.max(np.abs(state.a - before_a)),
                     np.max(np.abs(state.b - before_b))) / (dt * scale))


@dataclass
class FluctuationState:
    """Doubled fluctuation fields (da, da*, db, db*) on one grid.

    The starred arrays are tracked independently; classical initial data
    should set them to the conjugates, which the evolution preserves.
    """

    grid: Grid1D
    da: np.ndarray
    da_conj: np.ndarray
    db: np.ndarray
    db_conj: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        for name in ("da", "da_conj", "db", "db_conj"):
            arr = np.asarray(getattr(self, name), dtype=np.complex128)
            if arr.shape != (self.grid.n_points,):
                raise ValueError("fluctuation arrays must match the grid")
            setattr(self, name, arr)

    @staticmethod
    def from_classical(grid: Grid1D, da, db, time: float = 0.0) -> "FluctuationState":
        da = np.asarray(da, dtype=complex)
        db = np.asarray(db, dtype=complex)
        return FluctuationState(grid, da, np.conj(da), db, np.conj(db), time=time)

    def copy(self) -> "FluctuationState":
        return FluctuationState(self.grid, self.da.copy(), self.da_conj.copy(),
                                self.db.copy(), self.db_conj.copy(), self.time)


def linearized_rhs(da, da_conj, db, db_conj, steady: SteadyState,
                   couplings: CouplingSet):
    """Interaction part of the linearized equations for the fluctuation
    rows (da, da*, db, db*) on ``steady.grid``.

    Generated from the bilinear kernels: each nonlinear channel is linear
    in (photon, displacement) and (photon-dagger, photon), so the
    fluctuation derivative is the sum of background-times-fluctuation
    terms in either slot. The g_beta frequency-shift term arises from the
    background displacement in the photon channel. Free evolution and
    the loss are applied separately by the split-step integrator.
    """
    grid = steady.grid
    u_beta = steady.beta + np.conj(steady.beta)
    du = db + db_conj
    alpha = steady.alpha
    alpha_c = np.conj(steady.alpha)

    dda = (photon_channel(da, u_beta, couplings, grid)
           + photon_channel(alpha, du, couplings, grid))
    dda_c = (photon_channel(da_conj, u_beta, couplings, grid, conjugate=True)
             + photon_channel(alpha_c, du, couplings, grid, conjugate=True))
    ddb = (phonon_channel(alpha_c, da, couplings, grid)
           + phonon_channel(da_conj, alpha, couplings, grid))
    ddb_c = (phonon_channel(alpha, da_conj, couplings, grid, conjugate=True)
             + phonon_channel(da, alpha_c, couplings, grid, conjugate=True))
    return dda, dda_c, ddb, ddb_c


class LinearizedStepper(SplitStepper):
    """Split-step model of the doubled fluctuation system.

    Rows of the stacked state: da, da*, db, db*. No drive and no noise
    enter here: fluctuation boundaries are drive-free by construction.
    """

    photon_rows = 2

    def __init__(self, steady: SteadyState, couplings: CouplingSet,
                 dispersions: DispersionPair, bath: BathSpec, dt: float,
                 absorber: AbsorberProfile = None):
        super().__init__(steady.grid, dt, absorber=absorber)
        self.steady = steady
        self.couplings = couplings
        grid = steady.grid
        self._half = np.stack((
            dispersion_phase(dispersions.photon, grid, 0.5 * dt),
            conjugate_dispersion_phase(dispersions.photon, grid, 0.5 * dt),
            dispersion_phase(dispersions.phonon, grid, 0.5 * dt),
            conjugate_dispersion_phase(dispersions.phonon, grid, 0.5 * dt)))
        self._set_losses(((bath.kappa, 0.0), (bath.kappa, 0.0),
                          (bath.gamma_mech, 0.0), (bath.gamma_mech, 0.0)), grid.dx)

    def _pack(self, f: FluctuationState):
        return np.stack((f.da, f.da_conj, f.db, f.db_conj))

    def _unpack(self, y, f: FluctuationState):
        f.da, f.da_conj, f.db, f.db_conj = y

    def _rhs(self, y, t):
        return np.stack(linearized_rhs(*y, self.steady, self.couplings))


def evolve_linearized(fluct: FluctuationState, steady: SteadyState,
                      couplings: CouplingSet, dispersions: DispersionPair,
                      bath: BathSpec, dt: float, n_steps: int,
                      absorber: AbsorberProfile = None) -> FluctuationState:
    stepper = LinearizedStepper(steady, couplings, dispersions, bath, dt,
                                absorber=absorber)
    return stepper.run(fluct, n_steps).final_state
