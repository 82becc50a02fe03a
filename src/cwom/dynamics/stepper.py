"""Time evolution: Strang-split spectral integrator with damping, drive,
and Langevin noise.

Step layout (one dt):

    half free evolution (exact k-space rotation of both fields)
    middle substep over dt:
        RK4 on interaction + damping + side drive   (4th order, explicit)
        Euler-Maruyama bulk noise increments        (if sampling)
        end-fire source deposit + inlet vacuum      (if driven)
        absorbing-layer decay                       (if configured)
    half free evolution

The splitting is symmetric, hence 2nd order overall (Strang, SIAM J.
Numer. Anal. 5, 506 (1968)); the explicit middle substep keeps the
non-diagonal derivative couplings away from any implicit solve. Each half
step is one batched forward/inverse transform pair over the stacked
(a, b) array. Each RK4 stage evaluates the fused interaction right-hand
side: 8 transforms when derivative couplings are present, none for a
pointwise set. All stochastic draws come from one Generator in a fixed
order, so a seed pins the whole trajectory bit-for-bit.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.couplings import CouplingSet
from ..core.dispersion import DispersionSpec
from ..core.fields import FieldState, Frame
from ..core.interaction import interaction_rhs, total_energy
from ..core.spectral import apply_phase, dispersion_phase
from .bath import BathSpec, sample_noise_field
from .boundary import AbsorberProfile, DepositPlan
from .drive import DriveSpec, EndfireDrive, SideDrive
from .rng import trajectory_generator

THREADS_ENV_VAR = "CWOM_THREADS"


class DivergenceError(RuntimeError):
    """The integrator produced non-finite fields."""

    def __init__(self, step_index: int, time: float, max_a: float, max_b: float):
        self.step_index = step_index
        self.time = time
        super().__init__(
            f"divergence at step {step_index} (t = {time:.6e} s): "
            f"max|a| = {max_a:.3e}, max|b| = {max_b:.3e}; "
            "reduce dt or check the stability bound")

    @classmethod
    def from_fields(cls, step_index: int, time: float, a, b) -> "DivergenceError":
        """Report the largest finite |a| and |b|; inf where none is finite."""
        return cls(step_index, time, _max_finite_abs(a), _max_finite_abs(b))


def _max_finite_abs(values) -> float:
    finite = values[np.isfinite(values)]
    return float(np.max(np.abs(finite))) if finite.size else np.inf


@dataclass(frozen=True)
class DispersionPair:
    photon: DispersionSpec
    phonon: DispersionSpec


def stability_bound(state: FieldState, couplings: CouplingSet,
                    dispersions: DispersionPair, bath: BathSpec) -> float:
    """Pre-run dt bound 0.5 / max(grid |omega|, interaction rate, loss rates).

    The interaction rate is estimated from the current displacement scale
    and the coupling magnitudes at the grid's maximum wavenumber; it is a
    heuristic guard, backed at runtime by the NaN check.
    """
    grid = state.grid
    w_max = float(np.max(np.abs(dispersions.photon.values_on(grid))))
    w_max = max(w_max, float(np.max(np.abs(dispersions.phonon.values_on(grid)))))
    k_max = np.pi / grid.dx
    u_scale = 2.0 * float(np.max(np.abs(state.b))) if state.b.size else 0.0
    rate = couplings.magnitude_scale(k_max) * u_scale
    top = max(w_max, rate, bath.kappa, bath.gamma_mech)
    if top == 0.0:
        return np.inf
    return 0.5 / top


class Stepper:
    """Precomputed single-trajectory integrator for one configuration."""

    def __init__(self, grid, couplings: CouplingSet, dispersions: DispersionPair,
                 bath: BathSpec = None, drive: DriveSpec = None,
                 absorber: AbsorberProfile = None, dt: float = None,
                 frame: Frame = None):
        if dt is None or dt <= 0:
            raise ValueError("dt must be positive")
        self.grid = grid
        self.couplings = couplings
        self.dispersions = dispersions
        self.bath = bath if bath is not None else BathSpec()
        self.drive = drive
        self.absorber = absorber
        self.dt = dt
        self._half = np.stack((dispersion_phase(dispersions.photon, grid, 0.5 * dt),
                               dispersion_phase(dispersions.phonon, grid, 0.5 * dt)))
        self._decay = absorber.decay_factors(dt) if absorber is not None else None
        self._deposit = None
        if isinstance(drive, EndfireDrive):
            self._deposit = DepositPlan(grid, dispersions.photon, drive,
                                        frame if frame is not None else Frame.lab(),
                                        dt)

    # -- middle substep -------------------------------------------------

    def _deterministic_rhs(self, a, b, t):
        state = FieldState(self.grid, a, b, time=t)
        da, db = interaction_rhs(state, self.couplings)
        if self.bath.kappa:
            da = da - 0.5 * self.bath.kappa * a
        if self.bath.gamma_mech:
            db = db - 0.5 * self.bath.gamma_mech * b
        if isinstance(self.drive, SideDrive):
            da = da + np.sqrt(self.drive.kappa_ex) * self.drive.profile(
                self.grid.x_axis, t)
        return da, db

    def _middle(self, state: FieldState, rng):
        dt = self.dt
        a, b, t = state.a, state.b, state.time
        k1a, k1b = self._deterministic_rhs(a, b, t)
        k2a, k2b = self._deterministic_rhs(a + 0.5 * dt * k1a, b + 0.5 * dt * k1b,
                                           t + 0.5 * dt)
        k3a, k3b = self._deterministic_rhs(a + 0.5 * dt * k2a, b + 0.5 * dt * k2b,
                                           t + 0.5 * dt)
        k4a, k4b = self._deterministic_rhs(a + dt * k3a, b + dt * k3b, t + dt)
        state.a = a + dt / 6.0 * (k1a + 2 * k2a + 2 * k3a + k4a)
        state.b = b + dt / 6.0 * (k1b + 2 * k2b + 2 * k3b + k4b)

        if self.bath.is_stochastic:
            if self.bath.kappa:
                state.a += dt * sample_noise_field(self.grid, self.bath.kappa,
                                                   0.0, dt, rng)
            if self.bath.gamma_mech:
                state.b += dt * sample_noise_field(self.grid, self.bath.gamma_mech,
                                                   self.bath.n_th, dt, rng)
        if self._deposit is not None:
            self._deposit.apply(state, rng=rng,
                                vacuum_noise=self.bath.is_stochastic)
        if self._decay is not None:
            state.a *= self._decay
            state.b *= self._decay

    def _free_half(self, state: FieldState):
        state.a, state.b = apply_phase(np.stack((state.a, state.b)), self._half)

    def step_inplace(self, state: FieldState, rng=None, step_index: int = 0):
        self._free_half(state)
        self._middle(state, rng)
        self._free_half(state)
        state.time += self.dt
        if not (np.isfinite(state.a[0]) and np.isfinite(state.b[0])) \
                or not state.is_finite():
            raise DivergenceError.from_fields(step_index, state.time, state.a,
                                              state.b)
        return state


def step(state: FieldState, couplings: CouplingSet, dispersions: DispersionPair,
         bath: BathSpec = None, drive: DriveSpec = None, dt: float = None,
         rng: np.random.Generator = None,
         absorber: AbsorberProfile = None) -> FieldState:
    """Advance one Strang step and return the new state.

    Deterministic given the rng state; raises :class:`DivergenceError` on
    non-finite fields.
    """
    stepper = Stepper(state.grid, couplings, dispersions, bath=bath, drive=drive,
                      absorber=absorber, dt=dt, frame=state.frame)
    return stepper.step_inplace(state.copy(), rng=rng)


@dataclass
class Trajectory:
    """Observables recorded along one run, plus the final state."""

    times: np.ndarray
    records: dict
    final_state: FieldState
    dt: float = 0.0
    n_steps: int = 0


def evolve(state: FieldState, couplings: CouplingSet, dispersions: DispersionPair,
           bath: BathSpec = None, drive: DriveSpec = None, dt: float = None,
           n_steps: int = 0, observers: dict = None, record_every: int = 1,
           rng: np.random.Generator = None, absorber: AbsorberProfile = None,
           enforce_stability: bool = True) -> Trajectory:
    """Run ``n_steps`` steps, recording observers every ``record_every`` steps.

    The initial state is recorded first, so ``n_steps=0`` echoes the input.
    Observers are callables state -> value, keyed by name.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be non-negative")
    bath = bath if bath is not None else BathSpec()
    observers = observers or {}
    work = state.copy()
    if n_steps > 0:
        if dt is None or dt <= 0:
            raise ValueError("dt must be positive")
        if enforce_stability:
            bound = stability_bound(work, couplings, dispersions, bath)
            if dt > bound:
                raise ValueError(
                    f"dt = {dt:.3e} s exceeds the stability bound {bound:.3e} s; "
                    "reduce dt or pass enforce_stability=False")
        stepper = Stepper(work.grid, couplings, dispersions, bath=bath, drive=drive,
                          absorber=absorber, dt=dt, frame=work.frame)
    times = [work.time]
    records = {name: [obs(work)] for name, obs in observers.items()}
    for i in range(n_steps):
        stepper.step_inplace(work, rng=rng, step_index=i)
        if (i + 1) % record_every == 0 or i == n_steps - 1:
            times.append(work.time)
            for name, obs in observers.items():
                records[name].append(obs(work))
    return Trajectory(times=np.asarray(times), records=records, final_state=work,
                      dt=dt or 0.0, n_steps=n_steps)


# -- standard observers ----------------------------------------------------

def observe_photon_number(state: FieldState) -> float:
    return state.photon_number()


def observe_phonon_number(state: FieldState) -> float:
    return state.phonon_number()


def make_energy_observer(couplings: CouplingSet,
                         dispersions: DispersionPair) -> Callable[[FieldState], float]:
    def _obs(state: FieldState) -> float:
        return total_energy(state, couplings, dispersions.photon, dispersions.phonon)
    return _obs


def observe_snapshot(state: FieldState) -> FieldState:
    return state.copy()


# -- ensembles --------------------------------------------------------------

def default_workers() -> int:
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def run_ensemble(run_one: Callable[[np.random.Generator, int], object],
                 n_trajectories: int, base_seed: int,
                 workers: int = None) -> list:
    """Run ``run_one(rng, index)`` for each trajectory with its own stream.

    Streams are keyed by (base_seed, index); results come back ordered by
    index regardless of scheduling, so fixed seeds replay identically.
    """
    if workers is None:
        workers = default_workers()
    indices = range(n_trajectories)
    if workers <= 1:
        return [run_one(trajectory_generator(base_seed, i), i) for i in indices]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(run_one, trajectory_generator(base_seed, i), i)
                   for i in indices]
        return [f.result() for f in futures]
