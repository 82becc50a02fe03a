"""The split-step core against a reference step written plainly.

The reference keeps the textbook expressions: the free step row by row
(a phase that is the same on every mode is one scalar product
``p0 * row``, a phase of exactly 1 leaves the row alone, any other phase
goes through a fresh transform pair), ``y + 0.5 * dt * k1`` stage
inputs, ``y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)``, a zero-filled
multi-branch right-hand side summed channel by channel, fancy-indexed
source deposits and real decay factors. A run without observers is one
merged sequence: an opening half step, then per step the middle
substep, one full free step by the squared phases ``half * half``
between two steps, and a closing half step. The in-place core must
reproduce it byte for byte over 50 steps for each solver: complex
products are not bitwise commutative (FMA), so every rewritten product
has to keep its operand order. The uncoupled waveguide substep is the
RK4 of linear decay written as one factor per row, ``P(z) * y`` with
z = -rate dt / 2, checked from starts with signed zeros.

The step these shortcuts replaced, a transform pair on every live row,
two half steps between two steps and the four-stage RK4 on every run, is
kept as a second reference that every model must match to rounding;
runs with a dispersive band on every live row and an interaction must
still match it byte for byte when stepped one whole step at a time.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from cwom import CouplingSet, DispersionSpec, FieldState, Grid1D
from cwom.dynamics import (BathSpec, DispersionPair, DivergenceError,
                           EndfireDrive, Stepper, make_absorber,
                           observe_photon_number)
from cwom.dynamics.bath import sample_noise_field
from cwom.lattice import ArrayConfig, LatticeState, LatticeStepper
from cwom.multibranch import (BranchConfig, MultiBranchState, MultiBranchStepper,
                              MultiBranchSystem, PhononConfig)

from conftest import random_band_limited

N_STEPS = 50


def transform_phase(field, phase):
    return np.fft.ifft(phase * np.fft.fft(field, axis=-1), axis=-1)


def reference_phase(rows, phases):
    """The free half step of stacked rows, one row at a time."""
    out = rows.copy()
    for i, phase in enumerate(phases):
        if np.all(phase == phase[0]):
            if phase[0] != 1:
                out[i] = phase[0] * rows[i]
        else:
            out[i] = transform_phase(rows[i], phase)
    return out


def rk4_decay(z):
    return 1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24


def uncoupled_factors(rates, dt):
    """One RK4 factor per row for y' = -0.5 rate y: P(-0.5 rate dt)."""
    return np.array([[rk4_decay(-0.5 * rate * dt)] for rate in rates],
                    dtype=np.complex128)


def reference_kick(stepper):
    """The default kick with the deposit written as a fancy-indexed add."""
    dt = stepper.dt
    grid = stepper.grid

    def kick(y, t, rng):
        if stepper._wigner:
            for row, rate, occupation in stepper._damped:
                y[row] += dt * sample_noise_field(grid, rate, occupation, dt, rng)
        for row, plan in stepper._deposits:
            a = y[row]
            s = complex(plan.drive.alpha_in)
            if plan.detuning != 0.0:
                s = s * np.exp(-1j * plan.detuning * t)
            if s != 0.0:
                cells = plan.drive.inlet_cell + np.arange(-2, 3)
                a[cells] += plan.scale * s * plan.kernel
            if stepper._wigner:
                xi = plan.noise_sigma * (rng.standard_normal()
                                         + 1j * rng.standard_normal())
                a[plan.drive.inlet_cell] += plan.scale * xi
    return kick


def reference_run(stepper, y, t, rng=None, absorber=None, rhs=None,
                  rates=None, phase=reference_phase, merged=True):
    """``N_STEPS`` reference Strang steps of the stacked array ``y``. With
    the per-row ``rates`` of an uncoupled model the substep is one factor
    per row; otherwise it is the RK4 of ``rhs``. Between two steps the
    free flow is one full step by ``half * half`` when ``merged``, else
    two half steps."""
    rhs = rhs or stepper._derivative
    kick = reference_kick(stepper)
    dt, live, half = stepper.dt, stepper._live, stepper._half
    between = [half * half] if merged else [half, half]
    decay = absorber.decay_factors(dt) if absorber is not None else None
    y = y.copy()
    y[..., live, :] = phase(y[..., live, :], half)
    for step in range(N_STEPS):
        if step:
            for free in between:
                y[..., live, :] = phase(y[..., live, :], free)
        if rates is not None:
            y = uncoupled_factors(rates, dt) * y
        else:
            y = rk4(rhs, y, t, dt)
        kick(y, t, rng)
        if decay is not None:
            y[..., live, :] *= decay
        assert np.isfinite(y).all()
        t += dt
    y[..., live, :] = phase(y[..., live, :], half)
    return y, t


def rk4(rhs, y, t, dt):
    k1 = rhs(y, t)
    k2 = rhs(y + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = rhs(y + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = rhs(y + dt * k3, t + dt)
    return y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


def transform_reference_run(stepper, y, t, rng=None, absorber=None, rhs=None):
    """The step before the per-row shortcuts and the merged free steps: a
    transform pair on every live row, two half steps between two steps and
    the RK4 on every run."""
    return reference_run(stepper, y, t, rng=rng, absorber=absorber, rhs=rhs,
                         phase=transform_phase, merged=False)


def reference_multibranch_rhs(stepper):
    """The channel sum into a zero-filled array, one temporary per term."""
    system = stepper.system
    photon = [(ch.j, ch.l, 1j * ch.g, ch.conjugate_b)
              for ch in system.photon_channels
              if not system.branches[ch.j].frozen]
    phonon = [(ch.j, ch.l, 1j * ch.g) for ch in system.phonon_channels]

    def rhs(y, t):
        dy = np.zeros(y.shape, dtype=y.dtype)
        b = y[-1]
        b_conj = np.conj(b)
        for j, l, coef, conjugate_b in photon:
            dy[j] += coef * y[l] * (b_conj if conjugate_b else b)
        for j, l, coef in phonon:
            dy[-1] += coef * np.conj(y[j]) * y[l]
        for row, rate, _ in stepper._damped:
            dy[row] -= 0.5 * rate * y[row]
        return dy
    return rhs


def assert_bytes_equal(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@dataclass
class Case:
    """A model, its start and how to run it and its references. ``rhs`` is
    the reference right-hand side (default: the stepper's own); ``rates``,
    one per row, marks an uncoupled model, whose substep is one factor."""

    stepper: object
    state: object
    stack: Callable
    seed: int = None
    absorber: object = None
    rhs: Callable = None
    rates: tuple = None

    def rng(self):
        return np.random.default_rng(self.seed) if self.seed is not None else None

    def run(self):
        final = self.stepper.run(self.state, N_STEPS, rng=self.rng()).final_state
        return self.stack(final), final.time

    def steps(self):
        """``N_STEPS`` whole steps, one ``step_inplace`` call each."""
        state, rng = self.state.copy(), self.rng()
        for i in range(N_STEPS):
            self.stepper.step_inplace(state, rng=rng, step_index=i)
        return self.stack(state), state.time

    def reference(self):
        return reference_run(self.stepper, self.stack(self.state), self.state.time,
                             rng=self.rng(), absorber=self.absorber, rhs=self.rhs,
                             rates=self.rates)

    def transform_reference(self):
        return transform_reference_run(self.stepper, self.stack(self.state),
                                       self.state.time, rng=self.rng(),
                                       absorber=self.absorber, rhs=self.rhs)


def stack_ab(state):
    return np.stack((state.a, state.b))


def stack_branches(state):
    return np.stack(list(state.fields) + [state.b])


def waveguide_case():
    # derivative couplings, linear bands, Wigner noise, an end-fire drive,
    # an absorber
    grid = Grid1D(128, 0.1)
    rng = np.random.default_rng(41)
    state = FieldState(grid, random_band_limited(grid, rng, amplitude=0.5),
                       random_band_limited(grid, rng, amplitude=0.3), time=0.1)
    couplings = CouplingSet.even(g_ppp=0.2, g_mmp=0.01, g_mpm=0.004 + 0.002j)
    disp = DispersionPair(DispersionSpec.linear(1.0), DispersionSpec.linear(0.4, 2.0))
    bath = BathSpec(kappa=0.4, gamma_mech=0.7, n_th=0.5, sampling="wigner")
    absorber = make_absorber(grid, speed=1.0)
    stepper = Stepper(grid, couplings, disp, bath=bath,
                      drive=EndfireDrive(alpha_in=0.7, inlet_cell=8),
                      absorber=absorber, dt=2e-3)
    assert stepper._wigner and stepper._deposits and stepper._terms.kind != "zero"
    return Case(stepper, state, stack_ab, seed=5, absorber=absorber)


def full_channel_system(grid):
    """Three branches, one frozen, in frames that match the a-b process;
    damping, a driven branch and an absorber."""
    branches = (
        BranchConfig(DispersionSpec.linear(1.0), kappa=0.05,
                     drive=EndfireDrive(alpha_in=0.3, inlet_cell=6)),
        BranchConfig(DispersionSpec.linear(-0.5), frame_omega=1.5,
                     frozen=True),
        BranchConfig(DispersionSpec.flat(0.2), frame_omega=-0.5, kappa=0.02))
    phonon = PhononConfig(DispersionSpec.flat(0.3), frame_omega=1.5, gamma=0.03)
    g = 0.3 * np.exp(0.6j)
    g0 = np.array([[0.2, g, 0.1], [np.conj(g), -0.1, 0.05j], [0.1, -0.05j, 0.0]])
    return MultiBranchSystem(grid, branches, phonon, g0,
                             absorber=make_absorber(grid, speed=1.0))


def branch_start(grid, n_branches):
    x, dk = grid.x_axis, grid.dk
    fields = [np.exp(1j * dk * x) * (1 + 0.3 * np.cos(dk * x)),
              0.7 * np.exp(-2j * dk * x) + 0.2, 0.1 * np.sin(dk * x) + 0j]
    return MultiBranchState(grid, fields[:n_branches],
                            0.8 * np.exp(3j * dk * x) + 0.4, time=0.3)


def multibranch_case():
    grid = Grid1D(128, 1.0)
    system = full_channel_system(grid)
    assert system.photon_channels and system.phonon_channels
    stepper = MultiBranchStepper(system, 0.01)
    return Case(stepper, branch_start(grid, 3), stack_branches,
                absorber=system.absorber, rhs=reference_multibranch_rhs(stepper))


def forward_gain_case():
    """The C2 forward shape: pump and signal end-fire driven, a damped
    signal and phonon, linear bands, phase-matched channels, an absorber."""
    grid = Grid1D(128, 0.5)
    branches = (
        BranchConfig(DispersionSpec.linear(1.0),
                     drive=EndfireDrive(alpha_in=0.8, inlet_cell=8)),
        BranchConfig(DispersionSpec.linear(0.9), frame_omega=-0.4,
                     kappa=0.05, drive=EndfireDrive(alpha_in=0.1, inlet_cell=8)))
    phonon = PhononConfig(DispersionSpec.linear(0.05), frame_omega=0.4, gamma=0.2)
    system = MultiBranchSystem(grid, branches, phonon,
                               np.array([[0.0, 0.3], [0.3, 0.0]]),
                               absorber=make_absorber(grid, speed=1.0, opacity=10.0))
    stepper = MultiBranchStepper(system, 0.9 * 0.5 / (np.pi / grid.dx))
    return Case(stepper, branch_start(grid, 2), stack_branches,
                absorber=system.absorber, rhs=reference_multibranch_rhs(stepper))


def lattice_case():
    config = ArrayConfig(n_sites=32, dx_lattice=1.0, J={1: 0.4, 2: 0.05},
                         g0_site=0.1, g0_link=0.2)
    rng = np.random.default_rng(2)
    state = LatticeState(rng.normal(size=32) + 1j * rng.normal(size=32),
                         rng.normal(size=32) + 1j * rng.normal(size=32))
    return Case(LatticeStepper(config, 0.01), state, stack_ab)


def reference_uncoupled_rhs(bath):
    """The uncoupled right-hand side written plainly: zeros, then minus
    half the decay rate times each damped row."""
    def rhs(y, t):
        dy = np.zeros(y.shape, dtype=y.dtype)
        for row, rate in ((0, bath.kappa), (1, bath.gamma_mech)):
            if rate:
                dy[row] -= 0.5 * rate * y[row]
        return dy
    return rhs


def signed_zero_start(grid, rng):
    """A random photon row with -0.0 parts and a phonon row of -0.0 + -0.0j:
    some of those zeros keep their sign through the first half step."""
    a = random_band_limited(grid, rng, amplitude=0.4)
    a[::5] = complex(-0.0, 0.3)
    a[2::7] = complex(0.2, -0.0)
    a[3::11] = complex(-0.0, -0.0)
    return FieldState(grid, a, np.full(grid.n_points, complex(-0.0, -0.0)),
                      time=0.2)


def uncoupled_cases():
    """An undamped end-fire vacuum inlet with an absorber (the C6(b) shape)
    and a damped Wigner phonon field (the C6(a) shape)."""
    grid_b = Grid1D(128, 1.0)
    vacuum = BathSpec(sampling="wigner")
    absorber = make_absorber(grid_b, speed=2.0)
    endfire = Stepper(grid_b, CouplingSet(),
                      DispersionPair(DispersionSpec.linear(2.0),
                                     DispersionSpec.flat(0.0)),
                      bath=vacuum, drive=EndfireDrive(alpha_in=0.0, inlet_cell=4),
                      absorber=absorber, dt=0.9 * 0.5 / (2.0 * np.pi))
    grid_a = Grid1D(32, 0.5)
    thermal = BathSpec(gamma_mech=1.0, n_th=0.7, sampling="wigner")
    damped = Stepper(grid_a, CouplingSet(),
                     DispersionPair(DispersionSpec.flat(0.0), DispersionSpec.flat(2.0)),
                     bath=thermal, dt=0.02)
    return {"undamped_endfire_vacuum": (endfire, vacuum, absorber),
            "damped_wigner": (damped, thermal, None)}


def uncoupled_case(name):
    stepper, bath, absorber = uncoupled_cases()[name]
    return Case(stepper, signed_zero_start(stepper.grid, np.random.default_rng(17)),
                stack_ab, seed=3, absorber=absorber, rhs=reference_uncoupled_rhs(bath),
                rates=(bath.kappa, bath.gamma_mech))


CASES = {"waveguide": waveguide_case, "multibranch": multibranch_case,
         "forward_gain": forward_gain_case, "lattice": lattice_case,
         "undamped_endfire_vacuum": lambda: uncoupled_case("undamped_endfire_vacuum"),
         "damped_wigner": lambda: uncoupled_case("damped_wigner")}


def assert_matches_reference(case):
    got, time = case.run()
    want, t = case.reference()
    assert_bytes_equal(got, want)
    assert time == t
    return got


def test_waveguide_stepper_matches_reference():
    assert_matches_reference(waveguide_case())


def test_multibranch_stepper_matches_reference():
    case = multibranch_case()
    got = assert_matches_reference(case)
    assert_bytes_equal(got[1], case.state.fields[1])  # frozen


def test_lattice_stepper_matches_reference():
    assert_matches_reference(lattice_case())


def test_uncoupled_steppers_match_the_plain_reference():
    for name in uncoupled_cases():
        assert_matches_reference(uncoupled_case(name))


@pytest.mark.parametrize("name", sorted(CASES))
def test_models_match_the_transform_step_to_rounding(name):
    case = CASES[name]()
    got, time = case.run()
    want, t = case.transform_reference()
    assert time == t
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("name", ["waveguide", "forward_gain"])
def test_dispersive_coupled_runs_keep_the_transform_step_bytes(name):
    # every live row dispersive and an interaction: the plan changes nothing
    case = CASES[name]()
    rows = len(case.stack(case.state))
    assert free_plan(case.stepper, rows) == ["transform"] * rows
    got, time = case.steps()
    want, t = case.transform_reference()
    assert_bytes_equal(got, want)
    assert time == t


def record_stack(case):
    return {"y": lambda state: case.stack(state).copy()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_recording_every_step_takes_whole_steps(name):
    # record_every=1 with observers puts a seam after every step: the run
    # is N whole steps, byte for byte, and so is every record
    case = CASES[name]()
    traj = case.stepper.run(case.state, N_STEPS, observers=record_stack(case),
                            record_every=1, rng=case.rng())
    state, rng = case.state.copy(), case.rng()
    assert_bytes_equal(traj.records["y"][0], case.stack(state))
    for i in range(N_STEPS):
        case.stepper.step_inplace(state, rng=rng, step_index=i)
        assert_bytes_equal(traj.records["y"][i + 1], case.stack(state))
        assert traj.times[i + 1] == state.time
    assert_bytes_equal(case.stack(traj.final_state), case.stack(state))


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_record_is_the_end_of_a_shorter_run(name):
    # records after steps 7, 14, ..., 49 and 50: each equals the final,
    # whole state of a run of that many steps, so no observer sees a
    # state half a free step ahead
    case = CASES[name]()
    every = 7
    traj = case.stepper.run(case.state, N_STEPS, observers=record_stack(case),
                            record_every=every, rng=case.rng())
    counts = list(range(every, N_STEPS, every)) + [N_STEPS]
    assert len(traj.records["y"]) == len(counts) + 1
    for n, record, time in zip(counts, traj.records["y"][1:], traj.times[1:]):
        final = case.stepper.run(case.state, n, observers=record_stack(case),
                                 record_every=every, rng=case.rng()).final_state
        assert_bytes_equal(record, case.stack(final))
        assert time == final.time
    merged, _ = case.run()
    assert np.max(np.abs(traj.records["y"][-1] - merged)) <= (
        1e-13 * np.max(np.abs(merged)))


class NanAfter:
    """A deposit that adds nothing before time ``t_nan`` and NaN into the
    drive kernel's cells from it."""

    def __init__(self, plan, t_nan):
        self.plan, self.t_nan = plan, t_nan

    def apply(self, a, time, pair=None):
        if time >= self.t_nan:
            a[self.plan.kernel_cells] += np.nan


@pytest.mark.parametrize("observers, record_every", [(False, 1), (False, 5),
                                                     (True, 5), (True, 1)])
def test_divergence_in_a_merged_segment_reports_the_stepwise_step(
        observers, record_every):
    grid = Grid1D(64, 0.1)
    disp = DispersionPair(DispersionSpec.linear(1.0), DispersionSpec.flat(2.0))
    dt = 1e-2
    # a deposit samples its drive at the start of a step: step 12 starts
    # at 0.1 + 12 dt, the first start past 0.1 + 11.5 dt
    stepper = Stepper(grid, CouplingSet.even(g_ppp=0.2, g_mmp=0.01), disp,
                      drive=EndfireDrive(alpha_in=0.0), dt=dt)
    (row, plan), = stepper._deposits
    stepper._deposits = [(row, NanAfter(plan, 0.1 + 11.5 * dt))]
    rng = np.random.default_rng(29)
    start = FieldState(grid, random_band_limited(grid, rng, amplitude=0.5),
                       random_band_limited(grid, rng, amplitude=0.3), time=0.1)
    state = start.copy()
    with pytest.raises(DivergenceError) as stepwise:
        for i in range(40):
            stepper.step_inplace(state, step_index=i)
    with pytest.raises(DivergenceError) as merged:
        stepper.run(start, 40, observers={"n": observe_photon_number} if observers
                    else None, record_every=record_every)
    assert stepwise.value.step_index == merged.value.step_index == 12
    assert merged.value.time == stepwise.value.time


def test_inf_in_an_undamped_row_reports_the_plain_step():
    # the photon row is flat at 0 and undamped: its half steps leave it
    # alone and its substep factor is 1, so the inf stays in its own cell
    stepper, bath, _ = uncoupled_cases()["damped_wigner"]
    grid = stepper.grid
    rng = np.random.default_rng(23)
    state = FieldState(grid, random_band_limited(grid, rng, amplitude=0.4),
                       random_band_limited(grid, rng, amplitude=0.3), time=0.1)
    state.a[5] = np.inf
    a0, b0 = state.a.copy(), state.b.copy()
    dt, t = stepper.dt, state.time
    with np.errstate(invalid="ignore"):  # the factor's 0 * inf is NaN
        y = reference_phase(np.stack((state.a, state.b)), stepper._half)
        y = uncoupled_factors((bath.kappa, bath.gamma_mech), dt) * y
        reference_kick(stepper)(y, t, np.random.default_rng(8))
        want = DivergenceError.from_fields(3, t, y[:1], y[1:])
        with pytest.raises(DivergenceError) as err:
            stepper.step_inplace(state, rng=np.random.default_rng(8), step_index=3)
    assert np.flatnonzero(~np.isfinite(y[0])).tolist() == [5]
    assert np.isfinite(y[1]).all()
    assert str(err.value) == str(want)
    assert_bytes_equal(state.a, a0)
    assert_bytes_equal(state.b, b0)


def free_plan(stepper, n_rows):
    """How the half step moves each stacked row: "transform", "scalar"
    (one product with the row's phase) or "skip"."""
    moving = {row for run, _, _ in stepper._moving
              for row in range(n_rows)[run]}
    scalar = {row: half for row, half, _ in stepper._scalar_phases}
    for row, phase in scalar.items():
        assert phase == stepper._half[np.arange(n_rows)[stepper._live] == row][0, 0]
    return ["transform" if row in moving else "scalar" if row in scalar else "skip"
            for row in range(n_rows)]


@pytest.mark.parametrize("photon, phonon, plan", [
    (DispersionSpec.linear(1.0), DispersionSpec.flat(0.3), ["transform", "scalar"]),
    (DispersionSpec.flat(0.0), DispersionSpec.flat(2.0), ["skip", "scalar"]),
    (DispersionSpec.flat(0.5), DispersionSpec.linear(0.4, 2.0),
     ["scalar", "transform"]),
    (DispersionSpec.linear(1.0), DispersionSpec.flat(0.0), ["transform", "skip"]),
])
def test_waveguide_free_step_plan(photon, phonon, plan):
    grid = Grid1D(32, 0.5)
    stepper = Stepper(grid, CouplingSet(), DispersionPair(photon, phonon), dt=0.01)
    assert free_plan(stepper, 2) == plan


def test_multibranch_free_step_plan():
    # a linear branch, a frozen one, a flat one at 0.2, a flat phonon at 0.3
    stepper = multibranch_case().stepper
    assert free_plan(stepper, 4) == ["transform", "skip", "scalar", "scalar"]
    assert free_plan(forward_gain_case().stepper, 3) == ["transform"] * 3
    grid = Grid1D(32, 1.0)
    system = MultiBranchSystem(
        grid, (BranchConfig(DispersionSpec.flat(0.0)),
               BranchConfig(DispersionSpec.linear(1.0))),
        PhononConfig(DispersionSpec.flat(0.0)), np.array([[0.0, 0.1], [0.1, 0.0]]))
    assert free_plan(MultiBranchStepper(system, 0.01), 3) == [
        "skip", "transform", "skip"]


def test_lattice_free_step_plan():
    # the static phonon row has a half-step phase of exactly 1
    config = ArrayConfig(n_sites=16, dx_lattice=1.0, J={1: 0.4}, g0_site=0.1)
    assert free_plan(LatticeStepper(config, 0.01), 2) == ["transform", "skip"]


CORE_STEP = ("_kick", "_derivative", "_rk4", "_free_step", "step_inplace", "run",
             "_pack", "_unpack")


def test_models_supply_only_their_interaction():
    # every SplitStepper model in cwom leaves the step to the core
    import importlib
    import pkgutil

    import cwom
    from cwom.dynamics.stepper import SplitStepper

    for info in pkgutil.walk_packages(cwom.__path__, "cwom."):
        importlib.import_module(info.name)
    models, todo = [], [SplitStepper]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("cwom."):
                models.append(sub)
    assert {m.__name__ for m in models} >= {
        "Stepper", "MultiBranchStepper", "LatticeStepper"}
    for model in models:
        own = sorted(set(CORE_STEP) & set(vars(model)))
        assert not own, f"{model.__name__} defines {own}"
