"""The split-step core against a reference step written plainly.

The reference keeps the textbook expressions: a fresh transform pair per
half step, ``y + 0.5 * dt * k1`` stage inputs, ``y + dt / 6.0 * (k1 +
2 * k2 + 2 * k3 + k4)``, a zero-filled multi-branch right-hand side
summed channel by channel, fancy-indexed source deposits and real decay
factors. The in-place core must reproduce it byte for byte over 50 steps
for each solver: complex products are not bitwise commutative (FMA), so
every rewritten product has to keep its operand order. The uncoupled
waveguide steps are checked against a plainly written damping-only
right-hand side, not the stepper's own, from starts with signed zeros.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from cwom import CouplingSet, DispersionSpec, FieldState, Grid1D
from cwom.dynamics import (BathSpec, DispersionPair, DivergenceError,
                           EndfireDrive, Stepper, make_absorber)
from cwom.dynamics.bath import sample_noise_field
from cwom.lattice import ArrayConfig, LatticeState, LatticeStepper
from cwom.multibranch import (BranchConfig, MultiBranchState, MultiBranchStepper,
                              MultiBranchSystem, PhononConfig)
from cwom.steady import FluctuationState, LinearizedStepper, SteadyState

from conftest import random_band_limited

N_STEPS = 50


def reference_phase(field, phase):
    return np.fft.ifft(phase * np.fft.fft(field, axis=-1), axis=-1)


def reference_kick(stepper):
    """The default kick with the deposit written as a fancy-indexed add.
    The lattice has no grid; its sites are cells of unit width."""
    dt = stepper.dt
    grid = stepper.grid
    if grid is None:
        grid = SimpleNamespace(dx=1.0, n_points=stepper.config.n_sites)

    def kick(y, t, rng):
        if stepper._wigner:
            for row, rate, occupation in stepper._damped:
                y[row] += dt * sample_noise_field(grid, rate, occupation, dt, rng)
        for row, plan in stepper._deposits:
            a = y[row]
            s = plan.drive.amplitude(t)
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


def reference_run(stepper, y, t, rng=None, absorber=None, rhs=None):
    """``N_STEPS`` reference Strang steps of the stacked array ``y``."""
    rhs = rhs or stepper._derivative
    kick = reference_kick(stepper)
    dt, live, half = stepper.dt, stepper._live, stepper._half
    decay = absorber.decay_factors(dt) if absorber is not None else None
    for _ in range(N_STEPS):
        y = y.copy()
        y[..., live, :] = reference_phase(y[..., live, :], half)
        k1 = rhs(y, t)
        k2 = rhs(y + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = rhs(y + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = rhs(y + dt * k3, t + dt)
        y = y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        kick(y, t, rng)
        if decay is not None:
            y[..., live, :] *= decay
        assert np.isfinite(y).all()
        y[..., live, :] = reference_phase(y[..., live, :], half)
        t += dt
    return y, t


def reference_multibranch_rhs(stepper):
    """The channel sum into a zero-filled array, one temporary per term."""
    system = stepper.system
    photon = [(ch.j, ch.l, 1j * ch.g, ch.conjugate_b, ch.W, ch.spatial)
              for ch in system.photon_channels
              if not system.branches[ch.j].frozen]
    phonon = [(ch.j, ch.l, 1j * ch.g, ch.W, ch.spatial)
              for ch in system.phonon_channels]

    def rhs(y, t):
        dy = np.zeros(y.shape, dtype=y.dtype)
        b = y[-1]
        b_conj = np.conj(b)
        for j, l, coef, conjugate_b, W, spatial in photon:
            term = coef * y[l] * (b_conj if conjugate_b else b)
            if spatial is not None:
                term *= spatial
            if W != 0.0:
                term *= np.exp(-1j * W * t)
            dy[j] += term
        for j, l, coef, W, spatial in phonon:
            term = coef * np.conj(y[j]) * y[l]
            if spatial is not None:
                term *= spatial
            if W != 0.0:
                term *= np.exp(-1j * W * t)
            dy[-1] += term
        for row, rate, _ in stepper._damped:
            dy[row] -= 0.5 * rate * y[row]
        return dy
    return rhs


def assert_bytes_equal(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_waveguide_stepper_matches_reference():
    # derivative couplings, Wigner noise, an end-fire drive, an absorber
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
    final = stepper.run(state, N_STEPS, rng=np.random.default_rng(5)).final_state
    want, t = reference_run(stepper, np.stack((state.a, state.b)), state.time,
                            rng=np.random.default_rng(5), absorber=absorber)
    assert_bytes_equal(np.stack((final.a, final.b)), want)
    assert final.time == t


def full_channel_system(grid):
    """Three branches, one frozen; rotating_wave=False keeps channels with a
    time phase W and with a spatial phase K; damping, Wigner noise, a
    driven branch and an absorber."""
    dk = grid.dk
    branches = (
        BranchConfig("a", DispersionSpec.linear(1.0), kappa=0.05,
                     drive=EndfireDrive(alpha_in=0.3, inlet_cell=6)),
        BranchConfig("b", DispersionSpec.linear(-0.5), frame_omega=1.5,
                     frame_k=dk, frozen=True),
        BranchConfig("c", DispersionSpec.flat(0.2), frame_omega=-0.5,
                     frame_k=-dk, kappa=0.02))
    phonon = PhononConfig(DispersionSpec.flat(0.3), frame_omega=1.5, frame_k=dk,
                          gamma=0.03, n_th=0.2)
    g = 0.3 * np.exp(0.6j)
    g0 = np.array([[0.2, g, 0.1], [np.conj(g), -0.1, 0.05j], [0.1, -0.05j, 0.0]])
    return MultiBranchSystem(grid, branches, phonon, g0, rotating_wave=False,
                             sampling="wigner",
                             absorber=make_absorber(grid, speed=1.0))


def test_multibranch_stepper_matches_reference():
    grid = Grid1D(128, 1.0)
    system = full_channel_system(grid)
    channels = system.photon_channels + system.phonon_channels
    assert any(ch.W != 0.0 for ch in channels)
    assert any(ch.spatial is not None for ch in channels)
    x, dk = grid.x_axis, grid.dk
    state = MultiBranchState(
        grid, [np.exp(1j * dk * x) * (1 + 0.3 * np.cos(dk * x)),
               0.7 * np.exp(-2j * dk * x) + 0.2, 0.1 * np.sin(dk * x) + 0j],
        0.8 * np.exp(3j * dk * x) + 0.4, time=0.3)
    stepper = MultiBranchStepper(system, 0.01)
    final = stepper.run(state, N_STEPS, rng=np.random.default_rng(9)).final_state
    want, t = reference_run(stepper, np.stack(list(state.fields) + [state.b]),
                            state.time, rng=np.random.default_rng(9),
                            absorber=system.absorber,
                            rhs=reference_multibranch_rhs(stepper))
    assert_bytes_equal(np.stack(list(final.fields) + [final.b]), want)
    assert final.time == t
    assert_bytes_equal(final.fields[1], state.fields[1])  # frozen


def test_lattice_stepper_matches_reference():
    config = ArrayConfig(n_sites=32, dx_lattice=1.0, J={1: 0.4, 2: 0.05},
                         g0_site=0.1, g0_link=0.2, kappa=0.1, Gamma=0.2, n_th=0.3)
    rng = np.random.default_rng(2)
    state = LatticeState(rng.normal(size=32) + 1j * rng.normal(size=32),
                         rng.normal(size=32) + 1j * rng.normal(size=32))
    stepper = LatticeStepper(config, 0.01, sampling="wigner")
    final = stepper.run(state, N_STEPS, rng=np.random.default_rng(4)).final_state
    want, t = reference_run(stepper, np.stack((state.a, state.b)), state.time,
                            rng=np.random.default_rng(4))
    assert_bytes_equal(np.stack((final.a, final.b)), want)
    assert final.time == t


def test_linearized_stepper_matches_reference():
    grid = Grid1D(128, 0.1)
    rng = np.random.default_rng(11)
    steady = SteadyState.from_fields(grid, random_band_limited(grid, rng, amplitude=0.5),
                                     random_band_limited(grid, rng, amplitude=0.2), 0.3)
    fluct = FluctuationState.from_classical(
        grid, random_band_limited(grid, rng, amplitude=0.1),
        random_band_limited(grid, rng, amplitude=0.1))
    disp = DispersionPair(DispersionSpec.polynomial([0.0, 1.0, 0.05]),
                          DispersionSpec.linear(0.4, 2.0))
    absorber = make_absorber(grid, speed=1.0)
    stepper = LinearizedStepper(steady, CouplingSet.odd(g_ppm=0.05, g_mpp=0.01 - 0.02j),
                                disp, BathSpec(kappa=0.4, gamma_mech=0.7), 2e-3,
                                absorber=absorber)
    final = stepper.run(fluct, N_STEPS).final_state
    want, t = reference_run(
        stepper, np.stack((fluct.da, fluct.da_conj, fluct.db, fluct.db_conj)),
        fluct.time, absorber=absorber)
    assert_bytes_equal(np.stack((final.da, final.da_conj, final.db, final.db_conj)),
                       want)
    assert final.time == t


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


def test_uncoupled_steppers_match_the_plain_reference():
    for name, (stepper, bath, absorber) in uncoupled_cases().items():
        state = signed_zero_start(stepper.grid, np.random.default_rng(17))
        final = stepper.run(state, N_STEPS, rng=np.random.default_rng(3)).final_state
        want, t = reference_run(stepper, np.stack((state.a, state.b)), state.time,
                                rng=np.random.default_rng(3), absorber=absorber,
                                rhs=reference_uncoupled_rhs(bath))
        assert_bytes_equal(np.stack((final.a, final.b)), want)
        assert final.time == t, name


def test_inf_in_an_undamped_row_reports_the_plain_step():
    # the photon row is undamped; its derivative is exactly zero in the
    # plain step, whatever the row holds
    stepper, bath, _ = uncoupled_cases()["damped_wigner"]
    grid = stepper.grid
    rng = np.random.default_rng(23)
    state = FieldState(grid, random_band_limited(grid, rng, amplitude=0.4),
                       random_band_limited(grid, rng, amplitude=0.3), time=0.1)
    state.a[5] = np.inf
    a0, b0 = state.a.copy(), state.b.copy()
    dt, t, rhs = stepper.dt, state.time, reference_uncoupled_rhs(bath)
    with np.errstate(invalid="ignore"):  # the transforms spread the inf as NaN
        y = reference_phase(np.stack((state.a, state.b)), stepper._half)
        k1 = rhs(y, t)
        k2 = rhs(y + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = rhs(y + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = rhs(y + dt * k3, t + dt)
        y = y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        reference_kick(stepper)(y, t, np.random.default_rng(8))
        want = DivergenceError.from_fields(3, t, y[:1], y[1:])
        with pytest.raises(DivergenceError) as err:
            stepper.step_inplace(state, rng=np.random.default_rng(8), step_index=3)
    assert str(err.value) == str(want)
    assert_bytes_equal(state.a, a0)
    assert_bytes_equal(state.b, b0)


CORE_STEP = ("_kick", "_derivative", "_rk4", "_half_step", "step_inplace", "run")


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
        "Stepper", "MultiBranchStepper", "LatticeStepper", "LinearizedStepper"}
    for model in models:
        own = sorted(set(CORE_STEP) & set(vars(model)))
        assert not own, f"{model.__name__} defines {own}"
