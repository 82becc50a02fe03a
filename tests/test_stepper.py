"""Strang integrator behavior: exactness limits, decay, order, replay."""

import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cwom import CouplingSet, DispersionSpec, FieldState, Grid1D, experiments
from cwom.core.interaction import interaction_rhs, total_energy
from cwom.dynamics import (BathSpec, DispersionPair, DivergenceError,
                           EndfireDrive, Stepper, evolve, evolve_batch,
                           make_absorber, make_energy_observer,
                           observe_photon_number, run_ensemble, stability_bound,
                           trajectory_generator)
from cwom.dynamics.stepper import NOISE_BLOCK_VALUES
from cwom.experiments import DT_MARGIN

from conftest import random_band_limited


def closed_setup(grid, g0=0.5):
    disp = DispersionPair(DispersionSpec.polynomial([0.0, 1.0, 0.05]),
                          DispersionSpec.flat(2.0))
    return CouplingSet.simple(g0), disp


class TestFreeEvolution:
    def test_plane_waves_pure_phases_norm_exact(self, grid64):
        disp = DispersionPair(DispersionSpec.polynomial([0.1, 2.0, -0.3]),
                              DispersionSpec.polynomial([1.5, 0.2]))
        k1, k2 = grid64.k_axis[4], grid64.k_axis[9]
        st = FieldState(grid64, np.exp(1j * k1 * grid64.x_axis),
                        0.3 * np.exp(1j * k2 * grid64.x_axis))
        dt = 1e-3
        n0a, n0b = st.photon_number(), st.phonon_number()
        out = st.copy()
        stepper = Stepper(grid64, CouplingSet(), disp, dt=dt)
        for i in range(50):
            stepper.step_inplace(out)
            assert abs(out.photon_number() - n0a) < 1e-12 * n0a
            assert abs(out.phonon_number() - n0b) < 1e-12 * max(n0b, 1e-30)
        t = out.time
        wa = disp.photon.omega_at(k1)
        expected = np.exp(1j * k1 * grid64.x_axis) * np.exp(-1j * wa * t)
        assert np.max(np.abs(out.a - expected)) < 1e-9

    def test_pure_decay_matches_exponential(self, grid64, rng):
        # drift term only: photon number decays as exp(-kappa t)
        kappa = 2.0
        bath = BathSpec(kappa=kappa)
        disp = DispersionPair(DispersionSpec.flat(0.0), DispersionSpec.flat(0.0))
        st = FieldState(grid64, random_band_limited(grid64, rng),
                        np.zeros(grid64.n_points))
        n0 = st.photon_number()
        dt = 0.01 / kappa
        traj = evolve(st, CouplingSet(), disp, bath=bath, dt=dt,
                      n_steps=int(10 / kappa / dt),
                      observers={"n": observe_photon_number})
        n_final = traj.records["n"][-1]
        expected = n0 * np.exp(-kappa * traj.times[-1])
        assert abs(n_final - expected) < 1e-6 * expected


class TestStrangAccuracy:
    def test_second_order_convergence(self, grid64, rng):
        # halving dt must shrink the closed-system trajectory error ~4x
        couplings, disp = closed_setup(grid64, g0=0.8)
        a0 = random_band_limited(grid64, rng, amplitude=0.7)
        b0 = random_band_limited(grid64, rng, amplitude=0.4)
        T = 0.4

        def final_fields(n_steps):
            st = FieldState(grid64, a0.copy(), b0.copy())
            traj = evolve(st, couplings, disp, dt=T / n_steps, n_steps=n_steps)
            return traj.final_state

        ref = final_fields(4096)
        errs = []
        for n in (64, 128, 256):
            out = final_fields(n)
            errs.append(np.linalg.norm(out.a - ref.a) + np.linalg.norm(out.b - ref.b))
        r1 = errs[0] / errs[1]
        r2 = errs[1] / errs[2]
        assert 3.2 < r1 < 4.8, errs
        assert 3.2 < r2 < 4.8, errs

    def test_closed_system_conserves_energy_and_number(self, grid64, rng):
        couplings, disp = closed_setup(grid64, g0=0.3)
        st = FieldState(grid64, random_band_limited(grid64, rng, amplitude=0.5),
                        random_band_limited(grid64, rng, amplitude=0.3))
        obs = {"n": observe_photon_number,
               "H": make_energy_observer(couplings, disp)}
        traj = evolve(st, couplings, disp, dt=2e-4, n_steps=2000, observers=obs,
                      record_every=100)
        n = np.asarray(traj.records["n"])
        h = np.asarray(traj.records["H"])
        assert np.max(np.abs(n - n[0])) < 1e-10 * n[0]
        assert np.max(np.abs(h - h[0])) < 1e-8 * abs(h[0])


class TestEvolveMachinery:
    def test_zero_steps_echoes_initial_state(self, grid64, rng):
        st = FieldState(grid64, random_band_limited(grid64, rng),
                        random_band_limited(grid64, rng))
        traj = evolve(st, CouplingSet(),
                      DispersionPair(DispersionSpec.flat(0.0),
                                     DispersionSpec.flat(0.0)),
                      n_steps=0)
        assert np.array_equal(traj.final_state.a, st.a)
        assert traj.times.shape == (1,)

    def test_deterministic_replay_bit_identical(self, grid64):
        from cwom.dynamics import trajectory_generator
        couplings, disp = closed_setup(grid64, g0=0.2)
        bath = BathSpec(kappa=0.5, gamma_mech=0.8, n_th=0.3, sampling="wigner")

        def run(seed):
            st = FieldState.vacuum(grid64)
            return evolve(st, couplings, disp, bath=bath, dt=1e-3, n_steps=200,
                          rng=trajectory_generator(seed, 0)).final_state

        one, two = run(42), run(42)
        assert np.array_equal(one.a, two.a)
        assert np.array_equal(one.b, two.b)
        other = run(43)
        assert not np.array_equal(one.a, other.a)

    def test_ensemble_members_differ_from_single(self, grid64):
        couplings = CouplingSet()
        disp = DispersionPair(DispersionSpec.flat(0.0), DispersionSpec.flat(0.0))
        bath = BathSpec(gamma_mech=1.0, n_th=1.0, sampling="wigner")

        def one(rng, index):
            st = FieldState.vacuum(grid64)
            return evolve(st, couplings, disp, bath=bath, dt=1e-2, n_steps=50,
                          rng=rng).final_state.phonon_number()

        vals = run_ensemble(one, 8, base_seed=5)
        assert len(set(np.round(vals, 12))) == 8

    @pytest.mark.parametrize("workers", [2, 0])
    def test_workers_other_than_one_rejected(self, workers):
        # ensembles run serially; no trajectory runs before the refusal
        ran = []
        with pytest.raises(ValueError, match="workers must be 1"):
            run_ensemble(lambda rng, index: ran.append(index), 4, base_seed=31,
                         workers=workers)
        assert ran == []

    def test_divergence_detected(self, grid64):
        # deliberately violate the stability bound
        couplings = CouplingSet.simple(1.0)
        disp = DispersionPair(DispersionSpec.flat(0.0), DispersionSpec.flat(0.0))
        st = FieldState(grid64, np.full(grid64.n_points, 1e3 + 0j),
                        np.full(grid64.n_points, 1e3 + 0j))
        stepper = Stepper(grid64, couplings, disp, dt=10.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError):
                stepper.run(st, 500)

    def test_stability_bound_enforced(self, grid64):
        couplings, disp = closed_setup(grid64)
        st = FieldState(grid64, np.ones(grid64.n_points),
                        np.ones(grid64.n_points))
        bound = stability_bound(st, couplings, disp, BathSpec())
        with pytest.raises(ValueError, match="stability bound"):
            evolve(st, couplings, disp, dt=3.0 * bound, n_steps=10)


class TestPinnedDrivenRun:
    # Recorded from the per-model stepper: even derivative couplings with a
    # complex g_mpm, Wigner noise, end-fire drive with inlet vacuum,
    # absorber, seed 11, 200 steps.
    CELLS = (6, 12, 40, 90, 120)
    PHOTON = ((0.5441487638749719 + 0.7355740051679096j),
              (0.4519897277076831 + 0.9559953169934415j),
              (-0.19116236596643754 - 0.19800382505278j),
              (0.6548006709636612 + 0.24161021847824682j),
              (-0.17695179744704848 + 0.05229473454831296j))
    PHONON = ((0.42231700714127585 - 0.5153097624208359j),
              (0.672205555471982 - 0.23828096787311528j),
              (0.34151492770488256 - 0.24774631015914667j),
              (-0.4752306928393779 - 0.4188144958704245j),
              (0.07417135323144229 - 0.005834546205727931j))

    def test_matches_recorded_values(self):
        grid = Grid1D(128, 0.5)
        rng = np.random.default_rng(3)
        a0 = 0.3 * (rng.normal(size=128) + 1j * rng.normal(size=128))
        b0 = 0.2 * (rng.normal(size=128) + 1j * rng.normal(size=128))
        disp = DispersionPair(DispersionSpec.linear(1.0),
                              DispersionSpec.polynomial([2.0, 0.1, 0.05]))
        couplings = CouplingSet.even(g_ppp=0.2, g_mmp=0.01, g_mpm=0.004 + 0.002j)
        bath = BathSpec(kappa=0.05, gamma_mech=0.08, n_th=0.3, sampling="wigner")
        traj = evolve(FieldState(grid, a0, b0), couplings, disp, bath=bath,
                      drive=EndfireDrive(alpha_in=0.4, inlet_cell=6), dt=0.05,
                      n_steps=200, absorber=make_absorber(grid, speed=1.0),
                      rng=np.random.default_rng(11))
        cells = list(self.CELLS)
        for got, want in ((traj.final_state.a[cells], self.PHOTON),
                          (traj.final_state.b[cells], self.PHONON)):
            want = np.asarray(want)
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), got


class TestPinnedZeroCouplingRuns:
    # Recorded from the stepper that called interaction_rhs and built a
    # FieldState holder per deposit: zero coupling set, seeds 21 and 22.

    def test_damped_thermal_phonons(self):
        # C6(a) shape: Wigner bulk noise on a damped, uncoupled phonon field
        want = np.asarray(((0.9964289619588684 + 0.5351781744309064j),
                           (0.8543734284476465 + 0.24345609790972067j),
                           (-0.5393995002587418 - 1.6081440526166202j),
                           (0.2636304268906715 - 0.826193737139229j),
                           (-2.115664734345462 - 0.5742474599204388j)))
        grid = Grid1D(32, 0.5)
        bath = BathSpec(gamma_mech=1.0, n_th=0.7, sampling="wigner")
        disp = DispersionPair(DispersionSpec.flat(0.0), DispersionSpec.flat(2.0))
        traj = evolve(FieldState.vacuum(grid), CouplingSet(), disp, bath=bath,
                      dt=0.02, n_steps=300, rng=np.random.default_rng(21))
        got = traj.final_state.b[[1, 8, 15, 22, 31]]
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), got
        assert not np.any(traj.final_state.a)

    def test_endfire_vacuum_deposit_with_absorber(self):
        # C6(b) shape: inlet vacuum deposited at the end-fire source, absorber
        want = np.asarray(((-0.06433293423801309 - 0.9129726823835853j),
                           (0.37445931318750336 - 0.5154423794223443j),
                           (-0.9445415504006859 - 0.36361141855824824j),
                           (-0.5169146282580721 + 0.12665812139853994j),
                           (-0.018144561170207324 + 0.012436594854934424j)))
        grid = Grid1D(128, 1.0)
        c = 2.0
        disp = DispersionPair(DispersionSpec.linear(c), DispersionSpec.flat(0.0))
        dt = 0.9 * 0.5 / (c * np.pi / grid.dx)
        stepper = Stepper(grid, CouplingSet(), disp, BathSpec(sampling="wigner"),
                          EndfireDrive(alpha_in=0.0, inlet_cell=4),
                          make_absorber(grid, speed=c, width_fraction=0.1), dt)
        state = FieldState.vacuum(grid)
        rng = np.random.default_rng(22)
        for i in range(400):
            stepper.step_inplace(state, rng=rng, step_index=i)
        got = state.a[[5, 20, 40, 55, 110]]
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), got
        assert not np.any(state.b)


class TestRightHandSide:
    # the stepper settles in its constructor which terms a stage evaluates;
    # every coupling class must still give interaction + damping (a zero
    # set takes the uncoupled substep instead, checked in test_step_oracle)
    SETS = {
        "pointwise": CouplingSet.simple(0.3),
        "even": CouplingSet.even(g_ppp=0.2, g_mmp=0.01, g_mpm=0.004 + 0.002j),
        "odd": CouplingSet.odd(g_ppm=0.05, g_mpp=0.01 - 0.02j, g_mmm=0.003),
        "mixed": CouplingSet(g_ppp=0.1, g_mmp=0.01, g_mpm=0.003j, g_ppm=0.02,
                             g_mpp=0.01 + 0.01j, g_mmm=0.002, sector="mixed",
                             broken_inversion_symmetry=True),
    }

    @pytest.mark.parametrize("name", sorted(SETS))
    def test_equals_interaction_plus_damping(self, grid64, rng, name):
        couplings = self.SETS[name]
        disp = DispersionPair(DispersionSpec.linear(1.0), DispersionSpec.flat(2.0))
        bath = BathSpec(kappa=0.3, gamma_mech=0.7)
        stepper = Stepper(grid64, couplings, disp, bath=bath, dt=1e-3)
        y = np.stack((random_band_limited(grid64, rng, amplitude=0.5),
                      random_band_limited(grid64, rng, amplitude=0.3)))
        t = 0.37
        da, db = interaction_rhs(FieldState(grid64, y[0], y[1], time=t), couplings)
        want_a = da - 0.5 * bath.kappa * y[0]
        want_b = db - 0.5 * bath.gamma_mech * y[1]
        got = stepper._derivative(y, t)
        assert np.array_equal(got[0], want_a)
        assert np.array_equal(got[1], want_b)


class TestEvolveBatch:
    # each row of the batch must replay its own evolve bit for bit
    BATCHES = {
        "even_complex_g_mpm": [
            CouplingSet.even(g_ppp=0.2, g_mmp=0.01, g_mpm=0.004 + 0.002j),
            CouplingSet.even(g_ppp=-0.1, g_mmp=0.02, g_mpm=-0.003j)],
        "odd_complex_g_mpp": [
            CouplingSet.odd(g_ppm=0.05, g_mpp=0.01 - 0.02j, g_mmm=0.003),
            CouplingSet.odd(g_ppm=-0.02, g_mpp=0.03j)],
        "mixed": [
            CouplingSet(g_ppp=0.1, g_mmp=0.01, g_mpm=0.003j, g_ppm=0.02,
                        g_mpp=0.01 + 0.01j, g_mmm=0.002, sector="mixed",
                        broken_inversion_symmetry=True),
            CouplingSet.even(g_mmp=0.015),
            CouplingSet.odd(g_mpp=0.02 - 0.01j)],
        "zero_in_one_row": [
            CouplingSet.even(g_ppp=0.2, g_mmp=0.01),
            CouplingSet.even(g_mpm=0.004 - 0.001j),
            CouplingSet.even(g_ppp=0.3, g_mmp=-0.02, g_mpm=0.002)],
        "pointwise": [CouplingSet.simple(0.3), CouplingSet.simple(-0.1)],
        "zero": [CouplingSet(), CouplingSet()],
    }

    @staticmethod
    def _setup():
        grid = Grid1D(128, 0.1)
        rng = np.random.default_rng(97)
        state = FieldState(grid, random_band_limited(grid, rng, amplitude=0.5),
                           random_band_limited(grid, rng, amplitude=0.3),
                           time=0.25)
        disp = DispersionPair(DispersionSpec.polynomial([0.0, 1.0, 0.05]),
                              DispersionSpec.linear(0.4, 2.0))
        return grid, state, disp

    @pytest.mark.parametrize("name", sorted(BATCHES))
    def test_rows_equal_their_own_evolve(self, name):
        sets = self.BATCHES[name]
        grid, state, disp = self._setup()
        got = evolve_batch(state, sets, disp, dt=2e-3, n_steps=60)
        assert len(got) == len(sets)
        for couplings, row in zip(sets, got):
            want = evolve(state, couplings, disp, dt=2e-3, n_steps=60).final_state
            assert np.array_equal(row.a, want.a)
            assert np.array_equal(row.b, want.b)
            assert row.time == want.time
        assert state.time == 0.25

    def test_field_state_takes_leading_batch_axes_of_one_shape(self):
        grid = Grid1D(16, 0.1)
        batch = FieldState(grid, np.ones((3, 16)), np.zeros((3, 16)))
        assert batch.a.shape == batch.b.shape == (3, 16)
        for a, b in ((np.zeros(16), np.zeros((1, 16))),
                     (np.zeros((3, 8)), np.zeros((3, 8))),
                     (np.zeros(()), np.zeros(()))):
            with pytest.raises(ValueError, match="one .*n_points. shape"):
                FieldState(grid, a, b)

    def test_zero_steps_echoes_initial_state(self):
        grid, state, disp = self._setup()
        got = evolve_batch(state, self.BATCHES["mixed"], disp, dt=None, n_steps=0)
        assert len(got) == 3
        for row in got:
            assert np.array_equal(row.a, state.a) and row.a is not state.a

    def test_stability_checked_per_row_naming_the_first_failure(self):
        grid, state, disp = self._setup()
        sets = [CouplingSet.even(g_mmp=0.01), CouplingSet.even(g_mmp=10.0),
                CouplingSet.even(g_mmp=20.0)]
        bounds = [stability_bound(state, c, disp, BathSpec()) for c in sets]
        dt = 0.5 * (bounds[0] + bounds[1])
        assert bounds[2] < bounds[1] < dt < bounds[0]
        with pytest.raises(ValueError, match="coupling set 1: dt") as err:
            evolve_batch(state, sets, disp, dt=dt, n_steps=3)
        assert "enforce_stability" not in str(err.value)
        got = evolve_batch(state, sets[:1], disp, dt=dt, n_steps=3)
        assert np.all(np.isfinite(got[0].a))

    def test_mixed_coupling_classes_rejected(self):
        # the pointwise evaluation rounds differently from the fused one,
        # so one batch cannot serve both classes bit for bit
        grid, state, disp = self._setup()
        for sets in ([CouplingSet.simple(0.3), CouplingSet.even(g_mmp=0.01)],
                     [CouplingSet(), CouplingSet.simple(0.3)],
                     [CouplingSet.even(g_mpm=0.01j), CouplingSet()]):
            with pytest.raises(ValueError, match="one class"):
                evolve_batch(state, sets, disp, dt=1e-3, n_steps=2)

    def test_wigner_sampling_and_drives_rejected(self):
        grid, state, disp = self._setup()
        sets = self.BATCHES["even_complex_g_mpm"]
        bath = BathSpec(gamma_mech=1.0, n_th=0.5, sampling="wigner")
        with pytest.raises(ValueError, match="Wigner"):
            Stepper(grid, sets, disp, bath=bath, dt=1e-3)
        with pytest.raises(ValueError, match="drive"):
            Stepper(grid, sets, disp, drive=EndfireDrive(alpha_in=1.0, inlet_cell=8),
                    dt=1e-3)

    def test_empty_batch_rejected(self):
        grid, state, disp = self._setup()
        with pytest.raises(ValueError, match="at least one"):
            evolve_batch(state, [], disp, dt=1e-3, n_steps=2)


class TestInputChecks:
    def test_wigner_sampling_without_rng_rejected(self, grid64):
        disp = DispersionPair(DispersionSpec.flat(0.0), DispersionSpec.flat(1.0))
        bath = BathSpec(gamma_mech=1.0, n_th=0.5, sampling="wigner")
        stepper = Stepper(grid64, CouplingSet(), disp, bath=bath, dt=1e-2)
        with pytest.raises(ValueError, match="rng"):
            stepper.step_inplace(FieldState.vacuum(grid64))

    @pytest.mark.parametrize("record_every", [0, -1])
    def test_non_positive_record_every_rejected(self, grid64, record_every):
        disp = DispersionPair(DispersionSpec.flat(0.0), DispersionSpec.flat(1.0))
        state = FieldState.vacuum(grid64)
        with pytest.raises(ValueError, match="record_every"):
            evolve(state, CouplingSet(), disp, dt=0.1, n_steps=3,
                   record_every=record_every)
        stepper = Stepper(grid64, CouplingSet(), disp, dt=0.1)
        with pytest.raises(ValueError, match="record_every"):
            stepper.run(state, 3, record_every=record_every)


    def test_negative_n_steps_rejected_by_run(self, grid64):
        disp = DispersionPair(DispersionSpec.flat(0.0), DispersionSpec.flat(1.0))
        stepper = Stepper(grid64, CouplingSet(), disp, dt=0.1)
        with pytest.raises(ValueError, match="n_steps"):
            stepper.run(FieldState.vacuum(grid64), -3)

    @pytest.mark.parametrize("record_every", [1.5, 2.0, True, "2", None])
    def test_record_every_must_be_a_positive_integer(self, grid64, record_every):
        disp = DispersionPair(DispersionSpec.flat(0.0), DispersionSpec.flat(1.0))
        state = FieldState.vacuum(grid64)
        stepper = Stepper(grid64, CouplingSet(), disp, dt=0.1)
        with pytest.raises(ValueError, match="record_every"):
            stepper.run(state, 5, record_every=record_every)
        with pytest.raises(ValueError, match="record_every"):
            evolve(state, CouplingSet(), disp, dt=0.1, n_steps=5,
                   record_every=record_every)

    def test_numpy_integer_record_every_accepted(self, grid64):
        disp = DispersionPair(DispersionSpec.flat(0.0), DispersionSpec.flat(1.0))
        stepper = Stepper(grid64, CouplingSet(), disp, dt=0.1)
        traj = stepper.run(FieldState.vacuum(grid64), 5,
                           observers={"n": observe_photon_number},
                           record_every=np.int64(2))
        assert len(traj.records["n"]) == 4  # start, steps 2, 4 and 5

    @pytest.mark.parametrize("periods", [1.5, 0.0, -1.0, np.nan])
    def test_comb_shorter_than_two_periods_rejected_before_stepping(
            self, monkeypatch, periods):
        # the comb analyses whole phonon periods of its run's second half
        def evolve_not_reached(*args, **kwargs):
            raise AssertionError("the comb stepped")

        monkeypatch.setattr(experiments, "evolve", evolve_not_reached)
        with pytest.raises(ValueError, match="periods"):
            experiments.run_forward_comb(periods=periods)

    @pytest.mark.parametrize("inputs, arg", [
        ({"q_mode": 0}, "q_mode"), ({"q_mode": 64}, "q_mode"),
        ({"n_orders": 50}, "n_orders"),
    ])
    def test_comb_inputs_out_of_range_rejected_before_stepping(
            self, monkeypatch, inputs, arg):
        # no grating, the Nyquist mode, and an order whose line search band
        # reaches the records' Nyquist frequency
        def evolve_not_reached(*args, **kwargs):
            raise AssertionError("the comb stepped")

        monkeypatch.setattr(experiments, "evolve", evolve_not_reached)
        with pytest.raises(ValueError, match=arg):
            experiments.run_forward_comb(**inputs)


class TestDivergenceReport:
    def test_nan_deposit_reports_finite_maxima(self, grid64):
        # an end-fire drive whose amplitude is NaN deposits NaN into the
        # cells of its kernel during the middle substep; the report must
        # name the largest finite |a|, not inf (a deposit needs a group
        # velocity, so the photon band is linear)
        disp = DispersionPair(DispersionSpec.linear(1.0), DispersionSpec.flat(0.0))
        stepper = Stepper(grid64, CouplingSet(), disp,
                          drive=EndfireDrive(alpha_in=lambda t: np.nan), dt=1e-2)
        state = FieldState(grid64, np.full(64, 2.0 + 0j), np.full(64, 0.5 + 0j))
        with pytest.raises(DivergenceError) as err:
            stepper.step_inplace(state)
        found = re.search(r"max\|a\| = (\S+), max\|b\| = (\S+);", str(err.value))
        assert float(found.group(1)) == pytest.approx(2.0, rel=1e-3)
        assert float(found.group(2)) == pytest.approx(0.5, rel=1e-3)

    def test_survives_pickling(self):
        # a worker process hands its error back to the parent by pickle
        err = DivergenceError(3, 1.0, 2.0, np.inf)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is DivergenceError
        assert str(back) == str(err)
        assert (back.step_index, back.time, back.max_a, back.max_b) \
            == (3, 1.0, 2.0, np.inf)


class TestStepStateSemantics:
    def test_diverging_step_leaves_the_state_as_it_was(self):
        grid = Grid1D(128, 0.1)
        disp = DispersionPair(DispersionSpec.linear(1.0), DispersionSpec.flat(2.0))
        a = np.full(128, 1.0 + 0j)
        a[5] = np.nan
        state = FieldState(grid, a, np.full(128, 0.5 + 0j), time=2.0)
        arrays = (state.a, state.b)
        before = [x.tobytes() for x in arrays]
        stepper = Stepper(grid, CouplingSet.even(g_ppp=0.2, g_mmp=0.01), disp,
                          drive=EndfireDrive(alpha_in=0.5, inlet_cell=8),
                          absorber=make_absorber(grid, speed=1.0), dt=1e-3)
        with pytest.raises(DivergenceError):
            stepper.step_inplace(state, step_index=3)
        assert state.a is arrays[0] and state.b is arrays[1]
        assert [x.tobytes() for x in (state.a, state.b)] == before
        assert state.time == 2.0


class CountingRng:
    """A generator that records the shape of every ``standard_normal`` call."""

    def __init__(self, seed):
        self._rng = trajectory_generator(seed, 3)
        self.calls = []

    def standard_normal(self, size=None):
        self.calls.append(size)
        return self._rng.standard_normal(size)


def stepwise(stepper, state, n_steps, rng, observers, record_every):
    """``run``'s steps and seams, each step drawing its own noise."""
    work = state.copy()
    records = {name: [obs(work)] for name, obs in observers.items()}
    whole = True
    for i in range(n_steps):
        last = i == n_steps - 1
        record = (i + 1) % record_every == 0 or last
        seam = last or record
        stepper.step_inplace(work, rng=rng, step_index=i, open_half=whole,
                             close_full=not seam)
        whole = seam
        if record:
            for name, obs in observers.items():
                records[name].append(obs(work))
    return records, work


def stacked(state):
    return np.stack((state.a, state.b))


THERMAL = BathSpec(kappa=0.3, gamma_mech=0.5, n_th=0.4, sampling="wigner")
INLET = EndfireDrive(alpha_in=0.6, inlet_cell=4)


def waveguide_block_case(n, bath, drive, absorber, n_steps, couplings=None,
                         dt=0.01):
    grid = Grid1D(n, 1.0)
    disp = DispersionPair(DispersionSpec.linear(2.0), DispersionSpec.flat(1.0))
    stepper = Stepper(grid, couplings or CouplingSet(), disp, bath=bath, drive=drive,
                      absorber=make_absorber(grid, speed=2.0) if absorber else None,
                      dt=dt)
    n_rows = (bath.kappa > 0) + (bath.gamma_mech > 0)
    return (stepper, FieldState.vacuum(grid), stacked, n_steps,
            2 * n * n_rows + 2 * (drive is not None))


# name: () -> (stepper, start, stack, steps, normals per step)
BLOCK_CASES = {
    "damped_rows": lambda: waveguide_block_case(32, THERMAL, None, False, 300),
    "inlet_and_damped_row": lambda: waveguide_block_case(
        128, BathSpec(gamma_mech=0.5, n_th=0.4, sampling="wigner"), INLET, True,
        200),
    "inlet_only": lambda: waveguide_block_case(
        128, BathSpec(sampling="wigner"), EndfireDrive(alpha_in=0.0, inlet_cell=4),
        True, 2 * (NOISE_BLOCK_VALUES // 2) + 5),
    "cli_shaped": lambda: waveguide_block_case(
        4096, THERMAL, INLET, True, 12, couplings=CouplingSet.even(g_ppp=0.05),
        dt=0.05),
}


class TestBlockDraw:
    """``run`` draws the Wigner noise of a block of steps in one call; the
    bytes, the records and the generator's state after the run are those
    of stepping one step at a time."""

    @pytest.mark.parametrize("record_every", [1, 7])
    @pytest.mark.parametrize("name", sorted(BLOCK_CASES))
    def test_run_equals_stepping_one_step_at_a_time(self, name, record_every):
        stepper, start, stack, n_steps, m = BLOCK_CASES[name]()
        assert stepper._step_values() == m
        per_call = max(1, NOISE_BLOCK_VALUES // m)
        assert n_steps > 2 * per_call  # at least two block boundaries
        if record_every == 7 and n_steps > 1000:
            record_every = 1000
        observers = {"y": lambda s: stack(s).copy()}
        drawn = CountingRng(29)
        traj = stepper.run(start, n_steps, observers=observers,
                           record_every=record_every, rng=drawn)
        calls = list(drawn.calls)
        serial = trajectory_generator(29, 3)
        records, final = stepwise(stepper, start, n_steps, serial, observers,
                                  record_every)
        assert len(traj.records["y"]) == len(records["y"])
        for got, want in zip(traj.records["y"], records["y"]):
            assert got.tobytes() == want.tobytes()
        assert stack(traj.final_state).tobytes() == stack(final).tobytes()
        assert traj.final_state.time == final.time
        assert (drawn.standard_normal(5).tobytes()
                == serial.standard_normal(5).tobytes())
        blocks = [(min(per_call, n_steps - s), m) for s in range(0, n_steps, per_call)]
        assert calls == blocks

    def test_zero_steps_draw_nothing(self):
        stepper, start, stack, _, _ = BLOCK_CASES["damped_rows"]()
        drawn = CountingRng(31)
        traj = stepper.run(start, 0, rng=drawn)
        assert drawn.calls == []
        assert stack(traj.final_state).tobytes() == stack(start).tobytes()

    @pytest.mark.parametrize("name", ["damped_rows", "inlet_only"])
    def test_wigner_run_without_rng_rejected(self, name):
        stepper, start, _, _, _ = BLOCK_CASES[name]()
        with pytest.raises(ValueError, match="Wigner sampling requires an rng"):
            stepper.run(start, 5)


def closed_bound(state, couplings, bath, band_rates=()):
    """0.5 / max of the interaction and loss rates and ``band_rates``."""
    u_scale = 2.0 * float(np.max(np.abs(state.b)))
    rate = couplings.magnitude_scale(np.pi / state.grid.dx) * u_scale
    top = max(rate, bath.kappa, bath.gamma_mech, *band_rates)
    return np.inf if top == 0.0 else 0.5 / top


def max_omega(dispersions, grid):
    return max(float(np.max(np.abs(band.values_on(grid))))
               for band in (dispersions.photon, dispersions.phonon))


def bound_with_bands(state, couplings, dispersions, bath):
    """The bound with the grid |omega| term for every run, as it stood
    before closed runs dropped it."""
    return closed_bound(state, couplings, bath, [max_omega(dispersions, state.grid)])


def max_velocity_over_dx(dispersions, grid):
    """max_k |v_g(k)| / dx of each polynomial band on the grid."""
    return [float(np.max(np.abs(np.polynomial.polynomial.polyval(
        grid.k_axis, np.polynomial.polynomial.polyder(band.coeffs))))) / grid.dx
        for band in (dispersions.photon, dispersions.phonon)]


def transport_rates(dispersions, grid):
    """max(max_k |v_g(k)| / (2 dx), |omega(0)|) of each polynomial band:
    its transport term, one cell per bound step, at least its detuning
    from the frame."""
    bands = (dispersions.photon, dispersions.phonon)
    return [max(0.5 * speed, abs(band.coeffs[0]))
            for speed, band in zip(max_velocity_over_dx(dispersions, grid), bands)]


@st.composite
def bound_cases(draw):
    grid = Grid1D(draw(st.sampled_from((128, 256))),
                  draw(st.floats(min_value=0.01, max_value=10.0)))
    coeffs = st.lists(st.floats(min_value=-10.0, max_value=10.0),
                      min_size=1, max_size=3)
    disp = DispersionPair(DispersionSpec.polynomial(draw(coeffs)),
                          DispersionSpec.polynomial(draw(coeffs)))
    g = st.floats(min_value=-1.0, max_value=1.0)
    if draw(st.booleans()):
        couplings = CouplingSet.even(g_ppp=draw(g), g_mmp=draw(g),
                                     g_mpm=complex(draw(g), draw(g)))
    else:
        couplings = CouplingSet.odd(g_ppm=draw(g), g_mpp=complex(draw(g), draw(g)),
                                    g_mmm=draw(g))
    rate = st.floats(min_value=0.0, max_value=10.0)
    bath = BathSpec(kappa=draw(rate), gamma_mech=draw(rate), n_th=0.0,
                    sampling=draw(st.sampled_from(("none", "wigner"))))
    amplitude = draw(st.floats(min_value=0.0, max_value=10.0))
    state = FieldState(grid, np.zeros(grid.n_points, complex),
                       amplitude * np.exp(1j * grid.k_axis[3] * grid.x_axis))
    drive = draw(st.sampled_from((None, EndfireDrive(alpha_in=1.0, inlet_cell=8))))
    absorber = make_absorber(grid, speed=1.0) if draw(st.booleans()) else None
    return state, couplings, disp, bath, drive, absorber


def cubic_case(A=1.0, dx=0.5):
    """An absorbing run whose photon band A T3(k / K) (K = pi / dx, T3 the
    Chebyshev cubic 4 s^3 - 3 s) the transport bound refuses below the
    band bound. No band of degree two or less is refused there: its
    max|v_g| / (2 dx) never exceeds its max|omega|."""
    grid = Grid1D(128, dx)
    K = np.pi / dx
    disp = DispersionPair(DispersionSpec.polynomial([0.0, -3.0 * A / K, 0.0,
                                                     4.0 * A / K ** 3]),
                          DispersionSpec.flat(0.0))
    return (FieldState.vacuum(grid), CouplingSet(), disp, BathSpec(), None,
            make_absorber(grid, speed=1.0))


class TestClosedRunBound:
    @settings(max_examples=300, deadline=None)
    @given(case=bound_cases(), offset=st.floats(min_value=-10.0, max_value=10.0))
    @example(case=cubic_case(), offset=1.0)
    def test_never_below_the_band_bound_and_equal_for_open_runs(self, case,
                                                                offset):
        # Wigner runs keep the band bound and closed runs
        # the rate bound, bit for bit; a noiseless run with an end-fire
        # drive or an absorber takes the transport bound (nu = 1), raised
        # to each band's detuning |omega(0)|, so a constant added to a band
        # moves it through that detuning only. A case the band bound admits
        # and the transport bound refuses has max|v_g| / (2 dx) > max|omega|.
        state, couplings, disp, bath, drive, absorber = case
        grid = state.grid
        bound = stability_bound(state, couplings, disp, bath, drive=drive,
                                absorber=absorber)
        before = bound_with_bands(state, couplings, disp, bath)
        if bath.is_stochastic:
            assert bound == before
        elif drive is None and absorber is None:
            assert bound == closed_bound(state, couplings, bath)
        else:
            assert bound == closed_bound(state, couplings, bath,
                                         transport_rates(disp, grid))
            shifted = DispersionPair(*(DispersionSpec.polynomial(
                (band.coeffs[0] + offset,) + band.coeffs[1:])
                for band in (disp.photon, disp.phonon)))
            assert stability_bound(state, couplings, shifted, bath, drive=drive,
                                   absorber=absorber) == closed_bound(
                state, couplings, bath, transport_rates(shifted, grid))
            if bound < before:
                assert 0.5 * max(max_velocity_over_dx(disp, grid)) \
                    > max_omega(disp, grid)

    def test_cubic_band_refused_between_the_two_bounds(self):
        # max|omega| = A but max|v_g| / (2 dx) = 9 A / (2 K dx) = 9 A / (2 pi),
        # so the transport bound is the lower one
        state, couplings, disp, bath, _, absorber = cubic_case(A=1.0)
        band = bound_with_bands(state, couplings, disp, bath)
        bound = stability_bound(state, couplings, disp, bath, absorber=absorber)
        assert band == pytest.approx(0.5)
        assert bound == pytest.approx(np.pi / 9.0)
        with pytest.raises(ValueError, match="stability bound"):
            evolve(state, couplings, disp, dt=0.5 * (bound + band), n_steps=1,
                   absorber=absorber)

    def test_cw_drive_into_a_detuned_flat_phonon_at_the_bound(self):
        # The drive fixes the frame, so a flat phonon at Omega0 is detuned
        # by Omega0 from its force g |a|^2. At DT_MARGIN x the bound Strang's
        # forced response, (Omega0 dt / 2) / sin(Omega0 dt / 2) times the
        # exact one, is within 1% of i g |a|^2 / (i Omega0 + Gamma / 2);
        # the transport term alone would step at Omega0 dt = 11.
        grid = Grid1D(128, 0.5)
        v, Omega0, Gamma, g = 2.0, 50.0, 2.0, 0.05
        disp = DispersionPair(DispersionSpec.linear(v), DispersionSpec.flat(Omega0))
        couplings = CouplingSet.even(g_ppp=g)
        bath = BathSpec(gamma_mech=Gamma)
        drive = EndfireDrive(alpha_in=1.0, inlet_cell=4)
        absorber = make_absorber(grid, speed=v)
        state = FieldState.vacuum(grid)
        dt = DT_MARGIN * stability_bound(state, couplings, disp, bath,
                                         drive=drive, absorber=absorber)
        assert Omega0 * dt == pytest.approx(DT_MARGIN * 0.5)
        settle = grid.length / v + 16.0 / Gamma
        final = evolve(state, couplings, disp, bath=bath, drive=drive,
                       absorber=absorber, dt=dt,
                       n_steps=int(np.ceil(settle / dt))).final_state
        cells = slice(16, 112)
        beta = 1j * g * np.abs(final.a[cells]) ** 2 / (1j * Omega0 + 0.5 * Gamma)
        assert np.max(np.abs(final.b[cells] - beta)) < 1e-2 * np.max(np.abs(beta))

    def test_closed_run_above_the_band_bound_converges(self):
        # C7's closed configuration, stepped at 0.9 x its closed bound, 2.5x
        # the band bound: finite, conserving and second order
        grid = Grid1D(64, 0.1)
        rng = np.random.default_rng(42)
        couplings = CouplingSet.even(g_ppp=0.3, g_mmp=0.02, g_mpm=0.01 + 0.005j)
        disp = DispersionPair(DispersionSpec.polynomial([0.0, 1.0, 0.05]),
                              DispersionSpec.flat(2.0))
        a0 = random_band_limited(grid, rng, amplitude=0.5)
        b0 = random_band_limited(grid, rng, amplitude=0.3)
        initial = FieldState(grid, a0, b0)
        bound = stability_bound(initial, couplings, disp, BathSpec())
        assert bound > 2.0 * bound_with_bands(initial, couplings, disp, BathSpec())
        dt = 0.9 * bound
        traj = evolve(initial, couplings, disp, dt=dt, n_steps=int(2.0 / dt),
                      observers={"n": observe_photon_number}, record_every=10)
        n = np.asarray(traj.records["n"])
        assert np.all(np.isfinite(traj.final_state.a))
        assert np.max(np.abs(n - n[0])) / n[0] < 1e-8

        T = 0.4
        steps = int(np.ceil(T / dt))
        assert T / steps > bound_with_bands(initial, couplings, disp, BathSpec())

        def final(n_steps):
            return evolve(initial, couplings, disp, dt=T / n_steps,
                          n_steps=n_steps).final_state.a

        ref = final(64 * steps)
        errs = [np.linalg.norm(final(m) - ref) for m in (steps, 2 * steps, 4 * steps)]
        r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
        assert 3.2 < r1 < 4.8 and 3.2 < r2 < 4.8, (r1, r2)
