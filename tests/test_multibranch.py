"""Two-branch envelope dynamics: swap oscillation, spatial strong-coupling
profile against the matrix exponential, Manley-Rowe flux bookkeeping, the
phase-matching rule, the full channel set of frames at rest, a pinned
mixed run and the divergence report.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

from cwom import DispersionSpec, Grid1D, experiments
from cwom.brillouin import brillouin_gain
from cwom.constants import HBAR
from cwom.dynamics import DivergenceError, EndfireDrive, make_absorber
from cwom.dynamics.stepper import dt_bound, transport_rate
from cwom.multibranch import (BranchConfig, MultiBranchState, MultiBranchStepper,
                              MultiBranchSystem, PhononConfig)
from cwom.strongcoupling import classify


def swap_system(grid, g, Omega, v2=0.0, vb=0.0, kappa2=0.0, Gamma=0.0,
                frozen_pump=False, drive2=None, absorber=None):
    """Pump (branch 0) + signal (branch 1) + phonon in swap matching:
    signal sits Omega above the pump, so signal creation absorbs a phonon.
    Only the phase-matched channels are built."""
    branches = (
        BranchConfig(dispersion=DispersionSpec.flat(0.0),
                     frame_omega=0.0, frozen=frozen_pump),
        BranchConfig(dispersion=DispersionSpec.linear(v2) if v2 else
                     DispersionSpec.flat(0.0),
                     frame_omega=Omega, kappa=kappa2, drive=drive2),
    )
    phonon = PhononConfig(
        dispersion=DispersionSpec.linear(vb) if vb else DispersionSpec.flat(0.0),
        frame_omega=Omega, gamma=Gamma)
    g0 = np.array([[0.0, np.conj(g)], [g, 0.0]])
    return MultiBranchSystem(grid, branches, phonon, g0, absorber=absorber)


class TestSwapOscillation:
    def test_uniform_swap_matches_two_level_solution(self):
        # Full nonlinear run at small signal amplitude against the closed
        # 2x2 solution: a2(t) = a20 cos(|g~| t), b(t) = i e^{-i phase} sin.
        grid = Grid1D(16, 1.0)
        g = 1e-3 * np.exp(0.6j)
        A1 = 10.0
        a20 = 0.01 * A1
        system = swap_system(grid, g, Omega=4.0)
        state = MultiBranchState(grid,
                                 [np.full(16, A1, complex),
                                  np.full(16, a20, complex)],
                                 np.zeros(16, complex))
        g_eff = g * A1
        period = 2 * np.pi / abs(g_eff)
        dt = 1e-3 / abs(g_eff)
        n_steps = int(period / dt)
        stepper = MultiBranchStepper(system, dt)
        errs = []
        for i in range(n_steps):
            stepper.step_inplace(state)
            t = state.time
            a2_ref = a20 * np.cos(abs(g_eff) * t)
            b_ref = 1j * (np.conj(g_eff) / abs(g_eff)) * a20 * np.sin(abs(g_eff) * t)
            if i % 500 == 0 or i == n_steps - 1:
                errs.append(np.linalg.norm(state.fields[1] - a2_ref)
                            + np.linalg.norm(state.b - b_ref))
        scale = np.sqrt(grid.n_points) * a20
        assert max(errs) < 1e-3 * scale, max(errs) / scale

    def test_pump_depletion_manley_rowe_uniform(self):
        # closed uniform swap: quanta move pump <-> (signal, phonon) with
        # N_pump + N_signal and N_signal - N_phonon both conserved
        grid = Grid1D(16, 1.0)
        g = 2e-3
        system = swap_system(grid, g, Omega=3.0)
        A1, a20 = 5.0, 1.0
        state = MultiBranchState(grid,
                                 [np.full(16, A1, complex),
                                  np.full(16, a20, complex)],
                                 np.zeros(16, complex))
        n0 = [state.photon_number(0), state.photon_number(1), state.phonon_number()]
        dt = 0.05 / (g * A1)
        stepper = MultiBranchStepper(system, dt)
        for i in range(400):
            stepper.step_inplace(state)
        n1 = [state.photon_number(0), state.photon_number(1), state.phonon_number()]
        assert abs(n1[2] - n0[2]) > 0.05 * n0[1]  # phonons actually produced
        total0, total1 = n0[0] + n0[1], n1[0] + n1[1]
        assert abs(total1 - total0) < 1e-8 * total0
        # swap triad: each conversion trades one signal photon for one
        # pump photon plus one phonon, so N_signal + N_phonon is invariant
        assert abs((n1[1] + n1[2]) - (n0[1] + n0[2])) < 1e-8 * total0


class TestSpatialStrongCoupling:
    def test_envelope_profile_matches_matrix_exponential(self):
        # cw injection of the signal over a frozen uniform pump: the steady
        # (a2(x), b(x)) envelope must follow phi(x) = expm(M (x-x0)) phi(x0)
        # with M from the strong-coupling module, over five decay lengths.
        grid = Grid1D(512, 1.0)
        v2, vb = 2.0, 1.0
        kappa2, Gamma = 0.04, 0.03      # gamma2 = 0.02, gamma_b = 0.03
        A1 = 1.0
        g0c = 0.0707
        Omega = 5.0
        drive2 = EndfireDrive(alpha_in=0.5, inlet_cell=8)
        absorber = make_absorber(grid, speed=v2, width_fraction=0.1, opacity=10.0)
        system = swap_system(grid, g0c, Omega, v2=v2, vb=vb, kappa2=kappa2,
                             Gamma=Gamma, frozen_pump=True, drive2=drive2,
                             absorber=absorber)
        state = MultiBranchState(grid,
                                 [np.full(512, A1, complex),
                                  np.zeros(512, complex)],
                                 np.zeros(512, complex))
        dt = 0.05
        n_steps = int(2.6 * grid.length / (min(v2, vb) * dt))
        stepper = MultiBranchStepper(system, dt)
        for i in range(n_steps):
            stepper.step_inplace(state)

        g12 = g0c * A1
        gamma2, gamma_b = kappa2 / v2, Gamma / vb
        report = classify(g12, v2, vb, gamma2, gamma_b)
        M = report.M
        assert report.D < 0  # oscillatory regime by construction
        x0, x1 = 40, 280
        cells = np.arange(x0, x1)
        phi0 = np.array([state.fields[1][x0], state.b[x0]])
        vals, vecs = np.linalg.eig(M)
        c = np.linalg.solve(vecs, phi0)
        xs = (cells - x0) * grid.dx
        pred = (vecs @ (c[:, None] * np.exp(vals[:, None] * xs[None, :])))
        sim = np.vstack([state.fields[1][cells], state.b[cells]])
        err = np.linalg.norm(sim - pred, axis=0)
        mag = np.linalg.norm(pred, axis=0)
        # span covers five decay lengths of gamma_bar = (gamma2+gamma_b)/2
        gamma_bar = 0.5 * (gamma2 + gamma_b)
        assert (x1 - x0) * grid.dx >= 5.0 / gamma_bar
        assert np.max(err / mag) < 1e-3, np.max(err / mag)


class TestGainConfigManleyRowe:
    def test_flux_bookkeeping_across_gain_region(self):
        # amplifying (Stokes) configuration without optical loss: photon
        # flux gained by the signal = photon flux lost by the pump = phonon
        # emission, integrated over the region.
        grid = Grid1D(512, 1.0)
        v = 2.0
        Gamma = 0.8
        vb = 0.05
        g0c = 8.7e-3
        Omega = 5.0
        drive1 = EndfireDrive(alpha_in=4.0, inlet_cell=8)
        drive2 = EndfireDrive(alpha_in=1.2, inlet_cell=8)
        absorber = make_absorber(grid, speed=v, width_fraction=0.1, opacity=10.0)
        branches = (
            BranchConfig(dispersion=DispersionSpec.linear(v),
                         frame_omega=0.0, drive=drive1),
            BranchConfig(dispersion=DispersionSpec.linear(v),
                         frame_omega=-Omega, kappa=0.0, drive=drive2),
        )
        phonon = PhononConfig(dispersion=DispersionSpec.linear(vb),
                              frame_omega=Omega, gamma=Gamma)
        g0 = np.array([[0.0, g0c], [g0c, 0.0]])
        system = MultiBranchSystem(grid, branches, phonon, g0, absorber=absorber)
        state = MultiBranchState.vacuum(grid, 2)
        dt = 0.05
        n_steps = int(3.0 * grid.length / (v * dt))
        stepper = MultiBranchStepper(system, dt)
        for i in range(n_steps):
            stepper.step_inplace(state)

        x0, x1 = 60, 400
        flux1 = v * np.abs(state.fields[0]) ** 2
        flux2 = v * np.abs(state.fields[1]) ** 2
        gained = flux2[x1] - flux2[x0]
        lost = flux1[x0] - flux1[x1]
        b2 = np.abs(state.b) ** 2
        emitted = (Gamma * np.sum(b2[x0:x1]) * grid.dx
                   + vb * (b2[x1] - b2[x0]))
        assert gained > 0.1 * flux2[x0]  # real amplification happened
        assert abs(lost - gained) < 0.01 * gained, (lost, gained)
        assert abs(emitted - gained) < 0.01 * gained, (emitted, gained)


class TestSystemValidation:
    def test_non_hermitian_matrix_rejected(self, grid64):
        branches = (BranchConfig(DispersionSpec.flat(0.0)),
                    BranchConfig(DispersionSpec.flat(0.0)))
        phonon = PhononConfig(DispersionSpec.flat(0.0))
        with pytest.raises(ValueError):
            MultiBranchSystem(grid64, branches, phonon,
                              [[0.0, 1.0], [2.0, 0.0]])

    @pytest.mark.parametrize("make", [
        lambda: BranchConfig(DispersionSpec.flat(0.0), kappa=-0.5),
        lambda: PhononConfig(DispersionSpec.flat(0.0), gamma=-1.0),
    ], ids=["kappa", "gamma"])
    def test_negative_rates_rejected(self, make):
        # a negative rate would pump the fields instead of damping them
        with pytest.raises(ValueError, match="non-negative"):
            make()


def frame_pair(grid, signal_frame, phonon_frame):
    """Pump at rest, signal and phonon at the frame frequencies given,
    coupled both ways."""
    branches = (BranchConfig(DispersionSpec.flat(0.0)),
                BranchConfig(DispersionSpec.flat(0.0),
                             frame_omega=signal_frame))
    phonon = PhononConfig(DispersionSpec.flat(0.0), frame_omega=phonon_frame)
    return MultiBranchSystem(grid, branches, phonon, [[0.0, 1.0], [1.0, 0.0]])


def channel_table(system):
    return ([(ch.j, ch.l, ch.conjugate_b) for ch in system.photon_channels],
            [(ch.j, ch.l) for ch in system.phonon_channels])


class TestPhaseMatching:
    # (j, l, conjugate_b) photon channels and (j, l) phonon channels
    @pytest.mark.parametrize("signal, phonon, want", [
        # C2's frames (run_two_branch_gain, Omega = 40 Gamma at Gamma = 0.5):
        # the Stokes signal grows with b*, the phonon with conj(a_s) a_p
        (-20.0, 20.0, ([(0, 1, False), (1, 0, True)], [(1, 0)])),
        # swap matching: signal creation absorbs a phonon
        (2.0, 2.0, ([(0, 1, True), (1, 0, False)], [(0, 1)])),
    ], ids=["c2", "swap"])
    def test_matched_frames_keep_only_resonant_channels(self, grid64, signal,
                                                        phonon, want):
        assert channel_table(frame_pair(grid64, signal, phonon)) == want

    @pytest.mark.parametrize("phonon", [2.0 + 1e-6], ids=["W"])
    def test_mismatched_frames_keep_no_channel(self, grid64, phonon):
        assert channel_table(frame_pair(grid64, 2.0, phonon)) == ([], [])


def bound_system(grid, drive=None, absorber=None):
    """A frozen fast pump (its band counts for nothing), a damped linear
    signal and a damped flat phonon at 0.5."""
    branches = (BranchConfig(DispersionSpec.linear(3.0), frozen=True),
                BranchConfig(DispersionSpec.linear(2.0), kappa=0.4,
                             drive=drive))
    phonon = PhononConfig(DispersionSpec.flat(0.5), gamma=0.2)
    return MultiBranchSystem(grid, branches, phonon, [[0.0, 0.1], [0.1, 0.0]],
                             absorber=absorber)


class TestStepperDtBound:
    # 0.5 / max of the loss rates (0.4, 0.2) and one term per live band:
    # none when closed; max(|v| / (2 dx), |omega(0)|) = 1 and 0.5 with a
    # deposit or an absorber
    @pytest.mark.parametrize("drive, absorber, bound", [
        (False, False, 1.25),
        (True, False, 0.5),
        (False, True, 0.5),
    ], ids=["closed", "deposit", "absorber"])
    def test_dt_above_the_bound_rejected(self, drive, absorber, bound):
        grid = Grid1D(128, 1.0)
        system = bound_system(
            grid, EndfireDrive(alpha_in=0.5, inlet_cell=8) if drive else None,
            make_absorber(grid, speed=2.0) if absorber else None)
        MultiBranchStepper(system, 0.99 * bound)
        with pytest.raises(ValueError, match=re.escape(f"bound {bound:.3e} s")):
            MultiBranchStepper(system, 1.01 * bound)


class TestBoundRates:
    # bound_system: the frozen pump (a fast band) is left out; the signal's
    # kappa 0.4 and the phonon's gamma 0.2 come first, then one term per
    # live band
    def test_closed_system_adds_no_band_term(self):
        assert bound_system(Grid1D(128, 1.0)).bound_rates() == [0.4, 0.2]

    @pytest.mark.parametrize("drive, absorber", [(True, False), (False, True)],
                             ids=["drive", "absorber"])
    def test_drive_or_absorber_adds_transport(self, drive, absorber):
        # max(|v| / (2 dx), |omega(0)|): 1 for the signal, 0.5 for the
        # flat phonon
        grid = Grid1D(128, 1.0)
        system = bound_system(
            grid, drive=EndfireDrive(alpha_in=0.5, inlet_cell=8) if drive else None,
            absorber=make_absorber(grid, speed=2.0) if absorber else None)
        assert system.bound_rates() == [0.4, 0.2, 1.0, 0.5]

    def test_frozen_branch_is_left_out(self):
        # a frozen branch's loss and band count for nothing, with or
        # without its flag: only the live rows are stepped
        grid = Grid1D(128, 1.0)
        phonon = PhononConfig(DispersionSpec.flat(0.5), gamma=0.2)
        signal = BranchConfig(DispersionSpec.linear(2.0), kappa=0.4)
        pump = BranchConfig(DispersionSpec.linear(30.0), kappa=9.0,
                            drive=EndfireDrive(alpha_in=0.5, inlet_cell=8))
        frozen, live = (MultiBranchSystem(grid, (replace(pump, frozen=flag), signal),
                                          phonon, [[0.0, 0.1], [0.1, 0.0]])
                        for flag in (True, False))
        assert frozen.bound_rates() == [0.4, 0.2, 1.0, 0.5]
        assert live.bound_rates() == [9.0, 0.4, 0.2, 15.0, 1.0, 0.5]


class TestWorkflowDt:
    """The dt each multi-branch workflow hands its stepper is, bit for
    bit, the one of the hand-written rates it used before the system
    owned them."""

    class Stop(Exception):
        pass

    def captured(self, monkeypatch, run, **kwargs):
        seen = []

        def stepper(system, dt):
            seen.append((system, dt))
            raise self.Stop

        monkeypatch.setattr(experiments, "MultiBranchStepper", stepper)
        with pytest.raises(self.Stop):
            run(**kwargs)
        return seen[0]

    @pytest.mark.parametrize("power, direction, Gamma", [
        (0.05, +1, 2 * np.pi * 3e8), (5.0, -1, 2 * np.pi * 9e8)],
        ids=["forward", "backward"])
    def test_two_branch_gain(self, monkeypatch, power, direction, Gamma):
        g0_12, v, vb, omega1 = 1e4, 7e7, 1e3, 2 * np.pi * 193.5e12
        kappa2 = 0.15 * brillouin_gain(g0_12, v, v, Gamma, omega1) * power * v
        system, dt = self.captured(
            monkeypatch, experiments.run_two_branch_gain, g0_12=g0_12, v1=v,
            v2=v, vb=vb, Gamma=Gamma, kappa2=kappa2, omega1=omega1,
            pump_power_W=power, direction=direction)
        alpha1_in = np.sqrt(power / (HBAR * omega1))
        grid = system.grid
        assert dt == experiments.DT_MARGIN * dt_bound(
            [kappa2, Gamma, abs(g0_12) * abs(alpha1_in) / np.sqrt(v)]
            + [transport_rate(b.dispersion, grid)
               for b in (*system.branches, system.phonon)])

    def test_swap_profile(self, monkeypatch):
        g12, v2, vb, gamma2, gamma_b = 0.0707, 2.0, 1.0, 0.02, 0.03
        system, dt = self.captured(
            monkeypatch, experiments.run_swap_profile, g12=g12, v2=v2, vb=vb,
            gamma2=gamma2, gamma_b=gamma_b)
        grid = system.grid
        assert dt == experiments.DT_MARGIN * dt_bound(
            [gamma2 * v2, gamma_b * vb, abs(g12)]
            + [transport_rate(b.dispersion, grid)
               for b in (system.branches[1], system.phonon)])


def mixed_system():
    """Frozen pump, driven damped signal, damped phonon, absorber."""
    grid = Grid1D(128, 1.0)
    branches = (
        BranchConfig(DispersionSpec.flat(0.0), frozen=True),
        BranchConfig(DispersionSpec.linear(2.0), frame_omega=5.0,
                     kappa=0.04, drive=EndfireDrive(alpha_in=0.5, inlet_cell=8)),
    )
    phonon = PhononConfig(DispersionSpec.linear(1.0), frame_omega=5.0, gamma=0.03)
    g0 = np.array([[0.0, 0.07], [0.07, 0.0]])
    absorber = make_absorber(grid, speed=2.0, width_fraction=0.1, opacity=10.0)
    system = MultiBranchSystem(grid, branches, phonon, g0, absorber=absorber)
    state = MultiBranchState(grid, [np.full(128, 1.0 + 0.5j),
                                    np.zeros(128, complex)],
                             np.zeros(128, complex))
    return system, state


def run_steps(system, state, dt, n_steps):
    work = state.copy()
    stepper = MultiBranchStepper(system, dt)
    for i in range(n_steps):
        stepper.step_inplace(work, step_index=i)
    return work


class TestFullChannelSet:
    def test_closed_photon_number_drift_is_high_order(self):
        # With every frame at rest every channel is phase matched, so the
        # full set is kept: the diagonal couplings and both the b and b*
        # channels of each pair. The photon coupling matrix is Hermitian
        # for any b, so sum_j N_j is conserved by the exact flow; the split
        # step's drift must be small and shrink fast.
        grid = Grid1D(32, 1.0)
        dk = grid.dk
        branches = (BranchConfig(DispersionSpec.linear(1.0)),
                    BranchConfig(DispersionSpec.linear(-0.5)))
        phonon = PhononConfig(DispersionSpec.flat(0.3))
        g = 0.3 * np.exp(0.6j)
        g0 = np.array([[0.2, g], [np.conj(g), -0.1]])
        system = MultiBranchSystem(grid, branches, phonon, g0)
        assert len(system.photon_channels) == 8
        assert len(system.phonon_channels) == 4
        x = grid.x_axis
        state = MultiBranchState(
            grid, [np.exp(1j * dk * x) * (1 + 0.3 * np.cos(dk * x)),
                   0.7 * np.exp(-2j * dk * x) + 0.2],
            0.8 * np.exp(3j * dk * x) + 0.4)

        def drift(dt):
            final = run_steps(system, state, dt, int(round(10.0 / dt)))
            n0 = state.photon_number(0) + state.photon_number(1)
            return abs(final.photon_number(0) + final.photon_number(1) - n0) / n0

        coarse, fine = drift(0.02), drift(0.01)
        assert coarse < 1e-8, coarse
        assert fine * 8.0 < coarse, (coarse, fine)


class TestPinnedMixedRun:
    # Recorded from the stepper as it stood while the system still took
    # Wigner sampling and a thermal phonon occupation, both at their
    # defaults here: frozen pump, end-fire deposit, absorber, 200 steps.
    CELLS = (6, 12, 20, 60, 120)
    SIGNAL = ((0.010320523440500731 - 3.923079345526775e-08j),
              (0.33113650087243407 - 4.311875146863805e-08j),
              (0.2573579949886526 + 9.958838570363738e-09j),
              (8.67953620126018e-08 + 3.41184794097255e-08j),
              (9.694139122584717e-07 - 1.1821546554201553e-08j))
    PHONON = ((6.237915924509497e-05 + 0.0001247701970167707j),
              (0.04591074531289947 + 0.09182149967733577j),
              (0.07963103593450885 + 0.1592620773921525j),
              (-1.853580719824988e-09 + 1.1948713489237616e-09j),
              (1.0287340085329483e-09 + 9.378143102932852e-10j))

    def test_matches_recorded_values(self):
        system, state = mixed_system()
        final = run_steps(system, state, 0.05, 200)
        cells = list(self.CELLS)
        for got, want in ((final.fields[1][cells], self.SIGNAL),
                          (final.b[cells], self.PHONON)):
            want = np.asarray(want)
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), got


class TestDivergenceReport:
    def test_nan_reports_finite_maxima(self):
        grid = Grid1D(16, 1.0)
        system = swap_system(grid, 1e-3, Omega=4.0, frozen_pump=True)
        pump = np.full(16, 10.0, complex)
        pump[3] = np.nan
        state = MultiBranchState(grid, [pump, np.full(16, 1.0, complex)],
                                 np.zeros(16, complex))
        with pytest.raises(DivergenceError) as err:
            MultiBranchStepper(system, dt=0.01).run(state, n_steps=5)
        assert err.value.step_index == 0
        found = re.search(r"max\|a\| = (\S+), max\|b\| = (\S+);", str(err.value))
        max_a, max_b = float(found.group(1)), float(found.group(2))
        assert max_a == pytest.approx(10.0, rel=1e-3)
        assert np.isfinite(max_b)


class TestStackedState:
    def test_fields_and_phonon_are_views_of_one_array(self):
        grid = Grid1D(16, 1.0)
        state = MultiBranchState(grid, [np.full(16, 1.0 + 0j), np.zeros(16)],
                                 np.full(16, 0.5j))
        assert state.rows.shape == (3, 16)
        for row, field in zip(state.rows, list(state.fields) + [state.b]):
            assert np.shares_memory(field, state.rows)
            assert np.array_equal(field, row)
        state.fields[1][3] = 2.0
        state.b[4] = -1.0
        assert state.rows[1, 3] == 2.0 and state.rows[2, 4] == -1.0
        system = swap_system(grid, 0.1, Omega=4.0)
        MultiBranchStepper(system, 1e-2).step_inplace(state)
        for field in list(state.fields) + [state.b]:
            assert np.shares_memory(field, state.rows)

    def test_copy_is_deep(self):
        grid = Grid1D(16, 1.0)
        state = MultiBranchState(grid, [np.ones(16), np.zeros(16)], np.ones(16),
                                 time=0.5)
        twin = state.copy()
        assert not np.shares_memory(twin.rows, state.rows)
        assert twin.time == 0.5
        twin.fields[0][:] = 7.0
        twin.b[:] = 3.0
        assert np.all(state.fields[0] == 1.0) and np.all(state.b == 1.0)

    def test_constructor_validation_kept(self):
        grid = Grid1D(16, 1.0)
        with pytest.raises(ValueError, match="branch field length"):
            MultiBranchState(grid, [np.zeros(8)], np.zeros(16))
        with pytest.raises(ValueError, match="phonon field length"):
            MultiBranchState(grid, [np.zeros(16)], np.zeros(8))

    def test_diverging_step_leaves_the_state_as_it_was(self):
        grid = Grid1D(16, 1.0)
        system = swap_system(grid, 1e-3, Omega=4.0)
        pump = np.full(16, 10.0, complex)
        pump[3] = np.nan
        state = MultiBranchState(grid, [pump, np.full(16, 1.0, complex)],
                                 np.full(16, 0.2, complex), time=1.5)
        rows, before = state.rows, state.rows.tobytes()
        with pytest.raises(DivergenceError):
            MultiBranchStepper(system, 1e-2).step_inplace(state, step_index=4)
        assert state.rows is rows and state.rows.tobytes() == before
        assert state.time == 1.5
