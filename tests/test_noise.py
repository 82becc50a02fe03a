"""Langevin noise sampling statistics and fluctuation-dissipation checks."""

import numpy as np
import pytest

from cwom import CouplingSet, DispersionSpec, FieldState, Grid1D
from cwom.constants import HBAR, K_B
from cwom.core.spectral import mode_amplitudes
from cwom.dynamics import (BathSpec, DispersionPair, evolve, run_ensemble,
                           sample_noise_field, trajectory_generator)
from cwom.dynamics.bath import draw_noise_field, noise_scales


class TestBathSpec:
    def test_temperature_converts_to_occupation(self):
        omega = 2 * np.pi * 5e9
        T = 0.25
        bath = BathSpec(gamma_mech=1.0, temperature=T, omega_ref=omega)
        expected = 1.0 / np.expm1(HBAR * omega / (K_B * T))
        assert np.isclose(bath.n_th, expected, rtol=1e-12)

    def test_temperature_and_n_th_mutually_exclusive(self):
        with pytest.raises(ValueError):
            BathSpec(temperature=1.0, omega_ref=1e9, n_th=2.0)

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            BathSpec(kappa=-1.0)


class TestSampleNoiseField:
    def test_zero_mean(self, grid64):
        rng = np.random.default_rng(11)
        n_samples = 10_000
        dt = 1e-3
        acc = np.zeros(grid64.n_points, dtype=complex)
        for _ in range(n_samples):
            acc += sample_noise_field(grid64, 2.0, 0.3, dt, rng)
        mean = acc / n_samples
        sigma_mean = np.sqrt(2.0 * (0.3 + 0.5) / (grid64.dx * dt) / n_samples)
        assert np.all(np.abs(mean) < 4.0 * sigma_mean)

    def test_cell_variance_and_propagated_increment(self, grid64):
        # Closed-form one-step Ornstein-Uhlenbeck oracle: an Euler update
        # field += dt * noise adds variance dt^2 * rate * (n+1/2)/(dx dt).
        rng = np.random.default_rng(12)
        rate, occ, dt = 3.0, 1.2, 2e-3
        n_samples = 6000
        cell = 17
        vals = np.array([sample_noise_field(grid64, rate, occ, dt, rng)[cell]
                         for _ in range(n_samples)])
        increments = dt * vals
        target = dt * dt * rate * (occ + 0.5) / (grid64.dx * dt)
        measured = np.mean(np.abs(increments) ** 2)
        # |xi|^2 of a complex Gaussian is exponential: std = mean
        tol = 3.0 * target / np.sqrt(n_samples)
        assert abs(measured - target) < tol

    def test_distinct_cells_uncorrelated(self, grid64):
        rng = np.random.default_rng(13)
        n_samples = 6000
        xs = np.empty(n_samples, dtype=complex)
        ys = np.empty(n_samples, dtype=complex)
        for i in range(n_samples):
            f = sample_noise_field(grid64, 1.0, 0.0, 1e-3, rng)
            xs[i], ys[i] = f[3], f[40]
        cov = np.mean(xs * np.conj(ys))
        var = np.mean(np.abs(xs) ** 2)
        assert abs(cov) < 3.0 * var / np.sqrt(n_samples)

    @pytest.mark.parametrize("n", [32, 128, 4096])
    def test_draws_match_the_two_draw_expression(self, n):
        # the stream and rounding of the complex form, which pinned noisy
        # replays depend on
        grid = Grid1D(n, 0.37)
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        for i in range(60):
            rate, occupation, dt = 0.3 + i, 0.25 * i, 0.013
            sigma = np.sqrt((occupation + 0.5) / (2.0 * grid.dx * dt))
            expected = np.sqrt(rate) * (sigma * (ref.standard_normal(n)
                                                 + 1j * ref.standard_normal(n)))
            drawn = sample_noise_field(grid, rate, occupation, dt, rng)
            assert drawn.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [32, 128, 4096])
    def test_settled_scales_draw_the_same_bytes(self, n):
        # the integrators settle the scales once and draw every step
        grid = Grid1D(n, 0.37)
        rng, ref = np.random.default_rng(6), np.random.default_rng(6)
        for rate, occupation, dt in ((0.3, 0.0, 0.013), (2.0, 0.8, 1e-3),
                                     (7.5, 3.25, 0.02)):
            sigma, root_rate = noise_scales(grid.dx, rate, occupation, dt)
            for _ in range(20):
                drawn = draw_noise_field(rng.standard_normal((2, n)), sigma,
                                         root_rate)
                want = sample_noise_field(grid, rate, occupation, dt, ref)
                assert drawn.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rate, occupation, dt", [
        (-1.0, 0.0, 1e-3), (1.0, -0.1, 1e-3), (1.0, 0.0, 0.0), (1.0, 0.0, -1e-3)])
    def test_scales_reject_invalid_channels(self, grid64, rate, occupation, dt):
        with pytest.raises(ValueError):
            noise_scales(grid64.dx, rate, occupation, dt)

    def test_negative_occupation_rejected(self, grid64):
        with pytest.raises(ValueError):
            sample_noise_field(grid64, 1.0, -0.1, 1e-3, np.random.default_rng(0))


class TestFluctuationDissipation:
    def test_damped_phonon_relaxes_to_wigner_occupation(self):
        # Uncoupled phonon field with loss and wigner sampling must settle
        # at n_th + 1/2 per k mode (symmetrized convention).
        grid = Grid1D(16, 0.5)
        n_th = 0.8
        gamma = 1.0
        dt = 0.01 / gamma
        n_steps = 600  # 6 damping times
        n_traj = 64
        bath = BathSpec(gamma_mech=gamma, n_th=n_th, sampling="wigner")
        disp = DispersionPair(DispersionSpec.flat(0.0), DispersionSpec.flat(2.0))

        def one(rng, index):
            st = FieldState.vacuum(grid)
            traj = evolve(st, CouplingSet(), disp, bath=bath, dt=dt,
                          n_steps=n_steps, rng=rng)
            return np.abs(mode_amplitudes(traj.final_state.b, grid)) ** 2

        occ = np.mean(run_ensemble(one, n_traj, base_seed=77), axis=0)
        target = n_th + 0.5
        pooled = occ.mean()
        sigma_pooled = target / np.sqrt(n_traj * grid.n_points)
        assert abs(pooled - target) < 3.0 * sigma_pooled
        sigma_mode = target / np.sqrt(n_traj)
        assert np.all(np.abs(occ - target) < 4.0 * sigma_mode)


class TestEnsembleStreams:
    def test_streams_independent_and_replayable(self):
        g1 = trajectory_generator(123, 0)
        g2 = trajectory_generator(123, 1)
        a = g1.standard_normal(8)
        b = g2.standard_normal(8)
        assert not np.allclose(a, b)
        again = trajectory_generator(123, 0).standard_normal(8)
        assert np.array_equal(a, again)

    def test_key_words_outside_uint64_rejected(self):
        top = 2**64 - 1
        assert trajectory_generator(top, top).standard_normal() is not None
        for seed, index in ((2**64, 0), (0, 2**64), (-1, 0), (0, -1)):
            with pytest.raises(ValueError, match=r"2\*\*64 - 1"):
                trajectory_generator(seed, index)
