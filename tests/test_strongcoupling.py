"""Spatial 2x2 analysis: closed-form eigenvalues, thresholds, regimes."""

import numpy as np
import pytest

from cwom.strongcoupling import build_matrix, classify, sweep_coupling


class TestMatrix:
    def test_zero_coupling_diagonal(self):
        M = build_matrix(0.0, v2=2.0, vb=1.0, gamma2=0.4, gamma_b=3.0)
        assert np.allclose(M, np.diag([-0.2, -1.5]))

    def test_entries(self):
        g = 100.0 * np.exp(0.7j)
        M = build_matrix(g, v2=2.0, vb=0.5, gamma2=0.4, gamma_b=3.0)
        assert M[0, 1] == 1j * g / 2.0
        assert M[1, 0] == 1j * np.conj(g) / 0.5

    def test_offdiagonal_magnitudes_equal_iff_equal_velocities(self):
        g = 10.0 + 3.0j
        M_eq = build_matrix(g, v2=2.0, vb=2.0, gamma2=0.1, gamma_b=0.2)
        assert np.isclose(abs(M_eq[0, 1]), abs(M_eq[1, 0]))
        M_ne = build_matrix(g, v2=2.0, vb=1.0, gamma2=0.1, gamma_b=0.2)
        assert not np.isclose(abs(M_ne[0, 1]), abs(M_ne[1, 0]))

    def test_trace_identity(self):
        M = build_matrix(5.0, v2=1.0, vb=2.0, gamma2=0.8, gamma_b=0.3)
        assert np.isclose(np.trace(M).real, -(0.8 + 0.3) / 2.0)
        assert np.trace(M).imag == 0.0

    def test_velocity_validation(self):
        with pytest.raises(ValueError):
            build_matrix(1.0, v2=-1.0, vb=1.0, gamma2=0.1, gamma_b=0.1)


class TestEigenvalues:
    def test_zero_coupling(self):
        report = classify(0.0, v2=1.0, vb=1.0, gamma2=0.6, gamma_b=2.0)
        assert np.isclose(report.lambda_plus, -0.3)
        assert np.isclose(report.lambda_minus, -1.0)
        assert report.D > 0

    def test_equal_decay_rates_purely_oscillatory_shift(self):
        # gamma2 = gamma_b = gamma: lambda = -gamma/2 +- i|g|/sqrt(v2 vb),
        # so D < 0 for any nonzero coupling (zero threshold).
        g, v2, vb, gamma = 7.0, 2.0, 0.5, 1.2
        report = classify(g, v2, vb, gamma, gamma)
        assert report.D < 0
        assert np.isclose(report.lambda_plus, -gamma / 2 + 1j * g / np.sqrt(v2 * vb))
        assert np.isclose(report.lambda_minus, -gamma / 2 - 1j * g / np.sqrt(v2 * vb))

    def test_against_generic_eigensolver(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            g = rng.uniform(0, 30) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            v2, vb = rng.uniform(0.1, 10, 2)
            gamma2, gamma_b = rng.uniform(0, 5, 2)
            report = classify(g, v2, vb, gamma2, gamma_b)
            ref = list(np.linalg.eigvals(build_matrix(g, v2, vb, gamma2, gamma_b)))
            scale = max(abs(ref[0]), abs(ref[1]), 1e-30)
            # pair each closed-form value with its nearest generic one
            for lam in (report.lambda_plus, report.lambda_minus):
                j = int(np.argmin([abs(lam - r) for r in ref]))
                assert abs(lam - ref.pop(j)) < 1e-12 * scale

    def test_threshold_sharpness(self):
        # Im lambda = 0 for D >= 0 and |Im lambda| = sqrt(-D)/2 for D < 0
        v2, vb, gamma2, gamma_b = 1.5, 0.7, 2.0, 0.4
        g_thr = np.sqrt(v2 * vb) * abs(gamma2 - gamma_b) / 4
        below = classify(0.999 * g_thr, v2, vb, gamma2, gamma_b)
        assert below.lambda_plus.imag == 0.0 and below.lambda_minus.imag == 0.0
        above = classify(1.001 * g_thr, v2, vb, gamma2, gamma_b)
        assert np.isclose(abs(above.lambda_plus.imag), np.sqrt(-above.D) / 2)


class TestClassify:
    def test_boundary_case_is_overdamped(self):
        v2, vb, gamma2, gamma_b = 2.0, 1.0, 3.0, 0.5
        g_thr = np.sqrt(v2 * vb) * abs(gamma2 - gamma_b) / 4
        report = classify(g_thr, v2, vb, gamma2, gamma_b)
        assert abs(report.D) < 1e-12 * max(gamma2, gamma_b) ** 2
        assert report.regime == "overdamped"

    def test_sweep_labels_threshold_points_as_classify_does(self):
        # exact-threshold inputs land at |D| of rounding size, either sign;
        # a sweep must label them and place lambda exactly as classify does
        rng = np.random.default_rng(0)
        for _ in range(300):
            v2, vb = rng.uniform(0.1, 10.0, 2)
            gamma2, gamma_b = rng.uniform(0.0, 5.0, 2)
            g_thr = np.sqrt(v2 * vb) * abs(gamma2 - gamma_b) / 4
            report = classify(g_thr, v2, vb, gamma2, gamma_b)
            lam_p, lam_m, _, regimes = sweep_coupling([g_thr], v2, vb, gamma2,
                                                      gamma_b)
            assert regimes[0] == report.regime == "overdamped"
            assert lam_p[0] == report.lambda_plus
            assert lam_m[0] == report.lambda_minus

    def test_equal_decay_zero_threshold(self):
        report = classify(1e-6, v2=1.0, vb=1.0, gamma2=0.7, gamma_b=0.7)
        assert report.threshold_osc == 0.0
        assert report.regime in ("oscillatory", "strong_coupling")

    def test_thresholds_reported(self):
        v2, vb, gamma2, gamma_b = 2.0, 0.5, 1.0, 4.0
        report = classify(3.0, v2, vb, gamma2, gamma_b)
        assert np.isclose(report.threshold_osc,
                          np.sqrt(v2 * vb) * abs(gamma2 - gamma_b) / 4)
        assert np.isclose(report.threshold_strong,
                          np.sqrt(v2 * vb) * (gamma2 + gamma_b) / 4)

    def test_dense_sweep_transitions_at_thresholds(self):
        v2, vb, gamma2, gamma_b = 1.3, 0.6, 2.5, 0.2
        g = np.logspace(-3, 1, 4000) * np.sqrt(v2 * vb) * (gamma2 + gamma_b)
        _, _, D, regimes = sweep_coupling(g, v2, vb, gamma2, gamma_b)
        g_osc = np.sqrt(v2 * vb) * abs(gamma2 - gamma_b) / 4
        first_osc = np.argmax(regimes != "overdamped")
        assert g[first_osc - 1] <= g_osc <= g[first_osc]
        # strong-coupling transition where the Im/Re ratio crosses 10
        first_strong = np.argmax(regimes == "strong_coupling")
        gamma_bar = (gamma2 + gamma_b) / 2
        g_strong = np.sqrt(v2 * vb) / 2 * np.sqrt(
            (10.0 * gamma_bar) ** 2 + ((gamma2 - gamma_b) / 2) ** 2) \
            * np.sqrt(1.0) / np.sqrt(1.0)
        # ratio condition: sqrt(-D) >= 10 gamma_bar
        # -> 4 g^2/(v2 vb) = (10 gamma_bar)^2 + ((gamma2-gamma_b)/2)^2
        g_strong = np.sqrt(v2 * vb) / 2 * np.sqrt(
            (10.0 * gamma_bar) ** 2 + ((gamma2 - gamma_b) / 2) ** 2)
        assert g[first_strong - 1] <= g_strong <= g[first_strong]

    def test_phonon_velocity_trend(self):
        # with gamma_bar dominated by the phonon decay, the strong-coupling
        # scale is sqrt(v2/vb) Gamma / 4: slower phonons raise the bar
        v2, Gamma = 5.0, 2.0
        scales = []
        for vb in (1.0, 0.5, 0.25):
            report = classify(1.0, v2, vb, gamma2=0.0, gamma_b=Gamma / vb)
            assert np.isclose(report.threshold_strong,
                              np.sqrt(v2 / vb) * Gamma / 4)
            scales.append(report.threshold_strong)
        assert scales[0] < scales[1] < scales[2]
