"""Discrete-array model: bands, mappings, conservation, link symmetry."""

import re

import numpy as np
import pytest

from cwom import FieldState, Grid1D
from cwom.core.spectral import mode_amplitudes
from cwom.dynamics import DivergenceError
from cwom import experiments
from cwom.experiments import array_convergence_study
from cwom.lattice import (ArrayConfig, LatticeState, band_structure,
                          link_effective_couplings, simulate_array,
                          site_coupling_from_continuum, to_continuum)


class TestBandStructure:
    def test_nearest_neighbor_cosine(self):
        J, dxl = 1.7, 0.5
        k = np.linspace(-np.pi / dxl, np.pi / dxl, 64)
        band = band_structure({1: J}, dxl, k)
        assert np.allclose(band, -2 * J * np.cos(k * dxl))

    def test_k_zero_sum_rule(self):
        J = {1: 1.0, 2: 0.25, 3: -0.1}
        band0 = band_structure(J, 1.0, 0.0)
        assert np.isclose(band0, -2 * sum(J.values()))

    def test_complex_hopping_rejected(self):
        with pytest.raises(ValueError):
            band_structure({1: 1.0 + 0.5j}, 1.0, np.array([0.1]))

    def test_long_wavelength_quadratic_fit(self):
        # series oracle: -2J cos(k dx) = -2J + J dx^2 k^2 + O(k^4)
        J, dxl = 2.0, 0.25
        k = np.linspace(0, 0.1 / dxl, 20)
        band = band_structure({1: J}, dxl, k)
        coeffs = np.polyfit(k, band, 2)
        assert abs(coeffs[0] - J * dxl ** 2) < 5e-3 * J * dxl ** 2
        assert abs(coeffs[2] + 2 * J) < 1e-4 * J
        # residual against the quadratic model is the k^4 term
        k = np.linspace(0, 0.5 / dxl, 20)
        band = band_structure({1: J}, dxl, k)
        quad = -2 * J + J * dxl ** 2 * k ** 2
        resid = band - quad
        expected4 = -J * dxl ** 4 * k ** 4 / 12.0
        assert np.max(np.abs(resid - expected4)) < 2e-2 * np.max(np.abs(expected4))


class TestTwoSite:
    def test_rabi_exchange_at_two_j(self):
        # periodic two-site ring: amplitudes beat as cos(2J t), i sin(2J t)
        J = 0.8
        config = ArrayConfig(n_sites=2, dx_lattice=1.0, J={1: J})
        init = LatticeState(np.array([1.0, 0.0], complex),
                            np.zeros(2, complex))
        dt = 1e-3 / J
        for frac in (0.25, 0.5, 1.0):
            t_target = frac * np.pi / (2 * J)
            final = simulate_array(config, init, dt, int(round(t_target / dt)))
            t = final.time
            assert abs(final.a[0] - np.cos(2 * J * t)) < 1e-8
            assert abs(final.a[1] - 1j * np.sin(2 * J * t)) < 1e-8


class TestContinuumMapping:
    def test_single_site_normalization(self):
        a = np.zeros(16, complex)
        a[5] = 1.0
        st = to_continuum(a, np.zeros(16), dx_lattice=0.25)
        assert np.isclose(abs(st.a[5]) ** 2, 1.0 / 0.25)
        assert np.isclose(st.photon_number(), 1.0)

    def test_round_trip_exact(self, rng):
        a = rng.normal(size=32) + 1j * rng.normal(size=32)
        b = rng.normal(size=32) + 1j * rng.normal(size=32)
        # bit-exact for lattice constants whose square root is exact
        st = to_continuum(a, b, dx_lattice=0.25)
        assert np.array_equal(st.a * np.sqrt(0.25), a)
        assert np.array_equal(st.b * np.sqrt(0.25), b)
        st = to_continuum(a, b, dx_lattice=0.7)
        a2 = st.a * np.sqrt(0.7)
        assert np.max(np.abs(a2 - a)) < 1e-15 * np.max(np.abs(a))

    def test_plane_wave_maps_to_same_wavenumber(self):
        n, dxl = 32, 0.5
        m = 5
        k = 2 * np.pi * m / (n * dxl)
        sites = np.exp(1j * k * np.arange(n) * dxl)
        st = to_continuum(sites, np.zeros(n), dxl)
        spec = np.abs(np.fft.fft(st.a))
        assert np.argmax(spec) == m


class TestConservationAndNoise:
    def test_closed_system_conserves_site_number(self, rng):
        config = ArrayConfig(n_sites=32, dx_lattice=1.0, J={1: 0.5}, g0_site=0.3)
        init = LatticeState(rng.normal(size=32) + 1j * rng.normal(size=32),
                            0.3 * (rng.normal(size=32) + 1j * rng.normal(size=32)))
        n0 = init.photon_number()
        final = simulate_array(config, init, dt=2e-3, n_steps=2000)
        assert final.time == pytest.approx(4.0)
        assert abs(final.photon_number() - n0) < 1e-10 * n0


class TestLinkCoupling:
    def test_effective_couplings_even_sector_values(self):
        g0l, dxl = 0.7, 0.25
        cs = link_effective_couplings(g0l, dxl)
        root = np.sqrt(dxl)
        assert cs.sector == "even"
        assert np.isclose(cs.g_ppp, 2 * g0l * root)
        assert np.isclose(cs.g_mmp, -g0l * root * dxl ** 2)
        assert np.isclose(cs.g_mpm.real, -g0l * root * dxl ** 2 / 4)
        assert cs.g_mpm.imag == 0.0
        assert cs.g_ppm == 0.0 and cs.g_mpp == 0.0 and cs.g_mmm == 0.0

    def test_link_lattice_inversion_symmetry(self, rng):
        # mirror through a link center: site j -> 1-j, link j -> -j. The
        # dynamics must commute with this mirror, which is why no odd
        # (first-derivative) photon couplings can emerge in the continuum.
        n = 32
        config = ArrayConfig(n_sites=n, dx_lattice=1.0, J={1: 0.4}, g0_link=0.2)
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        b = 0.5 * (rng.normal(size=n) + 1j * rng.normal(size=n))

        def mirror(state):
            idx_a = (1 - np.arange(n)) % n
            idx_b = (-np.arange(n)) % n
            return LatticeState(state.a[idx_a], state.b[idx_b], state.time)

        init = LatticeState(a, b)
        fwd = simulate_array(config, mirror(init), dt=2e-3, n_steps=500)
        mirrored = mirror(simulate_array(config, init, dt=2e-3, n_steps=500))
        assert np.max(np.abs(fwd.a - mirrored.a)) < 1e-10
        assert np.max(np.abs(fwd.b - mirrored.b)) < 1e-10


class TestConvergence:
    def test_site_coupling_second_order(self):
        res = array_convergence_study(kind="site", sizes=(32, 64, 128),
                                      T=4.0, n_ref=256)
        assert abs(res.slope - 2.0) < 0.2, (res.dxs, res.errors, res.slope)
        ratios = res.errors[:-1] / res.errors[1:]
        assert np.all(ratios > 3.0) and np.all(ratios < 5.2)

    def test_scaled_site_coupling_keeps_continuum_fixed(self):
        assert np.isclose(site_coupling_from_continuum(0.05, 0.25),
                          0.05 / 0.5)

    def test_link_study_runs_pointwise_reference_once(self, monkeypatch):
        # one shared pointwise reference (2 g_link sqrt(dx) = g_cont does
        # not depend on dx) plus every size's link-effective reference,
        # stepped as one batch
        calls, batches = [], []
        evolve, evolve_batch = experiments.evolve, experiments.evolve_batch

        def counting_evolve(*args, **kwargs):
            calls.append(args[1])
            return evolve(*args, **kwargs)

        def counting_evolve_batch(*args, **kwargs):
            batches.append(list(args[1]))
            return evolve_batch(*args, **kwargs)

        monkeypatch.setattr(experiments, "evolve", counting_evolve)
        monkeypatch.setattr(experiments, "evolve_batch", counting_evolve_batch)
        sizes = (16, 32)
        res = array_convergence_study(kind="link", sizes=sizes, T=0.05, n_ref=64)
        assert len(calls) == 1 and calls[0].is_pointwise
        assert len(batches) == 1 and len(batches[0]) == len(sizes)
        assert not any(c.is_pointwise for c in batches[0])
        assert np.all(np.isfinite(res.errors_pointwise_model))

    @pytest.mark.parametrize("kind", ["site", "link"])
    def test_halving_the_dt_margin_moves_errors_by_under_one_percent(
            self, kind, monkeypatch):
        # C4's settings: dt comes from the closed-run bound, and at that dt
        # the errors are already the lattice's, not the time step's
        def run():
            res = array_convergence_study(kind=kind, sizes=(32, 64, 128, 256),
                                          T=4.0, n_ref=512)
            if kind == "link":
                return np.concatenate([res.errors, res.errors_pointwise_model])
            return res.errors

        coarse = run()
        monkeypatch.setattr(experiments, "DT_MARGIN", 0.5 * experiments.DT_MARGIN)
        fine = run()
        assert np.all(np.abs(fine - coarse) < 0.01 * coarse), (coarse, fine)

    @pytest.mark.parametrize("kind, args, name", [
        ("site", dict(T=0.0), "T"),
        ("site", dict(T=-1.0), "T"),
        ("site", dict(T=np.inf), "T"),
        ("site", dict(length=0.0), "length"),
        ("site", dict(sizes=(32, 64, 512), n_ref=256), "sizes"),
        ("site", dict(sizes=(32, 48), n_ref=256), "sizes"),
        ("site", dict(sizes=(32,), n_ref=256), "sizes"),
        ("site", dict(sizes=(0, 32), n_ref=256), "sizes"),
        ("link", dict(sizes=(64, 128), n_ref=128), "sizes"),
        ("site", dict(n_ref=100), "n_ref"),
        ("site", dict(D2=0.0), "D2"),
        ("link", dict(D2=0.0), "D2"),
    ])
    def test_bad_inputs_raise_value_error_naming_the_argument(self, kind, args,
                                                              name):
        with pytest.raises(ValueError, match=rf"^{name} must be"):
            array_convergence_study(kind=kind, **args)


class TestPinnedLinkRun:
    # Recorded from the stepper as it stood while the array still took
    # phonon hopping, damping and noise, all at their defaults here: link
    # coupling, next-nearest photon hopping, a photon frame offset.
    CELLS = (0, 7, 19, 30, 47)
    PHOTON = ((-0.2962719163675286 + 0.32289441483228914j),
              (0.1588164511074638 + 0.23431053925264111j),
              (-1.5100317191488817 + 0.19549543790385449j),
              (-1.476979472849472 - 0.04029771392192057j),
              (0.4645357365923488 - 0.7572331440268769j))
    PHONON = ((-0.5163572981293949 - 1.0714571421003076j),
              (0.8979026505944199 - 2.3542751268912543j),
              (-0.4217938488196442 + 2.5746741774597663j),
              (-0.8514268167288579 - 1.84492538739636j),
              (-0.3173185612812175 - 0.7157641220062497j))

    def test_matches_recorded_values(self):
        rng = np.random.default_rng(7)
        config = ArrayConfig(n_sites=48, dx_lattice=0.5, J={1: 0.4, 2: 0.05},
                             g0_link=0.2, omega_frame=0.2)
        init = LatticeState(rng.normal(size=48) + 1j * rng.normal(size=48),
                            0.4 * (rng.normal(size=48) + 1j * rng.normal(size=48)))
        final = simulate_array(config, init, dt=2e-2, n_steps=400)
        cells = list(self.CELLS)
        for got, want in ((final.a[cells], self.PHOTON),
                          (final.b[cells], self.PHONON)):
            want = np.asarray(want)
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), got


class TestDivergenceReport:
    def test_local_overflow_reports_finite_maxima(self):
        # |a|^2 overflows on one site, so db turns NaN there during the
        # middle substep; every other site stays finite
        config = ArrayConfig(n_sites=16, dx_lattice=1.0, g0_site=1.0)
        a = np.ones(16, complex)
        a[3] = 1e160
        init = LatticeState(a, np.zeros(16, complex))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                simulate_array(config, init, 1e-3, 5)
        assert err.value.step_index == 0
        found = re.search(r"max\|a\| = (\S+), max\|b\| = (\S+);", str(err.value))
        assert np.isfinite(float(found.group(1)))
        assert np.isfinite(float(found.group(2)))
