"""Interaction-term checks: worked plane-wave values, conservation laws,
integration-by-parts identities, parity, and Hamiltonian consistency.
"""

import numpy as np
import pytest

from cwom import CouplingSet, FieldState, Grid1D, interaction_rhs, spectral_derivative
from cwom.core.interaction import (CouplingTerms, _energy_density, fused_rhs,
                                   phonon_channel, photon_channel, total_energy)
from cwom import DispersionSpec
from cwom.dynamics import DispersionPair, make_energy_observer

from conftest import random_band_limited


FLAT = DispersionSpec.flat(0.0)


def interaction_energy(state, couplings):
    """The interaction part of ``total_energy``: with flat bands at 0 the
    free part is exactly 0."""
    return -total_energy(state, couplings, FLAT, FLAT)


def random_state(grid, rng, amp_a=1.0, amp_b=0.6):
    a = random_band_limited(grid, rng, amplitude=amp_a)
    b = random_band_limited(grid, rng, amplitude=amp_b)
    return FieldState(grid, a, b)


def random_coupling_sets(rng):
    yield CouplingSet.even(g_ppp=1.3)
    yield CouplingSet.even(g_mmp=0.4)
    yield CouplingSet.even(g_mpm=0.25 - 0.6j)
    yield CouplingSet.even(g_ppp=0.9, g_mmp=-0.2, g_mpm=0.1 + 0.3j)
    yield CouplingSet.odd(g_ppm=0.7)
    yield CouplingSet.odd(g_mpp=-0.3 + 0.2j)
    yield CouplingSet.odd(g_mmm=0.15)
    yield CouplingSet(g_ppp=0.5, g_ppm=0.4, g_mpp=0.2j, sector="mixed",
                      broken_inversion_symmetry=True)


class TestCouplingSet:
    def test_even_sector_forbids_odd_terms(self):
        with pytest.raises(ValueError):
            CouplingSet(g_ppp=1.0, g_ppm=0.1, sector="even")

    def test_odd_sector_forbids_even_terms(self):
        with pytest.raises(ValueError):
            CouplingSet(g_mmp=1.0, g_mmm=0.1, sector="odd")

    def test_mixed_requires_broken_symmetry_flag(self):
        with pytest.raises(ValueError):
            CouplingSet(g_ppp=1.0, g_ppm=0.1, sector="mixed")
        cs = CouplingSet(g_ppp=1.0, g_ppm=0.1, sector="mixed",
                         broken_inversion_symmetry=True)
        assert cs.g_ppp == 1.0

    def test_self_adjoint_constants_must_be_real(self):
        with pytest.raises(ValueError):
            CouplingSet(g_ppp=1.0 + 0.2j)
        # complex values are fine for the h.c.-paired constants
        CouplingSet.even(g_mpm=1.0 + 0.2j)


class TestWorkedExamples:
    def test_ppp_constant_displacement(self, grid64, rng):
        # u = u0 everywhere: every photon is shifted identically, so
        # da/dt = i g u0 a pointwise for any a.
        u0 = 0.8
        a = random_band_limited(grid64, rng)
        state = FieldState(grid64, a, np.full(grid64.n_points, u0 / 2))
        g0 = 2.2
        da, db = interaction_rhs(state, CouplingSet.simple(g0))
        assert np.max(np.abs(da - 1j * g0 * u0 * a)) < 1e-12 * np.max(np.abs(a))
        assert np.max(np.abs(db - 1j * g0 * np.abs(a) ** 2)) < 1e-12

    def test_mmp_plane_wave(self, grid64):
        # Symbolic oracle: -i g d/dx(u0 d/dx e^{ikx}) = i g k^2 u0 e^{ikx}.
        u0 = 0.5
        k = grid64.k_axis[6]
        a = np.exp(1j * k * grid64.x_axis)
        state = FieldState(grid64, a, np.full(grid64.n_points, u0 / 2))
        gm = 0.37
        da, db = interaction_rhs(state, CouplingSet.even(g_mmp=gm))
        expected = 1j * gm * k * k * u0 * a
        assert np.max(np.abs(da - expected)) < 1e-10 * np.max(np.abs(expected))
        assert np.max(np.abs(db - 1j * gm * k * k)) < 1e-10 * k * k

    def test_zero_couplings_zero_derivatives(self, grid64, rng):
        state = random_state(grid64, rng)
        da, db = interaction_rhs(state, CouplingSet())
        assert np.all(da == 0) and np.all(db == 0)


class TestInvariants:
    def test_photon_number_conserved_by_every_coupling(self, grid64, rng):
        # Every interaction term carries exactly one a+ and one a, so
        # d/dt sum |a|^2 dx = 2 Re sum conj(a) da vanishes identically.
        for cs in random_coupling_sets(rng):
            state = random_state(grid64, rng)
            da, _ = interaction_rhs(state, cs)
            flux = np.sum(np.real(np.conj(state.a) * da)) * grid64.dx
            scale = np.sum(np.abs(state.a) ** 2) * grid64.dx
            assert abs(flux) < 1e-12 * scale, cs

    def test_integration_by_parts_reduces_second_u_derivative(self, grid64, rng):
        # a+ a (dxx u) integrates to -[(dx a+) a + a+ (dx a)] (dx u):
        # second displacement derivatives reduce to listed first-derivative
        # couplings, which is why dxx never appears as its own constant.
        a = random_band_limited(grid64, rng)
        u = np.real(random_band_limited(grid64, rng))
        D = lambda z: spectral_derivative(z, grid64, 1)
        D2 = lambda z: spectral_derivative(z, grid64, 2)
        lhs = np.sum(np.conj(a) * a * D2(u))
        rhs = -np.sum((D(np.conj(a)) * a + np.conj(a) * D(a)) * D(u))
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)

    def test_integration_by_parts_reduces_second_a_derivative(self, grid64, rng):
        # [(dxx a+) a + a+ (dxx a)] u integrates to
        # -2 (dx a+)(dx a) u - [(dx a+) a + a+ (dx a)] (dx u).
        a = random_band_limited(grid64, rng)
        u = np.real(random_band_limited(grid64, rng))
        D = lambda z: spectral_derivative(z, grid64, 1)
        D2 = lambda z: spectral_derivative(z, grid64, 2)
        lhs = np.sum((D2(np.conj(a)) * a + np.conj(a) * D2(a)) * u)
        rhs = np.sum(-2.0 * D(np.conj(a)) * D(a) * u
                     - (D(np.conj(a)) * a + np.conj(a) * D(a)) * D(u))
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)

    @staticmethod
    def _reverse(field):
        # x -> -x on the periodic grid keeps x=0 fixed
        return np.roll(field[::-1], 1)

    def test_even_sector_commutes_with_reversal(self, grid64, rng):
        cs = CouplingSet.even(g_ppp=0.7, g_mmp=0.3, g_mpm=0.2 + 0.1j)
        state = random_state(grid64, rng)
        rev_state = FieldState(grid64, self._reverse(state.a), self._reverse(state.b))
        da, db = interaction_rhs(state, cs)
        da_r, db_r = interaction_rhs(rev_state, cs)
        assert np.max(np.abs(da_r - self._reverse(da))) < 1e-11
        assert np.max(np.abs(db_r - self._reverse(db))) < 1e-11

    def test_odd_sector_anticommutes_with_reversal(self, grid64, rng):
        cs = CouplingSet.odd(g_ppm=0.6, g_mpp=0.25 - 0.15j, g_mmm=0.1)
        state = random_state(grid64, rng)
        rev_state = FieldState(grid64, self._reverse(state.a), self._reverse(state.b))
        da, db = interaction_rhs(state, cs)
        da_r, db_r = interaction_rhs(rev_state, cs)
        assert np.max(np.abs(da_r + self._reverse(da))) < 1e-11
        assert np.max(np.abs(db_r + self._reverse(db))) < 1e-11

    def test_pair_generated_from_one_hamiltonian(self, grid64, rng):
        # One tiny symmetric integrator step of the interaction-only flow
        # must conserve the interaction energy to integrator order; a sign
        # or h.c. mismatch between the two returned derivatives shows up
        # at first order instead.
        for cs in random_coupling_sets(rng):
            state = random_state(grid64, rng, amp_a=0.5, amp_b=0.3)
            e0 = interaction_energy(state, cs)
            dt = 1e-4

            def rk4(st):
                def f(a, b):
                    return interaction_rhs(FieldState(grid64, a, b), cs)
                k1a, k1b = f(st.a, st.b)
                k2a, k2b = f(st.a + 0.5 * dt * k1a, st.b + 0.5 * dt * k1b)
                k3a, k3b = f(st.a + 0.5 * dt * k2a, st.b + 0.5 * dt * k2b)
                k4a, k4b = f(st.a + dt * k3a, st.b + dt * k3b)
                return FieldState(
                    grid64,
                    st.a + dt / 6 * (k1a + 2 * k2a + 2 * k3a + k4a),
                    st.b + dt / 6 * (k1b + 2 * k2b + 2 * k3b + k4b),
                )

            st1 = rk4(state)
            e1 = interaction_energy(st1, cs)
            scale = max(abs(e0), 1e-3)
            assert abs(e1 - e0) < 1e-10 * scale, cs

    def test_total_energy_real_and_finite(self, grid64, rng):
        state = random_state(grid64, rng)
        cs = CouplingSet.even(g_ppp=1.0, g_mmp=0.2, g_mpm=0.1j)
        e = total_energy(state, cs, DispersionSpec.polynomial([0.0, 1.0, 0.3]),
                         DispersionSpec.flat(2.0))
        assert np.isfinite(e)


def _rel(x, ref):
    scale = np.linalg.norm(ref)
    return np.linalg.norm(x - ref) / scale if scale else np.linalg.norm(x)


FUSED_CASES = {
    "pointwise": CouplingSet.simple(1.3),
    "even": CouplingSet.even(g_ppp=0.9, g_mmp=-0.2, g_mpm=0.1 + 0.3j),
    "odd": CouplingSet.odd(g_ppm=0.7, g_mpp=-0.3 + 0.2j, g_mmm=0.15),
    "mixed": CouplingSet(g_ppp=0.5, g_mmp=0.3, g_mpm=0.2 - 0.1j, g_ppm=0.4,
                         g_mpp=0.2j, g_mmm=-0.1, sector="mixed",
                         broken_inversion_symmetry=True),
    "zero": CouplingSet(),
}


class TestFusedRhs:
    """interaction_rhs sums every derivative in k-space; the bilinear
    channel functions are the term-by-term reference."""

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("name", sorted(FUSED_CASES))
    def test_matches_channels(self, n, name, rng):
        cs = FUSED_CASES[name]
        grid = Grid1D(n, 0.1)
        # full-band random fields: the Nyquist mode is populated too
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        b = 0.6 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        state = FieldState(grid, a, b)
        da, db = interaction_rhs(state, cs)
        ref_a = photon_channel(a, state.displacement(), cs, grid)
        ref_b = phonon_channel(np.conj(a), a, cs, grid)
        assert _rel(da, ref_a) < 1e-13
        assert _rel(db, ref_b) < 1e-13
        if cs.is_zero:
            assert not np.any(da) and not np.any(db)


class TestBatchedTerms:
    """A batch of sets resolves to (B, 1) columns; the fused kernel on
    (B, n) arrays gives each row exactly its own set's right-hand side."""

    BATCHES = {
        "derivative": [FUSED_CASES["even"], FUSED_CASES["odd"],
                       FUSED_CASES["mixed"], CouplingSet.even(g_mmp=0.4)],
        "pointwise": [CouplingSet.simple(1.3), CouplingSet.simple(-0.2)],
        "zero": [CouplingSet(), CouplingSet()],
    }

    @pytest.mark.parametrize("name", sorted(BATCHES))
    def test_rows_equal_single_set_rhs(self, name, grid64, rng):
        sets = self.BATCHES[name]
        a = np.stack([random_band_limited(grid64, rng) for _ in sets])
        b = np.stack([random_band_limited(grid64, rng, amplitude=0.6) for _ in sets])
        terms = CouplingTerms.resolve(sets)
        assert terms.kind == name
        da, db = fused_rhs(a, b, grid64.derivative_weight, terms)
        for i, cs in enumerate(sets):
            want_a, want_b = interaction_rhs(FieldState(grid64, a[i], b[i]), cs)
            assert np.array_equal(da[i], want_a)
            assert np.array_equal(db[i], want_b)

    def test_columns_drop_only_constants_zero_in_every_row(self):
        terms = CouplingTerms.resolve([CouplingSet.even(g_mmp=0.4),
                                       CouplingSet.even(g_mpm=0.1 + 0.3j)])
        assert terms.g_mmp.shape == (2, 1) and terms.g_mmp[1, 0] == 0
        assert np.array_equal(terms.g_mpm_c, [[0], [0.1 - 0.3j]])
        assert terms.g_ppp is None and terms.g_mpp is None and terms.g_mpp_c is None
        single = CouplingTerms.resolve(CouplingSet.even(g_mpm=0.1 + 0.3j))
        assert single.g_mpm == 0.1 + 0.3j and single.g_mpm_c == 0.1 - 0.3j
        assert single.g_mmp is None

    def test_mixed_classes_rejected(self):
        with pytest.raises(ValueError, match="one class"):
            CouplingTerms.resolve([CouplingSet.simple(1.0), FUSED_CASES["even"]])


def _energy_density_reference(state, c):
    grid = state.grid
    a = state.a
    u = state.displacement()
    da = spectral_derivative(a, grid, 1)
    du = spectral_derivative(u, grid, 1)
    dens = np.zeros(grid.n_points, dtype=np.complex128)
    dens += c.g_ppp * np.abs(a) ** 2 * u
    dens += c.g_mmp * np.abs(da) ** 2 * u
    dens += 2.0 * np.real(c.g_mpm * np.conj(da) * a * du)
    dens += c.g_ppm * np.abs(a) ** 2 * du
    dens += 2.0 * np.real(c.g_mpp * np.conj(da) * a) * u
    dens += c.g_mmm * np.abs(da) ** 2 * du
    return np.real(dens)


class TestEnergyObserver:
    @pytest.mark.parametrize("name", ["pointwise", "even", "odd", "mixed"])
    def test_matches_full_formula(self, name, grid256, rng):
        cs = FUSED_CASES[name]
        state = random_state(grid256, rng)
        disp_a = DispersionSpec.polynomial([0.0, 1.0, 0.3])
        disp_b = DispersionSpec.flat(2.0)
        dens_ref = _energy_density_reference(state, cs)
        assert _rel(_energy_density(state.a, state.displacement(), cs, grid256),
                    dens_ref) < 1e-13
        assert _rel(interaction_energy(state, cs),
                    np.sum(dens_ref) * grid256.dx) < 1e-13
        fa, fb = np.fft.fft(state.a), np.fft.fft(state.b)
        free = (np.sum(disp_a.values_on(grid256) * np.abs(fa) ** 2)
                + np.sum(disp_b.values_on(grid256) * np.abs(fb) ** 2)) \
            * grid256.dx / grid256.n_points
        e_ref = float(np.real(free)) - float(np.sum(dens_ref) * grid256.dx)
        e = total_energy(state, cs, disp_a, disp_b)
        assert abs(e - e_ref) <= 1e-13 * abs(e_ref)

    @pytest.mark.parametrize("name", ["pointwise", "even", "mixed"])
    def test_recording_observer_evaluates_bands_once(self, name, grid64, rng,
                                                     monkeypatch):
        cs = FUSED_CASES[name]
        disp = DispersionPair(DispersionSpec.polynomial([0.0, 1.0, 0.3]),
                              DispersionSpec.flat(2.0))
        states = [random_state(grid64, rng) for _ in range(3)]
        want = [total_energy(st, cs, disp.photon, disp.phonon) for st in states]
        calls = []
        values_on = DispersionSpec.values_on
        monkeypatch.setattr(DispersionSpec, "values_on",
                            lambda self, grid: calls.append(grid)
                            or values_on(self, grid))
        observer = make_energy_observer(cs, disp)
        assert [observer(st) for st in states] == want
        assert len(calls) == 2


class TestFieldState:
    def test_shape_validation(self, grid64):
        with pytest.raises(ValueError):
            FieldState(grid64, np.zeros(10), np.zeros(64))

    def test_numbers(self, grid64):
        a = np.full(64, 2.0)
        st = FieldState(grid64, a, np.zeros(64))
        assert np.isclose(st.photon_number(), 4.0 * 64 * grid64.dx)
        assert st.phonon_number() == 0.0
