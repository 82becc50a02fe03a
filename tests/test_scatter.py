"""Vertex amplitudes: worked values, wrapper consistency, and the
plane-wave cross-check against the real-space interaction.
"""

import numpy as np
import pytest

from cwom import CouplingSet, FieldState, Grid1D, interaction_rhs
from cwom.scatter import backward_amplitude, forward_amplitude, vertex_amplitude


class TestWorkedValues:
    def test_ppp_only_flat_vertex(self):
        cs = CouplingSet.simple(3.0)
        for k, q in [(0.1, 0.4), (2.0, -1.0), (0.0, 0.0)]:
            assert vertex_amplitude(cs, k, q) == 3.0

    def test_forward_limit(self):
        cs = CouplingSet.even(g_ppp=1.0, g_mmp=0.5, g_mpm=0.2 + 0.1j)
        k = 1.7
        assert np.isclose(forward_amplitude(cs, k), 1.0 + 0.5 * k * k)

    def test_backward_limit(self):
        g_mpm = 0.2 + 0.1j
        cs = CouplingSet.even(g_ppp=1.0, g_mmp=0.5, g_mpm=g_mpm)
        k = 1.7
        expected = 1.0 - k * k * 0.5 + 2 * k * k * (g_mpm + np.conj(g_mpm))
        assert np.isclose(backward_amplitude(cs, k), expected)

    def test_ppp_only_forward_equals_backward(self):
        cs = CouplingSet.simple(2.5)
        k = np.linspace(-3, 3, 11)
        assert np.array_equal(forward_amplitude(cs, k), backward_amplitude(cs, k))

    def test_mmp_forward_backward_split(self):
        # algebra: forward - backward = 2 k^2 g_mmp when only g_mmp varies
        cs = CouplingSet.even(g_ppp=1.0, g_mmp=0.7)
        k = 1.3
        diff = forward_amplitude(cs, k) - backward_amplitude(cs, k)
        assert np.isclose(diff, 2 * k * k * 0.7)

    def test_k_zero_both_equal_ppp(self):
        cs = CouplingSet.even(g_ppp=1.1, g_mmp=0.4, g_mpm=0.3)
        assert forward_amplitude(cs, 0.0) == 1.1
        assert backward_amplitude(cs, 0.0) == 1.1

    def test_wrappers_exactly_consistent(self):
        cs = CouplingSet.even(g_ppp=0.9, g_mmp=-0.3, g_mpm=0.1 - 0.2j)
        for k in (0.3, -1.2, 2.0):
            assert forward_amplitude(cs, k) == vertex_amplitude(cs, k, 0.0)
            assert backward_amplitude(cs, k) == vertex_amplitude(cs, k, -2.0 * k)


SINGLE_COUPLINGS = [
    CouplingSet.even(g_ppp=1.4),
    CouplingSet.even(g_mmp=0.6),
    CouplingSet.even(g_mpm=0.5 - 0.3j),
    CouplingSet.odd(g_ppm=0.8),
    CouplingSet.odd(g_mpp=0.4 + 0.7j),
    CouplingSet.odd(g_mmm=0.35),
]


class TestSpectralCrossCheck:
    @pytest.mark.parametrize("cs", SINGLE_COUPLINGS,
                             ids=["ppp", "mmp", "mpm", "ppm", "mpp", "mmm"])
    def test_plane_wave_evolution_reproduces_vertex(self, cs):
        # a = e^{ikx}, b = e^{iqx} (so u carries e^{+iqx} and e^{-iqx}):
        # the k+q Fourier mode of da/dt must equal i V(k, q), and the
        # k-q mode i V(k, -q), for every constant individually.
        grid = Grid1D(128, 0.37)
        m_k, m_q = 7, 4
        k = grid.k_axis[m_k]
        q = grid.k_axis[m_q]
        a = np.exp(1j * k * grid.x_axis)
        b = np.exp(1j * q * grid.x_axis)
        state = FieldState(grid, a, b)
        da, _ = interaction_rhs(state, cs)
        spec = np.fft.fft(da) / grid.n_points
        got_plus = spec[(m_k + m_q) % grid.n_points]
        got_minus = spec[(m_k - m_q) % grid.n_points]
        want_plus = 1j * vertex_amplitude(cs, k, q)
        want_minus = 1j * vertex_amplitude(cs, k, -q)
        scale = max(abs(want_plus), abs(want_minus))
        assert abs(got_plus - want_plus) < 1e-10 * scale
        assert abs(got_minus - want_minus) < 1e-10 * scale

