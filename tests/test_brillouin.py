"""Closed-form Brillouin-limit results: gain coefficient, susceptibility
and their exact identity.
"""

import numpy as np
import pytest

from cwom.brillouin import brillouin_gain, nonlinear_susceptibility
from cwom.constants import HBAR

V = 7.0e7
GAMMA = 2 * np.pi * 1e6
OMEGA1 = 2 * np.pi * 193.5e12


class TestGainCoefficient:
    def test_quadratic_scaling(self):
        g1 = brillouin_gain(1e3, V, V, GAMMA, OMEGA1)
        g2 = brillouin_gain(2e3, V, V, GAMMA, OMEGA1)
        assert np.isclose(g2, 4 * g1, rtol=1e-14)

    def test_representative_chip_scale_value(self):
        # hand-evaluated once from the definition with these inputs
        G = brillouin_gain(1e3, V, V, GAMMA, OMEGA1)
        assert np.isclose(G, 1013.35, rtol=2e-4)

    def test_zero_gamma_rejected(self):
        with pytest.raises(ValueError):
            brillouin_gain(1e3, V, V, 0.0, OMEGA1)


class TestSusceptibility:
    OMEGA0 = 2 * np.pi * 5e9
    G0 = 2.2e3

    def test_resonance_purely_imaginary_and_maximal(self):
        chi = nonlinear_susceptibility(self.OMEGA0, self.G0, V, self.OMEGA0, GAMMA)
        assert abs(chi.real) < 1e-15 * abs(chi)
        assert np.isclose(-chi.imag, 2 * self.G0 ** 2 / (V * GAMMA), rtol=1e-12)
        # off resonance the magnitude of Im chi only drops
        off = nonlinear_susceptibility(self.OMEGA0 + GAMMA, self.G0, V,
                                       self.OMEGA0, GAMMA)
        assert -off.imag < -chi.imag

    def test_fwhm_equals_gamma(self):
        def neg_im(Om):
            return -nonlinear_susceptibility(Om, self.G0, V, self.OMEGA0,
                                             GAMMA).imag

        peak = neg_im(self.OMEGA0)

        def crossing(lo, hi):
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if neg_im(mid) > peak / 2:
                    lo, hi = (lo, mid) if neg_im(lo) < peak / 2 else (mid, hi)
                    if neg_im(lo) > peak / 2:
                        lo, hi = mid, hi
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        # bisect the half-maximum on each side
        lo = self.OMEGA0 - 5 * GAMMA
        hi = self.OMEGA0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if neg_im(mid) < peak / 2:
                lo = mid
            else:
                hi = mid
        left = 0.5 * (lo + hi)
        lo, hi = self.OMEGA0, self.OMEGA0 + 5 * GAMMA
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if neg_im(mid) > peak / 2:
                lo = mid
            else:
                hi = mid
        right = 0.5 * (lo + hi)
        assert abs((right - left) - GAMMA) < 1e-3 * GAMMA

    def test_gain_susceptibility_identity_exact(self):
        # G_B(Omega0) = -2 Im chi3(Omega0) / (hbar omega1 v1) equals the
        # closed form to machine precision.
        omegas = self.OMEGA0 + GAMMA * np.linspace(-40, 40, 1001)
        chi = nonlinear_susceptibility(omegas, self.G0, V, self.OMEGA0, GAMMA)
        G = -2.0 * np.imag(chi) / (HBAR * OMEGA1 * V)
        assert np.isclose(G[500], brillouin_gain(self.G0, V, V, GAMMA, OMEGA1),
                          rtol=1e-12)

    def test_lorentzian_parity_about_resonance(self):
        # Re chi odd, Im chi even about Omega0, exactly from the closed form
        d = GAMMA * np.linspace(0.1, 30, 57)
        chi_p = nonlinear_susceptibility(self.OMEGA0 + d, self.G0, V,
                                         self.OMEGA0, GAMMA)
        chi_m = nonlinear_susceptibility(self.OMEGA0 - d, self.G0, V,
                                         self.OMEGA0, GAMMA)
        assert np.allclose(chi_p.real, -chi_m.real, rtol=1e-13)
        assert np.allclose(chi_p.imag, chi_m.imag, rtol=1e-13)

