"""Brillouin-limit analysis: the gain coefficient and the induced
nonlinear susceptibility.

When the phonon decay length 1/gamma_b is far shorter than both the
optical decay length and the gain length, the phonon field is generated
locally and the signal branch sees an effective local gain. In
traveling-wave powers (P = hbar omega v |amplitude|^2) the small-signal
result is the textbook form

    dP2/dx = G_B P1 P2 - gamma2 P2,
    G_B = 4 |g0_12|^2 / (v1 v2 Gamma hbar omega1)   [1/(W m)].

The equivalent single-photon statement is the nonlinear susceptibility

    chi3(Omega) = -(1/v2) |g0_12|^2 / (Omega - Omega0 - i Gamma/2),

a Lorentzian whose imaginary part reproduces the frequency-dependent gain
via G_B(Omega) = -2 Im chi3(Omega) / (hbar omega1 v1), exactly. The
power-level slope G_B P1 - gamma2 is what the two-branch solver
(:func:`cwom.experiments.run_two_branch_gain`) reproduces.
"""

import numpy as np

from .constants import HBAR


def brillouin_gain(g0_12: float, v1: float, v2: float, Gamma: float,
                   omega1: float) -> float:
    """Peak gain coefficient G_B = 4 |g0_12|^2/(v1 v2 Gamma hbar omega1).

    Units 1/(W m): dP2/dx = G_B P1 P2 at line center, before loss.
    """
    if v1 <= 0 or v2 <= 0 or omega1 <= 0:
        raise ValueError("velocities and omega1 must be positive")
    if Gamma <= 0:
        raise ValueError("Gamma = 0 invalidates the adiabatic (local) limit")
    return 4.0 * abs(g0_12) ** 2 / (v1 * v2 * Gamma * HBAR * omega1)


def nonlinear_susceptibility(Omega, g0_12: float, v2: float, Omega0: float,
                             Gamma: float):
    """Effective photon-photon susceptibility chi3(Omega) from the phonons.

    Dimensionless per photon density: the signal envelope obeys
    d<a2>/dx = i chi3 |alpha1|^2 <a2> - (gamma2/2) <a2>. Lorentzian in the
    pump-signal beat frequency Omega around the phonon resonance Omega0,
    with FWHM Gamma in the imaginary (gain) quadrature.
    """
    Omega = np.asarray(Omega, dtype=float)
    out = -(1.0 / v2) * abs(g0_12) ** 2 / (Omega - Omega0 - 0.5j * Gamma)
    if out.ndim == 0:
        return complex(out)
    return out

