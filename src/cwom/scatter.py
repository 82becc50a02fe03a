"""k-space scattering vertex amplitudes.

Translating the real-space couplings to k-space with the substitutions
a -> a_k, a+ -> a+_{k+q}, u -> u_q, dx a -> ik a_k, dx a+ -> -i(k+q) a+,
dx u -> iq u_q gives the amplitude V(k, q) multiplying a+_{k+q} a_k u_q in
the interaction Hamiltonian (-hbar V per term). The even sector yields

    V = g_ppp + g_mmp (k+q) k + g_mpm (k+q) q - g_mpm* k q ,

and the odd sector, constructed by the same substitution rules,

    V += i [ q g_ppm - (k+q) g_mpp + k g_mpp* + (k+q) k q g_mmm ] .

All odd-sector constants enter through one factor of i because each odd
term carries an odd number of derivatives. The plane-wave evolution test
in the suite checks every constant against the real-space interaction.
"""

import numpy as np

from .core.couplings import CouplingSet


def vertex_amplitude(couplings: CouplingSet, k, q):
    """Amplitude of the a+_{k+q} a_k u_q scattering vertex (Hz m^(1/2) scale).

    Derivative couplings contribute explicit powers of k and q, which is
    what converts their higher-length-dimension constants to the common
    vertex scale.
    """
    k = np.asarray(k, dtype=float)
    q = np.asarray(q, dtype=float)
    c = couplings
    even = (c.g_ppp + c.g_mmp * (k + q) * k + c.g_mpm * (k + q) * q
            - np.conj(c.g_mpm) * k * q)
    odd = 1j * (q * c.g_ppm - (k + q) * c.g_mpp + k * np.conj(c.g_mpp)
                + (k + q) * k * q * c.g_mmm)
    out = even + odd
    if out.ndim == 0:
        return complex(out)
    return out


def forward_amplitude(couplings: CouplingSet, k):
    """Forward-scattering amplitude: the q -> 0 vertex, g_ppp + g_mmp k^2."""
    return vertex_amplitude(couplings, k, np.zeros_like(np.asarray(k, dtype=float)))


def backward_amplitude(couplings: CouplingSet, k):
    """Backward-scattering amplitude: the q -> -2k vertex,
    g_ppp - k^2 g_mmp + 2 k^2 (g_mpm + g_mpm*)."""
    k = np.asarray(k, dtype=float)
    return vertex_amplitude(couplings, k, -2.0 * k)

