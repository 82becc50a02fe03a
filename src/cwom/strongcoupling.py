"""Coherent-phonon-limit analysis: spatial 2x2 evolution matrix, its
closed-form eigenvalues, thresholds, and regime classification.

In the photon-phonon swap configuration with spatially uniform pump the
steady envelopes obey phi' = M phi with phi = (<a2>, <b>) and

    M = [ -gamma2/2     i g12/v2  ]
        [ i g12*/vb    -gamma_b/2 ] ,

all entries in 1/m. Eigenvalues are lambda_pm = (-gamma_bar +- sqrt(D))/2
with gamma_bar = (gamma2 + gamma_b)/2 and
D = [(gamma2 - gamma_b)/2]^2 - 4 |g12|^2 / (v2 vb). D < 0 marks the onset
of spatially oscillatory exchange; that threshold depends only on the
*difference* of the spatial decay rates. Oscillations outlive the decay
once |Im lambda| >> |Re lambda|, the continuum strong-coupling regime,
whose scale is sqrt(v2 vb) gamma_bar / 2.

One closed form, evaluated on arrays of |g12|, serves both entry points:
:func:`classify` reports one point with its matrix and thresholds, and
:func:`sweep_coupling` labels a whole sweep, so the two agree at every
point, the D = 0 boundary included.
"""

from dataclasses import dataclass

import numpy as np


def build_matrix(g12: complex, v2: float, vb: float, gamma2: float,
                 gamma_b: float) -> np.ndarray:
    """The non-Hermitian spatial evolution matrix (1/m entries)."""
    if v2 <= 0 or vb <= 0:
        raise ValueError("velocities must be positive")
    return np.array([[-gamma2 / 2.0, 1j * g12 / v2],
                     [1j * np.conj(g12) / vb, -gamma_b / 2.0]], dtype=complex)


def thresholds(v2: float, vb: float, gamma2: float, gamma_b: float) -> tuple:
    """(threshold_osc, threshold_strong) in Hz, as :func:`classify` states them."""
    scale = np.sqrt(v2 * vb)
    return (scale * abs(gamma2 - gamma_b) / 4.0,
            scale * (0.5 * (gamma2 + gamma_b)) / 2.0)


def _regime_map(g_abs, v2: float, vb: float, gamma2: float, gamma_b: float,
                strong_ratio: float):
    """(lambda_plus, lambda_minus, D, |Im|/|Re| ratio, regime labels) at
    each coupling magnitude ``g_abs``.

    D = 0 has no oscillation, and exact-threshold inputs land at |D| of
    rounding size, so D within 1e-12 of its terms' scale counts as
    overdamped.
    """
    g_abs = np.asarray(g_abs, dtype=float)
    gamma_bar = 0.5 * (gamma2 + gamma_b)
    split = ((gamma2 - gamma_b) / 2.0) ** 2
    exchange = 4.0 * g_abs ** 2 / (v2 * vb)
    D = split - exchange
    root = np.sqrt(D.astype(complex))
    lam_p = 0.5 * (-gamma_bar + root)
    lam_m = 0.5 * (-gamma_bar - root)
    im_max = np.maximum(np.abs(lam_p.imag), np.abs(lam_m.imag))
    re_max = np.maximum(np.abs(lam_p.real), np.abs(lam_m.real))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(re_max > 0, im_max / re_max, np.inf)
    regimes = np.where(D >= -1e-12 * (split + exchange), "overdamped",
                       np.where(ratio >= strong_ratio, "strong_coupling",
                                "oscillatory"))
    return lam_p, lam_m, D, ratio, regimes


@dataclass(frozen=True)
class RegimeReport:
    """Eigen-structure and regime label for one parameter point.

    The raw numbers always travel with the label so users can re-threshold
    with their own strong-coupling ratio.
    """

    M: np.ndarray
    lambda_plus: complex
    lambda_minus: complex
    D: float
    gamma_bar: float
    threshold_osc: float
    threshold_strong: float
    regime: str
    im_re_ratio: float
    strong_ratio: float


def classify(g12: complex, v2: float, vb: float, gamma2: float, gamma_b: float,
             strong_ratio: float = 10.0) -> RegimeReport:
    """Classify the spatial dynamics at one coupling strength.

    oscillatory requires strictly D < 0, i.e.
    |g12| > sqrt(v2 vb) |gamma2 - gamma_b| / 4 (the D = 0 boundary counts
    as overdamped: no oscillation exists there). strong_coupling
    additionally requires |Im lambda| >= strong_ratio * |Re lambda|; the
    reported ``threshold_strong`` is the scale sqrt(v2 vb) gamma_bar / 2
    that the ratio criterion quantifies.
    """
    M = build_matrix(g12, v2, vb, gamma2, gamma_b)
    lam_p, lam_m, D, ratio, regime = _regime_map(abs(g12), v2, vb, gamma2,
                                                 gamma_b, strong_ratio)
    threshold_osc, threshold_strong = thresholds(v2, vb, gamma2, gamma_b)
    return RegimeReport(M=M, lambda_plus=lam_p[()], lambda_minus=lam_m[()],
                        D=float(D), gamma_bar=0.5 * (gamma2 + gamma_b),
                        threshold_osc=threshold_osc,
                        threshold_strong=threshold_strong, regime=str(regime),
                        im_re_ratio=float(ratio), strong_ratio=strong_ratio)


def sweep_coupling(g_values, v2: float, vb: float, gamma2: float, gamma_b: float,
                   strong_ratio: float = 10.0):
    """Vectorized sweep over |g12|: (lambda_plus, lambda_minus, D, regime
    labels), labelled as :func:`classify` labels each point."""
    lam_p, lam_m, D, _, regimes = _regime_map(g_values, v2, vb, gamma2, gamma_b,
                                              strong_ratio)
    return lam_p, lam_m, D, regimes
