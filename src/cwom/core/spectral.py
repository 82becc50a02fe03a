"""Spectral calculus on the periodic grid: derivatives and free evolution.

Derivatives are evaluated mode-by-mode as (ik)^order, which realizes the
derivative couplings exactly for every represented wavenumber. For odd
orders the Nyquist mode weight is set to zero; this keeps the derivative
of a real field real and makes the discrete integration-by-parts identity
sum(f dg) = -sum(df g) exact, which the interaction terms rely on. The
first-derivative weight is precomputed once per grid
(``Grid1D.derivative_weight``).

The per-step transforms (the free half steps and the fused right-hand
side's derivatives, both through :func:`multiply_modes`) call numpy's
pocketfft gufuncs ``numpy.fft._pocketfft_umath.fft``/``ifft`` directly,
with the arguments ``np.fft.fft``/``ifft`` pass them (``numpy.fft.
_pocketfft._raw_fft``: scale 1 forward and 1/n inverse, last axis, an
explicit output). The results are the same bytes as the ``np.fft`` calls
(``tests/test_spectral.py`` pins that), but skip their Python wrapper:
on a (2, 32) array ``np.fft.fft`` took 12.2 us against 5.5 us for the
kernel and ``np.fft.ifft`` 14.8 us against 4.9 us (timeit, numpy 2.4.6),
so the wrapper was most of a transform at the small grids of the noise
ensembles. The explicit output also lets a half step write its inverse
transform straight into the rows of the state. The kernels are private
to numpy >= 2.0, the package's floor; a release that changes them fails
the kernel tests.
"""

from functools import lru_cache

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from .dispersion import DispersionSpec
from .grid import Grid1D

MAX_DERIVATIVE_ORDER = 2
# core axes of the transform gufuncs: field, scale, result
_AXES = [(-1,), (), (-1,)]


@lru_cache(maxsize=None)
def _inverse_scale(n: int) -> np.float64:
    # the factor np.fft.ifft passes; cached, as the scalar call costs ~2 us
    return np.reciprocal(n, dtype=np.float64)


def multiply_modes(field: np.ndarray, factor: np.ndarray,
                   out: np.ndarray = None) -> np.ndarray:
    """``ifft(factor * fft(field))`` along the last axis, into ``out``.

    ``field`` is complex128 of shape (..., n) and ``factor`` broadcasts
    against it; ``out`` (default: a new array) may be ``field`` itself or
    any view of that shape. Byte-identical to
    ``np.fft.ifft(factor * np.fft.fft(field, axis=-1), axis=-1)``.
    """
    modes = _pocketfft.fft(field, 1, axes=_AXES,
                           out=np.empty(field.shape, np.complex128))
    np.multiply(factor, modes, out=modes)
    if out is None:
        out = np.empty_like(modes)
    return _pocketfft.ifft(modes, _inverse_scale(field.shape[-1]), axes=_AXES,
                           out=out)


def spectral_derivative(field: np.ndarray, grid: Grid1D, order: int = 1) -> np.ndarray:
    """d^order/dx^order of ``field``, exact for band-limited data.

    Orders above 2 are rejected: higher derivatives of individual fields
    never appear as independent couplings (they reduce by parts to the
    canonical first-derivative combinations).
    """
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise ValueError(f"derivative order must be a positive integer, got {order}")
    if order > MAX_DERIVATIVE_ORDER:
        raise ValueError(f"derivative order {order} > {MAX_DERIVATIVE_ORDER} rejected")
    field = np.asarray(field)
    if field.shape[-1] != grid.n_points:
        raise ValueError("field length must equal grid.n_points")
    weight = grid.derivative_weight if order == 1 else (1j * grid.k_axis) ** order
    return np.fft.ifft(weight * np.fft.fft(field, axis=-1), axis=-1)


def dispersion_phase(dispersion: DispersionSpec, grid: Grid1D, dt: float) -> np.ndarray:
    """Per-mode phase factors exp(-i omega(k) dt) for a free half/full step."""
    if dt < 0:
        raise ValueError("dt must be non-negative")
    return np.exp(-1j * dispersion.values_on(grid) * dt)


def apply_phase(field: np.ndarray, phase: np.ndarray,
                out: np.ndarray = None) -> np.ndarray:
    """Multiply the field's k-space representation by precomputed phases.

    With ``phase = dispersion_phase(dispersion, grid, dt)`` this is the
    free evolution over dt, a pure k-space rotation that preserves total
    |field|^2 to machine precision. ``out`` may be ``field`` itself.
    """
    return multiply_modes(field, phase, out)


def mode_amplitudes(field: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Normal-mode amplitudes A_k with sum_k |A_k|^2 = sum_i |f_i|^2 dx.

    With this normalization |A_k|^2 is the occupation number of mode k.
    """
    return np.fft.fft(field, axis=-1) * np.sqrt(grid.dx / grid.n_points)
