"""Spectral calculus on the periodic grid: derivatives and free evolution.

Derivatives are evaluated mode-by-mode as (ik)^order, which realizes the
derivative couplings exactly for every represented wavenumber. For odd
orders the Nyquist mode weight is set to zero; this keeps the derivative
of a real field real and makes the discrete integration-by-parts identity
sum(f dg) = -sum(df g) exact, which the interaction terms rely on. The
first-derivative weight is precomputed once per grid
(``Grid1D.derivative_weight``).
"""

import numpy as np

from .dispersion import DispersionSpec
from .grid import Grid1D

MAX_DERIVATIVE_ORDER = 2


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


def conjugate_dispersion_phase(dispersion: DispersionSpec, grid: Grid1D,
                               dt: float) -> np.ndarray:
    """Phase factors exp(+i omega(-k) dt): free step of a conjugated field."""
    if dt < 0:
        raise ValueError("dt must be non-negative")
    return np.exp(-1j * dispersion.negated_reflection(grid) * dt)


def apply_phase(field: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """Multiply the field's k-space representation by precomputed phases."""
    modes = np.fft.fft(field, axis=-1)
    return np.fft.ifft(np.multiply(phase, modes, out=modes), axis=-1)


def apply_dispersion(field: np.ndarray, dispersion: DispersionSpec, dt: float,
                     grid: Grid1D) -> np.ndarray:
    """Evolve ``field`` freely for time dt under its dispersion relation.

    A pure k-space rotation: total |field|^2 is preserved to machine
    precision.
    """
    return apply_phase(field, dispersion_phase(dispersion, grid, dt))


def mode_amplitudes(field: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Normal-mode amplitudes A_k with sum_k |A_k|^2 = sum_i |f_i|^2 dx.

    With this normalization |A_k|^2 is the occupation number of mode k.
    """
    return np.fft.fft(field, axis=-1) * np.sqrt(grid.dx / grid.n_points)
