"""Uniform periodic 1D grid with its discrete wavenumber axis."""

from dataclasses import dataclass, field

import numpy as np


def is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid of ``n_points`` cells of width ``dx`` (meters).

    ``n_points`` must be a power of two so transform round-trips are exact
    and fast. The wavenumber axis follows the standard discrete-transform
    ordering: ``k_axis[0] = 0`` and ``max |k| = pi/dx``.
    ``derivative_weight`` is the first-derivative multiplier ``1j * k_axis``
    with the Nyquist mode zeroed (see :mod:`cwom.core.spectral`).
    """

    n_points: int
    dx: float
    k_axis: np.ndarray = field(init=False, repr=False, compare=False)
    derivative_weight: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not is_power_of_two(self.n_points):
            raise ValueError(f"n_points must be a power of two, got {self.n_points}")
        if not (self.dx > 0):
            raise ValueError(f"dx must be positive, got {self.dx}")
        k = 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dx)
        k.flags.writeable = False
        object.__setattr__(self, "k_axis", k)
        w = 1j * k
        w[self.n_points // 2] = 0.0
        w.flags.writeable = False
        object.__setattr__(self, "derivative_weight", w)

    @property
    def length(self) -> float:
        """Total domain length in meters."""
        return self.n_points * self.dx

    @property
    def x_axis(self) -> np.ndarray:
        """Cell positions x_i = i*dx, i = 0..n-1."""
        return np.arange(self.n_points) * self.dx

    @property
    def dk(self) -> float:
        """Wavenumber spacing 2*pi/length."""
        return 2.0 * np.pi / self.length

    def zeros(self) -> np.ndarray:
        return np.zeros(self.n_points, dtype=np.complex128)
