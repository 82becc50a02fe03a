"""Field containers: complex photon/phonon amplitudes on a shared grid."""

from dataclasses import dataclass, replace

import numpy as np

from .grid import Grid1D


@dataclass
class FieldState:
    """Photon field a(x) and phonon field b(x) on one grid.

    Both fields carry units m^(-1/2): sum |a_i|^2 dx is the photon number
    in the domain, likewise for phonons, in the lab frame. Axes in front
    of the grid's are batch axes, one state per row (``evolve_batch``).
    """

    grid: Grid1D
    a: np.ndarray
    b: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=np.complex128)
        self.b = np.asarray(self.b, dtype=np.complex128)
        n = self.grid.n_points
        if self.a.shape != self.b.shape or self.a.shape[-1:] != (n,):
            raise ValueError("field arrays must share one (..., n_points) shape")

    @staticmethod
    def vacuum(grid: Grid1D) -> "FieldState":
        return FieldState(grid, grid.zeros(), grid.zeros())

    def photon_number(self) -> float:
        return float(np.sum(np.abs(self.a) ** 2) * self.grid.dx)

    def phonon_number(self) -> float:
        return float(np.sum(np.abs(self.b) ** 2) * self.grid.dx)

    def displacement(self) -> np.ndarray:
        """u(x) = b + b*: the normalized mechanical displacement."""
        return self.b + np.conj(self.b)

    def copy(self) -> "FieldState":
        return replace(self, a=self.a.copy(), b=self.b.copy())
