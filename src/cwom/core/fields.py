"""Field containers: complex photon/phonon amplitudes on a shared grid."""

import numpy as np

from .grid import Grid1D


class FieldState:
    """Photon field a(x) and phonon field b(x) on one grid.

    Both fields carry units m^(-1/2): sum |a_i|^2 dx is the photon number
    in the domain, likewise for phonons, in the lab frame. The fields are
    stored as the rows of one (..., 2, n) array ``rows``, a first and b
    second; ``a`` and ``b`` are views of its rows, so a stepper steps the
    state without restacking it. Axes in front of (2, n) are batch axes,
    one state per row (``evolve_batch``). ``copy()`` is deep.
    """

    def __init__(self, grid: Grid1D, a, b, time: float = 0.0):
        a = np.asarray(a, dtype=np.complex128)
        b = np.asarray(b, dtype=np.complex128)
        if a.shape != b.shape or a.shape[-1:] != (grid.n_points,):
            raise ValueError("field arrays must share one (..., n_points) shape")
        self.grid = grid
        self.rows = np.stack((a, b), axis=-2)
        self.time = time

    a = property(lambda self: self.rows[..., 0, :], doc="The photon row.")
    b = property(lambda self: self.rows[..., 1, :], doc="The phonon row.")

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
        return FieldState(self.grid, self.a, self.b, self.time)
