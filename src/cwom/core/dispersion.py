"""Dispersion relations omega(k) as polynomials in k or tabulated samples.

A ``DispersionSpec`` is the single source of truth for a branch's band:
the integrator evaluates it once on a grid's k-axis, and analysis code
asks it for group velocities.
"""

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid1D


@dataclass(frozen=True)
class DispersionSpec:
    """omega(k), either polynomial-in-k or tabulated on a grid's k-axis.

    Parameters
    ----------
    kind : {"polynomial", "tabulated"}
    coeffs : ascending polynomial coefficients, omega(k) = sum c_n k^n
        (rad/s per (rad/m)^n). Only for kind="polynomial".
    table : real samples of omega on ``grid.k_axis``. Only for
        kind="tabulated"; tied to the grid it was built on.
    """

    kind: str
    coeffs: tuple = ()
    table: np.ndarray = field(default=None, repr=False)
    grid: Grid1D = None

    def __post_init__(self):
        if self.kind == "polynomial":
            if len(self.coeffs) == 0:
                raise ValueError("polynomial dispersion requires coefficients")
        elif self.kind == "tabulated":
            if self.table is None or self.grid is None:
                raise ValueError("tabulated dispersion requires table and grid")
            if np.any(np.imag(self.table) != 0):
                raise ValueError("tabulated dispersion values must be real")
            tab = np.asarray(np.real(self.table), dtype=float)
            if tab.shape != (self.grid.n_points,):
                raise ValueError("table length must match grid.n_points")
            if not np.all(np.isfinite(tab)):
                raise ValueError("tabulated dispersion values must be finite")
            tab.flags.writeable = False
            object.__setattr__(self, "table", tab)
        else:
            raise ValueError(f"unknown dispersion kind {self.kind!r}")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def polynomial(coeffs) -> "DispersionSpec":
        return DispersionSpec(kind="polynomial", coeffs=tuple(float(c) for c in coeffs))

    @staticmethod
    def linear(velocity: float, offset: float = 0.0) -> "DispersionSpec":
        """Transport branch omega(k) = offset + velocity*k."""
        return DispersionSpec.polynomial([offset, velocity])

    @staticmethod
    def flat(omega0: float) -> "DispersionSpec":
        """Dispersionless branch omega(k) = omega0 (typical phonon band)."""
        return DispersionSpec.polynomial([omega0])

    @staticmethod
    def two_sided(speed: float, grid: Grid1D) -> "DispersionSpec":
        """omega(k) = speed*|k|: counter-propagating movers at fixed |v|."""
        return DispersionSpec(kind="tabulated", table=speed * np.abs(grid.k_axis),
                              grid=grid)

    # -- evaluation -----------------------------------------------------

    def values_on(self, grid: Grid1D) -> np.ndarray:
        """omega evaluated on ``grid.k_axis`` (rad/s)."""
        if self.kind == "polynomial":
            vals = np.polynomial.polynomial.polyval(grid.k_axis, self.coeffs)
            if not np.all(np.isfinite(vals)):
                raise ValueError("polynomial dispersion not finite on this k-axis")
            return vals
        if grid is not self.grid and (grid.n_points != self.grid.n_points
                                      or grid.dx != self.grid.dx):
            raise ValueError("tabulated dispersion evaluated on a different grid")
        return self.table

    def omega_at(self, k) -> np.ndarray:
        """omega at arbitrary k (polynomial) or grid k (tabulated)."""
        if self.kind == "polynomial":
            return np.polynomial.polynomial.polyval(np.asarray(k, dtype=float),
                                                    self.coeffs)
        k = np.asarray(k, dtype=float)
        idx = self._grid_index(k)
        return self.table[idx]

    def group_velocity_at(self, k) -> np.ndarray:
        """d omega / dk at k (m/s)."""
        if self.kind == "polynomial":
            dcoeffs = np.polynomial.polynomial.polyder(self.coeffs)
            return np.polynomial.polynomial.polyval(np.asarray(k, dtype=float), dcoeffs)
        # tabulated: centered difference on the sorted axis, sampled at grid k
        order = np.argsort(self.grid.k_axis)
        ks = self.grid.k_axis[order]
        ws = self.table[order]
        v_sorted = np.gradient(ws, ks)
        k = np.asarray(k, dtype=float)
        return np.interp(k, ks, v_sorted)

    def _grid_index(self, k):
        dk = self.grid.dk
        idx = np.rint(np.asarray(k) / dk).astype(int) % self.grid.n_points
        if np.any(np.abs(np.asarray(k) - self.grid.k_axis[idx]) > 1e-9 * dk):
            raise ValueError("tabulated dispersion sampled off the k grid")
        return idx

