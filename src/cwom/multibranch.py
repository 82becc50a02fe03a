"""Coupled evolution of several optical branches and one phonon field.

Each branch carries its own rotating frame at the lab carrier frequency
omega (its carrier wavenumber is the lab one, k = 0) and its envelope
dispersion; the phonon frame Omega_d is independent. In these frames the
pointwise interaction splits into channels

    d a_j/dt += i g(j,l) a_l * {b  with phase offset w_l-w_j+Omega_d
                                b* with phase offset w_l-w_j-Omega_d}
    d b/dt   += i g(j,l) conj(a_j) a_l * phase offset w_l-w_j-Omega_d

with phase offset W meaning a factor exp(-i W t). Only phase-matched
channels, whose W lies within ``MATCH_TOL`` of zero, are built: frames
that satisfy three-wave matching make the physical process (amplifying
or swapping) autonomous, and the counter-rotating and mismatched
channels are dropped.

Branch equations reuse the pointwise coupling only; derivative couplings
are a single-branch feature of the core interaction.

:class:`MultiBranchStepper` is a model of the shared split-step core
(:class:`cwom.dynamics.stepper.SplitStepper`): its stacked state has
shape (n_branches + 1, n), branch rows first and the phonon row last.
Frozen branches are left out of the live rows, so they skip the free
half steps and the absorber and carry a zero derivative; a step costs 4
transforms however many branches there are. Like every state the core
steps, ``MultiBranchState`` holds that stacked array itself (``rows``),
with ``fields`` and ``b`` as row views for callers, so a step copies it
once and hands the result back without restacking.

What one right-hand side evaluation does is settled in the stepper's
constructor: the kept channels become a term table whose first term per
row is written straight into the row and later ones are added in
channel order, and the conjugated rows come from one ``np.conj`` of the
whole state. Every product keeps the operand order of the plain
per-channel sum into a zero-filled array (see
:mod:`cwom.dynamics.stepper`), so the derivative has the same value in
every entry. Only the sign of an exact zero can differ: the plain sum
turns a first term of -0.0 into 0.0 + -0.0 = +0.0. No later sum or
product of the step turns such a zero into a different non-zero value,
and stepped states have compared byte for byte with the plain sum (C2
forward and backward, vacuum starts, frozen rows).
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core.dispersion import DispersionSpec
from .core.grid import Grid1D
from .core.spectral import dispersion_phase
from .dynamics.boundary import AbsorberProfile, DepositPlan
from .dynamics.drive import EndfireDrive
from .dynamics.stepper import SplitStepper, band_rates, dt_bound

MATCH_TOL = 1e-9  # a phase offset |W| (rad/s) below this counts as matched


@dataclass(frozen=True)
class BranchConfig:
    """One optical branch: envelope dispersion in its own rotating frame."""

    dispersion: DispersionSpec
    frame_omega: float = 0.0
    kappa: float = 0.0
    drive: Optional[EndfireDrive] = None
    frozen: bool = False

    def __post_init__(self):
        if self.kappa < 0:
            raise ValueError("branch decay rate kappa must be non-negative")


@dataclass(frozen=True)
class PhononConfig:
    """The phonon field's envelope frame, band, and damping."""

    dispersion: DispersionSpec
    frame_omega: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("phonon decay rate gamma must be non-negative")


class MultiBranchState:
    """Branch fields and the phonon field of one multi-branch run.

    The fields are stored as the rows of one (n_branches + 1, n) array
    ``rows``, branches first and the phonon last; ``fields[j]`` and ``b``
    are views of its rows, so the stepper steps the state without
    restacking it. ``copy()`` is deep.
    """

    def __init__(self, grid: Grid1D, fields, b, time: float = 0.0):
        fields = [np.asarray(f, dtype=np.complex128) for f in fields]
        b = np.asarray(b, dtype=np.complex128)
        n = grid.n_points
        for f in fields:
            if f.shape != (n,):
                raise ValueError("branch field length must match the grid")
        if b.shape != (n,):
            raise ValueError("phonon field length must match the grid")
        self.grid = grid
        self.rows = np.stack(fields + [b])
        self.time = time

    fields = property(lambda self: tuple(self.rows[:-1]), doc="The branch rows.")
    b = property(lambda self: self.rows[-1], doc="The phonon row.")

    @staticmethod
    def vacuum(grid: Grid1D, n_branches: int) -> "MultiBranchState":
        return MultiBranchState(grid, [grid.zeros() for _ in range(n_branches)],
                                grid.zeros())

    def photon_number(self, j: int) -> float:
        return float(np.sum(np.abs(self.rows[j]) ** 2) * self.grid.dx)

    def phonon_number(self) -> float:
        return float(np.sum(np.abs(self.rows[-1]) ** 2) * self.grid.dx)

    def copy(self) -> "MultiBranchState":
        return MultiBranchState(self.grid, self.rows[:-1], self.rows[-1],
                                self.time)


@dataclass(frozen=True)
class _Channel:
    j: int
    l: int
    g: complex
    conjugate_b: bool


class MultiBranchSystem:
    """Validated configuration + its phase-matched channels; noiseless."""

    def __init__(self, grid: Grid1D, branches, phonon: PhononConfig,
                 g0_matrix, absorber: AbsorberProfile = None):
        self.grid = grid
        self.branches = tuple(branches)
        self.phonon = phonon
        g = np.asarray(g0_matrix, dtype=complex)
        nb = len(self.branches)
        if g.shape != (nb, nb):
            raise ValueError("g0_matrix shape must match the branch count")
        if not np.allclose(g, g.conj().T, rtol=1e-12, atol=0.0):
            raise ValueError("g0_matrix must be Hermitian")
        self.g0 = g
        self.absorber = absorber
        self.photon_channels, self.phonon_channels = self._build_channels()

    def bound_rates(self) -> list:
        """The live branches' kappa, the phonon gamma and :func:`band_rates`
        of the live bands (transport with a drive or an absorber): the rates
        of the stepper's :func:`dt_bound`."""
        live = [b for b in self.branches if not b.frozen]
        return [b.kappa for b in live] + [self.phonon.gamma] + band_rates(
            [b.dispersion for b in live] + [self.phonon.dispersion], self.grid,
            omega=False,
            transport=(any(b.drive is not None for b in self.branches)
                       or self.absorber is not None))

    def _build_channels(self):
        photon, phonon = [], []
        Od = self.phonon.frame_omega
        for j, bj in enumerate(self.branches):
            for l, bl in enumerate(self.branches):
                g = complex(self.g0[j, l])
                if g == 0.0:
                    continue
                dw = bl.frame_omega - bj.frame_omega
                for conj_b, sgn in ((False, +1.0), (True, -1.0)):
                    if _matched(dw + sgn * Od):
                        photon.append(_Channel(j=j, l=l, g=g, conjugate_b=conj_b))
                # phonon channel: conj(a_j) a_l with phase offset dw - Od
                if _matched(dw - Od):
                    phonon.append(_Channel(j=j, l=l, g=g, conjugate_b=False))
        return photon, phonon


def _matched(W: float) -> bool:
    """Whether a channel's phase offset W vanishes."""
    return abs(W) < MATCH_TOL


class MultiBranchStepper(SplitStepper):
    """Split-step model of the stacked branch + phonon state.

    Rows: the branches in order, then the phonon. The right-hand side
    holds frozen rows by a zero derivative, and a frozen branch passes no
    loss to the core; each driven branch takes its deposit.

    A dt above :func:`dt_bound` of :meth:`MultiBranchSystem.bound_rates`
    raises ``ValueError``. The pump coupling rate is the caller's to add
    to those rates (see ``experiments.run_two_branch_gain``).
    """

    def __init__(self, system: MultiBranchSystem, dt: float):
        branches = system.branches
        live = [j for j, b in enumerate(branches) if not b.frozen]
        super().__init__(system.grid, dt,
                         live=(slice(None) if len(live) == len(branches)
                               else np.array(live + [len(branches)])),
                         absorber=system.absorber)
        bound = dt_bound(system.bound_rates())
        if dt > bound:
            raise ValueError(f"dt = {dt:.3e} s exceeds the multi-branch stability "
                             f"bound {bound:.3e} s; reduce dt")
        self.system = system
        self.photon_rows = len(branches)
        self._half = np.stack(
            [dispersion_phase(b.dispersion, system.grid, 0.5 * dt) for b in branches]
            + [dispersion_phase(system.phonon.dispersion, system.grid, 0.5 * dt)]
        )[self._live]
        self._set_losses([(0.0 if b.frozen else b.kappa, 0.0) for b in branches]
                         + [(system.phonon.gamma, 0.0)], system.grid.dx)
        self._settle_rhs(system)
        self._deposits = [
            (j, DepositPlan(system.grid, b.dispersion, b.drive, b.frame_omega,
                            dt))
            for j, b in enumerate(branches) if b.drive is not None]

    def _settle_rhs(self, system: MultiBranchSystem):
        """What each right-hand side evaluation does, settled once.

        One term per kept channel, photon channels first, each
        ``coef * left * right`` with an operand
        given as (conjugated, row). A row's first term is written straight
        into it (a zero term keeps its sign here, where a sum into zeros
        would give +0.0), later ones are added in channel order.
        """
        branches = system.branches
        phonon_row = len(branches)
        channels = ([(ch.j, (0, ch.l), (int(ch.conjugate_b), phonon_row), ch)
                     for ch in system.photon_channels
                     if not branches[ch.j].frozen]
                    + [(phonon_row, (1, ch.j), (0, ch.l), ch)
                       for ch in system.phonon_channels])
        self._terms = []
        written = set()
        for row, left, right, ch in channels:
            self._terms.append((row, row not in written, 1j * ch.g, left, right))
            written.add(row)

    def _rhs(self, y, t):
        """Interaction derivative of every row of ``y``."""
        dy = np.zeros(y.shape, dtype=y.dtype)
        operands = (y, np.conj(y))
        for row, first, coef, (lc, l), (rc, r) in self._terms:
            term = np.multiply(coef, operands[lc][l], out=dy[row] if first else None)
            term *= operands[rc][r]
            if not first:
                dy[row] += term
        return dy
