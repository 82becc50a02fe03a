"""Time evolution: one Strang split-step core with damping, end-fire
drive and Langevin noise, and the waveguide model built on it.

Step layout (one dt), shared by every solver in the package:

    half free evolution (exact k-space rotation of the live rows)
    middle substep over dt:
        RK4 on interaction - loss                   (4th order, explicit)
        Euler-Maruyama noise increments             (if Wigner sampling)
        end-fire source deposits + inlet vacuum     (if driven)
        absorbing-layer decay                       (if configured)
        finiteness guard
    half free evolution

The splitting is symmetric, hence 2nd order overall (Strang, SIAM J.
Numer. Anal. 5, 506 (1968)); the explicit middle substep keeps the
non-diagonal derivative couplings away from any implicit solve.

Seams. The free flow composes exactly with itself, so the closing half
step of one step and the opening half step of the next are one full free
step, by the squared half-step phases ``half * half`` (Hairer, Lubich and
Wanner, Geometric Numerical Integration, 2006). :meth:`SplitStepper.run`
merges them between two points where the state is read:

    half free step                     opening seam
    middle substep, full free step     every step but the last of a segment
    middle substep, half free step     closing seam: a record point with
                                       observers, or the end of the run

Every step still goes through :meth:`SplitStepper.step_inplace`, which
takes the seams as two keyword flags; its defaults are one whole step.
Between seams the state is half a free step ahead of a whole step, and
nothing reads it there. A run without observers (as in
:func:`evolve_batch`) is one segment; a run that records every step with
observers takes whole steps only. The merged sequence differs from the
whole steps in the last bits only.
:class:`SplitStepper` runs this step on one stacked complex array of shape
(rows, n), and the RK4 substep is whole-array arithmetic on the
right-hand side a model fills row by row. Every state holds that array
itself, as ``rows`` (its fields are views of the rows), and a step hands
the stepped array back as the new ``rows``: the waveguide model
:class:`Stepper` steps a ``FieldState``'s (a, b) rows, and its siblings
(``multibranch``, ``lattice``) step their own states' rows. A step that
opens with its own half step copies ``rows`` first, as the half step
writes in place; a merged step (every step of a run between two seams)
does not copy, because its middle substep only reads ``rows`` and
returns a fresh array, which the rest of the step writes. Either way a
step that raises leaves the state as it was.

What the linear parts of a step cost is settled at construction, per
row, from the half-step phase rows a model builds and from its loss
rates:

    free half step, phase the same on every mode    one in-place scalar
                                                    product, p * row
    free half step, phase exactly 1 (a band flat    nothing
        at 0), or a frozen multi-branch row
    free half step, dispersive                      the transform pair
    middle substep, no interaction                  one column product,
                                                    P(-rate dt / 2) * y
    middle substep, otherwise                       the RK4 (below)

A flat band's half step is exactly one phase, so the transform pair only
added rounding there; the dispersive rows go through one batched
forward/inverse pair per run of consecutive rows (one run in every model
here). With P(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, the column product is
the RK4 of pure decay y' = -rate y / 2 written out (a factor of 1 on
undamped rows); it replaces four derivative evaluations and is still a
fresh array. Runs whose live rows are all dispersive and that have an
interaction take the same bytes as the plain transform-pair and RK4
step; the shortcuts change other runs only in the last bits.

A half step writes its inverse transform straight into the rows of the
state (``apply_phase(rows, half, out=rows)``). The transforms call numpy's
pocketfft kernels directly (``core.spectral``): at the small grids of
the noise ensembles the ``np.fft`` wrapper took longer than the
transform itself, and its ``out=`` alone bought nothing. Writing into
the state also keeps the step from allocating, and glibc from trimming
and refaulting, a fresh (rows, n) block per half step at n = 4096.

The RK4 substep works in place: the stage inputs are built in one reused
buffer (``np.multiply(h, k, out=s); s += y``) and the k's are summed into
``k1``, left to right as in ``k1 + 2 k2 + 2 k3 + k4``, before the one
fresh array ``y + dt / 6.0 * k1``. Every result is byte-identical to the
plain expressions ``y + 0.5 * dt * k1`` and ``y + dt / 6.0 * (k1 + 2 *
k2 + 2 * k3 + k4)``: additions are commutative in IEEE
arithmetic, but products of two complex arrays are not bitwise
commutative where the loops use FMA, so an in-place rewrite must keep
each product's operand order (``np.multiply(phase, f, out=f)``, never
``f *= phase``).

The step itself is a straight line over what construction settled: the
free-step plan above, the substep (the RK4, or the column product
without an interaction), the noise rows and deposits, and the absorber,
one in-place product ``y * decay`` when every row is live and an indexed
product that leaves frozen multi-branch rows alone otherwise. A state
without batch axes is indexed by row alone.

What one RK4 stage costs is settled at construction too: the loss as
complex columns of 0.5 * rate (no cast per call), and in
:class:`Stepper` the coupling constants as the term table of the fused
interaction:

    derivative couplings   interaction, 8 transforms, then the loss: one
                           (k, 1) column product per run of k damped rows
    pointwise (g_ppp only) interaction, no transform, then the loss

Wigner noise scales are settled per damped row and each step only
draws; a cw end-fire drive settles its source deposit
(``DepositPlan``), which writes straight into its row of the stacked
state. All stochastic draws come from one Generator in a fixed order, so
a seed pins the whole trajectory bit-for-bit. A Wigner step draws m
standard normals: 2 n per noisy damped row (real parts, then imaginary
parts), then a (re, im) pair per vacuum inlet. :meth:`SplitStepper.run`
draws K = NOISE_BLOCK_VALUES // m steps of them (at most the steps
left) as one (K, m) array, scales each row's (K, 2, n) slice once
(``draw_noise_field``: sigma, then sqrt(rate), then dt) and hands each
step its row of the block. Philox streams are counter-based and a
Generator fills an array in stream order (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC'11), so K steps drawn at once
are the numbers, and the bytes, of K steps drawn one by one, and a run
leaves its Generator where the steps one by one would. A step called on
its own, or in a run where K would be under 2, draws after its RK4; when
its only noise is the inlets' vacuum, it takes each inlet's pair as two
scalar normals, the same stream without an array.

Batch axis. :meth:`SplitStepper.step_inplace` steps ``rows`` of shape
(..., rows, n); the leading axes are batch rows, each stepped exactly as
it would be alone (batched transforms and column-broadcast products
round row for row like the single calls). :func:`evolve_batch` uses one
leading axis for configurations: B coupling sets of one class, from one
initial state, on one grid, dt and step count, run as one state whose
rows have shape (B, 2, n), and the term table holds each constant as a
(B, 1) column. Only closed, undriven runs are batched: per-row noise
streams would need one Generator per row.
"""

from dataclasses import dataclass
from itertools import repeat
from numbers import Integral
from typing import Callable

import numpy as np

from ..core.couplings import CouplingSet
from ..core.dispersion import DispersionSpec
from ..core.fields import FieldState
from ..core.interaction import CouplingTerms, energy_from_bands, fused_rhs
from ..core.spectral import apply_phase, dispersion_phase
from .bath import BathSpec, draw_noise_field, noise_scales
from .boundary import AbsorberProfile, DepositPlan
from .drive import EndfireDrive
from .rng import trajectory_generator

NOISE_BLOCK_VALUES = 8192  # standard normals a run draws per call (64 KB)


def _rk4_decay(z: float) -> float:
    """P(z) = 1 + z + z^2/2 + z^3/6 + z^4/24: one RK4 step of y' = (z/dt) y."""
    return 1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24


def _runs(rows) -> list:
    """One slice per run of consecutive values of the sorted ``rows``."""
    runs = []
    for row in map(int, rows):
        if runs and runs[-1].stop == row:
            runs[-1] = slice(runs[-1].start, row + 1)
        else:
            runs.append(slice(row, row + 1))
    return runs


class DivergenceError(RuntimeError):
    """The integrator produced non-finite fields."""

    def __init__(self, step_index: int, time: float, max_a: float, max_b: float):
        self.step_index = step_index
        self.time = time
        self.max_a = max_a
        self.max_b = max_b
        super().__init__(
            f"divergence at step {step_index} (t = {time:.6e} s): "
            f"max|a| = {max_a:.3e}, max|b| = {max_b:.3e}; "
            "reduce dt or check the stability bound")

    def __reduce__(self):
        # pickling (a worker process's error) rebuilds from the fields,
        # not from the message
        return type(self), (self.step_index, self.time, self.max_a, self.max_b)

    @classmethod
    def from_fields(cls, step_index: int, time: float, a, b) -> "DivergenceError":
        """Report the largest finite |a| and |b|; inf where none is finite."""
        return cls(step_index, time, _max_finite_abs(a), _max_finite_abs(b))


def _max_finite_abs(values) -> float:
    finite = values[np.isfinite(values)]
    return float(np.max(np.abs(finite))) if finite.size else np.inf


@dataclass
class Trajectory:
    """Observables recorded along one run, plus the final state."""

    times: np.ndarray
    records: dict
    final_state: object


class SplitStepper:
    """Strang step over a stacked complex state ``y`` of shape (rows, n).

    A state holds ``y`` itself, as its ``rows`` array, and its ``time``; a
    step hands the stepped array back as the new ``rows``. A step that
    opens with a half step copies ``rows`` first; a merged step reads it
    and writes only fresh arrays. So a step that raises leaves the state
    as it was.

    A model subclass calls ``__init__`` first (it validates dt), sets
    ``_half``, the half-step phase rows of ``y[live]``, and then passes
    its losses to ``_set_losses``, which settles the per-row plan of the
    linear parts of the step from both. It supplies only ``_rhs(y, t)``,
    the interaction of every row as one (rows, n) array, or ``_rhs =
    None`` without one. ``_rhs`` only reads ``y``, which in a merged step
    is the state's own ``rows``. Its array must be fresh on every call:
    the core subtracts the loss from it and overwrites the k's while
    summing them, so it may neither alias ``y`` nor be a buffer the model
    keeps. Drives
    are ``_deposits`` (row, DepositPlan). A model may set ``photon_rows``
    (the leading rows the divergence report counts as photon fields).
    Rows outside ``live`` (frozen fields) skip the half steps and the
    absorber.
    """

    photon_rows = 1
    _deposits = ()

    def __init__(self, grid, dt: float, live=slice(None),
                 absorber: AbsorberProfile = None, wigner: bool = False):
        if dt is None or dt <= 0:
            raise ValueError("dt must be positive")
        self.grid = grid
        self.dt = dt
        self._live = live
        self._wigner = wigner
        # complex, so the decay product skips a per-step cast of the factors
        self._decay = (absorber.decay_factors(dt).astype(np.complex128)
                       if absorber is not None else None)
        # every row live: the absorber is one in-place product of the rows
        self._decay_all = (self._decay is not None and isinstance(live, slice)
                           and live == slice(None))

    def _set_losses(self, losses, dx: float):
        """One (rate, occupation) per stacked row, on cells of width ``dx``:
        the damped rows, loss columns, noise scales, uncoupled substep and
        free-step plan (from ``_half``, set before), settled once."""
        self._damped = [(row, rate, occupation)
                        for row, (rate, occupation) in enumerate(losses) if rate]
        half_rates = np.array([[0.5 * rate] for rate, _ in losses],
                              dtype=np.complex128)
        self._loss_runs = [(rows, half_rates[rows])
                           for rows in _runs(row for row, _, _ in self._damped)]
        self._noise = ([(row, *noise_scales(dx, rate, occupation, self.dt))
                        for row, rate, occupation in self._damped]
                       if self._wigner else [])
        # the RK4 of y' = -0.5 rate y over dt is y * P(-0.5 rate dt), 1 undamped
        self._uncoupled = np.array([[_rk4_decay(-0.5 * rate * self.dt)]
                                    for rate, _ in losses], dtype=np.complex128)
        self._settle_free_step(len(losses))

    def _settle_free_step(self, n_rows: int):
        """Sort the live rows by their half-step phase row: the same phase on
        every mode is one scalar product, or nothing when it is exactly 1;
        the other rows keep the transform pair, one per run of consecutive
        rows. Each entry holds the half-step phases and the squared phases
        ``half * half`` of the full step between two merged steps."""
        rows = np.arange(n_rows)[self._live]
        first = self._half[:, 0]
        flat = (self._half == first[:, None]).all(axis=1)
        full = self._half * self._half
        self._scalar_phases = [(int(rows[i]), first[i], full[i, 0])
                               for i in np.flatnonzero(flat & (first != 1))]
        # the live rows are sorted, so a run of them is a run of _half's
        # rows too, and its slice of _half a view, not a copy
        self._moving = []
        for run in _runs(rows[~flat]):
            at = slice(*np.searchsorted(rows, (run.start, run.stop)))
            self._moving.append((run, self._half[at], full[at]))

    def _step_values(self) -> int:
        """Standard normals one Wigner step draws: 2 n per noisy damped
        row, then a (re, im) pair per inlet."""
        return (2 * self._half.shape[-1] * len(self._noise)
                + 2 * len(self._deposits))

    def _draw(self, rng, k: int) -> list:
        """The noise of the next ``k`` steps from one call on ``rng``, one
        (fields, pairs) item per step: each noisy row's increment
        dt * sqrt(rate) * xi in ``_noise`` order, then each inlet's
        (re, im) pair.

        The normals are one (k, m) draw, a step per row laid out as the
        step draws them alone. A draw of (k, m) is the stream of k draws
        of m, so a block rounds and ends where k single steps would.
        """
        n, n_rows = self._half.shape[-1], len(self._noise)
        normals = rng.standard_normal((k, self._step_values()))
        rows = normals[:, :2 * n * n_rows].reshape(k, n_rows, 2, n)
        fields = [draw_noise_field(rows[:, i], sigma, root_rate, self.dt)
                  for i, (_, sigma, root_rate) in enumerate(self._noise)]
        # as Python floats, which the deposit's scalar arithmetic takes fastest
        pairs = normals[:, 2 * n * n_rows:].reshape(k, -1, 2).tolist()
        return list(zip(zip(*fields) if fields else repeat((), k), pairs))

    def _noise_steps(self, rng, n_steps: int):
        """The noise of each of ``n_steps`` steps, ``NOISE_BLOCK_VALUES //
        m`` steps per call (at most the steps left), each block drawn when a
        step needs it; None without Wigner sampling or for blocks of one."""
        per_call = (NOISE_BLOCK_VALUES // max(1, self._step_values())
                    if self._wigner else 0)
        if per_call <= 1:
            yield from repeat(None, n_steps)
            return
        for start in range(0, n_steps, per_call):
            yield from self._draw(rng, min(per_call, n_steps - start))

    def _kick(self, y, t, noise):
        """Add one step's ``noise`` (an item of :meth:`_draw`, None without
        Wigner sampling) and source deposits to ``y`` in place."""
        if noise is None:
            for row, plan in self._deposits:
                plan.apply(y[row], t)
            return
        fields, pairs = noise
        for (row, _, _), field in zip(self._noise, fields):
            values = y[row]
            values += field
        for (row, plan), pair in zip(self._deposits, pairs):
            plan.apply(y[row], t, pair)

    def _free_step(self, y, full: bool = False):
        """Free evolution of the live rows of ``y`` in place, by the settled
        half-step phases, or by their squares (a full step) when ``full``."""
        flat = y.ndim == 2  # no batch axes: a row is one index
        if self._scalar_phases:
            for row, half, whole in self._scalar_phases:
                values = y[row] if flat else y[..., row, :]
                np.multiply(whole if full else half, values, out=values)
        if self._moving:
            for run, half, whole in self._moving:
                rows = y[run] if flat else y[..., run, :]
                apply_phase(rows, whole if full else half, out=rows)

    def _derivative(self, y, t):
        """Interaction - loss of ``y`` at ``t``, a fresh array."""
        dy = self._rhs(y, t)
        flat = y.ndim == 2
        for rows, half_rates in self._loss_runs:
            if flat:
                lost, values = dy[rows], y[rows]
            else:
                lost, values = dy[..., rows, :], y[..., rows, :]
            lost -= half_rates * values
        return dy

    def _rk4(self, y, t):
        """The RK4 substep of ``y`` over dt from ``t``, as a fresh array.

        One stage buffer s; the k's are summed into k1 in place, left to
        right, each product keeping its operand order. The result is
        fresh: updating y in place moves the state's block down the heap,
        and glibc then trims and refaults the blocks above it every step
        at n = 4096 (minor faults per cli_recorded solve: about 35 000
        with a fresh y, 313 000 in place).
        """
        dt = self.dt
        h = 0.5 * dt
        k1 = self._derivative(y, t)
        s = np.multiply(h, k1)
        s += y
        k2 = self._derivative(s, t + h)
        np.multiply(h, k2, out=s)
        s += y
        k3 = self._derivative(s, t + h)
        np.multiply(dt, k3, out=s)
        s += y
        k4 = self._derivative(s, t + dt)
        k1 += np.multiply(2, k2, out=k2)
        k1 += np.multiply(2, k3, out=k3)
        k1 += k4
        return y + dt / 6.0 * k1

    def step_inplace(self, state, rng=None, step_index: int = 0, *,
                     open_half: bool = True, close_full: bool = False,
                     noise=None):
        """One Strang step of ``state``. Axes of its ``rows`` in front of
        (rows, n) are batch axes, stepped row for row as each row would be
        alone, for a model whose ``_rhs`` takes them (a coupling-batch
        :class:`Stepper`).

        The seam flags merge the free steps of consecutive steps. With
        ``open_half=False`` the step skips its opening half step: the
        state already carries it, from a step before that closed with
        ``close_full=True``, i.e. with a full free step (the squared
        half-step phases) in place of its closing half step. Between two
        such steps the state is half a free step ahead of a whole step.
        The defaults give one whole step.

        ``noise`` is this step's item of a block that :meth:`run` drew
        ahead. Without it, a step with Wigner sampling draws its own from
        ``rng`` after its RK4, as a block of one step: the same stream and
        bytes. A step whose only noise is its inlets' vacuum draws each
        inlet's pair as two scalar normals, which is the same stream too.
        """
        t = state.time
        draw = noise is None and self._wigner
        if draw and rng is None:
            raise ValueError("Wigner sampling requires an rng")
        if open_half:
            # a copy, which the half step writes: a step that raises leaves
            # the state as it was
            y = state.rows.copy()
            self._free_step(y)
        else:
            # no copy: the middle substep only reads the state's rows and
            # returns a fresh array, which the rest of the step writes
            y = state.rows
        if self._rhs is None:  # linear decay only
            y = np.multiply(self._uncoupled, y)  # fresh, as the RK4's result
        else:
            y = self._rk4(y, t)
        if not draw:
            self._kick(y, t, noise)
        elif self._noise:
            self._kick(y, t, self._draw(rng, 1)[0])
        else:
            for row, plan in self._deposits:
                plan.apply(y[row], t, (rng.standard_normal(), rng.standard_normal()))
        if self._decay_all:
            np.multiply(y, self._decay, out=y)
        elif self._decay is not None:  # frozen rows keep their values
            y[..., self._live, :] *= self._decay

        # the float64 view checks the same entries in one faster pass, and
        # the reduce skips the Python layer of ndarray.all
        if not np.logical_and.reduce(np.isfinite(y.view(np.float64)), axis=None):
            p = self.photon_rows
            raise DivergenceError.from_fields(step_index, t, y[..., :p, :],
                                              y[..., p:, :])

        self._free_step(y, full=close_full)
        state.rows = y
        state.time = t + self.dt
        return state

    def run(self, state, n_steps: int, observers: dict = None,
            record_every: int = 1, rng: np.random.Generator = None) -> Trajectory:
        """Step a copy of ``state`` ``n_steps`` times, recording observers.

        The initial state is recorded first, then every ``record_every``
        steps (a positive integer) and after the last step. Observers are
        callables state -> value, keyed by name. A negative ``n_steps``
        raises ``ValueError``.

        Every step goes through :meth:`step_inplace`. Between two points
        where the state is read, the closing half step of one step and the
        opening half step of the next are merged into one full free step
        (see its seam flags). The state is whole at every record point
        with observers and after the last step, so observers and the
        final state see whole steps only; without observers the run is
        one merged segment.

        With Wigner sampling the noise of up to ``NOISE_BLOCK_VALUES // m``
        steps (m normals per step, see :meth:`_draw`) is drawn from ``rng``
        in one call, and each step takes its row of the block (a block of
        one is drawn by :meth:`step_inplace`, after its RK4). The run
        draws exactly the steps it takes, so trajectories, records and the
        generator's state after the run are those of stepping one step at
        a time. A run that ends in :class:`DivergenceError` may leave
        ``rng`` up to one block ahead of the failing step.
        """
        if n_steps < 0:
            raise ValueError(f"n_steps must be non-negative, got {n_steps}")
        if (isinstance(record_every, bool) or not isinstance(record_every, Integral)
                or record_every < 1):
            raise ValueError(
                f"record_every must be a positive integer, got {record_every!r}")
        if n_steps and self._wigner and rng is None:
            raise ValueError("Wigner sampling requires an rng")
        observers = observers or {}
        observed = bool(observers)
        final = n_steps - 1
        work = state.copy()
        times = [work.time]
        records = {name: [obs(work)] for name, obs in observers.items()}
        whole = True  # the state is at a whole step
        for i, noise in zip(range(n_steps), self._noise_steps(rng, n_steps)):
            last = i == final
            record = (i + 1) % record_every == 0 or last
            seam = last or (record and observed)  # read after this step
            self.step_inplace(work, rng=rng, step_index=i, open_half=whole,
                              close_full=not seam, noise=noise)
            whole = seam
            if record:
                times.append(work.time)
                for name, obs in observers.items():
                    records[name].append(obs(work))
        return Trajectory(times=np.asarray(times), records=records,
                          final_state=work)


@dataclass(frozen=True)
class DispersionPair:
    photon: DispersionSpec
    phonon: DispersionSpec


def transport_rate(band, grid) -> float:
    """max_k |v_g(k)| / (2 dx) of ``band`` on ``grid``, or its detuning
    |omega(0)| from the frame if larger (see :func:`stability_bound`)."""
    return max(float(np.max(np.abs(band.group_velocity_at(grid.k_axis))))
               / (2.0 * grid.dx), abs(float(band.omega_at(0.0))))


def band_rates(bands, grid, *, omega: bool, transport: bool) -> list:
    """The band terms of a run's :func:`dt_bound`, one per band: max
    |omega(k)| when ``omega`` (Wigner sampling), else its
    :func:`transport_rate` when ``transport`` (a deposit or an absorber),
    else none (a closed run). See :func:`stability_bound`."""
    if omega:
        return [float(np.max(np.abs(band.values_on(grid)))) for band in bands]
    if transport:
        return [transport_rate(band, grid) for band in bands]
    return []


def dt_bound(rates) -> float:
    """The pre-run dt bound 0.5 / max(rates) of a split-step run."""
    top = max(rates)
    return np.inf if top == 0.0 else 0.5 / top


def stability_bound(state: FieldState, couplings: CouplingSet,
                    dispersions: DispersionPair, bath: BathSpec,
                    drive: EndfireDrive = None,
                    absorber: AbsorberProfile = None) -> float:
    """:func:`dt_bound` of a waveguide run from ``state``.

    Its rates are kappa, gamma_mech and an interaction rate from the
    displacement scale and the couplings at k = pi / dx (a heuristic; the
    NaN check backs it). A closed run adds no band rate: an exact free
    flow needs none (Lubich, Math. Comp. 77, 2141 (2008)). A noiseless run
    with an end-fire ``drive`` or an ``absorber`` adds each band's
    :func:`transport_rate`: its fastest mode moves one cell per bound step
    (nu = 0.9 at ``experiments.DT_MARGIN``), the fraction up to which a
    deposit is exact, and the lab frame the drive is deposited in makes a
    band offset w a detuning, at which Strang's forced response is off by
    (w dt / 2) / sin(w dt / 2).
    Wigner sampling (whose Euler-Maruyama bias it sets) adds each band's
    max |omega(k)| instead.
    """
    grid = state.grid
    rates = [couplings.magnitude_scale(np.pi / grid.dx)
             * 2.0 * float(np.max(np.abs(state.b))), bath.kappa, bath.gamma_mech]
    return dt_bound(rates + band_rates(
        (dispersions.photon, dispersions.phonon), grid,
        omega=bath.is_stochastic,
        transport=drive is not None or absorber is not None))


class Stepper(SplitStepper):
    """Precomputed single-trajectory integrator for one configuration.

    Rows of the stacked state: photon field a, phonon field b, in the lab
    frame. What an RK4 stage needs is settled here: the coupling terms
    the fused interaction multiplies.

    ``couplings`` may also be a sequence of B sets of one coupling class.
    Such a stepper steps a state whose fields have shape (B, n), row i
    under set i (see :func:`evolve_batch`); it takes neither drives nor
    Wigner sampling.
    """

    def __init__(self, grid, couplings, dispersions: DispersionPair,
                 bath: BathSpec = None, drive: EndfireDrive = None,
                 absorber: AbsorberProfile = None, dt: float = None):
        bath = bath if bath is not None else BathSpec()
        super().__init__(grid, dt, absorber=absorber, wigner=bath.is_stochastic)
        self._terms = CouplingTerms.resolve(couplings)
        if not isinstance(couplings, CouplingSet):
            if self._wigner:
                raise ValueError("a coupling batch takes no Wigner sampling: "
                                 "per-row noise streams are not implemented")
            if drive is not None:
                raise ValueError("a coupling batch takes no drive")
        self._half = np.stack((dispersion_phase(dispersions.photon, grid, 0.5 * dt),
                               dispersion_phase(dispersions.phonon, grid, 0.5 * dt)))
        self._set_losses(((bath.kappa, 0.0), (bath.gamma_mech, bath.n_th)),
                         grid.dx)
        if drive is not None:
            self._deposits = [(0, DepositPlan(grid, dispersions.photon, drive,
                                              0.0, dt))]
        if self._terms.kind == "zero":
            self._rhs = None

    def _rhs(self, y, t):
        dy = np.empty_like(y)
        dy[..., 0, :], dy[..., 1, :] = fused_rhs(
            y[..., 0, :], y[..., 1, :], self.grid.derivative_weight, self._terms)
        return dy


def _check_steps(n_steps: int, dt: float):
    if n_steps < 0:
        raise ValueError("n_steps must be non-negative")
    if n_steps and (dt is None or dt <= 0):
        raise ValueError("dt must be positive")


def _stability_error(state, couplings, dispersions, bath, dt, drive=None,
                     absorber=None):
    """What is wrong with a dt above the stability bound; None if nothing."""
    bound = stability_bound(state, couplings, dispersions, bath, drive=drive,
                            absorber=absorber)
    if dt > bound:
        return (f"dt = {dt:.3e} s exceeds the stability bound {bound:.3e} s; "
                "reduce dt")
    return None


def evolve(state: FieldState, couplings: CouplingSet, dispersions: DispersionPair,
           bath: BathSpec = None, drive: EndfireDrive = None, dt: float = None,
           n_steps: int = 0, observers: dict = None, record_every: int = 1,
           rng: np.random.Generator = None,
           absorber: AbsorberProfile = None) -> Trajectory:
    """Run ``n_steps`` steps, recording observers every ``record_every`` steps
    (a positive integer).

    The initial state is recorded first, so ``n_steps=0`` echoes the input.
    Observers are callables state -> value, keyed by name. A dt above
    :func:`stability_bound` of this run raises ``ValueError``.
    """
    _check_steps(n_steps, dt)
    bath = bath if bath is not None else BathSpec()
    if n_steps == 0:
        work = state.copy()
        return Trajectory(times=np.asarray([work.time]),
                          records={name: [obs(work)]
                                   for name, obs in (observers or {}).items()},
                          final_state=work)
    error = _stability_error(state, couplings, dispersions, bath, dt,
                             drive=drive, absorber=absorber)
    if error:
        raise ValueError(error)
    stepper = Stepper(state.grid, couplings, dispersions, bath=bath, drive=drive,
                      absorber=absorber, dt=dt)
    return stepper.run(state, n_steps, observers=observers,
                       record_every=record_every, rng=rng)


def evolve_batch(state: FieldState, coupling_sets, dispersions: DispersionPair,
                 dt: float, n_steps: int) -> list:
    """Final states of closed, undriven ``evolve`` runs from one initial
    state under each of ``coupling_sets``, one :meth:`SplitStepper.run`
    of a state whose rows have shape (B, 2, n).

    Row i is bit-identical to ``evolve(state, coupling_sets[i], ...)``.
    The sets must share one coupling class (zero, pointwise or
    derivative). The closed-run stability bound (no free-band term) is
    checked per set, and the error names the first set that fails.
    Nothing is recorded along the way.
    """
    coupling_sets = list(coupling_sets)
    _check_steps(n_steps, dt)
    if n_steps == 0:
        return [state.copy() for _ in coupling_sets]
    for i, couplings in enumerate(coupling_sets):
        error = _stability_error(state, couplings, dispersions, BathSpec(), dt)
        if error:
            raise ValueError(f"coupling set {i}: {error}")
    stepper = Stepper(state.grid, coupling_sets, dispersions, dt=dt)
    batch = state.copy()
    batch.rows = np.repeat(state.rows[None], len(coupling_sets), axis=0)
    final = stepper.run(batch, n_steps).final_state
    return [FieldState(state.grid, a, b, time=final.time)
            for a, b in zip(final.a, final.b)]


# -- standard observers ----------------------------------------------------

def observe_photon_number(state: FieldState) -> float:
    return state.photon_number()


def observe_phonon_number(state: FieldState) -> float:
    return state.phonon_number()


def make_energy_observer(couplings: CouplingSet,
                         dispersions: DispersionPair) -> Callable[[FieldState], float]:
    """Observer of ``total_energy``; the dispersion rows are evaluated once
    per grid, not on every record."""
    bands = {}

    def _obs(state: FieldState) -> float:
        grid = state.grid
        if grid not in bands:
            bands[grid] = (dispersions.photon.values_on(grid),
                           dispersions.phonon.values_on(grid))
        return energy_from_bands(state, couplings, *bands[grid])
    return _obs


def observe_snapshot(state: FieldState) -> FieldState:
    return state.copy()


# -- ensembles --------------------------------------------------------------

def run_ensemble(run_one: Callable[[np.random.Generator, int], object],
                 n_trajectories: int, base_seed: int,
                 workers: int = 1) -> list:
    """Run ``run_one(rng, index)`` for each trajectory, serially in index
    order, with its own stream keyed by (base_seed, index), so fixed seeds
    replay identically. ``workers`` other than 1 raises ``ValueError``.
    """
    if workers != 1:
        raise ValueError(f"run_ensemble runs serially: workers must be 1, "
                         f"got {workers!r}")
    return [run_one(trajectory_generator(base_seed, i), i)
            for i in range(n_trajectories)]
