"""End-to-end numerical experiments built from the solver modules.

These are the workflows behind the CLI scenarios and the cross-validation
suite: two-branch amplification against the closed-form gain, the forward
scattering comb, the array -> continuum convergence study, and the
spatially resolved swap. Each returns a plain result object with the raw
profiles next to the derived numbers, so callers can re-analyze.
"""

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .brillouin import brillouin_gain
from .constants import HBAR
from .core.couplings import CouplingSet
from .core.dispersion import DispersionSpec
from .core.fields import FieldState
from .core.grid import Grid1D, is_power_of_two
from .dynamics.bath import BathSpec
from .dynamics.boundary import make_absorber
from .dynamics.drive import EndfireDrive
from .dynamics.stepper import (DispersionPair, dt_bound, evolve, evolve_batch,
                               stability_bound)
from .lattice import (ArrayConfig, LatticeState, link_effective_couplings,
                      simulate_array, site_coupling_from_continuum, to_continuum)
from .multibranch import (BranchConfig, MultiBranchState, MultiBranchStepper,
                          MultiBranchSystem, PhononConfig)
from .strongcoupling import classify

# ---------------------------------------------------------------------------
# two-branch Brillouin amplification
# ---------------------------------------------------------------------------

# the two-branch run settles over this many transits of the slower branch
# (plus the phonon relaxation time), at this fraction of the step bound
N_TRANSITS = 2.0
DT_MARGIN = 0.9
# the most steps a run takes: more in a custom run, the array study or the
# comb is refused
MAX_STEPS = 10 ** 8


@dataclass
class GainRunResult:
    """Spatial profiles and the measured-vs-predicted small-signal slope.

    Slopes are quoted along the signal's propagation direction, so growth
    is positive for forward and backward runs alike.
    """

    x: np.ndarray
    P1: np.ndarray
    P2: np.ndarray
    Pb: np.ndarray
    measured_power_slope: float
    predicted_power_slope: float
    G_B: float
    pump_power_W: float
    pump_depletion: float
    adiabatic_ratio: float
    window: tuple
    phonon_prediction_error: float
    direction: int = +1


def net_gain_slope(g0_12: float, v1: float, v2: float, Gamma: float,
                   kappa2: float, omega1: float, pump_power_W: float) -> float:
    """The signal's nominal net power slope G_B P1 - kappa2 / v2 (1/m) at
    pump power P1, by which :func:`run_two_branch_gain` sizes its domain.
    Raises ``ValueError`` unless it is positive: a signal that does not
    grow gives no slope to measure."""
    slope = brillouin_gain(g0_12, v1, v2, Gamma, omega1) * pump_power_W - kappa2 / v2
    if not slope > 0:
        raise ValueError(f"net gain G_B P1 - kappa2 / v2 must be positive for a "
                         f"slope measurement, got {slope:.3e} /m")
    return slope


def run_two_branch_gain(g0_12: float, v1: float, v2: float, vb: float,
                        Gamma: float, kappa2: float, omega1: float,
                        pump_power_W: float, seed_power_ratio: float = 1e-10,
                        n_points: int = 256, target_efolds: float = 6.0,
                        direction: int = +1) -> GainRunResult:
    """Stimulated amplification of a weak seed by a strong co/counter pump.

    The domain length is sized so the expected power slope accumulates
    ``target_efolds`` over the fit window. Powers are measured in-domain
    (P = hbar omega v |a|^2), so the comparison with the closed-form gain
    does not depend on the injection normalization.
    """
    flux1 = pump_power_W / (HBAR * omega1)
    alpha1_in = np.sqrt(flux1)
    G_B = brillouin_gain(g0_12, v1, v2, Gamma, omega1)
    gamma2 = kappa2 / v2
    slope_pred_nominal = net_gain_slope(g0_12, v1, v2, Gamma, kappa2, omega1,
                                        pump_power_W)
    length = target_efolds / (0.6 * slope_pred_nominal)
    grid = Grid1D(n_points, length / n_points)
    v_fast = max(v1, v2)

    Omega_sym = 40.0 * Gamma  # frame bookkeeping scale; physics is resonant
    if direction not in (+1, -1):
        raise ValueError("direction must be +1 (forward) or -1 (backward)")
    inlet1 = 8
    inlet2 = 8 if direction > 0 else int(0.86 * n_points)
    drive1 = EndfireDrive(alpha_in=alpha1_in, inlet_cell=inlet1)
    drive2 = EndfireDrive(alpha_in=np.sqrt(seed_power_ratio) * alpha1_in,
                          inlet_cell=inlet2)
    branches = (  # the pump, then the signal
        BranchConfig(dispersion=DispersionSpec.linear(v1), frame_omega=0.0,
                     kappa=0.0, drive=drive1),
        BranchConfig(dispersion=DispersionSpec.linear(direction * v2),
                     frame_omega=-Omega_sym, kappa=kappa2, drive=drive2),
    )
    phonon = PhononConfig(dispersion=DispersionSpec.linear(direction * vb),
                          frame_omega=Omega_sym, gamma=Gamma)
    g0 = np.array([[0.0, g0_12], [g0_12, 0.0]])
    absorber = make_absorber(grid, speed=v_fast, width_fraction=0.1, opacity=10.0)
    system = MultiBranchSystem(grid, branches, phonon, g0, absorber=absorber)
    # the launched pump amplitude is alpha_in / sqrt(v1)
    dt = DT_MARGIN * dt_bound(
        system.bound_rates() + [abs(g0_12) * abs(alpha1_in) / np.sqrt(v1)])
    # The phonon field relaxes gain length by gain length, so the cw
    # steady state needs several phonon lifetimes per accumulated e-fold,
    # not just a few transit times.
    settle = (N_TRANSITS * grid.length / min(v1, v2)
              + (6.0 * target_efolds + 8.0) / Gamma)
    state = MultiBranchStepper(system, dt).run(
        MultiBranchState.vacuum(grid, 2), int(np.ceil(settle / dt))).final_state

    x = grid.x_axis
    omega2 = omega1 - Omega_sym
    P1 = HBAR * omega1 * v1 * np.abs(state.fields[0]) ** 2
    P2 = HBAR * omega2 * v2 * np.abs(state.fields[1]) ** 2
    Pb = HBAR * Omega_sym * vb * np.abs(state.b) ** 2

    lo, hi = int(0.15 * n_points), int(0.75 * n_points)
    if direction < 0:
        s_coord = -x[lo:hi]
    else:
        s_coord = x[lo:hi]
    fit = np.polyfit(s_coord, np.log(P2[lo:hi]), 1)
    measured = float(fit[0])
    P1_window = float(np.mean(P1[lo:hi]))
    predicted = G_B * P1_window - gamma2
    depletion = float((np.max(P1[lo:hi]) - np.min(P1[lo:hi])) / np.max(P1[lo:hi]))

    # local elimination reconstruction of the phonon amplitude
    g12_field = g0_12 * state.fields[0]
    b_pred = (2.0 / Gamma) * 1j * g12_field * np.conj(state.fields[1])
    mask = slice(lo, hi)
    phonon_err = float(np.max(np.abs(state.b[mask] - b_pred[mask]))
                       / np.max(np.abs(b_pred[mask])))
    return GainRunResult(
        x=x, P1=P1, P2=P2, Pb=Pb, measured_power_slope=measured,
        predicted_power_slope=float(predicted), G_B=G_B,
        pump_power_W=P1_window, pump_depletion=depletion,
        adiabatic_ratio=float((Gamma / vb) / max(gamma2, 1e-300)),
        window=(lo, hi), phonon_prediction_error=phonon_err,
        direction=direction)


# ---------------------------------------------------------------------------
# forward-scattering comb
# ---------------------------------------------------------------------------

COMB_STEPS_PER_PERIOD = 400
COMB_RECORD_EVERY = 4  # steps per record of the comb's mode spectra
# the most mode amplitudes a comb run records: each costs about 40 bytes at
# the run's peak (0.51 MB more per period at 128 points, 1.97 MB at 512)
COMB_MAX_AMPLITUDES = 25 * 10 ** 6


@dataclass
class CombResult:
    orders: list
    stokes_power: dict
    anti_stokes_power: dict
    asymmetry: dict
    peak_frequency: dict
    expected_frequency: dict
    Omega0: float


def comb_problems(n_points: int, q_mode: int, n_orders: int, periods: float) -> list:
    """(argument, message) for each input :func:`run_forward_comb` refuses;
    empty when it takes them all."""
    problems = []
    if not 1 <= abs(q_mode) < n_points / 2:
        # mode 0 is a uniform offset, n_points / 2 the Nyquist mode, above it aliases
        problems.append(("q_mode", f"must have 1 <= |q_mode| < n_points / 2 = "
                                   f"{n_points // 2}, got {q_mode}"))
    # each order's +-0.5 Omega0 line search stays below the records' Nyquist
    nyquist = COMB_STEPS_PER_PERIOD / (2 * COMB_RECORD_EVERY)  # in Omega0
    top = int(np.ceil(nyquist - 0.5)) - 1
    if n_orders > top:
        problems.append(("n_orders", f"must be at most {top}, below the records' "
                                     f"Nyquist of {nyquist:g} Omega0, got {n_orders}"))
    steps = periods * COMB_STEPS_PER_PERIOD
    amplitudes = steps / COMB_RECORD_EVERY * n_points  # the records' size
    if not periods >= 2:
        # the analysis takes whole phonon periods of the run's second half
        problems.append(("periods", f"must be at least 2, got {periods!r}"))
    elif steps > MAX_STEPS:
        problems.append(("periods", f"{periods:.3e} periods is {steps:.3e} steps, "
                                    f"more than the cap of {MAX_STEPS:.0e} steps"))
    elif amplitudes > COMB_MAX_AMPLITUDES:
        problems.append(("periods", f"{periods:.3e} periods of {n_points} points "
                                    f"record {amplitudes:.3e} mode amplitudes, more "
                                    f"than the cap of {COMB_MAX_AMPLITUDES:.1e}, "
                                    "about 1 GB at the run's peak"))
    return problems


def run_forward_comb(n_points: int = 128, dx: float = 1.0, v: float = 0.05,
                     Omega0: float = 1.0, g0: float = 0.02, pump: float = 1.0,
                     seed_b: float = 2.0, q_mode: int = 6, n_orders: int = 2,
                     periods: float = 24.0) -> CombResult:
    """Single-branch pump over a seeded phonon grating: sideband comb.

    A strong uniform pump phase-modulates off the travelling displacement
    wave, scattering light into comb lines offset by multiples of the
    phonon frequency from the carrier. The observable is the *temporal*
    spectrum of the whole field: per k-mode time series are Fourier
    transformed over the analysis window and the power is summed over k
    in a band around each expected line. With one optical branch there is
    no Stokes/anti-Stokes asymmetry mechanism, so order-n line pairs must
    be symmetric in power. The run takes ``periods`` phonon periods of
    ``COMB_STEPS_PER_PERIOD`` steps each; :func:`comb_problems` names the
    inputs it refuses with ``ValueError``.
    """
    problems = comb_problems(n_points, q_mode, n_orders, periods)
    if problems:
        raise ValueError("; ".join(f"{arg} {message}" for arg, message in problems))
    grid = Grid1D(n_points, dx)
    q = q_mode * grid.dk
    couplings = CouplingSet.simple(g0)
    disp = DispersionPair(DispersionSpec.linear(v), DispersionSpec.flat(Omega0))
    a0 = np.full(n_points, pump, dtype=complex)
    # seeded grating plus the adiabatic static displacement of the pump
    b0 = seed_b * np.exp(1j * q * grid.x_axis) + g0 * pump ** 2 / Omega0
    state = FieldState(grid, a0, b0)
    dt = 2.0 * np.pi / Omega0 / COMB_STEPS_PER_PERIOD
    n_steps = int(periods * COMB_STEPS_PER_PERIOD)

    def observer(st):
        return np.fft.fft(st.a) / n_points

    traj = evolve(state, couplings, disp, dt=dt, n_steps=n_steps,
                  observers={"modes": observer}, record_every=COMB_RECORD_EVERY)
    t_rec = traj.times
    dt_rec = t_rec[1] - t_rec[0]
    # analysis window: an integer number of phonon periods at the tail
    per_rec = int(round(2 * np.pi / Omega0 / dt_rec))
    n_win = (len(t_rec) // (2 * per_rec)) * per_rec
    window = np.asarray(traj.records["modes"][-n_win:])  # (time, k)
    taper = np.hanning(n_win)[:, None]
    spect = np.abs(np.fft.fft(window * taper, axis=0)) ** 2
    power_vs_freq = spect.sum(axis=1)
    freqs = -2 * np.pi * np.fft.fftfreq(n_win, d=dt_rec)  # carrier offset

    def line_power(target):
        band = np.abs(freqs - target) < 0.25 * Omega0
        return float(power_vs_freq[band].sum())

    def line_peak(target):
        band = np.abs(freqs - target) < 0.5 * Omega0
        idx = np.argmax(np.where(band, power_vs_freq, -np.inf))
        return float(freqs[idx])

    stokes, anti, asym, peaks, expected = {}, {}, {}, {}, {}
    for n in range(1, n_orders + 1):
        anti[n] = line_power(+n * Omega0)
        stokes[n] = line_power(-n * Omega0)
        asym[n] = abs(stokes[n] - anti[n]) / max(stokes[n], anti[n])
        peaks[n] = line_peak(+n * Omega0)
        peaks[-n] = line_peak(-n * Omega0)
        expected[n] = +n * Omega0
        expected[-n] = -n * Omega0
    return CombResult(orders=list(range(1, n_orders + 1)), stokes_power=stokes,
                      anti_stokes_power=anti, asymmetry=asym,
                      peak_frequency=peaks, expected_frequency=expected,
                      Omega0=Omega0)


# ---------------------------------------------------------------------------
# spatially resolved photon-phonon swap
# ---------------------------------------------------------------------------


@dataclass
class SwapProfileResult:
    x: np.ndarray
    a2: np.ndarray
    b: np.ndarray
    a2_predicted: np.ndarray
    b_predicted: np.ndarray
    max_rel_error: float
    lambda_plus: complex
    lambda_minus: complex
    regime: str


def run_swap_profile(g12: float, v2: float, vb: float, gamma2: float,
                     gamma_b: float, n_points: int = 512,
                     seed_amplitude: float = 0.5,
                     span_decay_lengths: float = 5.0) -> SwapProfileResult:
    """Steady swap envelopes against the 2x2 spatial matrix exponential.

    A frozen uniform pump converts the two-branch swap into the linear
    spatial problem phi' = M phi; the simulated cw envelopes are compared
    with expm(M (x - x0)) anchored at the first clean cell.
    """
    gamma_bar = 0.5 * (gamma2 + gamma_b)
    length = 1.4 * span_decay_lengths / gamma_bar
    grid = Grid1D(n_points, length / n_points)
    kappa2 = gamma2 * v2
    Gamma = gamma_b * vb
    Omega = 50.0 * max(Gamma, kappa2, abs(g12))
    A1 = 1.0
    drive2 = EndfireDrive(alpha_in=seed_amplitude, inlet_cell=8)
    absorber = make_absorber(grid, speed=max(v2, vb), width_fraction=0.1,
                             opacity=10.0)
    branches = (  # the pump, then the signal
        BranchConfig(dispersion=DispersionSpec.flat(0.0), frame_omega=0.0,
                     frozen=True),
        BranchConfig(dispersion=DispersionSpec.linear(v2), frame_omega=Omega,
                     kappa=kappa2, drive=drive2),
    )
    phonon = PhononConfig(dispersion=DispersionSpec.linear(vb),
                          frame_omega=Omega, gamma=Gamma)
    g0 = np.array([[0.0, np.conj(g12 / A1)], [g12 / A1, 0.0]])
    system = MultiBranchSystem(grid, branches, phonon, g0, absorber=absorber)
    state = MultiBranchState(grid, [np.full(n_points, A1, complex),
                                    np.zeros(n_points, complex)],
                             np.zeros(n_points, complex))
    dt = DT_MARGIN * dt_bound(system.bound_rates() + [abs(g12)])
    n_steps = int(np.ceil(2.6 * grid.length / (min(v2, vb) * dt)))
    state = MultiBranchStepper(system, dt).run(state, n_steps).final_state

    report = classify(g12, v2, vb, gamma2, gamma_b)
    x0 = 40
    x1 = x0 + int(span_decay_lengths / gamma_bar / grid.dx)
    cells = np.arange(x0, min(x1, int(0.85 * n_points)))
    phi0 = np.array([state.fields[1][x0], state.b[x0]])
    vals, vecs = np.linalg.eig(report.M)
    coeff = np.linalg.solve(vecs, phi0)
    xs = (cells - x0) * grid.dx
    pred = vecs @ (coeff[:, None] * np.exp(vals[:, None] * xs[None, :]))
    sim = np.vstack([state.fields[1][cells], state.b[cells]])
    err = np.linalg.norm(sim - pred, axis=0) / np.linalg.norm(pred, axis=0)
    return SwapProfileResult(
        x=cells * grid.dx, a2=state.fields[1][cells], b=state.b[cells],
        a2_predicted=pred[0], b_predicted=pred[1],
        max_rel_error=float(np.max(err)), lambda_plus=report.lambda_plus,
        lambda_minus=report.lambda_minus, regime=report.regime)


# ---------------------------------------------------------------------------
# array -> continuum convergence
# ---------------------------------------------------------------------------


@dataclass
class ConvergenceResult:
    dxs: np.ndarray
    errors: np.ndarray
    slope: float
    errors_pointwise_model: np.ndarray = None


def _smooth_initial(length):
    k1 = 2 * 2 * np.pi / length
    k2 = 3 * 2 * np.pi / length

    def a0(x):
        return 1.0 + 0.35 * np.exp(1j * k1 * x) + 0.2 * np.exp(-1j * k2 * x)

    def b0(x):
        return 0.4 + 0.3 * np.exp(1j * k1 * x)

    return a0, b0


def _study_references(kind: str, sizes, length: float, D2: float,
                      g_cont: float, T: float, n_ref: int):
    """The initial state, bands, coupling sets (pointwise first) and link
    couplings of :func:`array_convergence_study`'s references, its step
    count ceil(T / dt) as a float (inf when T / dt overflows) and its dt
    before rounding to whole steps of ``T``."""
    a0_fn, b0_fn = _smooth_initial(length)
    ref_grid = Grid1D(n_ref, length / n_ref)
    disp_ref = DispersionPair(DispersionSpec.polynomial([0.0, 0.0, D2]),
                              DispersionSpec.flat(0.0))
    initial = FieldState(ref_grid, a0_fn(ref_grid.x_axis), b0_fn(ref_grid.x_axis))
    # the pointwise model is the same for every size (2 g_link sqrt(dx) =
    # g_cont): the site reference and the link study's plain reference
    dxs = [length / n_sites for n_sites in sizes]
    g_links = [0.5 * g_cont / np.sqrt(dxl) for dxl in dxs]  # g_ppp_eff = 2 g0 sqrt(dx)
    sets = [CouplingSet.simple(g_cont)] + (
        [link_effective_couplings(g, dxl) for g, dxl in zip(g_links, dxs)]
        if kind == "link" else [])
    dt = min(DT_MARGIN * min(stability_bound(initial, c, disp_ref, BathSpec())
                             for c in sets), T)
    return initial, disp_ref, sets, g_links, np.ceil(T / dt), dt


def convergence_study_problems(kind: str, sizes, length: float, D2: float,
                               g_cont: float, T: float, n_ref: int) -> list:
    """(argument, message) for each input :func:`array_convergence_study`
    refuses; empty when it takes them all."""
    problems = [(name, f"must be positive and finite, got {value!r}")
                for name, value in (("length", length), ("T", T))
                if not (value > 0 and np.isfinite(value))]
    if not (D2 != 0 and np.isfinite(D2)):
        # a flat band gives the lattice nothing to converge to
        problems.append(("D2", f"must be nonzero and finite, got {D2!r}"))
    if isinstance(n_ref, bool) or not isinstance(n_ref, Integral) or n_ref < 2 \
            or not is_power_of_two(n_ref):
        problems.append(("n_ref", f"must be a power of two of at least 2, "
                                  f"got {n_ref!r}"))
        return problems
    # a link phonon sits half a cell right of its site: on a reference
    # point only when the cell holds an even number of them
    top = n_ref // 2 if kind == "link" else n_ref
    bad = [size for size in sizes
           if isinstance(size, bool) or not isinstance(size, Integral)
           or size < 1 or size > top or n_ref % size]
    if bad or len(set(sizes)) < 2:
        problems.append(("sizes", f"must be at least two distinct divisors of "
                                  f"n_ref = {n_ref} of at most {top}, got "
                                  f"{tuple(sizes)!r}"))
    if not problems:
        *_, steps, dt = _study_references(kind, sizes, length, D2, g_cont, T, n_ref)
        if steps > MAX_STEPS:
            problems.append(("T", f"{T:.3e} s is {steps:.3e} steps of dt = "
                                  f"{dt:.3e} s, more than the cap of "
                                  f"{MAX_STEPS:.0e} steps"))
    return problems


def array_convergence_study(kind: str = "site", sizes=(32, 64, 128),
                            length: float = 32.0, D2: float = 0.5,
                            g_cont: float = 0.05, T: float = 4.0,
                            n_ref: int = 256) -> ConvergenceResult:
    """Closed-system lattice runs against the continuum solver.

    The photon band curvature D2 and the continuum coupling are held fixed
    while the lattice constant halves (J = D2/dx^2, g0 ~ 1/sqrt(dx)); the
    common band offset is removed by a frame shift so the comparison is
    finite in the continuum limit. The trajectory error must shrink at
    second order in dx. For the link coupling the continuum model carries
    the emergent derivative couplings; ``errors_pointwise_model`` records
    what the error would have been with the pointwise term alone.

    The continuum references share grid, dt, step count and initial
    state. The pointwise one is a single ``evolve``, shared by every size;
    the link study's derivative-coupled references, one per size, run as
    one ``evolve_batch`` along its leading configuration axis, before the
    lattice runs. Every run is closed, so dt is ``DT_MARGIN`` times the
    smallest :func:`stability_bound` of the coupling sets the references
    step (no free-band term), capped at ``T``; the lattice runs take the
    same dt.

    ``length`` and ``T`` must be positive and finite, ``D2`` nonzero and
    finite, ``n_ref`` a power of two, ``sizes`` at least two distinct
    divisors of ``n_ref``, below it for ``kind = "link"``, and ``T`` at
    most ``MAX_STEPS`` steps; anything else raises ``ValueError`` naming
    the argument.
    """
    if kind not in ("site", "link"):
        raise ValueError("kind must be 'site' or 'link'")
    problems = convergence_study_problems(kind, sizes, length, D2, g_cont, T, n_ref)
    if problems:
        raise ValueError("; ".join(f"{arg} {message}" for arg, message in problems))
    initial, disp_ref, (pointwise, *link_sets), g_links, steps, dt = \
        _study_references(kind, sizes, length, D2, g_cont, T, n_ref)
    n_steps = int(steps)
    dt = T / n_steps

    ref = evolve(initial, pointwise, disp_ref, dt=dt, n_steps=n_steps).final_state
    if kind == "link":
        # every size's derivative-coupled reference, stepped as one batch
        link_refs = evolve_batch(initial, link_sets, disp_ref, dt=dt,
                                 n_steps=n_steps)

    a0_fn, b0_fn = _smooth_initial(length)
    dxs = [length / n_sites for n_sites in sizes]
    errors, errors_plain = [], []
    for index, (n_sites, dxl) in enumerate(zip(sizes, dxs)):
        stride = n_ref // n_sites
        sites = np.arange(n_sites)
        x_sites = sites * dxl
        # a link phonon sits half a cell to the right of its site; the
        # references are the model's own first, then the pointwise one
        if kind == "site":
            coupling = {"g0_site": site_coupling_from_continuum(g_cont, dxl)}
            x_b, b_cells, refs = x_sites, sites * stride, (ref,)
        else:
            coupling = {"g0_link": g_links[index]}
            x_b, b_cells = x_sites + 0.5 * dxl, sites * stride + stride // 2
            refs = (link_refs[index], ref)
        config = ArrayConfig(n_sites=n_sites, dx_lattice=dxl, J={1: D2 / dxl ** 2},
                             omega_frame=-2.0 * D2 / dxl ** 2, **coupling)
        init = LatticeState(a0_fn(x_sites) * np.sqrt(dxl), b0_fn(x_b) * np.sqrt(dxl))
        final = simulate_array(config, init, dt, n_steps)
        cont = to_continuum(final.a, final.b, dxl)
        err, *plain = [(np.linalg.norm(cont.a - r.a[::stride])
                        + np.linalg.norm(cont.b - r.b[b_cells])) / np.sqrt(n_sites)
                       for r in refs]
        errors.append(err)
        errors_plain.extend(plain)
    dxs = np.asarray(dxs)
    errors = np.asarray(errors)
    slope = float(np.polyfit(np.log(dxs), np.log(errors), 1)[0])
    return ConvergenceResult(
        dxs=dxs, errors=errors, slope=slope,
        errors_pointwise_model=np.asarray(errors_plain) if errors_plain else None)
