"""Scenario presets: defaults, execution, and artifact emission.

Every run writes into the output directory:

    effective_config.cfg   fully resolved configuration (re-runnable)
    report.json            scenario-specific machine-readable summary
                           (byte-reproducible: a rerun writes the same bytes)
    timing.json            the run's wall time
    *.csv                  tabulated results, one header row with units
    *.snap                 binary field snapshots where applicable

Presets are sized to finish in seconds; the config file scales them up.
"""

import contextlib
import functools
import os
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from ..core.couplings import CouplingSet
from ..core.dispersion import DispersionSpec
from ..core.fields import FieldState
from ..core.grid import Grid1D
from ..dynamics.bath import BathSpec
from ..dynamics.boundary import make_absorber
from ..dynamics.drive import EndfireDrive
from ..dynamics.rng import trajectory_generator
from ..dynamics.stepper import (DispersionPair, Stepper, make_energy_observer,
                                observe_phonon_number, observe_photon_number,
                                stability_bound)
from ..experiments import (MAX_STEPS, array_convergence_study, comb_problems,
                           convergence_study_problems, net_gain_slope,
                           run_forward_comb, run_swap_profile,
                           run_two_branch_gain)
from ..strongcoupling import sweep_coupling, thresholds
from .config import ConfigError, ScenarioConfig, serialize_config
from .output import write_csv, write_json_report, write_snapshot

# the most points a regime sweep takes: each costs about 0.6 kB at the
# run's peak (573 MB for 10^6 points) and 91 bytes of CSV
MAX_SWEEP_POINTS = 10 ** 6
# the most records a custom trajectory keeps: each costs about 0.48 kB at
# the run's peak (143 MB more for 3e5 more records at 128 points)
MAX_RECORDS = 10 ** 6

DEFAULTS = {
    "regime_sweep": {
        "sweep": {"v2": 7e7, "vb": 1e3, "gamma2": 10.0, "gamma_b": 2e5,
                  "g_min": 1e2, "g_max": 1e8, "points": 2000,
                  "strong_ratio": 10.0},
    },
    "backward_gain": {
        "gain": {"g0_12": 1e4, "v1": 7e7, "v2": 7e7, "vb": 1e3,
                 "Gamma": 2 * np.pi * 3e8, "kappa2": 0.0,
                 "omega1": 2 * np.pi * 193.5e12, "pump_power": 1.0,
                 "seed_ratio": 1e-10, "n_points": 256, "efolds": 4.0,
                 "direction": -1},
    },
    "intermodal_swap": {
        "swap": {"g12": 0.0707, "v2": 2.0, "vb": 1.0, "gamma2": 0.02,
                 "gamma_b": 0.03, "n_points": 512, "seed": 0.5,
                 "decay_lengths": 5.0},
    },
    "comb": {
        "comb": {"n_points": 128, "dx": 1.0, "velocity": 0.05, "omega0": 1.0,
                 "g0": 0.02, "pump": 1.0, "seed_b": 2.0, "q_mode": 6,
                 "orders": 2, "periods": 24.0},
    },
    "array_convergence": {
        "array": {"kind": "site", "sizes": (32.0, 64.0, 128.0), "length": 32.0,
                  "curvature": 0.5, "g_cont": 0.05, "t_total": 4.0,
                  "n_ref": 256},
    },
    "custom": {
        "grid": {"n_points": 128, "dx": 1.0},
        "photon": {"kind": "linear", "velocity": 2.0},
        "phonon": {"kind": "flat", "omega0": 1.0},
        "couplings": {"sector": "even", "g_ppp": 0.05},
        "bath": {"kappa": 0.2, "gamma_mech": 0.5, "sampling": "none"},
        "drive": {"mode": "endfire", "alpha_in": 1.0 + 0.0j, "inlet_cell": 4},
        "integration": {"dt": 0.02, "t_total": 100.0, "record_every": 50,
                        "absorber": "on", "absorber_opacity": 10.0},
        "ensemble": {"trajectories": 1, "base_seed": 1},
    },
}


# The keys each value of a choice reads, the first one required. A key
# that only other values read is an error when the user's config or a
# flag set it, and is dropped when it came from the preset.
_BAND_KEYS = {"linear": ("velocity", "omega0"), "flat": ("omega0",),
              "polynomial": ("coeffs",)}
CHOICE_KEYS = {
    ("photon", "kind"): _BAND_KEYS,
    ("phonon", "kind"): _BAND_KEYS,
    ("drive", "mode"): {"none": (),
                        "endfire": ("alpha_in", "omega_L", "k_L", "inlet_cell")},
    ("integration", "absorber"): {"off": (),
                                  "on": ("absorber_opacity", "absorber_speed")},
}


def resolve_config(config: ScenarioConfig) -> ScenarioConfig:
    """The user's config over the scenario's preset, checked by ``CHOICE_KEYS``.
    A section the preset does not hold is one the scenario never reads."""
    preset = DEFAULTS.get(config.scenario, {})
    base = {sec: dict(kv) for sec, kv in preset.items()}
    base.setdefault("scenario", {})["name"] = config.scenario
    merged = ScenarioConfig(config.scenario, base).merged(config.sections)
    problems = [f"[{section}]: not read by scenario {config.scenario}"
                for section in config.sections
                if section != "scenario" and section not in preset]
    for (section, choice), reads in CHOICE_KEYS.items():
        entries = merged.sections.get(section, {})
        if section not in preset or choice not in entries:
            continue
        read, when = reads[entries[choice]], f"when {choice} = {entries[choice]}"
        for key in sorted({k for keys in reads.values() for k in keys} - set(read)):
            if key in config.sections.get(section, {}):
                problems.append(f"[{section}] {key}: not read {when}")
            entries.pop(key, None)
        if read and read[0] not in entries:
            problems.append(f"[{section}] {read[0]}: required {when}")
    if problems:
        raise ConfigError(problems)
    return merged


def _band(section: dict, grid: Grid1D) -> DispersionSpec:
    """The section's band, refused unless it is finite on ``grid``."""
    kind = section["kind"]
    if kind == "linear":
        band = DispersionSpec.linear(section["velocity"], section.get("omega0", 0.0))
    elif kind == "flat":
        band = DispersionSpec.flat(section["omega0"])
    else:
        band = DispersionSpec.polynomial(section["coeffs"])
    with np.errstate(over="ignore", invalid="ignore"):
        band.values_on(grid)
    return band


def _checked(config: ScenarioConfig):
    """``config`` layered over its preset, and the inputs of its run."""
    config = resolve_config(config)
    return config, _SCENARIOS[config.scenario][0](config)


def validate_scenario(config: ScenarioConfig) -> ScenarioConfig:
    """``config`` layered over its preset and checked for what parsing
    cannot see: unread choice keys, and every check that the scenario's
    inputs make (see ``_SCENARIOS``). Raises :class:`ConfigError`."""
    return _checked(config)[0]


def run_scenario(config: ScenarioConfig, output_dir) -> dict:
    """Execute one scenario; returns the report dict written to report.json
    plus ``wall_time_s``, which goes to timing.json instead, so that
    report.json replays byte for byte. It runs on the inputs its checks
    built, and writes nothing when the configuration is rejected."""
    config, inputs = _checked(config)
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "effective_config.cfg").write_text(serialize_config(config))
    t0 = time.time()
    report = _SCENARIOS[config.scenario][1](inputs, out)
    report["scenario"] = config.scenario
    wall_time_s = time.time() - t0
    write_json_report(out / "report.json", report)
    write_json_report(out / "timing.json", {"wall_time_s": wall_time_s})
    report["wall_time_s"] = wall_time_s
    return report


def _sweep_inputs(config: ScenarioConfig) -> dict:
    """``[sweep]``, unless g_min > g_max or points > MAX_SWEEP_POINTS."""
    p = config.section("sweep")
    problems = []
    if p["g_min"] > p["g_max"]:  # the sweep would run backwards
        problems.append(("g_min", f"must not exceed g_max = {p['g_max']:.3e} Hz, "
                                  f"got {p['g_min']:.3e} Hz"))
    if p["points"] > MAX_SWEEP_POINTS:
        problems.append(("points", f"must be at most {MAX_SWEEP_POINTS:.0e}, about "
                                   f"0.6 GB at the run's peak, got {p['points']}"))
    _refuse("sweep", problems)
    return p


def _run_regime_sweep(p: dict, out: Path) -> dict:
    g = np.logspace(np.log10(p["g_min"]), np.log10(p["g_max"]), int(p["points"]))
    lam_p, lam_m, D, regimes = sweep_coupling(g, p["v2"], p["vb"], p["gamma2"],
                                              p["gamma_b"], p["strong_ratio"])
    write_csv(out / "regime_sweep.csv", [
        ("g12", "Hz", g),
        ("re_lambda_plus", "1/m", lam_p.real),
        ("im_lambda_plus", "1/m", lam_p.imag),
        ("re_lambda_minus", "1/m", lam_m.real),
        ("im_lambda_minus", "1/m", lam_m.imag),
        ("D", "1/m^2", D),
        ("regime", "label", list(regimes)),
    ])
    threshold_osc, threshold_strong = thresholds(p["v2"], p["vb"], p["gamma2"],
                                                 p["gamma_b"])
    oscillatory = regimes != "overdamped"
    return {
        "threshold_osc_Hz": threshold_osc,
        "threshold_strong_Hz": threshold_strong,
        # null when no point of the sweep is oscillatory
        "first_oscillatory_g_Hz": (float(g[np.argmax(oscillatory)])
                                   if oscillatory.any() else None),
        "n_points": int(p["points"]),
    }


def _gain_inputs(config: ScenarioConfig) -> dict:
    """``[gain]``, unless its signal would not grow."""
    p = config.section("gain")
    try:
        net_gain_slope(p["g0_12"], p["v1"], p["v2"], p["Gamma"], p["kappa2"],
                       p["omega1"], p["pump_power"])
    except ValueError as err:
        raise ConfigError([f"[gain] g0_12, kappa2: {err}"]) from err
    return p


def _run_backward_gain(p: dict, out: Path) -> dict:
    result = run_two_branch_gain(
        g0_12=p["g0_12"], v1=p["v1"], v2=p["v2"], vb=p["vb"], Gamma=p["Gamma"],
        kappa2=p["kappa2"], omega1=p["omega1"], pump_power_W=p["pump_power"],
        seed_power_ratio=p["seed_ratio"], n_points=int(p["n_points"]),
        target_efolds=p["efolds"], direction=int(p.get("direction", -1)))
    write_csv(out / "gain_profile.csv", [
        ("x", "m", result.x),
        ("P1", "W", result.P1),
        ("P2", "W", result.P2),
        ("Pb", "W", result.Pb),
    ])
    mismatch = abs(result.measured_power_slope - result.predicted_power_slope) \
        / abs(result.predicted_power_slope)
    return {
        "measured_power_slope_per_m": result.measured_power_slope,
        "predicted_power_slope_per_m": result.predicted_power_slope,
        "relative_mismatch": mismatch,
        "G_B_per_W_m": result.G_B,
        "pump_power_W": result.pump_power_W,
        "pump_depletion": result.pump_depletion,
        "adiabatic_ratio": result.adiabatic_ratio,
        "direction": result.direction,
    }


def _swap_inputs(config: ScenarioConfig) -> dict:
    """``[swap]``, unless both decay rates, whose mean spans it, are zero."""
    p = config.section("swap")
    if p["gamma2"] + p["gamma_b"] == 0:
        raise ConfigError(["[swap] gamma2, gamma_b: must not both be zero"])
    return p


def _run_intermodal_swap(p: dict, out: Path) -> dict:
    result = run_swap_profile(g12=p["g12"], v2=p["v2"], vb=p["vb"],
                              gamma2=p["gamma2"], gamma_b=p["gamma_b"],
                              n_points=int(p["n_points"]),
                              seed_amplitude=p["seed"],
                              span_decay_lengths=p["decay_lengths"])
    write_csv(out / "swap_profile.csv", [
        ("x", "m", result.x),
        ("a2", "m^(-1/2)", result.a2),
        ("b", "m^(-1/2)", result.b),
        ("a2_predicted", "m^(-1/2)", result.a2_predicted),
        ("b_predicted", "m^(-1/2)", result.b_predicted),
    ])
    return {
        "max_rel_error": result.max_rel_error,
        "lambda_plus_per_m": result.lambda_plus,
        "lambda_minus_per_m": result.lambda_minus,
        "regime": result.regime,
    }


def _comb_inputs(config: ScenarioConfig) -> dict:
    """``[comb]``, unless :func:`comb_problems` refuses it."""
    p = config.section("comb")
    _refuse("comb", comb_problems(p["n_points"], p["q_mode"], p["orders"],
                                  p["periods"]))
    return p


def _run_comb(p: dict, out: Path) -> dict:
    result = run_forward_comb(
        n_points=int(p["n_points"]), dx=p["dx"], v=p["velocity"],
        Omega0=p["omega0"], g0=p["g0"], pump=p["pump"], seed_b=p["seed_b"],
        q_mode=int(p["q_mode"]), n_orders=int(p["orders"]),
        periods=p["periods"])
    orders = result.orders
    write_csv(out / "comb_sidebands.csv", [
        ("order", "1", orders),
        ("stokes_power", "1", [result.stokes_power[n] for n in orders]),
        ("anti_stokes_power", "1", [result.anti_stokes_power[n] for n in orders]),
        ("asymmetry", "1", [result.asymmetry[n] for n in orders]),
        ("stokes_peak_freq", "rad/s", [result.peak_frequency[-n] for n in orders]),
        ("anti_stokes_peak_freq", "rad/s",
         [result.peak_frequency[n] for n in orders]),
    ])
    return {
        "asymmetry": {str(n): result.asymmetry[n] for n in orders},
        "peak_frequencies_rad_s": {str(n): result.peak_frequency[n]
                                   for n in result.peak_frequency},
        "Omega0_rad_s": result.Omega0,
    }


# the config key of a run's argument, where the two differ
_KEYS = {"D2": "curvature", "T": "t_total", "n_orders": "orders"}


def _refuse(section: str, problems) -> None:
    """Raise :class:`ConfigError` naming the key of each (argument, message)."""
    if problems:
        raise ConfigError([f"[{section}] {_KEYS.get(arg, arg)}: {message}"
                           for arg, message in problems])


def _array_study_inputs(config: ScenarioConfig) -> dict:
    """The array study's keyword arguments from ``[array]``. Raises
    :class:`ConfigError` naming the key of each input the study refuses,
    and of a size that is not a whole number."""
    p = config.section("array")
    if not all(float(s).is_integer() for s in p["sizes"]):
        raise ConfigError([f"[array] sizes: must be whole numbers, got "
                           f"{p['sizes']!r}"])
    inputs = dict(kind=p["kind"], sizes=tuple(int(s) for s in p["sizes"]),
                  length=p["length"], D2=p["curvature"], g_cont=p["g_cont"],
                  T=p["t_total"], n_ref=int(p["n_ref"]))
    _refuse("array", convergence_study_problems(**inputs))
    return inputs


def _run_array_convergence(inputs: dict, out: Path) -> dict:
    result = array_convergence_study(**inputs)
    columns = [
        ("dx", "m", result.dxs),
        ("l2_error", "1", result.errors),
    ]
    if result.errors_pointwise_model is not None:
        columns.append(("l2_error_pointwise_model", "1",
                        result.errors_pointwise_model))
    write_csv(out / "array_convergence.csv", columns)
    return {"fitted_order": result.slope, "kind": inputs["kind"],
            "sizes": list(inputs["sizes"])}


def _build(section: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``; a ``ValueError`` it raises becomes a
    :class:`ConfigError` naming ``section``."""
    try:
        return make(*args, **kwargs)
    except ValueError as err:
        raise ConfigError([f"[{section}] {err}"]) from err


def _custom_setup(config: ScenarioConfig) -> SimpleNamespace:
    """The custom run's objects, built from a resolved config. Raises
    :class:`ConfigError` naming the section when a constructor or check
    (the grid, finite bands, couplings, bath, absorber or the stepper's
    deposit plan) rejects its entries, when dt exceeds the stability bound
    of the initial (vacuum) state under this run's drive, absorber and
    bath, when t_total is less than one step or more than
    :data:`MAX_STEPS` steps, when a trajectory would keep more than
    :data:`MAX_RECORDS` records, and when the absorber's speed is neither
    given nor the photon band's group velocity at k = 0."""
    grid = _build("grid", Grid1D, **config.section("grid"))
    disp = DispersionPair(_build("photon", _band, config.section("photon"), grid),
                          _build("phonon", _band, config.section("phonon"), grid))
    couplings = _build("couplings", CouplingSet, **config.section("couplings"))
    bath = _build("bath", BathSpec, **config.section("bath"))
    integ = config.section("integration")
    dt = integ["dt"]
    absorber = None
    if integ["absorber"] == "on":
        speed = integ.get("absorber_speed")
        if speed is None:
            speed = abs(disp.photon.group_velocity_at(0.0))
            if speed == 0:
                raise ConfigError(["[integration] absorber_speed: required when "
                                   "the photon band's group velocity at k = 0 "
                                   "is zero"])
        absorber = _build("integration", make_absorber, grid, speed=speed,
                          opacity=integ["absorber_opacity"])
    drivec = config.section("drive")
    drive = None
    if drivec.pop("mode") == "endfire":
        drive = EndfireDrive(**drivec)
    bound = stability_bound(FieldState.vacuum(grid), couplings, disp, bath,
                            drive=drive, absorber=absorber)
    if dt > bound:
        raise ConfigError([f"[integration] dt: {dt:.3e} s exceeds the stability "
                           f"bound {bound:.3e} s of this grid, dispersion and "
                           "bath; reduce dt"])
    n_steps = int(round(integ["t_total"] / dt))
    if n_steps < 1:
        raise ConfigError([f"[integration] t_total: {integ['t_total']:.3e} s is "
                           f"less than one step of dt = {dt:.3e} s"])
    if n_steps > MAX_STEPS:
        raise ConfigError([f"[integration] t_total: {integ['t_total']:.3e} s is "
                           f"{n_steps:.3e} steps of dt = {dt:.3e} s, more than "
                           f"the cap of {MAX_STEPS:.0e} steps"])
    n_records = 1 + -(-n_steps // integ["record_every"])  # with the initial state
    if n_records > MAX_RECORDS:
        raise ConfigError([f"[integration] t_total, record_every: {n_steps} steps "
                           f"recorded every {integ['record_every']} keep "
                           f"{n_records} records, more than the cap of "
                           f"{MAX_RECORDS:.0e}, about 0.5 GB at the run's peak"])
    # the stepper builds the drive's deposit plan, checked before anything
    # is written
    stepper = _build("drive", Stepper, grid, couplings, disp, bath=bath,
                     drive=drive, absorber=absorber, dt=dt)
    ens = config.section("ensemble")
    return SimpleNamespace(
        grid=grid, stepper=stepper, n_steps=n_steps,
        record_every=integ["record_every"], n_traj=ens["trajectories"],
        base_seed=ens["base_seed"],
        observers={"photon_number": observe_photon_number,
                   "phonon_number": observe_phonon_number,
                   "energy": make_energy_observer(couplings, disp)})


def _trajectory(setup, idx: int):
    """Trajectory ``idx`` of a custom run, on its own Philox stream, so it
    is the same in whichever process steps it."""
    return setup.stepper.run(FieldState.vacuum(setup.grid), setup.n_steps,
                             observers=setup.observers, record_every=setup.record_every,
                             rng=trajectory_generator(setup.base_seed, idx))


# the setup of the run a worker process steps, set as it starts
_WORKER_RUN = None


def _init_worker(setup) -> None:
    global _WORKER_RUN
    _WORKER_RUN = setup


def _worker_trajectory(idx: int):
    return _trajectory(_WORKER_RUN, idx)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@contextlib.contextmanager
def _trajectories(setup):
    """The custom run's trajectories in index order, stepped on
    ``min(trajectories, usable CPUs)`` forked worker processes, or in this
    process when that is fewer than 2. No worker outlives the block."""
    workers = min(setup.n_traj, _usable_cpus())
    if workers < 2:
        yield map(functools.partial(_trajectory, setup), range(setup.n_traj))
        return
    # imported here, not at the top, to keep them out of a run's startup
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context
    # a worker flushes the standard streams it inherits when it exits
    sys.stdout.flush()
    sys.stderr.flush()
    # forked, not spawned: a worker inherits the run, whose observers hold
    # a closure that cannot be pickled, and each task sends only an index
    with ProcessPoolExecutor(workers, mp_context=get_context("fork"),
                             initializer=_init_worker,
                             initargs=(setup,)) as pool:
        yield pool.map(_worker_trajectory, range(setup.n_traj))


def _run_custom(setup: SimpleNamespace, out: Path) -> dict:
    """The custom scenario: ``trajectories`` runs from vacuum, trajectory i
    on Philox stream (base_seed, i), with their records averaged in index
    order. The trajectories run on ``min(trajectories, usable CPUs)``
    forked worker processes, and the artifacts are byte for byte those of
    a serial run; the final state written is the last trajectory's."""
    mean_records = None
    final = None
    with _trajectories(setup) as trajectories:
        for traj in trajectories:
            if mean_records is None:
                times = traj.times
                mean_records = {k: np.asarray(v, dtype=float)
                                for k, v in traj.records.items()}
            else:
                for k, v in traj.records.items():
                    mean_records[k] += np.asarray(v, dtype=float)
            final = traj.final_state
    for k in mean_records:
        mean_records[k] /= setup.n_traj
    write_csv(out / "observables.csv", [
        ("t", "s", times),
        ("photon_number", "1", mean_records["photon_number"]),
        ("phonon_number", "1", mean_records["phonon_number"]),
        ("energy", "hbar*rad/s", mean_records["energy"]),
    ])
    write_snapshot(out / "final_state.snap", final.a, final.b, setup.grid.dx)
    return {
        "trajectories": setup.n_traj,
        "n_steps": setup.n_steps,
        "final_photon_number": final.photon_number(),
        "final_phonon_number": final.phonon_number(),
    }


# each scenario's (inputs, run): inputs(config) makes every check of the
# scenario and returns what run(inputs, out) consumes
_SCENARIOS = {
    "regime_sweep": (_sweep_inputs, _run_regime_sweep),
    "backward_gain": (_gain_inputs, _run_backward_gain),
    "intermodal_swap": (_swap_inputs, _run_intermodal_swap),
    "comb": (_comb_inputs, _run_comb),
    "array_convergence": (_array_study_inputs, _run_array_convergence),
    "custom": (_custom_setup, _run_custom),
}
