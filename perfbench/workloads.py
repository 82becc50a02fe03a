"""The four benchmark workloads: inputs from a seed, one solve, its checks.

Every workload reaches cwom only through its public API or its CLI. A
workload's inputs come from ``--seed`` alone; the seed varies physical
parameters that leave the amount of work unchanged (grid sizes, step
counts and trajectory counts are fixed per size profile), so timings of
different seeds are comparable. Repeated solves within one run differ only
in the RNG streams of the stochastic workloads (the ``rep`` argument).

Each class records why the workload was chosen (``why``, mirrored in
BENCHMARK.json), which per-layer counters it must leave at zero
(``bypasses``; the traced run and the smoke test assert it) and which
metrics a change aimed elsewhere is predicted not to move (``flat``).

Stochastic checks (``wigner_ensemble``)
---------------------------------------
Both ensembles are tested with a pooled, two-sided Student t test on
per-trajectory means against the closed-form target, over every
trajectory the run solved:

    fail  iff  |ybar - target| > DELTA * target + t_crit(N - 1) * s / sqrt(N)

* Trajectories use independent Philox streams, so the N per-trajectory
  means y_j are i.i.d.; the test needs no model of how modes or cells
  within one trajectory correlate, and N counts every solve of the run
  (the untimed warm-up included), so N >= 32 for (a) and N >= 16 for (b).
* DELTA bounds the deterministic bias of the discretised scheme
  (Euler-Maruyama noise inside a Strang split, finite relaxation time).
  Measured on 1024 (a) and 512 (b) trajectories of the full profile:
  (a) +1.7(5)% (the scheme's stationary variance predicts +gamma dt/2 =
  +1.0%), (b) -1.2(5)%. DELTA = 0.04 lies above the 3-sigma upper end of
  both. With |E[ybar] - target| <= DELTA * target, a correct program
  fails a test with probability at most P(|T| > t_crit).
* t_crit is the Student t quantile with P(|T_{N-1}| > t_crit) = 1e-6.
  The y_j are means of exponentials, hence skewed (about 0.35 for (a),
  0.22 for (b)), which fattens the tail of T. Simulated with Gamma(16)
  means (skewness 0.5) at N = 16, 2e7 draws: 3.5e-6 instead of 1e-6.
* So each test fails a correct program with probability below 5e-6, and
  the two tests of a run below 1e-5 < 1e-4, for any seed: the seed moves
  only n_th and the stream keys, and the bias is relative to the target.

C6's own gate (each of 32 per-mode means within 3 sigma) cannot serve: at
0.27% per mode it fails about 1 - 0.9973**32 = 8% of fresh seeds.
"""

import contextlib
import importlib
import io
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
T_TEST_P = 1e-6
DELTA = 0.04


def import_cwom():
    """Import cwom from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "cwom" / "__init__.py").is_file():
        raise FileNotFoundError(f"no cwom sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cwom
    if Path(cwom.__file__).resolve().parent != SRC / "cwom":
        raise ImportError(f"cwom imported from {cwom.__file__}, not {SRC}")


def t_critical(dof: int, p_two_sided: float = T_TEST_P) -> float:
    """t with P(|T_dof| > t) = p, from the numerically integrated density."""
    if dof < 1:
        raise ValueError("need at least two trajectories for a t test")
    norm = math.exp(math.lgamma(0.5 * (dof + 1)) - math.lgamma(0.5 * dof)) \
        / math.sqrt(dof * math.pi)
    w = np.linspace(0.0, 1.0, 20001)[1:]

    def tail(t):
        # substitute s = t / w to map [t, inf) onto (0, 1]
        s = t / w
        f = norm * (1.0 + s * s / dof) ** (-0.5 * (dof + 1)) * t / w ** 2
        return 2.0 * float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(w))
                           + 0.5 * f[0] * w[0])

    lo, hi = 0.0, 1e7
    for _ in range(200):
        mid = math.sqrt(lo * hi) if lo > 0 else 0.5 * hi
        if tail(mid) > p_two_sided:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-9 * hi:
            break
    return hi


def pooled_t_check(name: str, samples, target: float) -> tuple:
    y = np.asarray(samples, dtype=float)
    n = y.size
    if n < 2 or not np.all(np.isfinite(y)):
        return name, False, f"{n} samples, finite={bool(np.all(np.isfinite(y)))}"
    mean, sd = float(y.mean()), float(y.std(ddof=1))
    limit = DELTA * target + t_critical(n - 1) * sd / math.sqrt(n)
    dev = abs(mean - target)
    return (name, dev <= limit,
            f"mean {mean:.5g} vs {target:.5g}, |dev| {dev:.3g} <= {limit:.3g} "
            f"(N={n})")


def _finite(name, *arrays) -> tuple:
    ok = all(np.all(np.isfinite(np.asarray(a))) for a in arrays)
    return name, bool(ok), "all finite" if ok else "non-finite values"


class Workload:
    name = ""
    why = ""
    bypasses = ()
    flat = ()
    sizes = {}
    modules = ()

    def __init__(self, size: str = "full", workdir: Path = None):
        self.p = self.sizes[size]
        self.workdir = workdir

    def load(self):
        """Import what the solve uses; part of set-up, like ``import cwom``."""
        import_cwom()
        for name in self.modules:
            importlib.import_module(name)

    def inputs(self, seed: int) -> dict:
        raise NotImplementedError

    def solve(self, inputs: dict, rep: int):
        raise NotImplementedError

    def check(self, inputs: dict, result) -> list:
        """(name, passed, detail) per check of one solve."""
        raise NotImplementedError

    def pooled_checks(self, inputs: dict, results: list) -> list:
        """Checks over every solve of the run; none by default."""
        return []


class LinkConvergence(Workload):
    """Reduced C4 (link kind): the lattice->continuum convergence study.

    The only workload dominated by derivative couplings: the
    link-effective continuum reference runs g_mmp and g_mpm terms, so
    ``spectral_derivative`` and ``LatticeStepper`` carry most of the
    profile. Noise, drive, observers and the CLI are bypassed. Predicted
    flat under a change to noise draws, deposits or ensembles.
    """

    name = "link_convergence"
    why = ("reduced C4 link study: derivative FFTs and lattice steps dominate; "
           "bypasses noise, deposit, rng, multibranch, observers, cli; flat under "
           "noise/deposit/ensemble work")
    bypasses = ("bath.noise.calls", "boundary.deposit.calls", "rng.generators",
                "multibranch.step.calls", "observers.calls", "cli.main.calls",
                "interaction.total_energy.calls", "stepper.ensemble.trajectories")
    flat = ("bath.noise.self_s", "boundary.deposit.self_s", "multibranch.step.self_s",
            "observers.self_s", "cli.config.s")
    sizes = {
        "full": {"sizes": (32, 64, 128), "n_ref": 256},
        "tiny": {"sizes": (16, 32, 64), "n_ref": 128},
    }
    modules = ("cwom.experiments",)

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        return {"g_cont": float(0.045 + 0.015 * rng.random())}

    def solve(self, inputs, rep):
        from cwom.experiments import array_convergence_study
        return array_convergence_study(
            kind="link", sizes=self.p["sizes"], length=32.0, D2=0.5,
            g_cont=inputs["g_cont"], T=0.25, n_ref=self.p["n_ref"])

    def check(self, inputs, r):
        ratio = r.errors / r.errors_pointwise_model
        return [
            _finite("finite_errors", r.errors, r.errors_pointwise_model),
            ("fitted_order_2", bool(abs(r.slope - 2.0) < 0.2),
             f"slope {r.slope:.4f} (2 +- 0.2)"),
            ("link_beats_pointwise", bool(np.all(ratio < 0.8)),
             f"error ratios {np.array2string(ratio, precision=3)} < 0.8"),
        ]


class BrillouinGain(Workload):
    """Reduced C2 at its 0.05 W forward pump point.

    The only workload that uses ``MultiBranchStepper``: pump, signal and
    phonon at n = 256 with two end-fire deposits and an absorber. The seed
    moves pump power and g0_12 together at fixed G_B * P (so grid, dt and
    step count are fixed) and the seed/pump power ratio. Noiseless, no
    derivative couplings, never calls ``interaction_rhs``.
    """

    name = "brillouin_gain"
    why = ("C2 gain at 0.05 W: the only MultiBranchStepper user; bypasses "
           "Stepper, interaction_rhs, derivatives, noise, lattice, cli; flat under "
           "derivative/ensemble work")
    bypasses = ("stepper.step.calls", "interaction.rhs.calls",
                "spectral.derivative.calls", "bath.noise.calls", "rng.generators",
                "lattice.step.calls", "observers.calls", "cli.main.calls",
                "stepper.evolve.calls", "stepper.ensemble.trajectories")
    flat = ("spectral.derivative.self_s", "interaction.rhs.self_s",
            "stepper.step.self_s", "lattice.step.self_s", "bath.noise.self_s")
    sizes = {
        "full": {"n_points": 256},
        "tiny": {"n_points": 128},
    }
    modules = ("cwom.brillouin", "cwom.experiments")
    OMEGA1 = 2 * np.pi * 193.5e12
    GAMMA = 2 * np.pi * 3e8
    V = 7e7

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        pump = float(0.04 + 0.02 * rng.random())
        return {"pump_power_W": pump,
                "g0_12": float(1e4 * np.sqrt(0.05 / pump)),
                "seed_power_ratio": float(10.0 ** rng.uniform(-10.3, -9.7))}

    def solve(self, inputs, rep):
        from cwom.brillouin import brillouin_gain
        from cwom.experiments import run_two_branch_gain
        g0, pump = inputs["g0_12"], inputs["pump_power_W"]
        G_B = brillouin_gain(g0, self.V, self.V, self.GAMMA, self.OMEGA1)
        return run_two_branch_gain(
            g0_12=g0, v1=self.V, v2=self.V, vb=1e3, Gamma=self.GAMMA,
            kappa2=0.15 * G_B * pump * self.V, omega1=self.OMEGA1,
            pump_power_W=pump, seed_power_ratio=inputs["seed_power_ratio"],
            n_points=self.p["n_points"], target_efolds=6.0,
            direction=+1)

    def check(self, inputs, r):
        rel = abs(r.measured_power_slope - r.predicted_power_slope) \
            / abs(r.predicted_power_slope)
        return [
            _finite("finite_profiles", r.P1, r.P2, r.Pb),
            ("slope_error_below_5pct", bool(rel < 0.05), f"slope error {rel:.2e}"),
            ("pump_depletion_below_1pct", bool(r.pump_depletion < 0.01),
             f"depletion {r.pump_depletion:.2e}"),
            ("phonon_reconstruction_below_1pct",
             bool(r.phonon_prediction_error < 0.01),
             f"phonon error {r.phonon_prediction_error:.2e}"),
        ]


class WignerEnsemble(Workload):
    """Two C6-style ensembles of short Stepper/evolve trajectories, 1 worker.

    (a) bulk thermal noise on an uncoupled damped phonon field, n = 32;
    checked against the per-mode occupation n_th + 1/2.
    (b) end-fire vacuum deposit plus absorber, n = 128; checked against
    the equal-time correlator diagonal 1/(2 dx) over cells 20..99.
    Bound by per-step Python overhead, noise draws and deposits; no
    derivative couplings, so fused derivative FFTs are predicted flat here.
    """

    name = "wigner_ensemble"
    why = ("C6(a)+(b) ensembles of short small-n runs: per-step overhead, noise, "
           "deposit; bypasses derivatives, multibranch, lattice, cli; flat under "
           "fused derivative FFTs")
    bypasses = ("spectral.derivative.calls", "multibranch.step.calls",
                "lattice.step.calls", "experiments.calls", "cli.main.calls",
                "observers.calls", "interaction.total_energy.calls")
    flat = ("spectral.derivative.self_s", "multibranch.step.self_s",
            "lattice.step.self_s", "experiments.self_s", "cli.config.s")
    sizes = {
        "full": {"traj_a": 16, "traj_b": 8},
        "tiny": {"traj_a": 8, "traj_b": 4},
    }
    CELLS = slice(20, 100)
    modules = ("cwom.dynamics", "cwom.core.spectral")

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        return {"n_th": float(0.5 + 0.5 * rng.random()),
                "base_seed": int(rng.integers(1, 2 ** 31))}

    def solve(self, inputs, rep):
        from cwom import CouplingSet, DispersionSpec, FieldState, Grid1D
        from cwom.core.spectral import mode_amplitudes
        from cwom.dynamics import (BathSpec, DispersionPair, EndfireDrive, Stepper,
                                   evolve, make_absorber, run_ensemble)
        p = self.p
        base = inputs["base_seed"] + 2 * rep

        grid_a = Grid1D(32, 0.5)
        bath_a = BathSpec(gamma_mech=1.0, n_th=inputs["n_th"], sampling="wigner")
        disp_a = DispersionPair(DispersionSpec.flat(0.0), DispersionSpec.flat(2.0))

        def thermal(rng, index):
            traj = evolve(FieldState.vacuum(grid_a), CouplingSet(), disp_a,
                          bath=bath_a, dt=0.02, n_steps=450, rng=rng)
            return np.abs(mode_amplitudes(traj.final_state.b, grid_a)) ** 2

        grid_b = Grid1D(128, 1.0)
        c = 2.0
        disp_b = DispersionPair(DispersionSpec.linear(c), DispersionSpec.flat(0.0))
        dt_b = 0.9 * 0.5 / (c * np.pi / grid_b.dx)
        absorber = make_absorber(grid_b, speed=c, width_fraction=0.1)
        drive = EndfireDrive(alpha_in=0.0, inlet_cell=4)
        bath_b = BathSpec(sampling="wigner")
        steps_b = int(grid_b.length / (c * dt_b))  # one transit fills cells 20..99

        def vacuum(rng, index):
            st = FieldState.vacuum(grid_b)
            stepper = Stepper(grid_b, CouplingSet(), disp_b, bath_b, drive,
                              absorber, dt_b)
            for i in range(steps_b):
                stepper.step_inplace(st, rng=rng, step_index=i)
            return np.abs(st.a[self.CELLS]) ** 2 * (2.0 * grid_b.dx)

        occupation = np.asarray(run_ensemble(thermal, p["traj_a"], base, workers=1))
        diagonal = np.asarray(run_ensemble(vacuum, p["traj_b"], base + 1, workers=1))
        return {"occupation": occupation, "diagonal": diagonal}

    def check(self, inputs, r):
        return [_finite("finite_samples", r["occupation"], r["diagonal"])]

    def pooled_checks(self, inputs, results):
        occ = np.concatenate([r["occupation"] for r in results])
        diag = np.concatenate([r["diagonal"] for r in results])
        return [
            pooled_t_check("mode_occupation_n_th_plus_half", occ.mean(axis=1),
                           inputs["n_th"] + 0.5),
            pooled_t_check("vacuum_diagonal_1_over_2dx", diag.mean(axis=1), 1.0),
        ]


class CliRecorded(Workload):
    """``cwom run --config ... --trajectories N`` on the custom scenario.

    A large grid (n = 4096) with Wigner noise, a pointwise coupling, an
    end-fire drive and the absorber setting, recording every step: the
    observers (``total_energy``) and noise draws dominate. The only
    workload through ``cli.config``, ``cli.scenarios``, ``cli.output`` and
    the observers; a change that keeps fields in k-space between steps
    would pay here for reading state every step.
    """

    name = "cli_recorded"
    why = ("CLI custom run, n=4096, noise, record_every=1: observers, noise, "
           "writers; bypasses experiments, multibranch, lattice, ensembles; flat "
           "under multibranch/lattice work")
    bypasses = ("experiments.calls", "multibranch.step.calls", "lattice.step.calls",
                "stepper.ensemble.trajectories")
    flat = ("experiments.self_s", "multibranch.step.self_s", "lattice.step.self_s")
    sizes = {
        "full": {"n_points": 4096, "trajectories": 2, "steps": 400},
        "tiny": {"n_points": 256, "trajectories": 1, "steps": 40},
    }
    modules = ("cwom.cli.main", "cwom.cli.output")
    DT = 0.05

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        p = self.p
        folder = self.workdir / f"cli_recorded-seed{seed}"
        folder.mkdir(parents=True, exist_ok=True)
        text = CONFIG_TEMPLATE.format(
            n_points=p["n_points"], g_ppp=0.04 + 0.02 * rng.random(),
            n_th=0.05 + 0.1 * rng.random(), alpha=0.8 + 0.4 * rng.random(),
            dt=self.DT, t_total=self.DT * p["steps"])
        config = folder / "run.cfg"
        config.write_text(text)
        return {"config": config, "folder": folder,
                "base_seed": int(rng.integers(1, 2 ** 31))}

    def solve(self, inputs, rep):
        from cwom.cli import main as cli_main
        out = inputs["folder"] / "out"
        shutil.rmtree(out, ignore_errors=True)  # no stale artifacts reach the checks
        argv = ["run", "--config", str(inputs["config"]), "--output", str(out),
                "--trajectories", str(self.p["trajectories"]),
                "--seed", str(inputs["base_seed"] + rep)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main.main(argv)
        return {"exit_code": code, "out": out}

    def check(self, inputs, r):
        from cwom.cli.output import read_snapshot
        out = r["out"]
        checks = [("exit_code_0", r["exit_code"] == 0, f"exit code {r['exit_code']}")]
        try:
            report = json.loads((out / "report.json").read_text())
            numbers = [v for v in report.values()
                       if isinstance(v, (int, float)) and not isinstance(v, bool)]
            ok = bool(numbers) and all(math.isfinite(v) for v in numbers)
            checks.append(("report_values_finite", ok, f"{len(numbers)} numbers"))
        except (OSError, ValueError) as err:
            checks.append(("report_values_finite", False, str(err)))
        try:
            rows = (out / "observables.csv").read_text().splitlines()
            want = self.p["steps"] + 2  # header + initial state + every step
            checks.append(("csv_rows", len(rows) == want,
                           f"{len(rows)} lines, expected {want}"))
        except OSError as err:
            checks.append(("csv_rows", False, str(err)))
        try:
            a, b, dx = read_snapshot(out / "final_state.snap")
            ok = (a.size == b.size == self.p["n_points"] and dx == 1.0
                  and bool(np.all(np.isfinite(a))) and bool(np.all(np.isfinite(b))))
            checks.append(("snapshot_reads_back", ok, f"n = {a.size}, dx = {dx}"))
        except (OSError, ValueError) as err:
            checks.append(("snapshot_reads_back", False, str(err)))
        return checks


CONFIG_TEMPLATE = """\
[scenario]
name = custom

[grid]
n_points = {n_points}
dx = 1.0 m

[photon]
kind = linear
velocity = 2.0 m/s

[phonon]
kind = flat
omega0 = 1.0 rad/s

[couplings]
sector = even
g_ppp = {g_ppp!r} Hz*m^(1/2)

[bath]
kappa = 0.2 /s
gamma_mech = 0.5 /s
n_th = {n_th!r}
sampling = wigner

[drive]
mode = endfire
alpha_in = {alpha!r}+0j s^(-1/2)
inlet_cell = 4

[integration]
dt = {dt!r} s
t_total = {t_total!r} s
record_every = 1
absorber = on
"""

WORKLOADS = {w.name: w for w in (LinkConvergence, BrillouinGain, WignerEnsemble,
                                 CliRecorded)}
