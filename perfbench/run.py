"""cwom benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; cwom is imported from its ``src``.
Workloads: link_convergence, brillouin_gain, wigner_ensemble, cli_recorded
(see workloads.py).

``--trace 0`` times solves with no wrappers installed and prints every
end-to-end metric by name and unit, with sample counts and the check
results. ``--trace 1`` alternates untraced and traced solves, prints
every per-layer metric, and writes the per-layer report with the tracing
overhead and the recorded spans to ``.perfbench_out/``. Either way the last
line of standard output is one JSON object: correct, attempted, failed and
metrics.

A run first solves once with tracing on (untimed: it warms caches and
counts the integrator steps of one solve), then repeats the solve until
``--seconds`` have passed and reports medians. Every solve is checked;
``attempted``/``failed`` count the checks.

``solve_rel`` is each solve's wall time divided by the wall time of a
fixed numpy reference computation timed just before it on the same core
(:func:`reference_seconds`). On a shared 2-vCPU Xeon VM the speed of a
fixed loop changed by 20-40% over minutes and medians of raw wall time
moved by 20% between two sets of runs of the same code; the ratio cancels
such drift. The raw ``solve_s`` and ``steps_per_s`` are printed, not
emitted.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Pinned before numpy loads, so results do not depend on the caller's shell.
PINNED_ENV = {
    "CWOM_THREADS": "1", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
END_TO_END = {
    "solve_rel": "1",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "check_pass_ratio": "1",
}


def machine_facts() -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads_env": PINNED_ENV,
    }


def measure_setup(workload: str, seed: int, size: str) -> list:
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload,
             "--seed", str(seed), "--size", size],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def reference_seconds() -> float:
    """Wall time of a fixed computation shaped like a small split step.

    FFT round trips and a pointwise update on a 256-point complex field,
    driven from a Python loop: the same mix of interpreter overhead and
    small numpy calls that dominates the solvers, with no cwom code in it.
    """
    import numpy as np
    field = np.exp(1j * np.linspace(0.0, 6.0, 256))
    phase = np.exp(-0.01j * np.arange(256))
    t0 = time.perf_counter()
    for _ in range(1500):
        field = np.fft.ifft(phase * np.fft.fft(field))
        field = field * (1.0 - 1e-4 * np.abs(field) ** 2)
    return time.perf_counter() - t0


def _summary(values) -> str:
    return (f"median of {len(values)}, min {min(values):.6g}, "
            f"max {max(values):.6g}")


def run(name: str, seed: int, seconds: float, trace: bool, size: str = "full"):
    """Run one workload; returns (result object, details for the report)."""
    os.environ.update(PINNED_ENV)
    import workloads
    workloads.import_cwom()
    from layertrace import PER_LAYER, Tracer

    setup = [] if trace else measure_setup(name, seed, size)
    workload = workloads.WORKLOADS[name](size, workloads.OUT)
    workload.load()
    inputs = workload.inputs(seed)
    tracer = Tracer()
    checks, results = [], []

    def solve(rep, traced):
        if traced:
            tracer.install()
        try:
            t0 = time.perf_counter()
            result = workload.solve(inputs, rep)
            rep_checks = workload.check(inputs, result)
            elapsed = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        checks.extend(rep_checks)
        results.append(result)
        return elapsed

    solve(0, traced=True)
    warm = tracer.snapshot()
    steps = warm["steps"]
    if not trace:
        tracer = None  # drop the warm-up spans before memory is measured

    untraced_s, reference_s, traced_s, layers = [], [], [], []
    deadline = time.perf_counter() + seconds
    rep = 1
    while True:
        traced = trace and rep % 2 == 0
        if not trace:
            reference_s.append(reference_seconds())
        elapsed = solve(rep, traced)
        if traced:
            traced_s.append(elapsed)
            layers.append(tracer.snapshot())
        else:
            untraced_s.append(elapsed)
        rep += 1
        if time.perf_counter() >= deadline and (traced_s or not trace):
            break
    checks.extend(workload.pooled_checks(inputs, results))
    failed = sum(1 for _, ok, _ in checks if not ok)

    solve_s = statistics.median(untraced_s)
    details = {"workload": name, "seed": seed, "size": size,
               "machine": machine_facts(), "steps_per_solve": steps,
               "untraced_solve_s": untraced_s, "reference_s": reference_s,
               "checks": checks}
    if trace:
        metrics = {m: statistics.median(row[m] for row in layers) for m in PER_LAYER
                   if m != "trace.overhead_ratio"}
        metrics["trace.overhead_ratio"] = statistics.median(traced_s) / solve_s - 1.0
        units = {m: unit for m, (unit, _) in PER_LAYER.items()}
        details.update(traced_solve_s=traced_s, warmup_layers=warm,
                       bypasses=workload.bypasses, predicted_flat=workload.flat,
                       bypassed_nonzero=[m for m in workload.bypasses if metrics[m]],
                       spans=tracer.span_table())
    else:
        metrics = {
            "solve_rel": statistics.median(
                s / r for s, r in zip(untraced_s, reference_s)),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "check_pass_ratio": (len(checks) - failed) / len(checks),
        }
        units = END_TO_END
        details["setup_s"] = setup
    result = {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    return result, details


def print_human(result: dict, details: dict):
    m = details["machine"]
    print(f"# workload {details['workload']} seed {details['seed']} "
          f"size {details['size']}: nproc {m['nproc']} (affinity {m['affinity']}), "
          f"{m['cpu']}, python {m['python']}, numpy {m['numpy']}, "
          f"{details['steps_per_solve']} integrator steps per solve")
    samples = {"setup_s": details.get("setup_s")}
    for name, metric in result["metrics"].items():
        extra = _summary(samples[name]) if samples.get(name) else ""
        print(f"  {name:34s} {metric['value']:<14.6g} {metric['unit']:6s} {extra}")
    solve_s = statistics.median(details["untraced_solve_s"])
    print(f"  {'solve_s (raw wall time)':34s} {solve_s:<14.6g} {'s':6s} "
          f"{_summary(details['untraced_solve_s'])}")
    if details["reference_s"]:
        print(f"  {'reference_s':34s} {statistics.median(details['reference_s']):<14.6g} "
              f"{'s':6s} {_summary(details['reference_s'])}")
    print(f"  {'steps_per_s (raw)':34s} "
          f"{details['steps_per_solve'] / solve_s:<14.6g} 1/s")
    if "traced_solve_s" in details:
        print(f"  tracing overhead: traced solve {_summary(details['traced_solve_s'])} "
              f"vs untraced {_summary(details['untraced_solve_s'])}")
        for metric in details["bypassed_nonzero"]:
            print(f"  WARNING bypassed layer reports calls: {metric}")
    tally = {}
    for check, ok, detail in details["checks"]:
        passed, total, _ = tally.get(check, (0, 0, ""))
        tally[check] = (passed + ok, total + 1, detail)
        if not ok:
            print(f"  FAILED check {check}: {detail}")
    for check, (passed, total, detail) in tally.items():
        print(f"  check {check:34s} {passed}/{total} passed  (last: {detail})")
    print(f"  check_fail_ratio {result['failed']}/{result['attempted']}")


def write_report(details: dict, result: dict) -> Path:
    import workloads
    workloads.OUT.mkdir(exist_ok=True)
    path = workloads.OUT / f"trace-{details['workload']}-seed{details['seed']}.json"
    payload = dict(details, per_layer=result["metrics"])
    path.write_text(json.dumps(payload, default=float) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("link_convergence", "brillouin_gain",
                                 "wigner_ensemble", "cli_recorded"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, details = run(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except (FileNotFoundError, ImportError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print_human(result, details)
    if args.trace:
        print(f"  per-layer report: {write_report(details, result)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
