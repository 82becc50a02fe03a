"""Record a BENCH_<n>.json: the benchmark and tier-1 timings of two checkouts.

    python3 tools/bench_record.py --parent DIR --change DIR --out BENCH_6.json \
        [--first-seed 9700]

For each workload of ``BENCHMARK.json`` it runs ``perfbench/run.py --trace
0`` in both checkouts for ten pairs of runs of the benchmark's
``run_seconds``, one seed per pair, alternating which checkout runs
first, and records every end-to-end metric with its median and quartiles
per side, and for ``solve_rel`` how many pairs the change won. Then it
runs the tier-1 suite in each checkout, back to back, and records its
wall time and the durations of the acceptance criteria C2, C4 and C6.
Run it on an otherwise idle machine; it is not part of the test suite.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from run import machine_facts  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SECONDS = BENCHMARK["run_seconds"]
PAIRS = 10  # a claimed gain must win at least 9 of 10 alternating pairs
CRITERIA = {"C2": "test_criterion_2_", "C4": "test_criterion_4_",
            "C6": "test_criterion_6_"}


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def bench_once(checkout: Path, workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def bench_workload(parent: Path, change: Path, workload: str, seeds) -> dict:
    runs = {"parent": [], "change": []}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = parent if side == "parent" else change
            runs[side].append(bench_once(checkout, workload, seed))
        print(f"{workload} seed {seed}: solve_rel "
              f"{runs['parent'][-1]['solve_rel']:.4g} (parent) vs "
              f"{runs['change'][-1]['solve_rel']:.4g} (change)", flush=True)
    out = {"seeds": list(seeds), "pairs": len(seeds)}
    for metric in runs["parent"][0]:
        out[metric] = {side: quartiles([r[metric] for r in runs[side]])
                       for side in runs}
        out[metric]["samples"] = {side: [r[metric] for r in runs[side]]
                                  for side in runs}
    rel = out["solve_rel"]
    rel["change_lower_in_pairs"] = sum(
        c < p for p, c in zip(rel["samples"]["parent"], rel["samples"]["change"]))
    rel["median_change"] = rel["change"]["median"] / rel["parent"]["median"] - 1.0
    rel["parent_quartile_spread"] = rel["parent"]["q3"] - rel["parent"]["q1"]
    return out


def tier1(checkout: Path) -> dict:
    env = dict(os.environ, PYTHONPATH="src")
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "--durations=0", "-p", "no:cacheprovider"],
        cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = done.stdout.splitlines()
    out = {"wall_s": wall, "summary": lines[-1] if lines else ""}
    for label, stem in CRITERIA.items():
        found = [ln for ln in lines if stem in ln and " call " in ln]
        out[f"{label}_s"] = (float(re.match(r"\s*([\d.]+)s", found[0]).group(1))
                             if found else None)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--first-seed", type=int, default=9700)
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    record = {"machine": machine_facts(), "seconds_per_run": SECONDS,
              "workloads": {}}
    for k, workload in enumerate(WORKLOADS):
        first = args.first_seed + 100 * k
        record["workloads"][workload] = bench_workload(
            parent, change, workload, range(first, first + PAIRS))
    record["tier1"] = {"parent": tier1(parent), "change": tier1(change)}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
