"""Record a BENCH_<n>.json: the benchmark and tier-1 timings of two checkouts.

    python3 tools/bench_record.py --parent DIR --change DIR --out BENCH_6.json \
        [--first-seed 9700]

For each workload of ``BENCHMARK.json`` it runs ``perfbench/run.py --trace
0`` in both checkouts for ten pairs of runs of the benchmark's
``run_seconds``, one seed per pair, alternating which checkout runs
first, and records every end-to-end metric with its median and quartiles
per side, and for ``solve_rel`` how many pairs the change won. Each
end-to-end metric of ``BENCHMARK.json`` gets a ``verdict`` (see
:func:`verdict`), and a table of them is printed at the end. Then it
traces one run of each workload per checkout (``--trace 1``, seed
``TRACE_SEED``) and records its per-layer metrics side by side. Last, it
runs the tier-1 suite three times per checkout in the order
``TIER1_ORDER`` (parent, change, change, parent, parent, change), so the
machine's drift falls on both sides alike, and records every run's wall
time, pytest summary line and durations of the eight acceptance criteria
C1 to C8 (however short), with their medians per side. It also records the line count
of each checkout's ``src/**/*.py`` (``src_lines``), which is printed after
the verdict table. Run it on an otherwise idle machine; it is not part of
the test suite.
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
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
SECONDS = BENCHMARK["run_seconds"]
PAIRS = 10  # a claimed gain must win at least 9 of 10 alternating pairs
TRACE_SEED = 7001
# alternated, so drift over the suite runs does not fall on one side
TIER1_ORDER = ("parent", "change", "change", "parent", "parent", "change")
CRITERIA = {f"C{n}": f"test_criterion_{n}_" for n in range(1, 9)}


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def verdict(metric: dict, bound: float, better: str) -> str:
    """One end-to-end metric's verdict from its parent and change runs (a
    :func:`bench_workload` entry), with the benchmark's relative ``bound``
    and ``better`` ("lower" or "higher"):

    - ``worse``: the change's median is worse than the parent's by more
      than ``bound`` times the parent's median;
    - ``unresolved``: not worse, but the parent's quartile spread exceeds
      ``bound`` times its median, and not every change run beats every
      parent run;
    - ``no worse``: otherwise.
    """
    sign = 1.0 if better == "lower" else -1.0  # sign * (c - p) > 0: c is worse
    parent, samples = metric["parent"], metric["samples"]
    scale = bound * abs(parent["median"])
    if sign * (metric["change"]["median"] - parent["median"]) > scale:
        return "worse"
    beats_all = all(sign * (c - p) < 0 for c in samples["change"]
                    for p in samples["parent"])
    if parent["q3"] - parent["q1"] > scale and not beats_all:
        return "unresolved"
    return "no worse"


def bench_once(checkout: Path, workload: str, seed: int, trace: int = 0) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
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
    for metric, spec in END_TO_END.items():
        out[metric]["verdict"] = verdict(out[metric], spec["bound"], spec["better"])
    rel = out["solve_rel"]
    rel["change_lower_in_pairs"] = sum(
        c < p for p, c in zip(rel["samples"]["parent"], rel["samples"]["change"]))
    rel["median_change"] = rel["change"]["median"] / rel["parent"]["median"] - 1.0
    rel["parent_quartile_spread"] = rel["parent"]["q3"] - rel["parent"]["q1"]
    return out


def tier1_once(checkout: Path) -> dict:
    env = dict(os.environ, PYTHONPATH="src")
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "--durations=0", "--durations-min=0", "-p", "no:cacheprovider"],
        cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = done.stdout.splitlines()
    out = {"wall_s": wall, "returncode": done.returncode,
           "summary": lines[-1] if lines else ""}
    out.update(criterion_seconds(lines))
    return out


def criterion_seconds(lines) -> dict:
    """``<label>_s`` of each of ``CRITERIA``: its call time in the lines of a
    ``pytest --durations=0 --durations-min=0`` run (without the second
    flag pytest leaves out calls under 5 ms), None where it did not run."""
    out = {}
    for label, stem in CRITERIA.items():
        found = [ln for ln in lines if stem in ln and " call " in ln]
        out[f"{label}_s"] = (float(re.match(r"\s*([\d.]+)s", found[0]).group(1))
                             if found else None)
    return out


def tier1(parent: Path, change: Path) -> dict:
    runs = []
    for side in TIER1_ORDER:
        run = tier1_once(parent if side == "parent" else change)
        runs.append(dict(run, side=side))
        print(f"tier-1 {side}: {run['wall_s']:.1f} s, {run['summary']}", flush=True)
    out = {"order": list(TIER1_ORDER), "runs": runs}
    for side in ("parent", "change"):
        mine = [r for r in runs if r["side"] == side]
        out[side] = {}
        for key in ("wall_s", *(f"{label}_s" for label in CRITERIA)):
            values = [r[key] for r in mine]  # None where a criterion did not run
            out[side][key] = None if None in values else statistics.median(values)
    return out


def traced(parent: Path, change: Path, workload: str) -> dict:
    out = {"seed": TRACE_SEED}
    for side, checkout in (("parent", parent), ("change", change)):
        out[side] = bench_once(checkout, workload, TRACE_SEED, trace=1)
        print(f"{workload} traced ({side}) done", flush=True)
    return out


def src_lines(checkout: Path) -> int:
    """Lines of the checkout's ``src/**/*.py``, counted as ``wc -l`` does."""
    return sum(path.read_bytes().count(b"\n")
               for path in (checkout / "src").rglob("*.py"))


def print_src_lines(lines: dict) -> None:
    print(f"src/**/*.py lines: parent {lines['parent']}, change "
          f"{lines['change']} ({lines['change'] - lines['parent']:+d})")


def print_verdicts(workloads: dict) -> None:
    """One row per workload, one column per end-to-end metric."""
    width = max(len(name) for name in workloads)
    print("verdicts".ljust(width) + "".join(f"  {m:>16}" for m in END_TO_END))
    for name, out in workloads.items():
        print(name.ljust(width)
              + "".join(f"  {out[m]['verdict']:>16}" for m in END_TO_END))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--first-seed", type=int, default=9700)
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    record = {"machine": machine_facts(), "seconds_per_run": SECONDS,
              "src_lines": {"parent": src_lines(parent),
                            "change": src_lines(change)},
              "workloads": {}}
    for k, workload in enumerate(WORKLOADS):
        first = args.first_seed + 100 * k
        record["workloads"][workload] = bench_workload(
            parent, change, workload, range(first, first + PAIRS))
    record["traced"] = {workload: traced(parent, change, workload)
                        for workload in WORKLOADS}
    record["tier1"] = tier1(parent, change)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print_verdicts(record["workloads"])
    print_src_lines(record["src_lines"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
