"""Scan one-key mutations of every CLI preset through ``cwom run``.

    python3 tools/config_fuzz.py [--run SECONDS]

For each preset of ``DEFAULTS`` it makes one config per mutation of one
key: each float or complex key times 1e6, 1e-6, 1e12 and 1e-12, negated,
and set to 0; each int key set to 0, 1, 2 and 3, doubled and halved. A
mutation that gives the preset's own value, or one already made, is left
out. ``EXTRA`` adds the custom run's ``(dt, t_total)`` pairs and drive
carriers ``k_L``, which its preset does not set. Every config goes
through ``cwom run --validate-only`` in this process, and the tool prints
the count of each outcome: the exit code, or ``traceback`` and the type
of an exception that escaped the CLI's ``main``. With ``--run SECONDS``
it then runs each accepted config through ``cwom run`` in a child
process with that timeout and prints the count of each exit code and of
timeouts. Both halves list the cases of every outcome but exits 0 and 2.

The validate-only half takes about a second, and ``tests/test_config_fuzz.py``
runs it; the run half takes minutes and is not part of the test suite.
"""

import argparse
import collections
import contextlib
import io
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
from cwom.cli.config import SCHEMA, ScenarioConfig, serialize_config  # noqa: E402
from cwom.cli.main import main as cwom_main  # noqa: E402
from cwom.cli.scenarios import DEFAULTS  # noqa: E402

FACTORS = (1e6, 1e-6, 1e12, 1e-12, -1.0, 0.0)
# (scenario, {section: {key: value}}) cases beyond the one-key mutations
EXTRA = [("custom", {"integration": {"dt": dt, "t_total": t_total}})
         for dt, t_total in ((1e-10, 1e300), (2e-8, 1e3), (2e-14, 1e2))] \
    + [("custom", {"drive": {"k_L": k_L}}) for k_L in (0.5, 1.0, 1.1, 2.5, 3.0)]


def mutations(value, kind: str) -> list:
    """The mutated values of a preset value of SCHEMA kind ``kind``, each
    new and unlike ``value``; none for kinds that are not numbers."""
    if kind in ("float", "complex"):
        values = [value * factor for factor in FACTORS]
    elif kind == "int":
        values = [0, 1, 2, 3, 2 * value, value // 2]
    else:
        return []
    return [new for new in dict.fromkeys(values) if new != value]


def cases() -> list:
    """(name, scenario, sections) of every config the scan makes."""
    out = []
    for scenario, preset in DEFAULTS.items():
        for section, entries in preset.items():
            for key, value in entries.items():
                for new in mutations(value, SCHEMA[section][key][0]):
                    out.append((scenario, {section: {key: new}}))
    out += EXTRA
    return [(f"{scenario} " + ", ".join(f"[{section}] {key} = {value!r}"
                                        for section, entries in sections.items()
                                        for key, value in entries.items()),
             scenario, sections) for scenario, sections in out]


def write_config(path: Path, scenario: str, sections: dict) -> None:
    path.write_text(serialize_config(
        ScenarioConfig(scenario, {"scenario": {"name": scenario}, **sections})))


def validate(path: Path):
    """The outcome of ``cwom run --validate-only`` on ``path``, in this
    process: its exit code, or "traceback" and the type of the exception
    that escaped the CLI."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return cwom_main(["run", "--config", str(path), "--validate-only"])
        except Exception as err:  # noqa: BLE001 - an escaped exception is the finding
            return f"traceback {type(err).__name__}"


def run(path: Path, out: Path, seconds: float):
    """The outcome of ``cwom run`` on ``path`` in a child process: its
    exit code, or "timeout", after which its whole process group (forked
    workers too) is killed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with subprocess.Popen([sys.executable, "-m", "cwom.cli.main", "run", "--config",
                           str(path), "--output", str(out)], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                          start_new_session=True) as child:
        try:
            return child.wait(timeout=seconds)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            return "timeout"


def scan(run_seconds=None) -> dict:
    """{"validate": [(name, outcome)], "run": [(name, outcome)]}, the run
    half only for the configs that validate, and only with
    ``run_seconds``."""
    found = {"validate": [], "run": []}
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        for index, (name, scenario, sections) in enumerate(cases()):
            path = work / f"case{index}.cfg"
            write_config(path, scenario, sections)
            outcome = validate(path)
            found["validate"].append((name, outcome))
            if outcome == 0 and run_seconds is not None:
                found["run"].append((name, run(path, work / f"out{index}",
                                               run_seconds)))
    return found


def report(half: str, found: list) -> None:
    counts = collections.Counter(str(outcome) for _, outcome in found)
    print(f"{half}: {len(found)} cases, " + ", ".join(
        f"{outcome}: {n}" for outcome, n in sorted(counts.items())))
    for name, outcome in found:
        if outcome not in (0, 2):
            print(f"  {outcome}: {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--run", type=float, metavar="SECONDS",
                        help="also run each accepted config with this timeout")
    args = parser.parse_args(argv)
    found = scan(args.run)
    report("validate-only", found["validate"])
    if args.run is not None:
        report("run", found["run"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
