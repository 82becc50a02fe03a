"""Check that two checkouts write the same bytes for every CLI preset.

    python3 tools/preset_cmp.py --parent DIR --change DIR [--work DIR]

Runs ``cwom run --scenario NAME`` for each preset of ``PRESETS`` in both
checkouts, with cwom imported from each checkout's ``src``, into
``WORK/parent/NAME`` and ``WORK/change/NAME``. ``--work`` must be empty
or new; it defaults to a new temporary directory. Then it compares every
artifact the two sides wrote byte for byte, except ``timing.json`` (the
run's wall time), and prints ``same`` or ``DIFF`` per file. A file only
one side wrote is a ``DIFF``. Last it prints each preset's ``wall_time_s``
from both sides' ``timing.json`` (one run each, so a timing, not a
benchmark). It exits 1 if any file differs or any run failed, else 0.
Both checkouts together take about 17 s on a 2-vCPU VM; it is not part
of the test suite.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PRESETS = ("regime_sweep", "backward_gain", "intermodal_swap", "comb",
           "array_convergence", "custom")
IGNORED = {"timing.json"}  # holds the wall time, which no two runs share


def compare_trees(parent: Path, change: Path) -> list:
    """(path relative to the tree, "same" or "DIFF") for every file under
    ``parent`` or ``change`` whose name is not in ``IGNORED``, sorted by
    path. A file is "same" only when both trees hold it with equal bytes."""
    files = sorted({path.relative_to(root) for root in (parent, change)
                    for path in root.rglob("*")
                    if path.is_file() and path.name not in IGNORED})
    return [(rel, "same" if (parent / rel).is_file() and (change / rel).is_file()
             and (parent / rel).read_bytes() == (change / rel).read_bytes()
             else "DIFF") for rel in files]


def wall_times(parent: Path, change: Path) -> list:
    """(preset, parent seconds, change seconds) for every preset directory
    under ``parent`` or ``change``, sorted by name, from its
    ``timing.json``'s ``wall_time_s``; None for a side without one."""
    def seconds(root, name):
        path = root / name / "timing.json"
        return json.loads(path.read_text())["wall_time_s"] if path.is_file() else None
    names = sorted({path.name for root in (parent, change) if root.is_dir()
                    for path in root.iterdir() if path.is_dir()})
    return [(name, seconds(parent, name), seconds(change, name)) for name in names]


def format_seconds(value) -> str:
    return "-" if value is None else f"{value:.3f} s"


def run_preset(checkout: Path, scenario: str, out: Path) -> int:
    """The exit code of the CLI running ``scenario`` from ``checkout``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    return subprocess.run(
        [sys.executable, "-m", "cwom.cli.main", "run", "--scenario", scenario,
         "--output", str(out)], cwd=checkout, env=env,
        stdout=subprocess.DEVNULL).returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--work", type=Path,
                        help="where the runs write (default: a new temporary "
                             "directory)")
    args = parser.parse_args(argv)
    if args.work is not None and args.work.exists() and any(args.work.iterdir()):
        parser.error("--work must be empty: older artifacts would be compared")
    work = (args.work or Path(tempfile.mkdtemp(prefix="preset_cmp_"))).resolve()
    failed = False
    for scenario in PRESETS:
        for side in ("parent", "change"):
            code = run_preset(getattr(args, side).resolve(), scenario,
                              work / side / scenario)
            if code:
                print(f"FAILED {side} {scenario}: exit {code}")
                failed = True
    verdicts = compare_trees(work / "parent", work / "change")
    for rel, verdict in verdicts:
        print(f"{verdict:4}  {rel}")
    for name, parent_s, change_s in wall_times(work / "parent", work / "change"):
        print(f"time  {name:18} parent {format_seconds(parent_s):>9}  "
              f"change {format_seconds(change_s):>9}")
    print(f"artifacts in {work}")
    return 1 if failed or any(v != "same" for _, v in verdicts) else 0


if __name__ == "__main__":
    sys.exit(main())
