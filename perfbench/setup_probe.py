"""One set-up sample: import cwom and generate a workload's inputs.

Prints the seconds from this script's first statement to the point where
the workload would make its first call into cwom. ``run.py`` starts this
several times per run (a fresh interpreter each time, so ``import cwom``
is paid every time) and reports the median as ``setup_s``.

    python3 perfbench/setup_probe.py --workload NAME --seed N [--size full]
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    args = parser.parse_args()
    import workloads
    workload = workloads.WORKLOADS[args.workload](args.size, workloads.OUT)
    workload.load()
    workload.inputs(args.seed)
    print(repr(time.perf_counter() - START))


if __name__ == "__main__":
    main()
