"""Command-line entry point.

    cwom run --scenario regime_sweep --output out/
    cwom run --config my_run.cfg --output out/ --seed 7 --trajectories 16
    cwom run --config my_run.cfg --validate-only
"""

import argparse
import sys

from ..dynamics.stepper import DivergenceError
from .config import (SCENARIOS, ConfigError, ScenarioConfig, check_ranges,
                     load_config)
from .scenarios import run_scenario, validate_scenario

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cwom",
        description="Continuum waveguide optomechanics: coupled photon-phonon "
                    "field simulation and analysis")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute a scenario")
    run.add_argument("--config", help="configuration file (sectioned key-value "
                                      "text with unit suffixes)")
    run.add_argument("--scenario", choices=SCENARIOS,
                     help="scenario preset; defaults to the config's choice")
    run.add_argument("--output", default="cwom_out",
                     help="output directory (default: %(default)s)")
    run.add_argument("--trajectories", type=int,
                     help="override the ensemble size")
    run.add_argument("--seed", type=int, help="override the base RNG seed")
    run.add_argument("--dt-override", type=float,
                     help="override the integrator step (seconds)")
    run.add_argument("--validate-only", action="store_true",
                     help="parse and validate the configuration, then exit")
    return parser


def _load(args) -> ScenarioConfig:
    if args.config:
        config = load_config(args.config)
        if args.scenario and args.scenario != config.scenario:
            config = config.merged({"scenario": {"name": args.scenario}})
    elif args.scenario:
        config = ScenarioConfig(args.scenario,
                                {"scenario": {"name": args.scenario}})
    else:
        raise ConfigError(["either --config or --scenario is required"])
    overrides = {}
    if args.trajectories is not None:
        overrides.setdefault("ensemble", {})["trajectories"] = args.trajectories
    if args.seed is not None:
        overrides.setdefault("ensemble", {})["base_seed"] = args.seed
    if args.dt_override is not None:
        overrides.setdefault("integration", {})["dt"] = args.dt_override
    if overrides:
        check_ranges(overrides)
        config = config.merged(overrides)
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load(args)
        if args.validate_only:
            validate_scenario(config)
    except (ConfigError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAILURE
    if args.validate_only:
        print(f"configuration valid: scenario {config.scenario!r}")
        return EXIT_OK
    try:
        report = run_scenario(config, args.output)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAILURE
    print(f"scenario {config.scenario!r} complete "
          f"({report['wall_time_s']:.2f} s); artifacts in {args.output}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
