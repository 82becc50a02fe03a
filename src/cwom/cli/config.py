"""Scenario configuration: sectioned key-value files with explicit units.

Every physical quantity carries a unit suffix checked against the schema
(`Gamma = 6.28e6 /s`); dimensionless keys use no suffix. Enumerated keys
accept only their declared values, unknown sections or keys are rejected,
numbers must be finite and each key meets the range rule that its
``SCHEMA`` entry names in ``RULES``. Validation reports every offending
entry at once rather than stopping at the first; command-line overrides
pass the same range checks (:func:`check_ranges`).
Unit bugs dominate this domain, so the parser refuses to guess.
"""

from dataclasses import dataclass, field
from pathlib import Path

from ..core.grid import is_power_of_two
from ..dynamics.boundary import absorber_fits
from ..dynamics.rng import MAX_SEED
from ..lattice import COUPLING_KINDS

SCENARIOS = ("custom", "comb", "backward_gain", "intermodal_swap",
             "array_convergence", "regime_sweep")

DISPERSION_KINDS = ("linear", "flat", "polynomial")

# value kinds: float / int / complex / str / enum / list (comma-separated
# floats). The second slot is the unit: "1" marks dimensionless numerics,
# None free strings; for enum it is the tuple of allowed values. The third
# names the value's range rule in RULES.
SCHEMA = {
    "scenario": {"name": ("str", None, "any")},
    # [grid] and [bath] are Grid1D's and BathSpec's to refuse
    "grid": {"n_points": ("int", "1", "any"), "dx": ("float", "m", "any")},
    "photon": {"kind": ("enum", DISPERSION_KINDS, "any"),
               "velocity": ("float", "m/s", "any"), "omega0": ("float", "rad/s", "any"),
               "coeffs": ("list", "SI", "any")},
    "phonon": {"kind": ("enum", DISPERSION_KINDS, "any"),
               "velocity": ("float", "m/s", "any"), "omega0": ("float", "rad/s", "any"),
               "coeffs": ("list", "SI", "any")},
    # CouplingSet's "mixed" sector needs a flag no key sets
    "couplings": {"sector": ("enum", ("even", "odd"), "any"),
                  "g_ppp": ("float", "Hz*m^(1/2)", "any"),
                  "g_mmp": ("float", "Hz*m^(5/2)", "any"),
                  "g_mpm": ("complex", "Hz*m^(5/2)", "any"),
                  "g_ppm": ("float", "Hz*m^(3/2)", "any"),
                  "g_mpp": ("complex", "Hz*m^(3/2)", "any"),
                  "g_mmm": ("float", "Hz*m^(7/2)", "any")},
    "bath": {"kappa": ("float", "/s", "any"), "gamma_mech": ("float", "/s", "any"),
             "n_th": ("float", "1", "any"), "temperature": ("float", "K", "any"),
             "omega_ref": ("float", "rad/s", "any"),
             "sampling": ("enum", ("none", "wigner"), "any")},
    "drive": {"mode": ("enum", ("none", "endfire"), "any"),
              "alpha_in": ("complex", "s^(-1/2)", "any"),
              "omega_L": ("float", "rad/s", "any"), "k_L": ("float", "rad/m", "any"),
              "inlet_cell": ("int", "1", "any")},
    "integration": {"dt": ("float", "s", "positive"), "t_total": ("float", "s", "any"),
                    "record_every": ("int", "1", "count"),
                    "absorber": ("enum", ("on", "off"), "any"),
                    "absorber_opacity": ("float", "1", "positive"),
                    "absorber_speed": ("float", "m/s", "positive")},
    "ensemble": {"trajectories": ("int", "1", "count"),
                 "base_seed": ("int", "1", "seed")},
    "gain": {"g0_12": ("float", "Hz*m^(1/2)", "any"),
             "v1": ("float", "m/s", "positive"), "v2": ("float", "m/s", "positive"),
             "vb": ("float", "m/s", "positive"), "Gamma": ("float", "/s", "positive"),
             "kappa2": ("float", "/s", "nonnegative"),
             "omega1": ("float", "rad/s", "positive"),
             "pump_power": ("float", "W", "positive"),
             "seed_ratio": ("float", "1", "positive"),
             "n_points": ("int", "1", "absorbed_grid"),
             "efolds": ("float", "1", "positive"), "direction": ("int", "1", "sign")},
    "sweep": {"v2": ("float", "m/s", "positive"), "vb": ("float", "m/s", "positive"),
              "gamma2": ("float", "/m", "nonnegative"),
              "gamma_b": ("float", "/m", "nonnegative"),
              "g_min": ("float", "Hz", "positive"),
              "g_max": ("float", "Hz", "positive"), "points": ("int", "1", "count"),
              "strong_ratio": ("float", "1", "positive")},
    "swap": {"g12": ("float", "Hz", "any"), "v2": ("float", "m/s", "positive"),
             "vb": ("float", "m/s", "positive"),
             "gamma2": ("float", "/m", "nonnegative"),
             "gamma_b": ("float", "/m", "nonnegative"),
             "n_points": ("int", "1", "absorbed_grid"),
             "seed": ("float", "s^(-1/2)", "nonzero"),
             "decay_lengths": ("float", "1", "positive")},
    # q_mode, orders, periods and the comb's dt also meet
    # experiments.comb_plan
    "comb": {"n_points": ("int", "1", "power_of_two"), "dx": ("float", "m", "positive"),
             "velocity": ("float", "m/s", "any"),
             "omega0": ("float", "rad/s", "positive"),
             "g0": ("float", "Hz*m^(1/2)", "nonzero"),
             "pump": ("float", "m^(-1/2)", "nonzero"),
             "seed_b": ("float", "m^(-1/2)", "nonzero"), "q_mode": ("int", "1", "any"),
             "orders": ("int", "1", "count"), "periods": ("float", "1", "any")},
    # [array] is experiments.convergence_study_plan's to refuse
    "array": {"kind": ("enum", COUPLING_KINDS, "any"), "sizes": ("list", "1", "any"),
              "length": ("float", "m", "any"), "curvature": ("float", "m^2/s", "any"),
              "g_cont": ("float", "Hz*m^(1/2)", "any"),
              "t_total": ("float", "s", "any"), "n_ref": ("int", "1", "any")},
}

# the (holds, message) checks a finite value must pass under each rule, in
# order. Positive: what a run divides by, takes the log or root of, or needs
# above zero to absorb; non-negative: decay rates; nonzero: amplitudes and
# couplings a run predicts from (a negative one only flips the phase)
_POWER_OF_TWO = (is_power_of_two, "must be a power of two, got {}")
RULES = {
    "any": (),
    "count": ((lambda v: v >= 1, "must be at least 1, got {}"),),
    "seed": ((lambda v: 0 <= v <= MAX_SEED, "must be in [0, 2**64 - 1], got {}"),),
    "sign": ((lambda v: v in (-1, 1), "must be +1 or -1, got {}"),),
    "power_of_two": (_POWER_OF_TWO,),
    "absorbed_grid": (_POWER_OF_TWO, (absorber_fits, (
        "too few points for the absorbing bump (10% of the grid, at least 8 "
        "cells), got {}"))),
    "positive": ((lambda v: v > 0, "must be positive, got {}"),),
    "nonnegative": ((lambda v: v >= 0, "must be non-negative, got {}"),),
    "nonzero": ((lambda v: v != 0, "must be nonzero, got {}"),),
}
PARSERS = {"int": int, "float": float, "complex": complex,
           "list": lambda token: tuple(float(t) for t in token.split(","))}
INF = float("inf")


class ConfigError(ValueError):
    """Validation failure; ``problems`` lists every offending entry."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.problems))


@dataclass
class ScenarioConfig:
    """Parsed, unit-checked configuration: scenario name + typed sections."""

    scenario: str
    sections: dict = field(default_factory=dict)

    def get(self, section: str, key: str, default=None):
        return self.sections.get(section, {}).get(key, default)

    def section(self, name: str) -> dict:
        return dict(self.sections.get(name, {}))

    def merged(self, overrides: dict) -> "ScenarioConfig":
        """New config with override sections layered on top."""
        out = {sec: dict(kv) for sec, kv in self.sections.items()}
        for sec, kv in overrides.items():
            out.setdefault(sec, {}).update(kv)
        return ScenarioConfig(scenario=out.get("scenario", {}).get(
            "name", self.scenario), sections=out)


def _parse_value(section, key, raw, problems):
    kind, unit, _ = SCHEMA[section][key]
    raw = raw.strip()
    if kind == "str":
        return raw
    if kind == "enum":
        allowed = unit
        if raw in allowed:
            return raw
        problems.append(f"[{section}] {key}: {raw!r} is not one of "
                        f"{', '.join(allowed)}")
        return None
    parts = raw.split()
    if unit == "1" or unit is None:
        token, given_unit = parts[0], (parts[1] if len(parts) > 1 else None)
        if given_unit is not None and given_unit != "1":
            problems.append(f"[{section}] {key}: dimensionless, got unit "
                            f"{given_unit!r}")
            return None
    else:
        if len(parts) != 2:
            problems.append(f"[{section}] {key}: expected '<value> {unit}'")
            return None
        token, given_unit = parts
        if given_unit != unit:
            problems.append(f"[{section}] {key}: unit {given_unit!r} does not "
                            f"match expected {unit!r}")
            return None
    try:
        value = PARSERS[kind](token)
    except ValueError:
        problems.append(f"[{section}] {key}: cannot parse {token!r} as {kind}")
        return None
    problem = _range_problem(section, key, value)
    if problem:
        problems.append(problem)
        return None
    return value


def _range_problem(section, key, value):
    entries = value if isinstance(value, tuple) else (value,)
    # false for inf and nan; exact for ints of any size
    if not all(-INF < part < INF for v in entries for part in (v.real, v.imag)):
        return f"[{section}] {key}: must be finite, got {value!r}"
    for holds, message in RULES[SCHEMA[section][key][2]]:
        if not holds(value):
            return f"[{section}] {key}: " + message.format(value)
    return None


def check_ranges(sections: dict) -> None:
    """Apply the parser's range checks to section values set without
    parsing (command-line overrides); raises :class:`ConfigError` listing
    every offending entry."""
    problems = [problem for section, kv in sections.items()
                for key, value in kv.items()
                if (problem := _range_problem(section, key, value))]
    if problems:
        raise ConfigError(problems)


def parse_config_text(text: str) -> ScenarioConfig:
    problems = []
    sections = {}
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].strip()
            if current not in SCHEMA:
                problems.append(f"line {lineno}: unknown section [{current}]")
                current = None
            else:
                sections.setdefault(current, {})
            continue
        if "=" not in stripped:
            problems.append(f"line {lineno}: expected 'key = value'")
            continue
        if current is None:
            problems.append(f"line {lineno}: key outside any known section")
            continue
        key, raw = (s.strip() for s in stripped.split("=", 1))
        if key not in SCHEMA[current]:
            problems.append(f"[{current}] unknown key {key!r}")
            continue
        value = _parse_value(current, key, raw, problems)
        if value is not None:
            sections[current][key] = value
    name = sections.get("scenario", {}).get("name")
    if name is None:
        problems.append("[scenario] name is required")
    elif name not in SCENARIOS:
        problems.append(f"[scenario] unknown scenario {name!r}; choose from "
                        f"{', '.join(SCENARIOS)}")
    if problems:
        raise ConfigError(problems)
    return ScenarioConfig(scenario=name, sections=sections)


def load_config(path) -> ScenarioConfig:
    return parse_config_text(Path(path).read_text())


def serialize_config(config: ScenarioConfig) -> str:
    """Render a config back to text; re-parsing reproduces it exactly."""
    lines = []
    for section in SCHEMA:
        if section not in config.sections:
            continue
        lines.append(f"[{section}]")
        for key, value in config.sections[section].items():
            kind, unit, _ = SCHEMA[section][key]
            if kind in ("str", "enum"):
                lines.append(f"{key} = {value}")
                continue
            if kind == "list":
                token = ",".join("%.17g" % v for v in value)
            elif kind == "complex":
                token = "%.17g%+.17gj" % (value.real, value.imag)
            elif kind == "int":
                token = str(int(value))
            else:
                token = "%.17g" % value
            if unit in (None, "1"):
                lines.append(f"{key} = {token}")
            else:
                lines.append(f"{key} = {token} {unit}")
        lines.append("")
    return "\n".join(lines)
