"""Scenario configuration: sectioned key-value files with explicit units.

Every physical quantity carries a unit suffix checked against the schema
(`Gamma = 6.28e6 /s`); dimensionless keys use no suffix. Enumerated keys
(dispersion kind, coupling sector, drive mode, absorber, sampling, array
coupling kind) accept only their declared values. Unknown sections or
keys are rejected, numbers must be finite, counts (steps, trajectories,
sweep points, comb orders) and dt positive, the preset runs' grid sizes
powers of two, the gain direction +1 or -1, the comb at least 2 periods
long and seeds in [0, 2**64 - 1], and validation reports every offending
entry at once rather than stopping at the first. Command-line overrides
pass the same range checks (:func:`check_ranges`).
Unit bugs dominate this domain, so the parser refuses to guess.
"""

from dataclasses import dataclass, field
from pathlib import Path

from ..core.couplings import SECTORS
from ..core.grid import is_power_of_two
from ..dynamics.rng import MAX_SEED
from ..lattice import COUPLING_KINDS

SCENARIOS = ("custom", "comb", "backward_gain", "intermodal_swap",
             "array_convergence", "regime_sweep")

DISPERSION_KINDS = ("linear", "flat", "polynomial")

# value kinds: float / int / complex / str / enum / list (comma-separated
# floats). The second slot is the unit: "1" marks dimensionless numerics,
# None free strings; for enum it is the tuple of allowed values.
SCHEMA = {
    "scenario": {"name": ("str", None)},
    "grid": {"n_points": ("int", "1"), "dx": ("float", "m")},
    "photon": {
        "kind": ("enum", DISPERSION_KINDS), "velocity": ("float", "m/s"),
        "omega0": ("float", "rad/s"), "coeffs": ("list", "SI"),
    },
    "phonon": {
        "kind": ("enum", DISPERSION_KINDS), "velocity": ("float", "m/s"),
        "omega0": ("float", "rad/s"), "coeffs": ("list", "SI"),
    },
    "couplings": {
        "sector": ("enum", SECTORS),
        "g_ppp": ("float", "Hz*m^(1/2)"), "g_mmp": ("float", "Hz*m^(5/2)"),
        "g_mpm": ("complex", "Hz*m^(5/2)"), "g_ppm": ("float", "Hz*m^(3/2)"),
        "g_mpp": ("complex", "Hz*m^(3/2)"), "g_mmm": ("float", "Hz*m^(7/2)"),
    },
    "bath": {
        "kappa": ("float", "/s"), "gamma_mech": ("float", "/s"),
        "n_th": ("float", "1"), "temperature": ("float", "K"),
        "omega_ref": ("float", "rad/s"), "sampling": ("enum", ("none", "wigner")),
    },
    "drive": {
        "mode": ("enum", ("none", "endfire")), "alpha_in": ("complex", "s^(-1/2)"),
        "omega_L": ("float", "rad/s"), "k_L": ("float", "rad/m"),
        "inlet_cell": ("int", "1"),
    },
    "integration": {
        "dt": ("float", "s"), "t_total": ("float", "s"),
        "record_every": ("int", "1"), "absorber": ("enum", ("on", "off")),
        "absorber_opacity": ("float", "1"), "absorber_speed": ("float", "m/s"),
    },
    "ensemble": {"trajectories": ("int", "1"), "base_seed": ("int", "1")},
    "gain": {
        "g0_12": ("float", "Hz*m^(1/2)"), "v1": ("float", "m/s"),
        "v2": ("float", "m/s"), "vb": ("float", "m/s"),
        "Gamma": ("float", "/s"), "kappa2": ("float", "/s"),
        "omega1": ("float", "rad/s"), "pump_power": ("float", "W"),
        "seed_ratio": ("float", "1"), "n_points": ("int", "1"),
        "efolds": ("float", "1"), "direction": ("int", "1"),
    },
    "sweep": {
        "v2": ("float", "m/s"), "vb": ("float", "m/s"),
        "gamma2": ("float", "/m"), "gamma_b": ("float", "/m"),
        "g_min": ("float", "Hz"), "g_max": ("float", "Hz"),
        "points": ("int", "1"), "strong_ratio": ("float", "1"),
    },
    "swap": {
        "g12": ("float", "Hz"), "v2": ("float", "m/s"), "vb": ("float", "m/s"),
        "gamma2": ("float", "/m"), "gamma_b": ("float", "/m"),
        "n_points": ("int", "1"), "seed": ("float", "s^(-1/2)"),
        "decay_lengths": ("float", "1"),
    },
    "comb": {
        "n_points": ("int", "1"), "dx": ("float", "m"),
        "velocity": ("float", "m/s"), "omega0": ("float", "rad/s"),
        "g0": ("float", "Hz*m^(1/2)"), "pump": ("float", "m^(-1/2)"),
        "seed_b": ("float", "m^(-1/2)"), "q_mode": ("int", "1"),
        "orders": ("int", "1"), "periods": ("float", "1"),
    },
    "array": {
        "kind": ("enum", COUPLING_KINDS), "sizes": ("list", "1"),
        "length": ("float", "m"), "curvature": ("float", "m^2/s"),
        "g_cont": ("float", "Hz*m^(1/2)"), "t_total": ("float", "s"),
        "n_ref": ("int", "1"),
    },
}

# int keys that count steps, runs, points or orders and must be at least 1
POSITIVE_INTS = {("integration", "record_every"), ("ensemble", "trajectories"),
                 ("sweep", "points"), ("comb", "orders")}
# the preset runs' grid sizes ([grid] n_points is Grid1D's to refuse)
POWER_OF_TWO_INTS = {("gain", "n_points"), ("swap", "n_points"),
                     ("comb", "n_points")}
# a propagation direction: +1 forward, -1 backward
SIGN_INTS = {("gain", "direction")}
# RNG seeds: a Philox key word, 0 to MAX_SEED = 2**64 - 1
SEED_INTS = {("ensemble", "base_seed")}
POSITIVE_FLOATS = {("integration", "dt")}
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
    kind, unit = SCHEMA[section][key]
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
    where = (section, key)
    entries = value if isinstance(value, tuple) else (value,)
    # false for inf and nan; exact for ints of any size
    if not all(-INF < part < INF for v in entries for part in (v.real, v.imag)):
        return f"[{section}] {key}: must be finite, got {value!r}"
    if where in POSITIVE_INTS and value < 1:
        return f"[{section}] {key}: must be at least 1, got {value}"
    if where in POWER_OF_TWO_INTS and not is_power_of_two(value):
        return f"[{section}] {key}: must be a power of two, got {value}"
    if where in SIGN_INTS and value not in (-1, 1):
        return f"[{section}] {key}: must be +1 or -1, got {value}"
    if where == ("comb", "periods") and not value >= 2:
        # the comb analyses whole phonon periods of its run's second half
        return f"[{section}] {key}: must be at least 2, got {value!r}"
    if where in SEED_INTS and not 0 <= value <= MAX_SEED:
        return f"[{section}] {key}: must be in [0, 2**64 - 1], got {value}"
    if where in POSITIVE_FLOATS and not value > 0:
        return f"[{section}] {key}: must be positive, got {value}"
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
            kind, unit = SCHEMA[section][key]
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
