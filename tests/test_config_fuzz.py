"""The validate-only half of ``tools/config_fuzz.py``: every one-key
mutation of every preset is accepted or refused as a configuration error,
never a traceback or another exit code."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "config_fuzz", Path(__file__).resolve().parents[1] / "tools" / "config_fuzz.py")
config_fuzz = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(config_fuzz)


def test_every_mutation_validates_or_exits_two():
    found = config_fuzz.scan()["validate"]
    assert len(found) > 300
    assert [(name, outcome) for name, outcome in found if outcome not in (0, 2)] == []
    # the custom run's overflowing step count is among them
    assert ("custom [integration] dt = 1e-10, [integration] t_total = 1e+300", 2) \
        in found


def test_mutations_are_new_values():
    assert config_fuzz.mutations(2.0, "float") == [2e6, 2e-6, 2e12, 2e-12, -2.0, 0.0]
    assert config_fuzz.mutations(0.0, "float") == []
    assert config_fuzz.mutations(1, "int") == [0, 2, 3]
    assert config_fuzz.mutations("on", "enum") == []
