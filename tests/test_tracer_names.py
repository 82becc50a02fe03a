"""The per-layer tracer (``perfbench/layertrace.py``) wraps cwom functions
and methods by name; a traced benchmark run fails if one is gone."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "layertrace", Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py")
layertrace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layertrace)

NAMES = ([(modname, attr) for modname, attr, _, _ in layertrace.FUNCTIONS]
         + list(layertrace.OUTPUT_WRITERS)
         + [(modname, f"{cls}.{method}")
            for modname, cls, method, _, _ in layertrace.METHODS]
         + [("cwom.dynamics.stepper", "make_energy_observer"),
            ("cwom.dynamics.stepper", "run_ensemble")])


@pytest.mark.parametrize("modname, path", NAMES,
                         ids=[f"{m}.{p}" for m, p in NAMES])
def test_wrapped_name_exists(modname, path):
    target = importlib.import_module(modname)
    for attr in path.split("."):
        target = getattr(target, attr)
    assert callable(target)
