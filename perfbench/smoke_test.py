"""Smoke test of the benchmark at tiny sizes; not part of the tier-1 suite.

    python3 -m pytest -q perfbench/smoke_test.py

Every workload must emit every end-to-end and per-layer metric, pass its
checks, leave the layers it bypasses at zero calls, and count a corrupted
result as a failed check.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
import workloads  # noqa: E402
from layertrace import PER_LAYER  # noqa: E402


def _drop_last_csv_row(result):
    csv = result["out"] / "observables.csv"
    csv.write_text("".join(csv.read_text().splitlines(keepends=True)[:-1]))


CORRUPT = {
    "link_convergence": lambda r: setattr(r, "slope", 1.0),
    "brillouin_gain": lambda r: setattr(r, "measured_power_slope",
                                        1.2 * r.measured_power_slope),
    "wigner_ensemble": lambda r: r["occupation"].__imul__(2.0),
    "cli_recorded": _drop_last_csv_row,
}
NAMES = sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_emitted(name):
    result, details = bench.run(name, seed=3, seconds=0.0, trace=False, size="tiny")
    assert result["correct"], details["checks"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(bench.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())

    traced, details = bench.run(name, seed=3, seconds=0.0, trace=True, size="tiny")
    assert traced["correct"], details["checks"]
    assert set(traced["metrics"]) == set(PER_LAYER)
    assert details["steps_per_solve"] > 0
    for metric in workloads.WORKLOADS[name].bypasses:
        assert traced["metrics"][metric]["value"] == 0, metric


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_result_is_a_failed_check(name, monkeypatch):
    cls = workloads.WORKLOADS[name]
    solve = cls.solve

    def corrupted(self, inputs, rep):
        result = solve(self, inputs, rep)
        CORRUPT[name](result)
        return result

    monkeypatch.setattr(cls, "solve", corrupted)
    result, _ = bench.run(name, seed=3, seconds=0.0, trace=False, size="tiny")
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["check_pass_ratio"]["value"] < 1.0


def test_benchmark_json_matches_the_code():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: cls.why for name, cls in workloads.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: tuple(v) for name, v in PER_LAYER.items()}


def test_t_quantile_matches_tabulated_values():
    # two-sided 1e-6 quantiles of Student t (scipy.stats.t.isf(5e-7, dof))
    for dof, expected in ((15, 7.903233627), (47, 5.622039614), (200, 5.048285660)):
        assert abs(workloads.t_critical(dof) - expected) < 1e-6 * expected
