"""Configuration parsing, artifact formats, CLI behavior, replayability."""

import json
import multiprocessing
import struct
import threading
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwom.cli import scenarios
from cwom.cli.config import (RULES, SCENARIOS, SCHEMA, ConfigError, ScenarioConfig,
                             load_config, parse_config_text, serialize_config)
from cwom.cli.main import main
from cwom.cli.output import (read_snapshot, write_csv, write_json_report,
                             write_snapshot)
from cwom.cli.scenarios import DEFAULTS, resolve_config, run_scenario
from cwom.dynamics.rng import MAX_SEED
from cwom.experiments import MAX_STEPS

GOOD_CONFIG = """
# comment
[scenario]
name = custom

[grid]
n_points = 128
dx = 0.5 m

[photon]
kind = linear
velocity = 2.0 m/s

[phonon]
kind = flat
omega0 = 1.0 rad/s

[couplings]
sector = even
g_ppp = 0.05 Hz*m^(1/2)

[bath]
kappa = 0.2 /s
gamma_mech = 0.5 /s
sampling = none

[drive]
mode = endfire
alpha_in = 1.0+0j s^(-1/2)
inlet_cell = 4

[integration]
dt = 0.02 s
t_total = 20.0 s
record_every = 50
absorber = on

[ensemble]
trajectories = 1
base_seed = 7
"""


def read_report(out):
    """``out``'s report.json as strict JSON: a bare NaN or Infinity raises."""
    def refuse(constant):
        raise ValueError(f"report.json holds a bare {constant}")
    return json.loads((out / "report.json").read_text(), parse_constant=refuse)


FLOATS = st.floats(allow_nan=False, allow_infinity=False)
# the values the parser admits under each range rule; under "any", per kind
RULE_VALUES = {
    "any": {"str": st.sampled_from(SCENARIOS), "int": st.integers(), "float": FLOATS,
            "complex": st.builds(complex, FLOATS, FLOATS),
            "list": st.lists(FLOATS, min_size=1, max_size=4).map(tuple)},
    "count": st.integers(min_value=1),
    "seed": st.integers(min_value=0, max_value=MAX_SEED),
    "sign": st.sampled_from((-1, 1)),
    "power_of_two": st.integers(min_value=0, max_value=30).map(lambda e: 2 ** e),
    # 2**7 points are the fewest whose absorbing bump spans 8 cells
    "absorbed_grid": st.integers(min_value=7, max_value=30).map(lambda e: 2 ** e),
    "positive": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    "nonnegative": st.floats(min_value=0.0, allow_infinity=False),
    "nonzero": FLOATS.filter(lambda value: value != 0.0),
}
assert RULE_VALUES.keys() == RULES.keys()


def schema_value(section, key):
    """Values the parser can produce for one key: in range and finite."""
    kind, unit, rule = SCHEMA[section][key]
    if kind == "enum":
        return st.sampled_from(unit)
    return RULE_VALUES[rule][kind] if rule == "any" else RULE_VALUES[rule]


@st.composite
def schema_valid_configs(draw):
    """A random subset of sections and keys, in schema order, with a
    scenario name."""
    sections = {}
    for section, keys in SCHEMA.items():
        if section != "scenario" and not draw(st.booleans()):
            continue
        chosen = [key for key in keys
                  if (section, key) == ("scenario", "name") or draw(st.booleans())]
        sections[section] = {key: draw(schema_value(section, key))
                             for key in chosen}
    return ScenarioConfig(scenario=sections["scenario"]["name"], sections=sections)


class TestConfigParsing:
    def test_every_numeric_key_names_a_range_rule(self):
        # "any" is spelled out, so a new key cannot land unguarded
        for section, keys in SCHEMA.items():
            for key, (kind, _, rule) in keys.items():
                if kind in ("int", "float", "complex", "list"):
                    assert rule in RULES, (section, key, rule)

    def test_good_config_parses(self):
        cfg = parse_config_text(GOOD_CONFIG)
        assert cfg.scenario == "custom"
        assert cfg.get("grid", "n_points") == 128
        assert cfg.get("grid", "dx") == 0.5
        assert cfg.get("drive", "alpha_in") == 1.0 + 0j
        assert cfg.get("bath", "sampling") == "none"

    def test_unknown_keys_and_sections_all_reported(self):
        bad = GOOD_CONFIG + "\n[nonsense]\nfoo = 1\n\n[grid]\nbogus = 2\n"
        with pytest.raises(ConfigError) as err:
            parse_config_text(bad)
        text = str(err.value)
        assert "nonsense" in text
        assert "bogus" in text

    def test_wrong_unit_rejected_with_key_name(self):
        bad = GOOD_CONFIG.replace("dx = 0.5 m", "dx = 0.5 s")
        with pytest.raises(ConfigError, match="dx"):
            parse_config_text(bad)

    def test_missing_unit_rejected(self):
        bad = GOOD_CONFIG.replace("kappa = 0.2 /s", "kappa = 0.2")
        with pytest.raises(ConfigError, match="kappa"):
            parse_config_text(bad)

    def test_unknown_scenario_rejected(self):
        bad = GOOD_CONFIG.replace("name = custom", "name = warpdrive")
        with pytest.raises(ConfigError, match="warpdrive"):
            parse_config_text(bad)

    def test_enum_values_all_reported(self):
        bad = (GOOD_CONFIG.replace("mode = endfire", "mode = endfier")
               .replace("absorber = on", "absorber = yes")
               .replace("kind = flat", "kind = flatt")
               .replace("sampling = none", "sampling = wignr"))
        with pytest.raises(ConfigError) as err:
            parse_config_text(bad)
        text = str(err.value)
        for token in ("endfier", "yes", "flatt", "wignr"):
            assert token in text
        assert len(err.value.problems) == 4

    def test_serialize_round_trip(self):
        cfg = parse_config_text(GOOD_CONFIG)
        again = parse_config_text(serialize_config(cfg))
        assert again.sections == cfg.sections

    @settings(max_examples=200, deadline=None)
    @given(cfg=schema_valid_configs())
    def test_serialize_round_trip_of_random_schema_valid_configs(self, cfg):
        again = parse_config_text(serialize_config(cfg))
        assert again.scenario == cfg.scenario
        # repr, not ==: keeps -0.0 apart from 0.0 and an int from a float
        assert repr(again.sections) == repr(cfg.sections)

    def test_defaults_resolve_for_presets(self):
        cfg = resolve_config(ScenarioConfig("regime_sweep",
                                            {"scenario": {"name": "regime_sweep"}}))
        assert cfg.get("sweep", "points") > 0

    def test_preset_keys_a_choice_does_not_read_are_dropped(self):
        cfg = resolve_config(parse_config_text(
            GOOD_CONFIG.replace("kind = linear\nvelocity = 2.0 m/s",
                                "kind = polynomial\ncoeffs = 0.0,2.0 SI")
            .replace("absorber = on", "absorber = off")))
        assert cfg.section("photon") == {"kind": "polynomial", "coeffs": (0.0, 2.0)}
        assert cfg.section("integration") == {
            "dt": 0.02, "t_total": 20.0, "record_every": 50, "absorber": "off"}
        assert "velocity" not in serialize_config(cfg).split("[phonon]")[0]

    def test_choice_keys_report_every_problem(self):
        bad = (GOOD_CONFIG.replace("kind = flat\nomega0 = 1.0 rad/s", "kind = linear")
               .replace("mode = endfire", "mode = none"))
        with pytest.raises(ConfigError) as err:
            resolve_config(parse_config_text(bad))
        assert err.value.problems == [
            "[phonon] velocity: required when kind = linear",
            "[drive] alpha_in: not read when mode = none",
            "[drive] inlet_cell: not read when mode = none"]


class TestSnapshotFormat:
    def test_round_trip(self, tmp_path, rng):
        a = rng.normal(size=32) + 1j * rng.normal(size=32)
        b = rng.normal(size=32) + 1j * rng.normal(size=32)
        path = tmp_path / "state.snap"
        write_snapshot(path, a, b, dx=0.125)
        a2, b2, dx = read_snapshot(path)
        assert np.array_equal(a2, a)
        assert np.array_equal(b2, b)
        assert dx == 0.125

    def test_round_trip_keeps_every_byte(self, tmp_path):
        # infinities, NaNs and signed zeros in either part come back as
        # stored, bit for bit
        a = np.array([complex(1.0, np.inf), complex(2.0, np.nan),
                      complex(-0.0, -0.0), complex(np.inf, -0.0)])
        b = np.array([complex(np.nan, 3.0), complex(-np.inf, np.inf),
                      complex(0.0, -0.0), 1e-310 - 5e300j])
        path = tmp_path / "special.snap"
        write_snapshot(path, a, b, dx=0.5)
        a2, b2, _ = read_snapshot(path)
        assert a2.tobytes() == a.tobytes()
        assert b2.tobytes() == b.tobytes()
        write_snapshot(tmp_path / "again.snap", a2, b2, dx=0.5)
        assert (tmp_path / "again.snap").read_bytes() == path.read_bytes()

    def test_exact_binary_layout(self, tmp_path):
        # layout is a frozen contract for cross-language readers
        a = np.array([1.0 + 2.0j])
        b = np.array([-3.0 + 0.5j])
        path = tmp_path / "one.snap"
        write_snapshot(path, a, b, dx=2.0)
        raw = path.read_bytes()
        assert raw[:4] == b"CWOM"
        version, n, dx = struct.unpack("<HQd", raw[4:22])
        assert (version, n, dx) == (1, 1, 2.0)
        floats = struct.unpack("<4d", raw[22:])
        assert floats == (1.0, 2.0, -3.0, 0.5)
        assert len(raw) == 22 + 32

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.snap"
        path.write_bytes(b"JUNKxxxxxxxxxxxxxxxxxxxxxx")
        with pytest.raises(ValueError, match="magic"):
            read_snapshot(path)


class TestJsonReport:
    def test_non_finite_floats_are_written_as_null(self, tmp_path):
        payload = {"inf": float("inf"), "nan": np.float64("nan"),
                   "list": [1.5, -np.inf], "array": np.array([np.nan, 2.0]),
                   "complex": complex(np.inf, 0.5), "nested": {"x": np.float32(-np.inf)},
                   "finite": np.float64(0.1), "count": np.int64(3), "none": None}
        write_json_report(tmp_path / "report.json", payload)
        assert read_report(tmp_path) == {
            "inf": None, "nan": None, "list": [1.5, None], "array": [None, 2.0],
            "complex": {"re": None, "im": 0.5}, "nested": {"x": None},
            "finite": 0.1, "count": 3, "none": None}

    def test_finite_values_keep_their_bytes(self, tmp_path):
        payload = {"b": [np.float64(1.885e306), 1e-300, complex(1, -2)],
                   "a": {"n": np.int64(7), "s": "label", "t": True}}
        write_json_report(tmp_path / "report.json", payload)
        assert (tmp_path / "report.json").read_text() == json.dumps(
            {"a": {"n": 7, "s": "label", "t": True},
             "b": [1.885e306, 1e-300, {"re": 1.0, "im": -2.0}]},
            indent=2, sort_keys=True) + "\n"

    def test_unserializable_value_raises(self, tmp_path):
        with pytest.raises(TypeError, match="not JSON.serializable"):
            write_json_report(tmp_path / "report.json", {"x": object()})


class TestCsvFormat:
    def test_header_names_units(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, [("x", "m", [1.0, 2.0]), ("p", "W", [0.5, 0.25])])
        lines = path.read_text().splitlines()
        assert lines[0] == "x [m],p [W]"
        assert lines[1].startswith("1,")

    def test_length_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", [("x", "m", [1.0]), ("y", "m", [1, 2])])


class TestCliRuns:
    def test_regime_sweep_produces_artifacts(self, tmp_path):
        rc = main(["run", "--scenario", "regime_sweep", "--output",
                   str(tmp_path / "out")])
        assert rc == 0
        out = tmp_path / "out"
        csv = (out / "regime_sweep.csv").read_text().splitlines()
        assert csv[0].startswith("g12 [Hz],re_lambda_plus [1/m]")
        report = read_report(out)
        assert report["scenario"] == "regime_sweep"
        assert (out / "effective_config.cfg").exists()

    def test_regime_sweep_first_oscillatory_g_is_null_without_one(self, tmp_path):
        # the preset sweep (g <= 1e8 Hz) lies wholly below its own
        # oscillation threshold (1.32e10 Hz)
        out = tmp_path / "preset"
        assert main(["run", "--scenario", "regime_sweep", "--output", str(out)]) == 0
        report = read_report(out)
        assert report["threshold_osc_Hz"] > 1e8
        assert report["first_oscillatory_g_Hz"] is None
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("""
[scenario]
name = regime_sweep
[sweep]
g_min = 1e9 Hz
g_max = 1e11 Hz
points = 201
""")
        out = tmp_path / "across"
        assert main(["run", "--config", str(cfg), "--output", str(out)]) == 0
        report = read_report(out)
        rows = [line.split(",") for line in
                (out / "regime_sweep.csv").read_text().splitlines()[1:]]
        first = next(float(row[0]) for row in rows if row[-1] != "overdamped")
        assert report["first_oscillatory_g_Hz"] == first
        assert first >= report["threshold_osc_Hz"]

    def test_wall_time_goes_to_timing_json(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--scenario", "regime_sweep", "--output", str(out)]) == 0
        timing = json.loads((out / "timing.json").read_text())
        assert list(timing) == ["wall_time_s"] and timing["wall_time_s"] >= 0
        assert "wall_time_s" not in read_report(out)
        assert f"({timing['wall_time_s']:.2f} s)" in capsys.readouterr().out

    def test_validate_only_exits_zero(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(GOOD_CONFIG)
        assert main(["run", "--config", str(cfg), "--validate-only"]) == 0

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(GOOD_CONFIG.replace("dx = 0.5 m", "dx = 0.5 furlong"))
        rc = main(["run", "--config", str(cfg), "--validate-only"])
        assert rc == 2
        assert "dx" in capsys.readouterr().err
        # sections, and flags merged as sections, that the scenario never reads
        out = str(tmp_path / "out")
        cfg.write_text("[scenario]\nname = comb\n\n[grid]\nn_points = 100\n")
        flags = ["--scenario", "regime_sweep", "--seed", "5", "--dt-override", "0.1"]
        for argv in (["--config", str(cfg)], flags):
            assert main(["run", *argv, "--validate-only"]) == 2
            assert main(["run", *argv, "--output", out]) == 2
        err = capsys.readouterr().err
        assert err.count("[grid]: not read by scenario comb") == 2, err
        assert err.count("[ensemble]: not read by scenario regime_sweep") == 2
        assert err.count("[integration]: not read by scenario regime_sweep") == 2
        assert not (tmp_path / "out").exists()

    def test_invalid_enum_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(GOOD_CONFIG.replace("mode = endfire", "mode = endfier")
                       .replace("absorber = on", "absorber = yes"))
        assert main(["run", "--config", str(cfg), "--validate-only"]) == 2
        err = capsys.readouterr().err
        assert "endfier" in err and "yes" in err
        cfg.write_text(GOOD_CONFIG.replace("kind = linear", "kind = lineer"))
        assert main(["run", "--config", str(cfg), "--output",
                     str(tmp_path / "out")]) == 2
        assert "lineer" in capsys.readouterr().err

    def test_sector_and_array_kind_typos_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(GOOD_CONFIG.replace("sector = even", "sector = evn"))
        assert main(["run", "--config", str(cfg), "--validate-only"]) == 2
        assert main(["run", "--config", str(cfg), "--output",
                     str(tmp_path / "out")]) == 2
        assert "evn" in capsys.readouterr().err
        cfg.write_text("[scenario]\nname = array_convergence\n\n"
                       "[array]\nkind = lnk\n")
        assert main(["run", "--config", str(cfg), "--validate-only"]) == 2
        assert "lnk" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_record_every_exits_two(self, tmp_path, capsys, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(GOOD_CONFIG.replace("record_every = 50",
                                           f"record_every = {value}"))
        assert main(["run", "--config", str(cfg), "--validate-only"]) == 2
        assert main(["run", "--config", str(cfg), "--output",
                     str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "record_every" in err and "Traceback" not in err

    @pytest.mark.parametrize("entry, bad, flag, value", [
        ("trajectories = 1", "trajectories = 0", "--trajectories", "0"),
        ("trajectories = 1", "trajectories = -2", "--trajectories", "-2"),
        ("base_seed = 7", "base_seed = -1", "--seed", "-1"),
        ("dt = 0.02 s", "dt = 0 s", "--dt-override", "0"),
        ("dt = 0.02 s", "dt = -0.01 s", "--dt-override", "-0.01"),
    ], ids=["trajectories-0", "trajectories-neg", "seed-neg", "dt-0", "dt-neg"])
    def test_out_of_range_key_or_flag_exits_two(self, tmp_path, capsys, entry,
                                                 bad, flag, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(GOOD_CONFIG.replace(entry, bad))
        out = str(tmp_path / "out")
        assert main(["run", "--config", str(cfg), "--validate-only"]) == 2
        assert main(["run", "--config", str(cfg), "--output", out]) == 2
        # the flags bypass the parser but not its checks
        cfg.write_text(GOOD_CONFIG)
        assert main(["run", "--config", str(cfg), "--validate-only",
                     flag, value]) == 2
        assert main(["run", "--config", str(cfg), "--output", out,
                     flag, value]) == 2
        assert main(["run", "--scenario", "custom", "--output", out,
                     flag, value]) == 2
        err = capsys.readouterr().err
        key = bad.split(" =")[0]
        assert err.count(f"] {key}: must be") == 5, err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_side_drive_kappa_ex_is_an_unknown_key(self, tmp_path, capsys):
        # the end-fire deposit is the only drive, so the key must not be accepted
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(GOOD_CONFIG.replace("inlet_cell = 4",
                                           "inlet_cell = 4\nkappa_ex = 0.3 /s"))
        assert main(["run", "--config", str(cfg), "--validate-only"]) == 2
        assert "unknown key 'kappa_ex'" in capsys.readouterr().err

    def test_missing_scenario_and_config_rejected(self):
        assert main(["run"]) == 2

    def test_custom_scenario_replays_bit_identically(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(GOOD_CONFIG)
        out1, out2, out3 = (tmp_path / d for d in ("o1", "o2", "o3"))
        assert main(["run", "--config", str(cfg), "--output", str(out1)]) == 0
        assert main(["run", "--config", str(cfg), "--output", str(out2)]) == 0
        # re-running from the emitted effective config must also reproduce
        assert main(["run", "--config", str(out1 / "effective_config.cfg"),
                     "--output", str(out3)]) == 0
        for name in ("observables.csv", "final_state.snap", "report.json"):
            ref = (out1 / name).read_bytes()
            assert (out2 / name).read_bytes() == ref
            assert (out3 / name).read_bytes() == ref

    def test_worker_trajectories_match_the_in_process_run(self, tmp_path,
                                                          monkeypatch):
        # three Wigner trajectories on forked workers, then in this process
        noisy = GOOD_CONFIG.replace("sampling = none", "sampling = wigner")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(noisy)
        outs = {}
        for cpus in (3, 1):
            monkeypatch.setattr(scenarios, "_usable_cpus", lambda: cpus)
            outs[cpus] = tmp_path / f"cpus{cpus}"
            assert main(["run", "--config", str(cfg), "--output", str(outs[cpus]),
                         "--trajectories", "3"]) == 0
            assert multiprocessing.active_children() == []
        for name in ("observables.csv", "final_state.snap", "report.json"):
            assert (outs[3] / name).read_bytes() == (outs[1] / name).read_bytes()
        assert read_report(outs[3])["trajectories"] == 3

    def test_workers_take_indices_as_they_free_up(self, tmp_path, monkeypatch):
        # six trajectories on two workers: at most PENDING_PER_WORKER tasks
        # per worker are queued at once, and the sums keep the serial bytes
        pending, most, lock = set(), [0], threading.Lock()
        submit = ProcessPoolExecutor.submit

        def settle(future):
            with lock:
                pending.discard(future)

        def counting_submit(pool, fn, *args, **kwargs):
            future = submit(pool, fn, *args, **kwargs)
            with lock:
                pending.add(future)
                most[0] = max(most[0], len(pending))
            future.add_done_callback(settle)
            return future

        monkeypatch.setattr(ProcessPoolExecutor, "submit", counting_submit)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(GOOD_CONFIG.replace("sampling = none", "sampling = wigner"))
        outs = {}
        for cpus in (2, 1):
            monkeypatch.setattr(scenarios, "_usable_cpus", lambda: cpus)
            outs[cpus] = tmp_path / f"cpus{cpus}"
            assert main(["run", "--config", str(cfg), "--output", str(outs[cpus]),
                         "--trajectories", "6"]) == 0
            assert multiprocessing.active_children() == []
        assert 1 <= most[0] <= 2 * scenarios.PENDING_PER_WORKER < 6
        for name in ("observables.csv", "final_state.snap", "report.json"):
            assert (outs[2] / name).read_bytes() == (outs[1] / name).read_bytes()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("trajectories", [1, 2])
    def test_divergence_exits_three(self, tmp_path, capsys, monkeypatch,
                                    trajectories):
        # the first step deposits a field whose square overflows; with 2
        # trajectories a forked worker raises it
        monkeypatch.setattr(scenarios, "_usable_cpus", lambda: 2)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(GOOD_CONFIG.replace("alpha_in = 1.0+0j", "alpha_in = 1e200+0j"))
        assert main(["run", "--config", str(cfg), "--output", str(tmp_path / "out"),
                     "--trajectories", str(trajectories)]) == 3
        err = capsys.readouterr().err
        assert "error: divergence at step 1 (t = 2.000000e-02 s)" in err, err
        assert "Traceback" not in err
        assert multiprocessing.active_children() == []

    def test_custom_run_builds_one_stepper(self, tmp_path, monkeypatch):
        # the run steps the stepper that its checks built
        built, stepper = [], scenarios.Stepper

        def counting_stepper(*args, **kwargs):
            built.append(stepper(*args, **kwargs))
            return built[-1]
        monkeypatch.setattr(scenarios, "Stepper", counting_stepper)
        monkeypatch.setattr(scenarios, "_usable_cpus", lambda: 1)
        run_scenario(ScenarioConfig("custom", {"scenario": {"name": "custom"}}),
                     tmp_path / "out")
        assert len(built) == 1

    def test_every_scenario_has_a_preset_and_inputs(self):
        assert set(SCENARIOS) == set(DEFAULTS) == set(scenarios._SCENARIOS)

    def test_seed_override_changes_stochastic_run(self, tmp_path):
        noisy = GOOD_CONFIG.replace("sampling = none", "sampling = wigner")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(noisy)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["run", "--config", str(cfg), "--output", str(out1),
                     "--seed", "1"]) == 0
        assert main(["run", "--config", str(cfg), "--output", str(out2),
                     "--seed", "2"]) == 0
        assert (out1 / "final_state.snap").read_bytes() \
            != (out2 / "final_state.snap").read_bytes()

    def test_custom_absorber_setting_reaches_the_run(self, tmp_path):
        # long enough for the driven wave to cross the far-end absorber
        driven = GOOD_CONFIG.replace("t_total = 20.0 s", "t_total = 40.0 s")
        reports = {}
        for setting in ("on", "off"):
            cfg = tmp_path / f"{setting}.cfg"
            cfg.write_text(driven.replace("absorber = on", f"absorber = {setting}"))
            out = tmp_path / setting
            assert main(["run", "--config", str(cfg), "--output", str(out)]) == 0
            reports[setting] = read_report(out)
        assert (tmp_path / "on" / "final_state.snap").read_bytes() \
            != (tmp_path / "off" / "final_state.snap").read_bytes()
        assert reports["on"]["final_photon_number"] \
            < reports["off"]["final_photon_number"]

    def test_dt_override_lands_in_effective_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(GOOD_CONFIG)
        out = tmp_path / "dt"
        assert main(["run", "--config", str(cfg), "--output", str(out),
                     "--dt-override", "0.01"]) == 0
        eff = load_config(out / "effective_config.cfg")
        assert eff.get("integration", "dt") == 0.01

    def test_bath_temperature_validates_and_runs(self, tmp_path):
        # the preset sets no n_th, so a temperature does not collide with it
        cfg = tmp_path / "run.cfg"
        cfg.write_text(GOOD_CONFIG.replace(
            "sampling = none", "sampling = none\ntemperature = 300.0 K\n"
            "omega_ref = 1e13 rad/s"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--validate-only"]) == 0
        assert main(["run", "--config", str(cfg), "--output", str(out)]) == 0
        bath = load_config(out / "effective_config.cfg").section("bath")
        assert bath["temperature"] == 300.0 and "n_th" not in bath


class TestScenarioReports:
    def test_backward_gain_reports_measured_and_analytic(self, tmp_path):
        # shrunken run: the report carries the simulated slope next to the
        # closed-form G_B P1 - gamma2 and they agree
        cfg = tmp_path / "gain.cfg"
        cfg.write_text(f"""
[scenario]
name = backward_gain
[gain]
Gamma = {2 * np.pi * 1e9:.6e} /s
n_points = 128
efolds = 2.5
""")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--output", str(out)]) == 0
        report = read_report(out)
        assert report["relative_mismatch"] < 0.05
        # slope is reported along the propagation direction: positive gain
        assert report["measured_power_slope_per_m"] > 0
        assert report["direction"] == -1
        csv = (out / "gain_profile.csv").read_text().splitlines()
        assert csv[0] == "x [m],P1 [W],P2 [W],Pb [W]"

    def test_gain_without_signal_loss_reports_a_null_adiabatic_ratio(self, tmp_path):
        # with kappa2 = 0 there is no ratio (Gamma / vb) / gamma2: the run
        # reports inf, which report.json writes as null
        cfg = tmp_path / "gain.cfg"
        cfg.write_text("[scenario]\nname = backward_gain\n[gain]\nvb = 0.001 m/s\n"
                       "n_points = 128\nefolds = 2.5\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--output", str(out)]) == 0
        report = read_report(out)
        assert report["adiabatic_ratio"] is None
        assert report["relative_mismatch"] < 0.05

    def test_backward_gain_preset_reports_a_null_adiabatic_ratio(self, tmp_path):
        # the preset sets kappa2 = 0
        out = tmp_path / "out"
        assert main(["run", "--scenario", "backward_gain", "--output", str(out)]) == 0
        assert DEFAULTS["backward_gain"]["gain"]["kappa2"] == 0.0
        assert read_report(out)["adiabatic_ratio"] is None

    def test_array_convergence_reports_fitted_order(self, tmp_path):
        cfg = tmp_path / "arr.cfg"
        cfg.write_text("""
[scenario]
name = array_convergence
[array]
sizes = 32,64,128
""")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--output", str(out)]) == 0
        report = read_report(out)
        assert abs(report["fitted_order"] - 2.0) < 0.2
        header = (out / "array_convergence.csv").read_text().splitlines()[0]
        assert header.startswith("dx [m],l2_error [1]")

    def test_intermodal_swap_report(self, tmp_path):
        cfg = tmp_path / "swap.cfg"
        cfg.write_text("""
[scenario]
name = intermodal_swap
[swap]
n_points = 256
decay_lengths = 3.0
""")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--output", str(out)]) == 0
        report = read_report(out)
        assert report["max_rel_error"] < 1e-3
        assert report["regime"] in ("oscillatory", "strong_coupling",
                                    "overdamped")

    def test_comb_report(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--scenario", "comb", "--output", str(out)]) == 0
        report = read_report(out)
        assert report["asymmetry"]["1"] < 0.05
        assert report["asymmetry"]["2"] < 0.05


class TestCliRangeChecks:
    @staticmethod
    def _all_exit_two(tmp_path, bad_config, flag, value):
        """Key and flag, each with and without --validate-only; returns
        the error output."""
        cfg = tmp_path / "bad.cfg"
        out = str(tmp_path / "out")
        cfg.write_text(bad_config)
        assert main(["run", "--config", str(cfg), "--validate-only"]) == 2
        assert main(["run", "--config", str(cfg), "--output", out]) == 2
        cfg.write_text(GOOD_CONFIG)
        assert main(["run", "--config", str(cfg), "--validate-only",
                     flag, value]) == 2
        assert main(["run", "--config", str(cfg), "--output", out,
                     flag, value]) == 2
        assert not (tmp_path / "out").exists()
        return cfg

    def test_seed_above_uint64_exits_two(self, tmp_path, capsys):
        big = str(2**64)
        cfg = self._all_exit_two(
            tmp_path, GOOD_CONFIG.replace("base_seed = 7", f"base_seed = {big}"),
            "--seed", big)
        err = capsys.readouterr().err
        assert err.count("] base_seed: must be in [0, 2**64 - 1]") == 4, err
        assert "Traceback" not in err and "OverflowError" not in err
        assert main(["run", "--config", str(cfg), "--validate-only",
                     "--seed", str(2**64 - 1)]) == 0

    @pytest.mark.parametrize("entry, bad", [
        ("t_total = 20.0 s", "t_total = inf s"),
        ("t_total = 20.0 s", "t_total = -inf s"),
        ("t_total = 20.0 s", "t_total = 1e400 s"),
        ("t_total = 20.0 s", "t_total = nan s"),
        ("kappa = 0.2 /s", "kappa = nan /s"),
        ("gamma_mech = 0.5 /s", "gamma_mech = nan /s"),
        ("sampling = none", "sampling = none\nn_th = nan"),
        ("g_ppp = 0.05 Hz*m^(1/2)", "g_ppp = nan Hz*m^(1/2)"),
        ("alpha_in = 1.0+0j s^(-1/2)", "alpha_in = nan+0j s^(-1/2)"),
        ("dx = 0.5 m", "dx = inf m"),
        ("absorber = on", "absorber = on\nabsorber_opacity = nan"),
        ("absorber = on", "absorber = on\nabsorber_speed = inf m/s"),
    ], ids=["t_total-inf", "t_total-neg-inf", "t_total-overflow", "t_total-nan",
            "kappa-nan", "gamma_mech-nan", "n_th-nan", "g_ppp-nan",
            "alpha_in-nan", "dx-inf", "absorber_opacity-nan",
            "absorber_speed-inf"])
    def test_non_finite_key_exits_two(self, tmp_path, capsys, entry, bad):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(GOOD_CONFIG.replace(entry, bad))
        assert main(["run", "--config", str(cfg), "--validate-only"]) == 2
        assert main(["run", "--config", str(cfg), "--output",
                     str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        key = bad.split("\n")[-1].split(" =")[0]
        assert err.count(f"] {key}: must be finite") == 2, err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_non_finite_list_entry_rejected(self):
        text = "[scenario]\nname = array_convergence\n\n[array]\nsizes = 32,nan\n"
        with pytest.raises(ConfigError, match=r"\[array\] sizes: must be finite"):
            parse_config_text(text)

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_dt_override_exits_two(self, tmp_path, capsys, value):
        cfg = tmp_path / "good.cfg"
        cfg.write_text(GOOD_CONFIG)
        assert main(["run", "--config", str(cfg), "--validate-only",
                     "--dt-override", value]) == 2
        assert main(["run", "--config", str(cfg), "--output",
                     str(tmp_path / "out"), "--dt-override", value]) == 2
        err = capsys.readouterr().err
        assert err.count("[integration] dt: must be finite") == 2, err
        assert not (tmp_path / "out").exists()

    def test_dt_above_stability_bound_exits_two(self, tmp_path, capsys):
        # GOOD_CONFIG's transport bound: 0.5 / (2 m/s / (2 * 0.5 m))
        # = 2.500e-01 s
        self._all_exit_two(tmp_path, GOOD_CONFIG.replace("dt = 0.02 s", "dt = 1.0 s"),
                           "--dt-override", "1.0")
        err = capsys.readouterr().err
        assert err.count("[integration] dt: 1.000e+00 s exceeds the stability "
                         "bound 2.500e-01 s") == 4, err
        assert "Traceback" not in err

    def test_step_count_above_the_cap_exits_two(self, tmp_path, capsys):
        # 1e300 s at dt = 0.02 s, and 20 s at dt = 1e-9 s, are 5e301 and
        # 2e10 steps: both above MAX_STEPS
        self._all_exit_two(tmp_path,
                           GOOD_CONFIG.replace("t_total = 20.0 s", "t_total = 1e300 s"),
                           "--dt-override", "1e-9")
        err = capsys.readouterr().err
        assert err.count("[integration] t_total: ") == 4, err
        assert err.count(f"more than the cap of {MAX_STEPS:.0e} steps") == 4, err
        assert "5.000e+301 steps" in err and "2.000e+10 steps" in err
        assert "Traceback" not in err

    def test_closed_custom_run_above_the_band_bound_validates(self, tmp_path,
                                                               capsys):
        # no drive, absorber or noise: the bound is 0.5 / gamma_mech = 1 s,
        # not the band's 3.979e-02 s
        closed = (GOOD_CONFIG
                  .replace("mode = endfire\nalpha_in = 1.0+0j s^(-1/2)\n"
                           "inlet_cell = 4", "mode = none")
                  .replace("absorber = on", "absorber = off"))
        cfg = tmp_path / "closed.cfg"
        cfg.write_text(closed.replace("dt = 0.02 s", "dt = 0.1 s"))
        assert main(["run", "--config", str(cfg), "--validate-only"]) == 0
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--output", str(out)]) == 0
        report = read_report(out)
        assert report["n_steps"] == 200
        assert np.isfinite(report["final_photon_number"])
        cfg.write_text(closed.replace("dt = 0.02 s", "dt = 1.5 s"))
        assert main(["run", "--config", str(cfg), "--validate-only"]) == 2
        assert ("[integration] dt: 1.500e+00 s exceeds the stability bound "
                "1.000e+00 s") in capsys.readouterr().err

    @pytest.mark.parametrize("entry, message", [
        ("t_total = 0 s", "[array] t_total: must be positive"),
        ("t_total = -1 s", "[array] t_total: must be positive"),
        # the study's dt comes from its initial fields: the cap is on the
        # step count ceil(T / dt) it gives
        ("t_total = 1e300 s", "[array] t_total: 1.000e+300 s is 1.556e+299 steps "
                              "of dt = 6.429e+00 s, more than the cap of 1e+08 steps"),
        ("length = 0 m", "[array] length: must be positive"),
        ("sizes = 32,64,512", "[array] sizes: must be at least two distinct "
                              "divisors of n_ref = 256"),
        ("sizes = 32,64.5", "[array] sizes: must be whole numbers"),
    ])
    def test_array_study_inputs_exit_two(self, tmp_path, capsys, entry, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[scenario]\nname = array_convergence\n\n[array]\n{entry}\n")
        assert main(["run", "--config", str(cfg), "--validate-only"]) == 2
        assert main(["run", "--config", str(cfg), "--output",
                     str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count(message) == 2, err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scenario, entry, message", [
        ("backward_gain", "[gain]\nn_points = 100",
         "[gain] n_points: must be a power of two, got 100"),
        ("intermodal_swap", "[swap]\nn_points = 100",
         "[swap] n_points: must be a power of two, got 100"),
        ("comb", "[comb]\nn_points = 100",
         "[comb] n_points: must be a power of two, got 100"),
        ("backward_gain", "[gain]\nn_points = 64",
         "[gain] n_points: too few points for the absorbing bump"),
        ("intermodal_swap", "[swap]\nn_points = 64",
         "[swap] n_points: too few points for the absorbing bump"),
        ("backward_gain", "[gain]\ndirection = 3",
         "[gain] direction: must be +1 or -1, got 3"),
        ("comb", "[comb]\nperiods = -1", "[comb] periods: must be at least 2"),
        ("comb", "[comb]\nperiods = 1.5", "[comb] periods: must be at least 2"),
        ("regime_sweep", "[sweep]\npoints = 0",
         "[sweep] points: must be at least 1, got 0"),
        ("comb", "[comb]\norders = 0", "[comb] orders: must be at least 1, got 0"),
        ("comb", "[comb]\ndx = 0 m", "[comb] dx: must be positive, got 0.0"),
        ("comb", "[comb]\ndx = -1 m", "[comb] dx: must be positive, got -1.0"),
        ("comb", "[comb]\nomega0 = 0 rad/s",
         "[comb] omega0: must be positive, got 0.0"),
        ("comb", "[comb]\nomega0 = -1 rad/s",
         "[comb] omega0: must be positive, got -1.0"),
        ("backward_gain", "[gain]\nv1 = -1 m/s",
         "[gain] v1: must be positive, got -1.0"),
        ("backward_gain", "[gain]\nv2 = -1 m/s",
         "[gain] v2: must be positive, got -1.0"),
        ("backward_gain", "[gain]\nvb = 0 m/s",
         "[gain] vb: must be positive, got 0.0"),
        ("backward_gain", "[gain]\nGamma = 0 /s",
         "[gain] Gamma: must be positive, got 0.0"),
        ("backward_gain", "[gain]\nomega1 = 0 rad/s",
         "[gain] omega1: must be positive, got 0.0"),
        ("backward_gain", "[gain]\npump_power = 0 W",
         "[gain] pump_power: must be positive, got 0.0"),
        ("backward_gain", "[gain]\nseed_ratio = 0",
         "[gain] seed_ratio: must be positive, got 0.0"),
        ("backward_gain", "[gain]\nefolds = 0",
         "[gain] efolds: must be positive, got 0.0"),
        ("intermodal_swap", "[swap]\ndecay_lengths = -1",
         "[swap] decay_lengths: must be positive, got -1.0"),
        ("intermodal_swap", "[swap]\nvb = 0 m/s",
         "[swap] vb: must be positive, got 0.0"),
        ("intermodal_swap", "[swap]\nv2 = -2 m/s",
         "[swap] v2: must be positive, got -2.0"),
        ("regime_sweep", "[sweep]\ng_min = 0 Hz",
         "[sweep] g_min: must be positive, got 0.0"),
        ("regime_sweep", "[sweep]\ng_max = -1 Hz",
         "[sweep] g_max: must be positive, got -1.0"),
        ("regime_sweep", "[sweep]\nv2 = 0 m/s",
         "[sweep] v2: must be positive, got 0.0"),
        ("regime_sweep", "[sweep]\nvb = 0 m/s",
         "[sweep] vb: must be positive, got 0.0"),
        ("custom", "[integration]\nabsorber_speed = 0 m/s",
         "[integration] absorber_speed: must be positive, got 0.0"),
        ("custom", "[integration]\nabsorber_opacity = 0",
         "[integration] absorber_opacity: must be positive, got 0.0"),
        ("regime_sweep", "[sweep]\ng_min = 1e12 Hz\ng_max = 1e8 Hz",
         "[sweep] g_min: must not exceed g_max = 1.000e+08 Hz, got 1.000e+12 Hz"),
        ("intermodal_swap", "[swap]\ngamma2 = 0 /m\ngamma_b = 0 /m",
         "[swap] gamma2, gamma_b: must not both be zero"),
        ("intermodal_swap", "[swap]\ngamma_b = -0.03 /m",
         "[swap] gamma_b: must be non-negative, got -0.03"),
        ("intermodal_swap", "[swap]\nseed = 0 s^(-1/2)",
         "[swap] seed: must be nonzero, got 0.0"),
        ("comb", "[comb]\npump = 0 m^(-1/2)", "[comb] pump: must be nonzero, got 0.0"),
        ("backward_gain", "[gain]\nkappa2 = -1 /s",
         "[gain] kappa2: must be non-negative, got -1.0"),
        ("regime_sweep", "[sweep]\ngamma2 = -10 /m",
         "[sweep] gamma2: must be non-negative, got -10.0"),
        ("regime_sweep", "[sweep]\ngamma_b = -10 /m",
         "[sweep] gamma_b: must be non-negative, got -10.0"),
        ("intermodal_swap", "[swap]\ngamma2 = -0.02 /m",
         "[swap] gamma2: must be non-negative, got -0.02"),
        ("backward_gain", "[gain]\ng0_12 = 0 Hz*m^(1/2)",
         "[gain] g0_12, kappa2: net gain G_B P1 - kappa2 / v2 must be positive"),
        ("backward_gain", "[gain]\nkappa2 = 1e12 /s",
         "[gain] g0_12, kappa2: net gain G_B P1 - kappa2 / v2 must be positive"),
        ("array_convergence", "[array]\ncurvature = 0 m^2/s",
         "[array] curvature: must be nonzero and finite, got 0.0"),
        ("comb", "[comb]\nq_mode = 0",
         "[comb] q_mode: must have 1 <= |q_mode| < n_points / 2 = 64, got 0"),
        ("comb", "[comb]\nq_mode = 64",
         "[comb] q_mode: must have 1 <= |q_mode| < n_points / 2 = 64, got 64"),
        ("comb", "[comb]\nq_mode = 134",
         "[comb] q_mode: must have 1 <= |q_mode| < n_points / 2 = 64, got 134"),
        ("comb", "[comb]\nq_mode = -64",
         "[comb] q_mode: must have 1 <= |q_mode| < n_points / 2 = 64, got -64"),
        ("comb", "[comb]\norders = 50", "[comb] orders: must be at most 49, below "
                                        "the records' Nyquist of 50 Omega0, got 50"),
        ("comb", "[comb]\norders = 100", "[comb] orders: must be at most 49, below "
                                         "the records' Nyquist of 50 Omega0, got 100"),
        ("comb", "[comb]\ng0 = 0 Hz*m^(1/2)", "[comb] g0: must be nonzero, got 0.0"),
        ("comb", "[comb]\nseed_b = 0 m^(-1/2)",
         "[comb] seed_b: must be nonzero, got 0.0"),
        ("regime_sweep", "[sweep]\nstrong_ratio = 0",
         "[sweep] strong_ratio: must be positive, got 0.0"),
        ("regime_sweep", "[sweep]\nstrong_ratio = -1",
         "[sweep] strong_ratio: must be positive, got -1.0"),
        ("comb", "[comb]\nperiods = 1e12",
         "[comb] periods: 1.000e+12 periods is 4.000e+14 steps of dt = 1.571e-02 s, "
         "more than the cap of 1e+08 steps"),
        ("regime_sweep", "[sweep]\npoints = 1000000000000",
         "[sweep] points: must be at most 1e+06, about 0.6 GB at the run's peak, "
         "got 1000000000000"),
        ("regime_sweep", "[sweep]\npoints = 1000001",
         "[sweep] points: must be at most 1e+06, about 0.6 GB at the run's peak, "
         "got 1000001"),
        ("custom", "[couplings]\nsector = mixed",
         "[couplings] sector: 'mixed' is not one of even, odd"),
        ("comb", "[comb]\nperiods = 200000",
         "[comb] periods: 2.000e+05 periods of 128 points record 2.560e+09 mode "
         "amplitudes, more than the cap of 2.5e+07, about 0.5 GB at the run's peak"),
        ("comb", "[comb]\nperiods = 1954",
         "[comb] periods: 1.954e+03 periods of 128 points record 2.501e+07 mode "
         "amplitudes, more than the cap of 2.5e+07, about 0.5 GB at the run's peak"),
        ("custom", "[integration]\nt_total = 1.9e6 s\nrecord_every = 1",
         "[integration] t_total, record_every: 95000000 steps recorded every 1 "
         "keep 95000001 records, more than the cap of 1e+06, about 0.5 GB at "
         "the run's peak"),
        ("custom", "[integration]\nt_total = 20000 s\nrecord_every = 1",
         "[integration] t_total, record_every: 1000000 steps recorded every 1 "
         "keep 1000001 records, more than the cap of 1e+06, about 0.5 GB at "
         "the run's peak"),
        ("backward_gain", "[gain]\ng0_12 = 1e-8 Hz*m^(1/2)",
         "[gain] the run is 2.362e+24 steps of dt = 2.387e-10 s, more than "
         "the cap of 1e+08 steps"),
        ("backward_gain", "[gain]\nGamma = 1.885e-3 /s",
         "[gain] the run is 1.713e+28 steps of dt = 9.913e-25 s, more than "
         "the cap of 1e+08 steps"),
        ("intermodal_swap", "[swap]\ng12 = 1e6 Hz",
         "[swap] the run is 1.618e+09 steps of dt = 4.500e-07 s, more than "
         "the cap of 1e+08 steps"),
        ("intermodal_swap", "[swap]\ng12 = 1e20 Hz",
         "[swap] the run is 1.618e+23 steps of dt = 4.500e-21 s, more than "
         "the cap of 1e+08 steps"),
        ("comb", "[comb]\nomega0 = 1e-6 rad/s",
         "[comb] omega0: dt = 1.571e+04 s, 1/400 of a phonon period, exceeds the "
         "stability bound 6.249e-04 s of the initial state"),
        ("comb", "[comb]\ng0 = 2e4 Hz*m^(1/2)",
         "[comb] omega0: dt = 1.571e-02 s, 1/400 of a phonon period, exceeds the "
         "stability bound 6.249e-10 s of the initial state"),
        # t_total / dt overflows to inf before any int()
        ("custom", "[integration]\ndt = 1e-10 s\nt_total = 1e300 s",
         "[integration] t_total: 1.000e+300 s is inf steps of dt = 1.000e-10 s, "
         "more than the cap of 1e+08 steps"),
        # the drive kernel's response at k_L: 0 at |k_L| dx = 2 pi / 3, and
        # below half its k = 0 value above pi / 3 (the preset's dx is 1 m)
        ("custom", "[drive]\nk_L = 2.0943951023931953 rad/m",
         "[drive] the drive kernel's response at k_L = 2.094e+00 rad/m is "),
        ("custom", "[drive]\nk_L = 2.5 rad/m",
         "[drive] the drive kernel's response at k_L = 2.500e+00 rad/m is "
         "1.996e-02 of its k = 0 value, below 1/2; |k_L| dx must be at most "
         "pi/3, got 2.500e+00"),
        ("custom", "[drive]\nk_L = -1.05 rad/m",
         "[drive] the drive kernel's response at k_L = -1.050e+00 rad/m is "
         "4.980e-01 of its k = 0 value, below 1/2"),
    ], ids=["gain-n_points", "swap-n_points", "comb-n_points",
            "gain-n_points-small", "swap-n_points-small", "gain-direction",
            "comb-periods-neg", "comb-periods-short", "sweep-points",
            "comb-orders", "comb-dx-zero", "comb-dx-neg", "comb-omega0-zero",
            "comb-omega0-neg", "gain-v1-neg", "gain-v2-neg", "gain-vb-zero",
            "gain-Gamma-zero", "gain-omega1-zero", "gain-pump_power-zero",
            "gain-seed_ratio-zero", "gain-efolds-zero", "swap-decay_lengths-neg",
            "swap-vb-zero", "swap-v2-neg",
            "sweep-g_min-zero", "sweep-g_max-neg", "sweep-v2-zero",
            "sweep-vb-zero", "absorber_speed-zero", "absorber_opacity-zero",
            "sweep-g-reversed", "swap-decay-zero", "swap-gamma_b-neg",
            "swap-seed-zero", "comb-pump-zero", "gain-kappa2-neg",
            "sweep-gamma2-neg", "sweep-gamma_b-neg", "swap-gamma2-neg",
            "gain-g0_12-zero", "gain-kappa2-above-gain", "array-curvature-zero",
            "comb-q_mode-zero", "comb-q_mode-nyquist", "comb-q_mode-alias",
            "comb-q_mode-neg-nyquist", "comb-orders-nyquist", "comb-orders-above",
            "comb-g0-zero", "comb-seed_b-zero", "sweep-strong_ratio-zero",
            "sweep-strong_ratio-neg", "comb-periods-cap", "sweep-points-cap",
            "sweep-points-above-cap", "sector-mixed", "comb-records-cap",
            "comb-records-above-cap", "custom-records-cap",
            "custom-records-above-cap", "gain-steps-cap-g0_12",
            "gain-steps-cap-Gamma", "swap-steps-cap", "swap-steps-overflow",
            "comb-dt-omega0", "comb-dt-g0", "custom-steps-overflow",
            "drive-k_L-kernel-zero", "drive-k_L-kernel-small",
            "drive-k_L-above-pi-over-3"])
    def test_preset_input_mistakes_exit_two(self, tmp_path, capsys, scenario,
                                            entry, message):
        # each once validated, then failed the run after writing its
        # effective config or ran to empty outputs
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[scenario]\nname = {scenario}\n\n{entry}\n")
        assert main(["run", "--config", str(cfg), "--validate-only"]) == 2
        assert main(["run", "--config", str(cfg), "--output",
                     str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count(message) == 2, err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("entry, bad, message", [
        ("n_points = 128", "n_points = 100",
         "[grid] n_points must be a power of two, got 100"),
        ("inlet_cell = 4", "inlet_cell = 1",
         "[drive] inlet_cell too close to the grid edge"),
        ("kappa = 0.2 /s", "kappa = -1 /s",
         "[bath] decay rates must be non-negative"),
        ("sector = even", "sector = odd",
         "[couplings] odd sector requires g_ppp = g_mmp = g_mpm = 0"),
        ("n_points = 128", "n_points = 64",
         "[integration] absorbing bump needs at least 8 cells"),
        ("kind = linear\nvelocity = 2.0 m/s", "kind = polynomial\n"
         "coeffs = 0.0,2.0,1e308 SI",
         "[photon] polynomial dispersion not finite on this k-axis"),
        ("mode = endfire\nalpha_in = 1.0+0j s^(-1/2)\ninlet_cell = 4",
         "mode = none\nalpha_in = 5.0+0j s^(-1/2)\ninlet_cell = 1",
         "[drive] inlet_cell: not read when mode = none"),
        ("absorber = on", "absorber = off\nabsorber_opacity = 5.0",
         "[integration] absorber_opacity: not read when absorber = off"),
        ("omega0 = 1.0 rad/s", "omega0 = 1.0 rad/s\nvelocity = 3.0 m/s",
         "[phonon] velocity: not read when kind = flat"),
        ("kind = linear\nvelocity = 2.0 m/s", "kind = flat\nomega0 = 0.0 rad/s",
         "[integration] absorber_speed: required when the photon band's group "
         "velocity at k = 0 is zero"),
        ("t_total = 20.0 s", "t_total = -5.0 s",
         "[integration] t_total: -5.000e+00 s is less than one step of "
         "dt = 2.000e-02 s"),
        ("t_total = 20.0 s", "t_total = 0.009 s",
         "[integration] t_total: 9.000e-03 s is less than one step of "
         "dt = 2.000e-02 s"),
    ], ids=["n_points", "inlet_cell", "kappa", "sector", "absorber_width",
            "overflowing_band", "drive_off_keys", "absorber_off_keys",
            "flat_band_velocity", "absorber_speed_unknown", "t_total_negative",
            "t_total_below_one_step"])
    def test_constructor_rejections_exit_two(self, tmp_path, capsys, entry, bad,
                                             message):
        # caught by Grid1D, BathSpec, CouplingSet, make_absorber, the
        # stepper's deposit plan, the band check, the step count, the
        # absorber speed and the choice keys, not by the parser's range checks
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(GOOD_CONFIG.replace(entry, bad))
        assert main(["run", "--config", str(cfg), "--validate-only"]) == 2
        assert main(["run", "--config", str(cfg), "--output",
                     str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err
        assert err.count(message) == 2, err
        assert "Traceback" not in err
