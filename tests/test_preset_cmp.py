"""The artifact comparison of ``tools/preset_cmp.py``, on hand-made trees
(no preset is run)."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "preset_cmp", Path(__file__).resolve().parents[1] / "tools" / "preset_cmp.py")
preset_cmp = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(preset_cmp)


def write(root, files):
    for rel, data in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


def test_equal_trees_are_the_same_file_by_file(tmp_path):
    files = {"comb/report.json": b'{"a": 1}\n', "custom/final_state.snap": b"\x00\x01"}
    write(tmp_path / "parent", files)
    write(tmp_path / "change", files)
    assert preset_cmp.compare_trees(tmp_path / "parent", tmp_path / "change") == [
        (Path("comb/report.json"), "same"), (Path("custom/final_state.snap"), "same")]


def test_changed_byte_and_one_sided_files_differ(tmp_path):
    write(tmp_path / "parent", {"comb/report.json": b'{"a": 1}\n',
                                "comb/comb_sidebands.csv": b"x\n",
                                "swap/gone.csv": b"y\n"})
    write(tmp_path / "change", {"comb/report.json": b'{"a": 2}\n',
                                "comb/comb_sidebands.csv": b"x\n",
                                "swap/new.csv": b"y\n"})
    assert preset_cmp.compare_trees(tmp_path / "parent", tmp_path / "change") == [
        (Path("comb/comb_sidebands.csv"), "same"),
        (Path("comb/report.json"), "DIFF"),
        (Path("swap/gone.csv"), "DIFF"),
        (Path("swap/new.csv"), "DIFF")]


def test_timing_json_is_not_compared(tmp_path):
    write(tmp_path / "parent", {"comb/timing.json": b'{"wall_time_s": 1.0}\n'})
    write(tmp_path / "change", {"comb/timing.json": b'{"wall_time_s": 2.0}\n',
                                "custom/timing.json": b"{}\n"})
    assert preset_cmp.compare_trees(tmp_path / "parent", tmp_path / "change") == []


def test_wall_times_read_both_sides_timing_json(tmp_path):
    write(tmp_path / "parent", {"comb/timing.json": b'{"wall_time_s": 1.5}\n',
                                "comb/report.json": b"{}\n",
                                "custom/timing.json": b'{"wall_time_s": 0.25}\n'})
    write(tmp_path / "change", {"comb/timing.json": b'{"wall_time_s": 1.25}\n',
                                "swap/report.json": b"{}\n"})
    assert preset_cmp.wall_times(tmp_path / "parent", tmp_path / "change") == [
        ("comb", 1.5, 1.25), ("custom", 0.25, None), ("swap", None, None)]


def test_wall_times_print_one_line_per_preset(tmp_path, monkeypatch, capsys):
    # the runs are stubbed: each writes a report and its side's wall time
    def fake_run(checkout, scenario, out):
        seconds = 2.0 if checkout.name == "parent" else 1.0
        write(out, {"report.json": b"{}\n",
                    "timing.json": f'{{"wall_time_s": {seconds}}}'.encode()})
        return 0

    monkeypatch.setattr(preset_cmp, "run_preset", fake_run)
    work = tmp_path / "work"
    assert preset_cmp.main(["--parent", str(tmp_path / "parent"), "--change",
                            str(tmp_path / "change"), "--work", str(work)]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("time")]
    assert len(lines) == len(preset_cmp.PRESETS)
    assert lines[0].split() == ["time", "array_convergence", "parent", "2.000", "s",
                                "change", "1.000", "s"]
