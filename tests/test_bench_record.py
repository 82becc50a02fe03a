"""The verdict rule of ``tools/bench_record.py``, on hand-made runs, its
count of source lines and its reading of the criteria's durations."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parents[1] / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def metric(parent, change):
    """A bench_workload entry from the two sides' samples."""
    return {"parent": bench_record.quartiles(parent),
            "change": bench_record.quartiles(change),
            "samples": {"parent": parent, "change": change}}


TIGHT = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
WIDE = [0.7, 1.3, 0.8, 1.2, 1.0, 0.6, 1.4, 0.9, 1.1, 1.0]  # quartile spread 0.4


@pytest.mark.parametrize("parent, change, better, want", [
    (TIGHT, [v * 1.30 for v in TIGHT], "lower", "worse"),
    (TIGHT, [v * 1.20 for v in TIGHT], "lower", "no worse"),
    (TIGHT, [v * 0.70 for v in TIGHT], "higher", "worse"),
    (TIGHT, [v * 1.30 for v in TIGHT], "higher", "no worse"),
    (WIDE, [v * 1.10 for v in WIDE], "lower", "unresolved"),
    (WIDE, [v * 0.90 for v in WIDE], "higher", "unresolved"),
    (WIDE, [0.5] * 10, "lower", "no worse"),  # beats every parent run
    (WIDE, [1.5] * 10, "higher", "no worse"),
    (WIDE, [v * 1.30 for v in WIDE], "lower", "worse"),
    ([1.0] * 10, [1.0] * 10, "higher", "no worse"),
], ids=["slower-by-more", "slower-within", "lower-by-more", "higher",
        "spread", "spread-higher", "beats-all", "beats-all-higher",
        "worse-despite-spread", "equal"])
def test_verdict(parent, change, better, want):
    assert bench_record.verdict(metric(parent, change), 0.25, better) == want


def test_src_lines_counts_python_files_under_src(tmp_path, capsys):
    for side, files in (("parent", {"src/a.py": "x = 1\ny = 2\n",
                                    "src/pkg/b.py": "z = 3\n",
                                    "src/pkg/data.txt": "not\ncounted\n",
                                    "tools/c.py": "not = 'counted'\n"}),
                        ("change", {"src/a.py": "x = 1\n"})):
        for name, text in files.items():
            path = tmp_path / side / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    lines = {side: bench_record.src_lines(tmp_path / side)
             for side in ("parent", "change")}
    assert lines == {"parent": 3, "change": 1}
    bench_record.print_src_lines(lines)
    assert capsys.readouterr().out == "src/**/*.py lines: parent 3, change 1 (-2)\n"


def test_criterion_seconds_reads_all_eight_criteria():
    lines = [f"{n + 0.25:.2f}s call     tests/test_acceptance.py::"
             f"test_criterion_{n}_name" for n in range(1, 9)]
    lines += ["0.50s setup    tests/test_acceptance.py::test_criterion_8_name",
              "9.00s call     tests/test_cli.py::test_other"]
    seconds = bench_record.criterion_seconds(lines)
    assert seconds == {f"C{n}_s": n + 0.25 for n in range(1, 9)}
    assert bench_record.criterion_seconds(lines[1:])["C1_s"] is None


def test_tier1_once_reads_criteria_that_take_under_5_ms(tmp_path):
    # pytest's --durations=0 alone leaves out calls under 5 ms
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_acceptance.py").write_text("".join(
        f"def test_criterion_{n}_quick():\n    pass\n\n\n" for n in range(1, 9)))
    run = bench_record.tier1_once(tmp_path)
    assert run["returncode"] == 0, run["summary"]
    assert "8 passed" in run["summary"]
    for n in range(1, 9):
        assert 0.0 <= run[f"C{n}_s"] < 0.005, run
