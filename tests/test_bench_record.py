import importlib.util
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _path)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _result(**values):
    return {"metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}


def test_summary_gives_median_and_quartiles():
    runs = [_result(a=v) for v in (5.0, 1.0, 3.0, 2.0, 4.0)]
    got = bench_record._summary(runs, spread=True)["a"]
    assert (got["median"], got["q1"], got["q3"], got["iqr"]) == (3.0, 2.0, 4.0, 2.0)
    assert got["values"] == [5.0, 1.0, 3.0, 2.0, 4.0]
    assert bench_record._summary(runs, spread=False)["a"] == {"unit": "s", "median": 3.0}


def test_moved_lists_only_changes_beyond_ten_percent():
    def doc(**medians):
        layers = {k: {"unit": "s", "median": v} for k, v in medians.items()}
        return {"workloads": {"w": {"end_to_end": {}, "per_layer": layers}}}

    old = doc(same=1.0, small=1.0, faster=1.0, zero=0.0, gone=1.0)
    new = doc(same=1.0, small=1.09, faster=0.7, zero=2.0, added=5.0)
    moved = bench_record._moved(old, new)
    assert [line.split()[1] for line in moved] == ["faster", "zero"]
    assert moved[0].endswith("(-30%)") and moved[1].endswith("(new)")


def test_probe_ratio_printed_or_its_absence_noted():
    old = {"workloads": {"a": {"host_probe_s": 0.2}, "b": {}}}
    new = {"workloads": {"a": {"host_probe_s": 0.25}, "b": {"host_probe_s": 0.3}}}
    a, b = bench_record._probe_ratios(old, new)
    assert a.split()[0] == "a" and a.endswith("0.2 -> 0.25 s (x1.25)")
    assert b.split()[0] == "b" and "none in the older file" in b


def test_line_counts_per_module_and_their_change(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "b.py").write_text("z = 3\n")
    (tmp_path / "notes.txt").write_text("not a module\n")
    counts = bench_record._line_counts(tmp_path)
    assert counts == {"modules": {"a.py": 2, "b.py": 1}, "total": 3}
    old, new = {"src_lines": {"total": 5}}, {"src_lines": counts}
    assert bench_record._lines_moved(old, new) == "src/dynstack 5 -> 3 lines"
    assert bench_record._lines_moved({}, new).endswith("3 lines; none counted in the older file")


def test_pytest_counts_read_from_the_last_summary_line():
    out = "....s.\nslowest durations\n1.2s call t.py::x\n597 passed, 1 skipped in 71.84s (0:01:11)\n"
    assert bench_record._pytest_counts(out) == {"passed": 597, "skipped": 1}
    got = bench_record._pytest_counts("== 3 failed, 40 passed, 2 warnings in 9.01s ==\n")
    assert got == {"passed": 40, "skipped": 0, "failed": 3, "warnings": 2}
    with pytest.raises(ValueError, match="no pytest summary"):
        bench_record._pytest_counts("ERROR: file or directory not found: nowhere\n")


def test_tier1_wall_time_and_counts_compared():
    def doc(wall, passed):
        return {"workloads": {}, "tier1": {"wall_s": wall, "passed": passed, "skipped": 1}}

    assert bench_record._moved(doc(60.0, 587), doc(64.0, 597)) == []
    (line,) = bench_record._moved(doc(60.0, 587), doc(72.0, 597))
    assert line.split()[:2] == ["tier1", "wall_s"] and line.endswith("60 -> 72 s (+20%)")
    assert bench_record._moved({"workloads": {}}, doc(72.0, 597)) == []
    assert bench_record._tier1_moved(doc(60.0, 587), doc(72.0, 597)) == (
        "tier1 587 passed, 1 skipped -> 597 passed, 1 skipped"
    )
    assert bench_record._tier1_moved({}, doc(72.0, 597)).endswith("none recorded in the older file")
