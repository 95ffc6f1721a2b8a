import importlib.util
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parent.parent / "tools" / "bench_ab.py"
_spec = importlib.util.spec_from_file_location("bench_ab", _path)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 10.1, 9.9]  # IQR 0.2, median 10.0


def test_a_no_op_resolves_nothing():
    got = bench_ab.verdict(PARENT, list(PARENT), 0.25, "lower")
    assert (got["wins"], got["verdict"]) == (0, "within bound")
    # the same runs in another order: about half the pairs won, no gain and no regression
    shuffled = PARENT[5:] + PARENT[:5]
    assert bench_ab.verdict(PARENT, shuffled, 0.25, "lower")["verdict"] == "within bound"
    assert bench_ab.verdict(PARENT, shuffled, 0.25, "higher")["verdict"] == "within bound"


def test_gain_needs_nine_pairs_in_ten_and_a_gap_wider_than_the_parents_iqr():
    nine = [p - 1.0 for p in PARENT[:9]] + [PARENT[9] + 1.0]
    got = bench_ab.verdict(PARENT, nine, 0.25, "lower")
    assert (got["wins"], got["pairs"], got["verdict"]) == (9, 10, "gain")
    eight = [p - 1.0 for p in PARENT[:8]] + [p + 1.0 for p in PARENT[8:]]
    assert bench_ab.verdict(PARENT, eight, 0.25, "lower")["verdict"] == "within bound"
    # every pair won, by less than the parent's IQR
    close = [p - 0.05 for p in PARENT]
    assert bench_ab.verdict(PARENT, close, 0.25, "lower")["verdict"] == "within bound"
    # a metric better higher wins the other way
    assert bench_ab.verdict(PARENT, [p + 1.0 for p in PARENT], 0.25, "higher")["verdict"] == "gain"
    assert bench_ab.verdict(PARENT, [p + 1.0 for p in PARENT], 0.25, "lower")["verdict"] == "within bound"


def test_regression_beyond_the_bound():
    worse = [p * 1.3 for p in PARENT]
    assert bench_ab.verdict(PARENT, worse, 0.25, "lower")["verdict"] == "regression"
    assert bench_ab.verdict(PARENT, [p * 1.2 for p in PARENT], 0.25, "lower")["verdict"] == "within bound"


def test_unresolved_where_the_parents_spread_exceeds_the_bound():
    wide = [0.6, 0.9, 0.62, 0.88, 0.61, 0.89, 0.6, 0.9, 0.63, 0.87]  # IQR 0.27 of 0.745
    got = bench_ab.verdict(wide, list(wide), 0.25, "lower")
    assert got["verdict"] == "unresolved"
    q1, median, q3 = got["parent"]
    assert q3 - q1 > 0.25 * median
    # unless every change run reads better than every parent run
    assert bench_ab.verdict(wide, [0.55] * 10, 0.25, "lower")["verdict"] == "within bound"


def test_too_few_or_unpaired_runs_refused():
    with pytest.raises(ValueError, match="at least two pairs"):
        bench_ab.verdict([1.0], [1.0], 0.25, "lower")
    with pytest.raises(ValueError, match="at least two pairs"):
        bench_ab.verdict([1.0, 2.0], [1.0], 0.25, "lower")
