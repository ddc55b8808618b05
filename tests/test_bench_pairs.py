import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_summary_counts_wins_and_ties_in_the_metric_direction():
    parent = [100.0, 110.0, 120.0, 130.0, 140.0]
    change = [90.0, 110.0, 130.0, 150.0, 170.0]
    higher = bench_pairs.summarize({"better": "higher", "bound": 0.2},
                                   parent, change)
    assert (higher["change_wins"], higher["ties"], higher["pairs"]) == (3, 1, 5)
    assert higher["parent"]["median"] == 120.0
    assert higher["change"]["median"] == 130.0
    assert higher["median_change_rel"] == pytest.approx(130 / 120 - 1)
    assert higher["within_bound"]
    lower = bench_pairs.summarize({"better": "lower", "bound": 0.05},
                                  parent, change)
    assert (lower["change_wins"], lower["ties"]) == (1, 1)
    assert not lower["within_bound"]


def test_quartiles_follow_the_exclusive_method_and_take_one_run():
    got = bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    assert got == {"q1": 2.0, "median": 4.0, "q3": 6.0}
    summary = bench_pairs.summarize({"better": "higher", "bound": 0.2},
                                    [5.0], [4.0])
    assert summary["parent"] == {"q1": 5.0, "median": 5.0, "q3": 5.0}
    assert summary["parent_iqr"] == 0.0
    assert summary["within_bound"] and summary["change_wins"] == 0
