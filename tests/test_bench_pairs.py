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


# A stand-in perfbench/run.py: it leaves a marker in its checkout and
# prints one result line with every end-to-end metric.
_FAKE_RUN = '''import json
open("ran", "a").write("x")
print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {
    name: {"value": 1.0} for name in
    ("items_per_s", "setup_s", "peak_rss_mb", "decided_frac")}}))
'''


def _checkout(root):
    (root / "perfbench" / "__pycache__").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(_FAKE_RUN)
    (root / "BENCHMARK.json").write_bytes((_PATH.parent.parent
                                           / "BENCHMARK.json").read_bytes())
    return root


def test_checkouts_with_different_benchmarks_are_refused_before_any_run(
        tmp_path, capsys):
    parent = _checkout(tmp_path / "parent")
    change = _checkout(tmp_path / "change")
    # compiled files differ between checkouts and are not the benchmark
    (change / "perfbench" / "__pycache__" / "run.cpython.pyc").write_text("x")
    argv = [str(parent), str(change), "--workload", "w", "--pairs", "1",
            "--seconds", "0"]
    assert bench_pairs.first_difference(parent, change) is None
    assert bench_pairs.main(argv) == 0
    assert (parent / "ran").read_text() == (change / "ran").read_text() == "x"
    (change / "perfbench" / "workloads.py").write_text("")
    capsys.readouterr()
    assert bench_pairs.main(argv) == 1
    assert "perfbench/workloads.py" in capsys.readouterr().err
    (change / "perfbench" / "workloads.py").unlink()
    (change / "BENCHMARK.json").write_text("{}")
    assert bench_pairs.first_difference(parent, change) == Path("BENCHMARK.json")
    assert bench_pairs.main(argv) == 1
    # neither refused call ran anything
    assert (parent / "ran").read_text() == (change / "ran").read_text() == "x"
