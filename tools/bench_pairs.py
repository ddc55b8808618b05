"""Alternating benchmark pairs: one checkout against another, one workload.

    python3 tools/bench_pairs.py PARENT CHANGE --workload enumerate \
        --pairs 10 --seconds 25 --seed 1301 [--smoke] [--traced-seconds 10] \
        [--out BENCH_x.json] [--name KEY]

PARENT and CHANGE are checkouts of this repository whose benchmarks agree:
when their BENCHMARK.json or any file under perfbench/ (__pycache__ aside)
differs, the script names the first such path and exits 1 before any run,
as each side would run its own perfbench/ and the pairs would compare two
benchmarks.  Pair i (0-based) runs
``perfbench/run.py --workload W --seed SEED+i --seconds S --trace 0`` in
each checkout, the parent first when i is even and the change first when i
is odd, so that a drift in the host's speed does not favour one side.
``--traced-seconds`` adds one ``--trace 1`` run per checkout afterwards, at
the seed after the last pair, for the per-layer counts and times.

For each end-to-end metric of BENCHMARK.json (its ``better`` and ``bound``
are read from CHANGE's copy) the summary gives the quartiles of each side
(statistics.quantiles(n=4), exclusive method), ``change_wins`` and ``ties``
over the pairs, ``median_change_rel`` (change median / parent median - 1),
``parent_iqr`` and ``within_bound``: the change's median is no worse than
the parent's by more than the bound.  Every run is kept under ``runs``.

The JSON document is printed, and with ``--out`` it is also written there
under ``workloads[KEY]`` (``--name``, by default the workload); an existing
file keeps its other fields and entries, so one file can collect every
workload of a change and a re-check on other seeds.  The exit code is 1 when any run
failed its benchmark gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

PAIR_ORDER = ("pair i (0-based) runs the parent first when i is even, "
              "the change first when i is odd")
QUARTILES = "statistics.quantiles(n=4), exclusive method"


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int, smoke: bool) -> dict:
    """One perfbench run in checkout: its seed, gate verdict and metrics."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)] + (["--smoke"] if smoke else [])
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"bench_pairs: no output from {checkout}:\n{out.stderr}")
    result = json.loads(lines[-1])
    row = {"seed": seed, "correct": result["correct"] and out.returncode == 0,
           "attempted": result["attempted"], "failed": result["failed"]}
    row.update((name, m["value"]) for name, m in result["metrics"].items())
    return row


def first_difference(parent: Path, change: Path):
    """The first path, relative to a checkout, at which the two checkouts'
    benchmarks differ (BENCHMARK.json, or a file under perfbench/ outside
    __pycache__), or None when they agree."""
    def files(root: Path) -> set:
        return {Path("BENCHMARK.json")} | {
            path.relative_to(root) for path in (root / "perfbench").rglob("*")
            if path.is_file()
            and "__pycache__" not in path.relative_to(root).parts}

    for rel in sorted(files(parent) | files(change)):
        a, b = parent / rel, change / rel
        if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
            return rel
    return None


def quartiles(values) -> dict:
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def summarize(metric: dict, parent: list, change: list) -> dict:
    """Summary of one metric over paired runs (lists of values, pair by pair)."""
    sign = 1 if metric["better"] == "higher" else -1
    diffs = [sign * (c - p) for p, c in zip(parent, change)]
    before, after = quartiles(parent), quartiles(change)
    rel = (after["median"] / before["median"] - 1) if before["median"] else 0.0
    return {
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": before,
        "change": after,
        "change_wins": sum(d > 0 for d in diffs),
        "ties": sum(d == 0 for d in diffs),
        "pairs": len(diffs),
        "median_change_rel": rel,
        "parent_iqr": before["q3"] - before["q1"],
        "within_bound": -sign * rel <= metric["bound"],
    }


def git_rev(checkout: Path) -> str:
    out = subprocess.run(["git", "describe", "--always", "--dirty"],
                         cwd=checkout, capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--seed", type=int, default=0, help="seed of pair 0")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--traced-seconds", type=float)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--name", help="key of this run under workloads")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    differ = first_difference(sides["parent"], sides["change"])
    if differ is not None:
        print(f"bench_pairs: the checkouts' benchmarks differ at {differ}",
              file=sys.stderr)
        return 1
    bench = json.loads((sides["change"] / "BENCHMARK.json").read_text())

    runs = {"parent": [], "change": []}
    seeds = [args.seed + i for i in range(args.pairs)]
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side], args.workload, seed,
                                       args.seconds, 0, args.smoke))
    entry = {
        "command": (f"python3 tools/bench_pairs.py PARENT CHANGE --workload "
                    f"{args.workload} --pairs {args.pairs} --seconds "
                    f"{args.seconds:g} --seed {args.seed}"
                    + (" --smoke" if args.smoke else "")
                    + (f" --traced-seconds {args.traced_seconds:g}"
                       if args.traced_seconds is not None else "")),
        "seeds": seeds,
        "summary": {
            m["name"]: summarize(m, [r[m["name"]] for r in runs["parent"]],
                                 [r[m["name"]] for r in runs["change"]])
            for m in bench["end_to_end"]},
        "runs": runs,
    }
    correct = all(r["correct"] for side in runs.values() for r in side)
    if args.traced_seconds is not None:
        seed = args.seed + args.pairs
        entry["traced"] = {
            side: run_once(path, args.workload, seed, args.traced_seconds, 1,
                           args.smoke)
            for side, path in sides.items()}
        correct = correct and all(r["correct"] for r in entry["traced"].values())

    doc = {}
    if args.out and args.out.exists():
        doc = json.loads(args.out.read_text())
    doc.update({
        "parent": git_rev(sides["parent"]),
        "change": git_rev(sides["change"]),
        "host": {"python": platform.python_version(),
                 "nproc": len(os.sched_getaffinity(0))},
        "pair_order": PAIR_ORDER,
        "quartiles": QUARTILES,
    })
    doc.setdefault("workloads", {})[args.name or args.workload] = entry
    text = json.dumps(doc, indent=2)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
