"""chibound benchmark: end-to-end metrics per workload, per-layer metrics traced.

Run from the repository root:

    python3 perfbench/run.py --workload {enumerate,sweep,ingest} --seed N \
        --seconds S --trace {0,1} [--smoke]

The program is imported from ``src/`` of the checkout this file lives in;
the run fails if it is missing.  Everything runs in this one process and
thread, apart from the short child interpreters that time a cold import.

End-to-end times are reported at yardstick speed.  On a shared host the
same code runs up to twice as slowly from one second to the next, so each
timed piece of work is divided by the time of a fixed reference workload
(yardstick.py) run just before it, during it (every INTERVAL_S, on a timer
signal, its own time subtracted) and just after it, then multiplied by the
yardstick's nominal time.  Wall-clock figures are printed alongside.

``--trace 0`` measures the end-to-end metrics with tracing off:

- ``setup_s``: median cold import of the package (in child interpreters)
  plus the median of three input preparations.
- ``items_per_s``: items per pass divided by the pass time, the sum over
  the pass's chunks of each chunk's median time; passes repeat until
  ``--seconds`` is spent.  Items are classes for ``enumerate`` and verified
  graphs otherwise.
- ``peak_rss_mb``: peak resident memory of this process.
- ``decided_frac``: 1 - failed_frac, where failed_frac is
  (errors + undecided) / graphs attempted.  It is 1 at the seed; the
  complement is reported so that the metric is never 0.

``--trace 1`` alternates untraced and traced passes for ``--seconds`` and
reports the per-layer metrics of ``tracer.METRIC_UNITS``: counts from one
pass (they must agree on every pass), times in wall seconds as medians
over the traced passes, and ``bench.trace_overhead``, the ratio of traced
to untraced pass time (both at yardstick speed) minus 1.  Which end-to-end
metric each layer should move:

- kernels.canonical_code, smallgraphs.enumerate_codes: enumerate items_per_s
- kernels.clique_number_sub, oracles.chromatic_number, decompose.*:
  sweep and ingest items_per_s
- detect.*, color.*, harness.verify_run.*, harness.verify_graph.p99_ms,
  harness.write_report, graph6.write_graph6: sweep items_per_s
- oracles.chi_n, graph6.parse_graph6, harness.verify_graph.p95_ms:
  ingest items_per_s
- oracles.cap_hits, decompose.check_property.undecided: decided_frac
- harness.verify_graph.{calls,self_s,p50_ms}: all workloads

On every pass each chunk's output goes through the workload's correctness
gate (see workloads.py).  The second-to-last stdout line is a JSON record
of the run (environment, failed_frac, wall-clock figures, gate problems);
the last is the result: {"correct", "attempted", "failed", "metrics"}.
The exit code is 0 only when every gate passed.

``--smoke`` runs the reduced sizes (n <= 5, six ingest graphs) used by the
benchmark's own tests.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import types
from pathlib import Path
from time import perf_counter

from yardstick import NOMINAL_S, yardstick_seconds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
INTERVAL_S = 0.25
MODULES = ("classes", "graph", "graph6", "harness", "kernels", "smallgraphs")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import chibound.cli; "
                "print(time.perf_counter() - t)")


def load_chibound():
    """Import every chibound module from this checkout's src/."""
    if not (SRC / "chibound" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no chibound package under {SRC}")
    sys.path.insert(0, str(SRC))
    import chibound.cli  # noqa: F401  - binds every module, for tracing

    if Path(sys.modules["chibound"].__file__).resolve().parent != SRC / "chibound":
        raise SystemExit("perfbench: imported chibound from outside this checkout")
    return types.SimpleNamespace(
        **{name: sys.modules[f"chibound.{name}"] for name in MODULES})


def timed(fn, ticks=True):
    """Run fn; returns (result, wall seconds, seconds at yardstick speed).

    With ticks=False the yardstick runs only before and after fn.
    """
    samples = [yardstick_seconds()]

    def tick(signum, frame):
        samples.append(yardstick_seconds())

    if ticks:
        old = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    t0 = perf_counter()
    try:
        result = fn()
    finally:
        if ticks:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = perf_counter() - t0
        if ticks:
            signal.signal(signal.SIGALRM, old)
    wall = elapsed - sum(samples[1:])
    samples.append(yardstick_seconds())
    return result, wall, wall * NOMINAL_S / statistics.mean(samples)


def cold_import_seconds():
    """Median (wall, steady) seconds of `import chibound.cli` in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls, steadies = [], []
    for _ in range(SETUP_REPEATS):
        # No yardstick runs while the child does: it would compete with it.
        before = yardstick_seconds()
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                             cwd=SRC, capture_output=True, text=True,
                             timeout=60, check=True)
        after = yardstick_seconds()
        wall = float(out.stdout)
        walls.append(wall)
        steadies.append(wall * 2 * NOMINAL_S / (before + after))
    return statistics.median(walls), statistics.median(steadies)


class Gate:
    """Accumulates gate results; each chunk's summary must repeat on every pass."""

    def __init__(self, workload):
        self.workload = workload
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def take(self, name, output):
        summary, attempted, failed, problems = self.workload.check(name, output)
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)
        if self.first.setdefault(name, summary) != summary:
            self.problems.append(f"{name}: output differs between passes")


def run_pass(workload, gate, ticks=True, tracer=None):
    """Run and gate every chunk once; returns {chunk: (wall s, steady s)}."""
    times = {}
    for name, fn in workload.chunks():
        workload.before_chunk(name)
        with tracer or contextlib.nullcontext():
            output, wall, steady = timed(fn, ticks)
        times[name] = (wall, steady)
        gate.take(name, output)
        del output
    return times


def measure(workload, seconds, gate):
    """End-to-end: passes until `seconds` are spent.

    Returns the pass count and, per chunk, the median wall and steady times.
    """
    samples = {}
    passes = 0
    deadline = perf_counter() + seconds
    while True:
        for name, pair in run_pass(workload, gate).items():
            samples.setdefault(name, []).append(pair)
        passes += 1
        if perf_counter() >= deadline:
            break
    wall = {name: statistics.median(w for w, _ in pairs)
            for name, pairs in samples.items()}
    steady = {name: statistics.median(s for _, s in pairs)
              for name, pairs in samples.items()}
    return passes, wall, steady


def measure_traced(workload, seconds, gate):
    """Per-layer: alternate untraced and traced passes until `seconds` are spent."""
    from tracer import Tracer, median_metrics

    # No yardstick ticks here: a tick inside a span would count as its time.
    plain, traced, per_pass = [], [], []
    deadline = perf_counter() + seconds
    while True:
        times = run_pass(workload, gate, ticks=False)
        plain.append(sum(steady for _, steady in times.values()))
        tracer = Tracer()
        times = run_pass(workload, gate, ticks=False, tracer=tracer)
        traced.append(sum(steady for _, steady in times.values()))
        for span in workload.expected_spans:
            if not tracer.calls[span]:
                gate.problems.append(f"span {span} recorded no calls")
        per_pass.append(tracer.metrics())
        if perf_counter() >= deadline:
            break
    try:
        metrics = median_metrics(per_pass)
    except RuntimeError as exc:
        gate.problems.append(str(exc))
        metrics = per_pass[0]
    metrics["bench.trace_overhead"] = statistics.median(traced) / statistics.median(plain) - 1
    return len(per_pass), metrics


def main(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced sizes for the benchmark's own tests")
    args = ap.parse_args(argv)

    cb = load_chibound()
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    wall = {}
    try:
        workload = WORKLOADS[args.workload](
            cb, args.seed, "smoke" if args.smoke else "full", workdir)
        gate = Gate(workload)
        if args.trace:
            workload.prepare()
            passes, values = measure_traced(workload, args.seconds, gate)
            from tracer import METRIC_UNITS as units
        else:
            import_wall, import_steady = cold_import_seconds()
            prep = [timed(workload.prepare)[1:] for _ in range(SETUP_REPEATS)]
            passes, chunk_wall, chunk_steady = measure(workload, args.seconds, gate)
            wall = {
                "setup_s": import_wall + statistics.median(w for w, _ in prep),
                "items_per_s": workload.items / sum(chunk_wall.values()),
                "chunk_s": chunk_wall,
            }
            values = {
                "setup_s": import_steady + statistics.median(s for _, s in prep),
                "items_per_s": workload.items / sum(chunk_steady.values()),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "decided_frac": 1 - gate.failed / gate.attempted,
            }
            units = {"setup_s": "s", "items_per_s": "1/s",
                     "peak_rss_mb": "MB", "decided_frac": "ratio"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    correct = not gate.problems
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "size": workload.size, "passes": passes,
        "failed_frac": gate.failed / gate.attempted,
        "wall": wall,
        "env": {
            "python": platform.python_version(),
            "numba": cb.kernels.NUMBA_OK,
            "nproc": len(os.sched_getaffinity(0)),
            "chibound_vars": {k: v for k, v in sorted(os.environ.items())
                              if k.startswith("CHIBOUND_")},
        },
        "problems": gate.problems[:20],
    }))
    print(json.dumps({
        "correct": correct, "attempted": gate.attempted, "failed": gate.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
