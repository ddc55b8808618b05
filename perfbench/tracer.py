"""Per-layer tracing of chibound from outside the package.

Each traced function is replaced, in every chibound module that binds it
and in the ``THEOREMS`` registry, by a wrapper that records a span: its
call count and its self time, which is its duration minus the time spent
in traced functions it called.  A few spans also record counts at the
boundary (matcher hits, members, undecided properties, oracle cap hits)
so that ratios are measured where the work happens.  Nothing under
``src/`` is edited; ``uninstall`` restores every binding.
"""

from __future__ import annotations

import dataclasses
import statistics
import sys
from collections import Counter
from time import perf_counter

THEOREM_IDS = ("THM1", "THM2", "THM3", "THM4", "THM5A", "THM5B")

# Span name -> (module, attribute) of the function it wraps.  Colorers are
# added per theorem from the THEOREMS registry.
TARGETS = {
    "kernels.canonical_code": ("chibound.kernels", "canonical_code"),
    "kernels.clique_number_sub": ("chibound.kernels", "clique_number_sub"),
    "smallgraphs.enumerate_codes": ("chibound.smallgraphs", "enumerate_codes"),
    "detect.find_induced": ("chibound.detect", "find_induced"),
    "detect.is_member": ("chibound.detect", "is_member"),
    "oracles.chromatic_number": ("chibound.oracles", "chromatic_number"),
    "oracles.chi_n": ("chibound.oracles", "chi_n"),
    "decompose.decompose": ("chibound.decompose", "decompose"),
    "decompose.check_property": ("chibound.decompose", "check_property"),
    "harness.verify_graph": ("chibound.harness", "verify_graph"),
    "harness.verify_run": ("chibound.harness", "verify_run"),
    "harness.write_report": ("chibound.harness", "write_report"),
    "graph6.parse_graph6": ("chibound.graph6", "parse_graph6"),
    "graph6.write_graph6": ("chibound.graph6", "write_graph6"),
}

# Per-layer metric name -> unit.  Every traced run reports all of them.
METRIC_UNITS = {}
for _span in ("kernels.canonical_code", "kernels.clique_number_sub",
              "detect.find_induced", "oracles.chromatic_number",
              "oracles.chi_n", "decompose.decompose",
              "decompose.check_property", "harness.verify_graph",
              "graph6.parse_graph6", "graph6.write_graph6",
              *(f"color.{thm}" for thm in THEOREM_IDS)):
    METRIC_UNITS[f"{_span}.calls"] = "count"
    METRIC_UNITS[f"{_span}.self_s"] = "s"
METRIC_UNITS.update({
    "smallgraphs.enumerate_codes.self_s": "s",
    "detect.find_induced.hit_frac": "ratio",
    "detect.find_induced.calls_from_color": "count",
    "detect.is_member.calls": "count",
    "detect.is_member.member_frac": "ratio",
    "oracles.chromatic_number.nonmember_frac": "ratio",
    "oracles.cap_hits": "count",
    "decompose.check_property.undecided": "count",
    "harness.verify_graph.p50_ms": "ms",
    "harness.verify_graph.p95_ms": "ms",
    "harness.verify_graph.p99_ms": "ms",
    "harness.write_report.self_s": "s",
    **{f"harness.verify_run.{thm}.s": "s" for thm in THEOREM_IDS},
    "bench.trace_overhead": "ratio",
})


class _Frame:
    __slots__ = ("name", "child_s", "harness_chi")

    def __init__(self, name):
        self.name = name
        self.child_s = 0.0
        self.harness_chi = 0


class Tracer:
    """Spans and boundary counts for one traced pass.

    ``with tracer:`` around each piece of traced work installs the wrappers
    and restores the bindings afterwards; counts accumulate across entries
    and ``tracer.metrics()`` reads them.
    """

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self.verify_graph_s = []
        self.verify_run_s = Counter()
        self._stack = []
        self._last_cap = None
        self._restore = []

    # ------------------------------------------------------------- spans

    def _wrap(self, name, fn, on_enter=None, on_exit=None):
        stack, calls, self_s = self._stack, self.calls, self.self_s

        def span(*args, **kwargs):
            if on_enter is not None:
                on_enter()
            frame = _Frame(name)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._note_cap_hit(exc)
                raise
            finally:
                dur = perf_counter() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += dur - frame.child_s
                if stack:
                    stack[-1].child_s += dur
            if on_exit is not None:
                on_exit(frame, args, result, dur)
            return result

        span.__wrapped__ = fn
        return span

    def _note_cap_hit(self, exc):
        # A cap hit in chromatic_number propagates through chi_n: count it once.
        if type(exc).__name__ == "OracleCapExceeded" and exc is not self._last_cap:
            self._last_cap = exc
            self.counts["cap_hits"] += 1

    def _enter_find_induced(self):
        # Inside a colorer span: a member's patterns searched a second time.
        if any(f.name.startswith("color.") for f in self._stack):
            self.counts["find_induced_from_color"] += 1

    def _exit_find_induced(self, frame, args, result, dur):
        if result is not None:
            self.counts["find_induced_hits"] += 1

    def _exit_is_member(self, frame, args, result, dur):
        if result.member:
            self.counts["members"] += 1

    def _enter_chromatic_number(self):
        if self._stack and self._stack[-1].name == "harness.verify_graph":
            self._stack[-1].harness_chi += 1

    def _exit_check_property(self, frame, args, result, dur):
        if result.holds is None:
            self.counts["undecided"] += 1

    def _exit_verify_graph(self, frame, args, result, dur):
        self.verify_graph_s.append(dur)
        self.counts["harness_chi"] += frame.harness_chi
        if "skipped" in result[0]:
            self.counts["nonmember_chi"] += frame.harness_chi

    def _exit_verify_run(self, frame, args, result, dur):
        if args[0].theorem is not None:
            self.verify_run_s[args[0].theorem] += dur

    # ---------------------------------------------------------- patching

    def __enter__(self):
        hooks = {
            "detect.find_induced": (self._enter_find_induced,
                                    self._exit_find_induced),
            "detect.is_member": (None, self._exit_is_member),
            "oracles.chromatic_number": (self._enter_chromatic_number, None),
            "decompose.check_property": (None, self._exit_check_property),
            "harness.verify_graph": (None, self._exit_verify_graph),
            "harness.verify_run": (None, self._exit_verify_run),
        }
        modules = [m for name, m in sys.modules.items()
                   if name == "chibound" or name.startswith("chibound.")]
        try:
            for name, (mod_name, attr) in TARGETS.items():
                fn = getattr(sys.modules[mod_name], attr)
                self._patch(modules, fn, self._wrap(name, fn, *hooks.get(name, (None, None))))
            theorems = sys.modules["chibound.color"].THEOREMS
            for thm in THEOREM_IDS:
                case = theorems[thm]
                wrapped = self._wrap(f"color.{thm}", case.colorer)
                self._patch(modules, case.colorer, wrapped)
                theorems[thm] = dataclasses.replace(case, colorer=wrapped)
                self._restore.append((theorems, thm, case))
        except BaseException:
            self._uninstall()
            raise
        return self

    def _patch(self, modules, fn, wrapped):
        """Rebind every module-level name bound to fn, `from x import y` copies too."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapped)
                    self._restore.append((mod, attr, fn))

    def _uninstall(self):
        for owner, key, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._restore.clear()

    def __exit__(self, *exc):
        self._uninstall()
        return False

    # ----------------------------------------------------------- results

    def metrics(self):
        """Per-layer values for this pass, keyed as in METRIC_UNITS."""
        out = {}
        for name, unit in METRIC_UNITS.items():
            span, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = self.calls[span]
            elif field == "self_s":
                out[name] = self.self_s[span]
        calls = self.calls
        out["detect.find_induced.hit_frac"] = _frac(
            self.counts["find_induced_hits"], calls["detect.find_induced"])
        out["detect.find_induced.calls_from_color"] = self.counts["find_induced_from_color"]
        out["detect.is_member.member_frac"] = _frac(
            self.counts["members"], calls["detect.is_member"])
        out["oracles.chromatic_number.nonmember_frac"] = _frac(
            self.counts["nonmember_chi"], self.counts["harness_chi"])
        out["oracles.cap_hits"] = self.counts["cap_hits"]
        out["decompose.check_property.undecided"] = self.counts["undecided"]
        samples = sorted(self.verify_graph_s)
        for q in (50, 95, 99):
            out[f"harness.verify_graph.p{q}_ms"] = (
                1000 * _percentile(samples, q) if samples else 0.0)
        for thm in THEOREM_IDS:
            out[f"harness.verify_run.{thm}.s"] = self.verify_run_s[thm]
        return out


def _frac(part, whole):
    return part / whole if whole else 0.0


def _percentile(sorted_samples, q):
    """Nearest-rank percentile."""
    rank = max(1, -(-q * len(sorted_samples) // 100))
    return sorted_samples[rank - 1]


def median_metrics(passes):
    """Median of each metric over traced passes; counts must agree exactly."""
    first = passes[0]
    for other in passes[1:]:
        for name, unit in METRIC_UNITS.items():
            if unit == "count" and other.get(name) != first.get(name):
                raise RuntimeError(f"{name} differs between traced passes: "
                                   f"{first.get(name)} vs {other.get(name)}")
    return {name: statistics.median(p[name] for p in passes)
            for name in first}
