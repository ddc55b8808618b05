"""The benchmark's workloads: inputs, timed chunks and correctness gates.

A workload is prepared once per set-up, then run in passes.  A pass runs
every chunk once; each chunk is timed on its own, so that the run's
throughput can be taken from per-chunk medians.  After each chunk, outside
the timed region, ``check`` gates its output and returns a summary that
must be identical on every pass.

Why these workloads (measured on the pure-Python path):

- ``enumerate``: cold ``enumerate_codes(7)``.  The canonical form does
  about 99% of the work; detection and the oracles do none.
- ``sweep``: ``verify_run`` plus ``write_report`` for all six theorems on
  the enumerated n <= 7 graphs, configured as ``chibound sweep`` does.
  Detection takes about 62% of the time, with both hits and misses on many
  tiny hosts; every property checker and colorer runs, the canonical form
  does not (its cache is warmed in set-up).
- ``ingest``: seeded G(n, 1/2) graphs, 100 each at n = 10, 11, 12, read
  from graph6 files of 25 graphs and checked for P8 and the P-property
  with no class.
  The oracles (chi_n, DSATUR) and graph6 parsing do about 93% of the work;
  detection does none.  n stays <= 12 because chi_n's cap is fixed at 12.

The gates compare isomorphism invariants and multisets, never the order or
labelling of enumerated representatives.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from collections import Counter

# Caps passed explicitly, so that CHIBOUND_CHI_CAP / CHIBOUND_CHIN_CAP in the
# environment cannot change the work.
CHI_CAP = 16
CHIN_CAP = 12

SWEEP_PROPERTIES = {
    "THM1": ("P4", "P8"),
    "THM2": ("P1", "P2", "P3"),
    "THM3": ("P5", "P6", "P7"),
    "THM4": ("P4", "P5"),
    "THM5A": ("D1",),
    "THM5B": ("D1",),
}
INGEST_PROPERTIES = ("P8", "P-property")

# Number of graphs on n unlabelled vertices, OEIS A000088.
CLASS_COUNTS = (1, 2, 4, 11, 34, 156, 1044)

# Full size and the reduced smoke size used by the benchmark's own tests.
SIZES = {
    "full": {"n_max": 7, "ingest_ns": (10, 11, 12), "ingest_per_n": 100,
             "ingest_per_file": 25},
    "smoke": {"n_max": 5, "ingest_ns": (10, 11, 12), "ingest_per_n": 2,
              "ingest_per_file": 2},
}

# Stored outputs of the seed program.  Digests are sha256 prefixes of the
# sorted JSON rows described in each gate.  "sweep" maps a theorem to
# (members_found, certificates ok, certificates rejected, member digest).
EXPECTED = {
    "full": {
        "enumerate": "0d01620681baac8a",
        "sweep": {
            "THM1": (396, 396, 0, "baf4f9883fb2f2f5"),
            "THM2": (203, 203, 0, "b7ddadb7e26d254a"),
            "THM3": (737, 737, 0, "1f1f543e61b55526"),
            "THM4": (737, 737, 0, "1f1f543e61b55526"),
            "THM5A": (17, 10, 7, "7b142ca508381fe5"),
            "THM5B": (18, 18, 0, "386852e475854401"),
        },
        "ingest_seed": 0,
        "ingest": "87778763c3f7d4a9",
    },
    "smoke": {
        "enumerate": "892f2efefa5f6a4b",
        "sweep": {
            "THM1": (42, 42, 0, "65d4f5598a10df38"),
            "THM2": (34, 34, 0, "2f5c3e16dcd21c12"),
            "THM3": (50, 50, 0, "18296265081bb792"),
            "THM4": (50, 50, 0, "18296265081bb792"),
            "THM5A": (8, 3, 5, "91e1071bfde925ed"),
            "THM5B": (8, 8, 0, "91e1071bfde925ed"),
        },
        "ingest_seed": 0,
        "ingest": "00082df24dee9367",
    },
}


def digest(rows) -> str:
    """Order-independent digest of a collection of JSON-able rows."""
    text = json.dumps(sorted(rows), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def graph6_edges(line: str) -> int:
    """Edge count of a graph6 line with n <= 62 (padding bits are zero)."""
    return sum((ord(ch) - 63).bit_count() for ch in line[1:])


class Workload:
    """Base: subclasses set ``items`` (per pass) and define the hooks."""

    name = ""
    items = 0

    def __init__(self, cb, seed, size, workdir):
        self.cb = cb            # namespace of chibound modules
        self.seed = seed
        self.size = size        # "full" or "smoke"
        self.sizes = SIZES[size]
        self.expected = EXPECTED[size]
        self.workdir = workdir

    def prepare(self):
        """Set-up: build the inputs.  Timed as part of setup_s."""

    def chunks(self):
        """[(name, fn)]: one pass, each fn timed separately."""
        raise NotImplementedError

    def before_chunk(self, name):
        """Untimed work before each chunk."""

    def check(self, name, output):
        """Gate one chunk's output: (summary, attempted, failed, problems)."""
        raise NotImplementedError

    # Spans that must record calls on this workload's traced pass.
    expected_spans = ()

    def _config(self, **fields):
        return self.cb.harness.RunConfig(chi_cap=CHI_CAP, chin_cap=CHIN_CAP,
                                         seed=self.seed, **fields)


class Enumerate(Workload):
    name = "enumerate"
    expected_spans = ("kernels.canonical_code", "smallgraphs.enumerate_codes")

    def __init__(self, *args):
        super().__init__(*args)
        self.n_max = self.sizes["n_max"]
        self.items = sum(CLASS_COUNTS[:self.n_max])
        # The lru_cache object itself; tracing rebinds the module name.
        self._cached = self.cb.smallgraphs.enumerate_codes

    def chunks(self):
        return [("enumerate_codes", self._run)]

    def before_chunk(self, name):
        self._cached.cache_clear()

    def _run(self):
        # Cold enumerate_codes(n_max) fills every smaller level on the way.
        enumerate_codes = self.cb.smallgraphs.enumerate_codes
        return {n: enumerate_codes(n) for n in range(self.n_max, 0, -1)}

    def check(self, name, codes):
        problems = []
        counts = [len(codes[n]) for n in sorted(codes)]
        if counts != list(CLASS_COUNTS[:self.n_max]):
            problems.append(f"class counts {counts} != {CLASS_COUNTS[:self.n_max]}")
        rows = []
        graph_from_code = self.cb.smallgraphs.graph_from_code
        for n, level in codes.items():
            if len(set(level)) != len(level):
                problems.append(f"duplicate codes at n={n}")
            for code in level:
                g = graph_from_code(code, n)
                degrees = sorted(g.degree(v) for v in range(n))
                rows.append([n, sum(degrees) // 2, degrees])
        got = digest(rows)
        if got != self.expected["enumerate"]:
            problems.append(f"invariant digest {got} != {self.expected['enumerate']}")
        return got, self.items, 0, problems


class Sweep(Workload):
    name = "sweep"
    expected_spans = (
        "kernels.clique_number_sub", "smallgraphs.enumerate_codes",
        "detect.find_induced", "detect.is_member", "oracles.chromatic_number",
        "decompose.decompose", "decompose.check_property",
        "harness.verify_graph", "harness.verify_run", "harness.write_report",
        "graph6.write_graph6",
        *(f"color.{thm}" for thm in SWEEP_PROPERTIES))

    def __init__(self, *args):
        super().__init__(*args)
        self.n_max = self.sizes["n_max"]
        self.graphs = sum(CLASS_COUNTS[:self.n_max])
        self.items = self.graphs * len(SWEEP_PROPERTIES)
        self._cached = self.cb.smallgraphs.enumerate_codes
        self._checked_files = set()

    def prepare(self):
        # Warm the enumeration cache, as a second sweep in one process would.
        self._cached.cache_clear()
        self._cached(self.n_max)

    def chunks(self):
        return [(thm, lambda thm=thm: self._run(thm)) for thm in SWEEP_PROPERTIES]

    def _path(self, thm):
        return os.path.join(self.workdir, f"sweep_{thm}.json")

    def _run(self, thm):
        harness = self.cb.harness
        cfg = self._config(
            source={"kind": "enumerate", "n_max": self.n_max},
            class_name=self.cb.classes.THEOREM_CLASS[thm], class_params={},
            theorem=thm, theorem_params={}, properties=SWEEP_PROPERTIES[thm])
        report = harness.verify_run(cfg)
        harness.write_report(report, self._path(thm))
        return report

    def check(self, thm, report):
        problems = []
        agg = report["aggregates"]
        members, ok, rejected, digest_ = self.expected["sweep"][thm]
        want = {"graphs_scanned": self.graphs, "members_found": members,
                "violations": 0, "undecided": 0, "errors": 0}
        if agg != want:
            problems.append(f"{thm} aggregates {agg} != {want}")
        rows = []
        certs = Counter()
        for rec in report["records"]:
            if "skipped" in rec:
                continue
            cert = rec.get("certificate", {})
            # A colorer may reject a class member outside its own hypothesis
            # (THM5A needs omega >= 4); anything else must be within bound.
            if cert.get("ok") is True:
                certs["ok"] += 1
            elif set(cert) == {"rejected"}:
                certs["rejected"] += 1
            else:
                problems.append(f"{thm} certificate on {rec['graph6']}: {cert}")
            rows.append([rec["n"], graph6_edges(rec["graph6"]),
                         rec["omega"], rec["chi"]])
        if (certs["ok"], certs["rejected"]) != (ok, rejected):
            problems.append(f"{thm} certificates {dict(certs)} != "
                            f"ok {ok}, rejected {rejected}")
        got = digest(rows)
        if got != digest_:
            problems.append(f"{thm} member digest {got} != {digest_}")
        if thm not in self._checked_files:
            self._checked_files.add(thm)
            with open(self._path(thm)) as fh:
                written = json.load(fh)
            if written["aggregates"] != agg or len(written["records"]) != len(report["records"]):
                problems.append(f"{thm} written report differs from the returned one")
        return ((agg, got), agg["graphs_scanned"], agg["errors"] + agg["undecided"],
                problems)


class Ingest(Workload):
    name = "ingest"
    expected_spans = (
        "kernels.clique_number_sub", "oracles.chromatic_number",
        "oracles.chi_n", "decompose.decompose", "decompose.check_property",
        "harness.verify_graph", "harness.verify_run", "graph6.parse_graph6",
        "graph6.write_graph6")

    def __init__(self, *args):
        super().__init__(*args)
        self.ns = self.sizes["ingest_ns"]
        self.per_n = self.sizes["ingest_per_n"]
        self.per_file = self.sizes["ingest_per_file"]
        self.items = self.per_n * len(self.ns)
        # One chunk per file; short chunks keep each close in time to the
        # reference loop that normalises it.
        self.files = [f"n{n}_{k}" for n in self.ns
                      for k in range(self.per_n // self.per_file)]
        self._rows = []

    def _path(self, name):
        return os.path.join(self.workdir, f"ingest_{name}.g6")

    def prepare(self):
        """Write per_n seeded G(n, 1/2) graphs per n, per_file to a graph6 file."""
        rng = random.Random(self.seed)
        write_graph6 = self.cb.graph6.write_graph6
        Graph = self.cb.graph.Graph
        lines = {}
        for n in self.ns:
            for i in range(self.per_n):
                adj = [0] * n
                for u in range(n):
                    for v in range(u + 1, n):
                        if rng.random() < 0.5:
                            adj[u] |= 1 << v
                            adj[v] |= 1 << u
                name = f"n{n}_{i // self.per_file}"
                lines.setdefault(name, []).append(write_graph6(Graph(n, adj)) + "\n")
        for name in self.files:
            with open(self._path(name), "w") as fh:
                fh.writelines(lines[name])

    def chunks(self):
        return [(name, lambda name=name: self._run(name)) for name in self.files]

    def _run(self, name):
        cfg = self._config(source={"kind": "graph6", "path": self._path(name)},
                           properties=INGEST_PROPERTIES)
        return self.cb.harness.verify_run(cfg)

    def check(self, chunk, report):
        problems = []
        agg = report["aggregates"]
        if (agg["graphs_scanned"] != self.per_file or agg["violations"]
                or agg["errors"] or agg["undecided"]):
            problems.append(f"{chunk} aggregates {agg}")
        rows = []
        for i, rec in enumerate(report["records"]):
            props = {p["property"]: p for p in rec.get("properties", ())}
            try:
                p8 = props["P8"]["measured"]
                pp = props["P-property"]
                row = [rec["omega"], rec["chi"], p8["chi_t"], p8["bound"],
                       pp["measured"]["chi_up_to_t"], pp["measured"]["c"]]
            except KeyError as exc:
                problems.append(f"{chunk} record {rec.get('graph6')} lacks {exc}")
                continue
            omega, chi, chi_t, _, chi_up, _ = row
            if not (1 <= omega <= chi <= rec["n"] and chi_t <= chi
                    and chi_up <= chi and pp["holds"] is True):
                problems.append(f"{chunk} inconsistent values {row} on {rec['graph6']}")
            rows.append([chunk, i] + row)
        # The stored digest covers the whole batch, checked after its last file.
        self._rows.extend(rows)
        if chunk == self.files[-1]:
            got = digest(self._rows)
            self._rows = []
            if self.seed == self.expected["ingest_seed"] and got != self.expected["ingest"]:
                problems.append(f"batch value digest {got} != {self.expected['ingest']}")
        return ((agg, rows), agg["graphs_scanned"], agg["errors"] + agg["undecided"],
                problems)


WORKLOADS = {w.name: w for w in (Enumerate, Sweep, Ingest)}
