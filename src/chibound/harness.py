"""Batch verification runs: ingest graphs, filter by class, check properties,
run colorers, cross-check against exact oracles, and emit a JSON report.

Exit-code contract (see exit_code_for and classify_exception): 0 clean,
2 mathematical violation found, 1 operational error.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from .classes import get_class
from .color import (LiftError, MembershipError, StructureViolation, THEOREMS,
                    require_member)
from .decompose import PROPERTY_IDS, check_properties, decompose_auto
from .detect import is_member
from .graph6 import read_graph6_file, write_graph6
from .oracles import (DEFAULT_CHI_CAP, DEFAULT_CHIN_CAP, OracleCapExceeded,
                      chromatic_number, clique_number)
from .smallgraphs import enumerate_small, sample_in_class

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """One verification run.  Fixed seed => fully reproducible report
    (modulo the wall_time field)."""

    source: dict                       # see _graphs_from_source
    class_name: str | None = None
    class_params: dict = field(default_factory=dict)
    theorem: str | None = None
    theorem_params: dict = field(default_factory=dict)
    properties: tuple = ()
    chi_cap: int = DEFAULT_CHI_CAP
    chin_cap: int = DEFAULT_CHIN_CAP
    seed: int = 0
    skip_membership: bool = False      # negative-control mode

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {"source", "class_name", "class_params", "theorem",
                 "theorem_params", "properties", "chi_cap", "chin_cap",
                 "seed", "skip_membership"}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "source" not in data:
            raise ConfigError("config needs a 'source'")
        cfg = cls(**{k: data[k] for k in data})
        cfg.properties = tuple(cfg.properties)
        cfg.validate()
        return cfg

    def validate(self):
        if not isinstance(self.source, dict) or "kind" not in self.source:
            raise ConfigError("source must be an object with a 'kind'")
        if self.source["kind"] not in ("enumerate", "graph6", "sample"):
            raise ConfigError(f"unknown source kind {self.source['kind']!r}")
        if self.chi_cap < 1 or self.chin_cap < 1:
            raise ConfigError("oracle caps must be positive")
        if self.theorem is not None and self.theorem not in THEOREMS:
            raise ConfigError(f"unknown theorem {self.theorem!r}")
        for p in self.properties:
            if p not in PROPERTY_IDS:
                raise ConfigError(f"unknown property {p!r}")
        if self.source["kind"] == "sample" and self.class_name is None:
            raise ConfigError("sampling needs a class_name to sample from")

    def to_dict(self):
        return {
            "source": dict(self.source),
            "class_name": self.class_name,
            "class_params": dict(self.class_params),
            "theorem": self.theorem,
            "theorem_params": dict(self.theorem_params),
            "properties": list(self.properties),
            "chi_cap": self.chi_cap,
            "chin_cap": self.chin_cap,
            "seed": self.seed,
            "skip_membership": self.skip_membership,
        }


def _graphs_from_source(cfg: RunConfig, spec):
    kind = cfg.source["kind"]
    if kind == "enumerate":
        n_max = int(cfg.source.get("n_max", 6))
        return enumerate_small(n_max)
    if kind == "graph6":
        return read_graph6_file(cfg.source["path"])
    n = int(cfg.source.get("n", 8))
    edge_prob = float(cfg.source.get("edge_prob", 0.3))
    count = int(cfg.source.get("count", 10))
    budget = int(cfg.source.get("budget", 20000))
    return sample_in_class(spec, n, edge_prob, cfg.seed, count, budget)


def _default_t(cfg: RunConfig) -> int:
    return int(cfg.class_params.get("t", cfg.theorem_params.get("t", 2)))


def _theorem_params(cfg: RunConfig) -> dict:
    names = THEOREMS[cfg.theorem].defaults
    return {k: v for k, v in cfg.theorem_params.items() if k in names}


def verify_graph(g, cfg: RunConfig, spec, theorem_spec):
    """Run the full per-graph pipeline; returns (record, violations, errors).

    spec is the run's class and theorem_spec its theorem's class (None
    without one).  The colorer runs only on members of theorem_spec; when
    the two specs are equal, the class filter has already checked that.
    """
    record = {"graph6": write_graph6(g), "n": g.n}
    violations = []
    errors = []

    record["omega"] = clique_number(g)
    if spec is not None and not cfg.skip_membership:
        rep = is_member(g, spec)
        record["membership"] = {"member": rep.member, "violated": rep.violated,
                                "witness": list(rep.witness) if rep.witness else None}
        if not rep.member:
            # Filtered before the chi oracle: a skipped record has no "chi".
            record["skipped"] = "not a class member"
            return record, violations, errors
    else:
        record["membership"] = {"member": None, "violated": None,
                                "witness": None,
                                "note": "membership filter skipped"}

    try:
        chi, _ = chromatic_number(g, cap=cfg.chi_cap)
        record["chi"] = chi
    except OracleCapExceeded:
        chi = None
        record["chi"] = "capped"

    t = _default_t(cfg)
    if cfg.properties:
        try:
            dec = decompose_auto(g, t)
        except Exception as exc:
            errors.append({"graph6": record["graph6"], "stage": "decompose",
                           "type": type(exc).__name__, "error": str(exc)})
            record["decompose_error"] = str(exc)
            return record, violations, errors
        props = []
        pparams = dict(cfg.class_params)
        pparams.update(cfg.theorem_params)
        reports = check_properties(g, dec, cfg.properties, pparams,
                                   chi_cap=cfg.chi_cap, chin_cap=cfg.chin_cap)
        for which, rep in zip(cfg.properties, reports):
            props.append(rep.to_dict())
            # holds=False on a graph outside the property's own hypothesis
            # class is a negative control, not a violation -- unless the
            # membership filter was deliberately skipped.
            if rep.holds is False and (rep.hypothesis_ok or cfg.skip_membership):
                violations.append({"graph6": record["graph6"],
                                   "kind": "property", "id": which,
                                   "witness": rep.to_dict()["witness"],
                                   "measured": rep.to_dict()["measured"]})
        record["properties"] = props

    if cfg.theorem is not None:
        case = THEOREMS[cfg.theorem]
        try:
            if cfg.skip_membership or theorem_spec != spec:
                require_member(cfg.theorem, g, theorem_spec)
            cert = case.colorer(g, chi_cap=cfg.chi_cap, **_theorem_params(cfg))
        except Exception as exc:
            outcome = classify_exception(exc)
            if outcome == "error":
                raise
            if outcome == "violation":
                violations.append({"graph6": record["graph6"],
                                   "kind": "structural", "theorem": cfg.theorem,
                                   "error": str(exc)})
                record["certificate"] = {"error": str(exc)}
            else:
                record["certificate"] = {outcome: str(exc)}
            return record, violations, errors
        summary = {"palette_used": cert.palette_used,
                   "bound_value": cert.bound_value,
                   "omega": cert.omega,
                   "c_value": cert.c_value,
                   "ok": cert.within_bound,
                   "notes": list(cert.notes)}
        record["certificate"] = summary
        if not cert.within_bound:
            violations.append({"graph6": record["graph6"], "kind": "bound",
                               "theorem": cfg.theorem,
                               "palette_used": cert.palette_used,
                               "bound_value": cert.bound_value,
                               "coloring": cert.to_dict()["coloring"]})
        if chi is not None and chi > cert.bound_value:
            violations.append({"graph6": record["graph6"], "kind": "chi-bound",
                               "theorem": cfg.theorem, "chi": chi,
                               "bound_value": cert.bound_value})
    return record, violations, errors


def verify_run(cfg: RunConfig) -> dict:
    """Execute the run and build the report dict (JSON-ready).

    Per-graph failures are recorded, never abort the run.
    """
    cfg.validate()
    start = time.monotonic()
    spec = None
    if cfg.class_name is not None:
        spec = get_class(cfg.class_name, **cfg.class_params)
    theorem_spec = None
    if cfg.theorem is not None:
        theorem_spec = THEOREMS[cfg.theorem].spec(**_theorem_params(cfg))
    records = []
    violations = []
    errors = []
    undecided = 0
    members = 0
    scanned = 0
    try:
        graphs = _graphs_from_source(cfg, spec)
        for g in graphs:
            scanned += 1
            try:
                record, v, e = verify_graph(g, cfg, spec, theorem_spec)
            except Exception as exc:   # defensive: never abort the sweep
                errors.append({"graph6": write_graph6(g), "stage": "pipeline",
                               "type": type(exc).__name__,
                               "error": f"{type(exc).__name__}: {exc}"})
                continue
            if "skipped" not in record:
                members += 1
            if record.get("chi") == "capped" or "undecided" in record.get(
                    "certificate", {}):
                undecided += 1
            undecided += sum(1 for p in record.get("properties", ())
                             if p["holds"] is None)
            records.append(record)
            violations.extend(v)
            errors.extend(e)
    except (OSError, ValueError, RuntimeError) as exc:
        errors.append({"stage": "source", "type": type(exc).__name__,
                       "error": f"{type(exc).__name__}: {exc}"})

    return {
        "schema_version": SCHEMA_VERSION,
        "config": cfg.to_dict(),
        "records": records,
        "violations": violations,
        "errors": errors,
        "aggregates": {
            "graphs_scanned": scanned,
            "members_found": members,
            "violations": len(violations),
            "undecided": undecided,
            "errors": len(errors),
        },
        "wall_time_seconds": round(time.monotonic() - start, 6),
    }


def classify_exception(exc: BaseException) -> str:
    """What a colorer's exception means for the exit-code contract.

    "violation": a structural claim of a proof failed (exit 2);
    "rejected": the graph is outside the theorem's hypothesis class;
    "undecided": an exact oracle hit its vertex cap;
    "error": anything else, an operational error (exit 1).
    """
    if isinstance(exc, (LiftError, StructureViolation)):
        return "violation"
    if isinstance(exc, MembershipError):
        return "rejected"
    if isinstance(exc, OracleCapExceeded):
        return "undecided"
    return "error"


def exit_code_for(report: dict) -> int:
    """0 = clean, 2 = mathematical violation found, 1 = operational error."""
    if report["aggregates"]["violations"]:
        return 2
    if report["aggregates"]["errors"]:
        return 1
    return 0


def report_fingerprint(report: dict) -> str:
    """Canonical serialization with the timing field removed."""
    trimmed = {k: v for k, v in report.items() if k != "wall_time_seconds"}
    return json.dumps(trimmed, sort_keys=True)


def write_report(report: dict, path: str):
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
