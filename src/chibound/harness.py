"""Batch verification runs: ingest graphs, filter by class, check properties,
run colorers, cross-check against exact oracles, and emit a JSON report.

Exit-code contract (see exit_code_for): 0 clean, 2 mathematical violation
found, 1 operational error.  verify_graph decides each graph's outcome.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, fields

from .classes import get_class
from .color import MembershipError, StructureViolation, THEOREMS, color_checked
from .decompose import PARAM_LEAST, PROPERTY_IDS, check_property
from .detect import check_params, is_member
from .graph import MAX_VERTICES
from .graph6 import read_graph6_file, write_graph6
from .oracles import (DEFAULT_CHI_CAP, DEFAULT_CHIN_CAP, GraphOracles,
                      OracleCapExceeded)
from .smallgraphs import ENUM_CAP, enumerate_small, sample_in_class

SCHEMA_VERSION = 1

# Each source kind's fields: name -> (default, None if required; the test a
# value must pass; what the test asks for, with {} for the name).
SOURCE_FIELDS = {
    "enumerate": {"n_max": (6, lambda v: type(v) is int and 1 <= v <= ENUM_CAP,
                            f"an int {{}} in 1..{ENUM_CAP}")},
    "graph6": {"path": (None, lambda v: isinstance(v, str), "a string {}")},
    "sample": {
        "n": (8, lambda v: type(v) is int and 0 <= v <= MAX_VERTICES,
              f"an int {{}} in 0..{MAX_VERTICES}"),
        "edge_prob": (0.3, lambda v: type(v) in (int, float) and 0 <= v <= 1,
                      "a number {} in [0, 1]"),
        "count": (10, lambda v: type(v) is int and v >= 1, "an int {} >= 1"),
        "budget": (20000, lambda v: type(v) is int and v >= 1, "an int {} >= 1"),
    },
}


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
        if not isinstance(data, dict):
            raise ConfigError("config must be an object")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "source" not in data:
            raise ConfigError("config needs a 'source'")
        cfg = cls(**data)
        cfg.validate()
        cfg.properties = tuple(cfg.properties)
        return cfg

    def validate(self):
        """Check the config and resolve it: returns (spec, theorem_spec,
        params), the run's class and theorem (None without) at {**class_params,
        **theorem_params}, and the property checks' params: those over the
        class's and under the theorem's, defaults included.  A name not
        taken, set twice differently or out of domain is an error."""
        if not isinstance(self.source, dict) or "kind" not in self.source:
            raise ConfigError("source must be an object with a 'kind'")
        if (not isinstance(self.source["kind"], str)
                or self.source["kind"] not in SOURCE_FIELDS):
            raise ConfigError(f"unknown source kind {self.source['kind']!r}")
        _source_fields(self.source)
        for name in ("class_params", "theorem_params"):
            if not isinstance(getattr(self, name), dict):
                raise ConfigError(f"{name} must be an object")
        if not (isinstance(self.properties, (list, tuple))
                and all(isinstance(p, str) for p in self.properties)):
            raise ConfigError("properties must be a list of property names")
        if not all(type(cap) is int and cap >= 1
                   for cap in (self.chi_cap, self.chin_cap)):
            raise ConfigError("oracle caps must be positive ints")
        if type(self.seed) is not int:
            raise ConfigError("seed must be an int")
        if type(self.skip_membership) is not bool:
            raise ConfigError("skip_membership must be true or false")
        if self.theorem is not None and (not isinstance(self.theorem, str)
                                         or self.theorem not in THEOREMS):
            raise ConfigError(f"unknown theorem {self.theorem!r}")
        for p in self.properties:
            if p not in PROPERTY_IDS:
                raise ConfigError(f"unknown property {p!r}")
        if self.source["kind"] == "sample" and self.class_name is None:
            raise ConfigError("sampling needs a class_name to sample from")
        if self.class_params and self.class_name is None:
            raise ConfigError("class_params need a class_name")
        clash = sorted(k for k in self.class_params.keys() & self.theorem_params
                       if self.class_params[k] != self.theorem_params[k])
        if clash:
            raise ConfigError(f"class_params and theorem_params differ on {clash}")
        params = {**self.class_params, **self.theorem_params}
        spec = theorem_spec = None
        try:
            if self.class_name is not None:
                spec = get_class(self.class_name, **self.class_params)
            if self.theorem is not None:
                case = THEOREMS[self.theorem]
                takes = [*case.defaults, *self.theorem_params]
                theorem_spec = case.spec(**{k: params[k] for k in takes if k in params})
            else:  # class and theorem domains lie within PARAM_LEAST's
                check_params("a run without a theorem",
                             self.theorem_params, PARAM_LEAST)
        except (KeyError, ValueError) as exc:
            raise ConfigError(exc.args[0]) from None
        return spec, theorem_spec, {**(spec.params if spec else {}), **params,
                                    **(theorem_spec.params if theorem_spec else {})}

    def to_dict(self):
        return {**asdict(self), "properties": list(self.properties)}


def _source_fields(source: dict) -> dict:
    """The source's fields with their defaults; a ConfigError names the
    first one that is missing or fails its SOURCE_FIELDS test."""
    kind = source["kind"]
    unknown = sorted(source.keys() - {"kind", *SOURCE_FIELDS[kind]})
    if unknown:
        raise ConfigError(f"source {kind!r} takes {sorted(SOURCE_FIELDS[kind])}, "
                          f"not {unknown}")
    fields = {}
    for name, (default, ok, want) in SOURCE_FIELDS[kind].items():
        value = source.get(name, default)
        if value is None or not ok(value):
            got = f"not {name}={value!r}" if name in source else f"no {name!r}"
            raise ConfigError(f"source {kind!r} takes {want.format(name)}, {got}")
        fields[name] = value
    return fields


def _graphs_from_source(cfg: RunConfig, spec):
    kind = cfg.source["kind"]
    fields = _source_fields(cfg.source)
    if kind == "enumerate":
        return enumerate_small(fields["n_max"])
    if kind == "graph6":
        return read_graph6_file(fields["path"])
    return sample_in_class(spec, fields["n"], fields["edge_prob"], cfg.seed,
                           fields["count"], fields["budget"])


def verify_graph(g, cfg: RunConfig, spec, theorem_spec, params):
    """Run the full per-graph pipeline; returns (record, violations,
    undecided), undecided the number of g's results left undecided.

    spec, theorem_spec and params are cfg resolved by cfg.validate().  The
    colorer runs only on members of theorem_spec, and a decided chi of a
    member is checked against the bound whatever the colorer did.  The
    stages share one GraphOracles and g's pattern memo (detect.embedding):
    each oracle question is asked, and each induced pattern searched, once.
    """
    record = {"graph6": write_graph6(g), "n": g.n}
    violations = []

    oracles = GraphOracles(g, cfg.chi_cap, cfg.chin_cap)
    record["omega"] = omega = oracles.clique().bit_count()
    if spec is not None and not cfg.skip_membership:
        rep = is_member(g, spec)
        record["membership"] = rep.to_dict()
        if not rep.member:
            # Filtered before the chi oracle: a skipped record has no "chi".
            record["skipped"] = "not a class member"
            return record, violations, 0
    else:
        record["membership"] = {"member": None, "violated": None,
                                "witness": None,
                                "note": "membership filter skipped"}

    try:
        record["chi"] = chi = oracles.chi()
    except OracleCapExceeded:
        record["chi"], chi = "capped", None
    undecided = int(chi is None)

    if cfg.properties:
        props = []
        for which in cfg.properties:
            rep = check_property(oracles, which, params)
            prop = rep.to_dict()
            props.append(prop)
            # Outside the property's own hypothesis class a result is a
            # negative control, neither violation nor undecided -- unless
            # the membership filter was deliberately skipped.
            if rep.hypothesis_ok or cfg.skip_membership:
                if rep.holds is False:
                    violations.append({"graph6": record["graph6"],
                                       "kind": "property", "id": which,
                                       "witness": prop["witness"],
                                       "measured": prop["measured"]})
                undecided += rep.holds is None
        record["properties"] = props

    if cfg.theorem is None:
        return record, violations, undecided
    try:
        cert = color_checked(cfg.theorem, oracles, theorem_spec)
    except MembershipError as exc:
        record["certificate"] = {"rejected": str(exc)}
        return record, violations, undecided
    except OracleCapExceeded as exc:
        # its set lies in V(g), so chi is capped too, and counted above
        record["certificate"] = {"undecided": str(exc)}
        return record, violations, undecided
    except StructureViolation as exc:
        record["certificate"] = {"error": str(exc)}
        violations.append({"graph6": record["graph6"], "kind": "structural",
                           "theorem": cfg.theorem, "error": str(exc)})
        # Each block the exact oracle colors is an induced subgraph, so the
        # class constant is at most chi: the largest value the bound takes.
        bound = None if chi is None else THEOREMS[cfg.theorem].bound(
            omega, chi, **theorem_spec.params)
    else:
        record["certificate"] = {"palette_used": cert.palette_used,
                                 "bound_value": cert.bound_value,
                                 "omega": cert.omega,
                                 "c_value": cert.c_value,
                                 "ok": cert.within_bound,
                                 "notes": list(cert.notes)}
        if not cert.within_bound:
            violations.append({"graph6": record["graph6"], "kind": "bound",
                               "theorem": cfg.theorem,
                               "palette_used": cert.palette_used,
                               "bound_value": cert.bound_value,
                               "coloring": cert.to_dict()["coloring"]})
        bound = cert.bound_value
    if chi is not None and chi > bound:
        violations.append({"graph6": record["graph6"], "kind": "chi-bound",
                           "theorem": cfg.theorem, "chi": chi,
                           "bound_value": bound})
    return record, violations, undecided


def verify_run(cfg: RunConfig) -> dict:
    """Execute the run and build the report dict (JSON-ready).

    Per-graph failures are recorded, never abort the run.
    """
    resolved = cfg.validate()
    start = time.monotonic()
    records = []
    violations = []
    errors = []
    undecided = 0
    members = 0
    scanned = 0
    try:
        graphs = _graphs_from_source(cfg, resolved[0])
        for g in graphs:
            scanned += 1
            try:
                record, v, u = verify_graph(g, cfg, *resolved)
            except Exception as exc:   # defensive: never abort the sweep
                errors.append({"graph6": write_graph6(g), "stage": "pipeline",
                               "type": type(exc).__name__,
                               "error": f"{type(exc).__name__}: {exc}"})
                continue
            if "skipped" not in record:
                members += 1
            undecided += u
            records.append(record)
            violations.extend(v)
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


def exit_code_for(report: dict) -> int:
    """0 = clean, 2 = mathematical violation found, 1 = operational error."""
    if report["aggregates"]["violations"]:
        return 2
    if report["aggregates"]["errors"]:
        return 1
    return 0


def report_json(report: dict) -> str:
    """The report's one serialization: compact, keys sorted.  A report is
    a tree that verify_run builds, so the encoder skips its cycle check."""
    return json.dumps(report, sort_keys=True, check_circular=False)


def report_fingerprint(report: dict) -> str:
    """report_json with the timing field removed."""
    return report_json({k: v for k, v in report.items()
                        if k != "wall_time_seconds"})


def write_report(report: dict, path: str):
    with open(path, "w") as fh:
        fh.write(report_json(report) + "\n")
