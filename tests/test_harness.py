import dataclasses
import hashlib
import json
import random
import re
import sys

import pytest

from chibound import color, detect, kernels, oracles
from chibound import decompose as decompose_module
from chibound import harness
from chibound.classes import THEOREM_CLASS
from chibound.decompose import PROPERTY_IDS, check_property
from chibound.graph import connected_components, from_edges, mask_of
from chibound.graph6 import parse_graph6, write_graph6
from chibound.harness import (ConfigError, RunConfig, exit_code_for,
                              report_fingerprint, verify_run, write_report)
from chibound.patterns import (complete, diamond, f2, make_pattern, path,
                               pineapple)
from reference import q43, rook, w3

ROOK_K4 = "O~`HW}GPHDaNaGPCcPWaN"   # K4 x K4, a thm5b member with chi = omega


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"source": {"kind": "nope"}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"source": {"kind": "enumerate"}, "bogus": 1})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"source": {"kind": "enumerate"},
                             "theorem": "THM9"})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"source": {"kind": "sample", "n": 5}})
    cfg = RunConfig.from_dict({"source": {"kind": "enumerate", "n_max": 4},
                               "properties": ["P1"]})
    assert cfg.chi_cap >= 1


def test_enumerate_takes_n_max_from_one():
    # n_max = 1 is the least enumeration: the one graph on one vertex
    report = verify_run(RunConfig.from_dict(
        {"source": {"kind": "enumerate", "n_max": 1}}))
    assert report["aggregates"]["graphs_scanned"] == 1
    assert [rec["graph6"] for rec in report["records"]] == ["@"]
    with pytest.raises(ConfigError, match="not n_max=0"):
        RunConfig.from_dict({"source": {"kind": "enumerate", "n_max": 0}})


@pytest.mark.parametrize("fields,message", [
    ({"class_name": "thm4", "theorem": "THM4", "theorem_params": {"t": 3},
      "properties": ["P5"]}, "theorem THM4 takes [], not ['t']"),
    ({"class_name": "thm9"}, "unknown class 'thm9'"),
    ({"class_name": "thm4", "class_params": {"t": 3}},
     "theorem THM4 takes [], not ['t']"),
    ({"class_name": "diamond-free", "class_params": {"t": 2}},
     "class 'diamond-free' takes [], not ['t']"),
    ({"class_name": "thm3", "class_params": {"t": 3}, "theorem": "THM3",
      "theorem_params": {"t": 2}},
     "class_params and theorem_params differ on ['t']"),
    ({"theorem": "THM1", "theorem_params": {"t": "3"}},
     "theorem THM1 takes an int t >= 2, not t='3'"),
    ({"theorem": "THM1", "theorem_params": {"t": 1}},
     "theorem THM1 takes an int t >= 2, not t=1"),
    ({"theorem": "THM1", "theorem_params": {"t": True}},
     "theorem THM1 takes an int t >= 2, not t=True"),
    ({"theorem": "THM5A", "theorem_params": {"k": 0}},
     "theorem THM5A takes an int k >= 1, not k=0"),
    ({"theorem": "THM2", "theorem_params": {"y": "f3"}},
     "theorem THM2 takes y in ('f1', 'f2'), not y='f3'"),
    ({"class_params": {"zzz": 1}}, "class_params need a class_name"),
    ({"theorem_params": {"zzz": 1}},
     "a run without a theorem takes ['k', 's', 't'], not ['zzz']"),
    ({"theorem_params": {"t": 1}, "properties": ["P5"]},
     "a run without a theorem takes an int t >= 2, not t=1"),
    ({"theorem_params": {"k": 0}, "properties": ["P3"]},
     "a run without a theorem takes an int k >= 1, not k=0"),
    ({"class_name": "thm1", "theorem_params": {"s": 2.0}},
     "a run without a theorem takes an int s >= 1, not s=2.0"),
    ({"class_name": "thm3", "class_params": {"s": 1}},
     "theorem THM3 takes an int s >= 2, not s=1"),
    ({"chi_cap": "5"}, "oracle caps must be positive ints"),
    ({"chin_cap": 4.0}, "oracle caps must be positive ints"),
    ({"chi_cap": 0}, "oracle caps must be positive ints"),
    ({"source": {"n_max": 4}}, "source must be an object with a 'kind'"),
    ({"properties": ["P9"]}, "unknown property 'P9'"),
    ({"class_name": "thm4", "class_params": [1]},
     "class_params must be an object"),
    ({"theorem": "THM1", "theorem_params": None},
     "theorem_params must be an object"),
    ({"properties": None}, "properties must be a list of property names"),
    ({"properties": "P5"}, "properties must be a list of property names"),
    ({"properties": [["P5"]]}, "properties must be a list of property names"),
    ({"source": {"kind": "enumerate", "nmax": 7}},
     "source 'enumerate' takes ['n_max'], not ['nmax']"),
    ({"source": {"kind": "graph6", "path": "a.g6", "n_max": 4}},
     "source 'graph6' takes ['path'], not ['n_max']"),
    ({"seed": None}, "seed must be an int"),
    ({"seed": "1"}, "seed must be an int"),
    ({"skip_membership": "no"}, "skip_membership must be true or false"),
    ({"source": {"kind": "graph6"}},
     "source 'graph6' takes a string path, no 'path'"),
    ({"source": {"kind": "graph6", "path": 3}},
     "source 'graph6' takes a string path, not path=3"),
    ({"source": {"kind": "enumerate", "n_max": "x"}},
     "source 'enumerate' takes an int n_max in 1..8, not n_max='x'"),
    ({"source": {"kind": "enumerate", "n_max": 9}},
     "source 'enumerate' takes an int n_max in 1..8, not n_max=9"),
    ({"source": {"kind": "enumerate", "n_max": 0}},
     "source 'enumerate' takes an int n_max in 1..8, not n_max=0"),
    ({"source": {"kind": "sample", "n": 6.0}, "class_name": "diamond-free"},
     "source 'sample' takes an int n in 0..512, not n=6.0"),
    ({"source": {"kind": "sample", "count": 0}, "class_name": "diamond-free"},
     "source 'sample' takes an int count >= 1, not count=0"),
    ({"source": {"kind": "sample", "budget": True},
      "class_name": "diamond-free"},
     "source 'sample' takes an int budget >= 1, not budget=True"),
    ({"source": {"kind": "sample", "edge_prob": 1.5},
      "class_name": "diamond-free"},
     "source 'sample' takes a number edge_prob in [0, 1], not edge_prob=1.5"),
    ({"source": {"kind": "sample", "edge_prob": "0.3"},
      "class_name": "diamond-free"},
     "source 'sample' takes a number edge_prob in [0, 1], not edge_prob='0.3'"),
    ({"source": {"kind": "sample", "n": 100000}, "class_name": "diamond-free"},
     "source 'sample' takes an int n in 0..512, not n=100000"),
    ({"source": {"kind": []}}, "unknown source kind []"),
    ({"source": {"kind": {"enumerate": 1}}},
     "unknown source kind {'enumerate': 1}"),
    ({"theorem": ["THM1"]}, "unknown theorem ['THM1']"),
    ({"theorem": {"THM1": 1}}, "unknown theorem {'THM1': 1}"),
])
def test_config_parameters_resolve_once(fields, message):
    data = {"source": {"kind": "enumerate", "n_max": 4}, **fields}
    with pytest.raises(ConfigError, match=re.escape(message)):
        RunConfig.from_dict(data)
    with pytest.raises(ConfigError):
        verify_run(RunConfig(**data))


@pytest.mark.parametrize("data", [None, 5, True, "x", [1]])
def test_config_that_is_not_an_object_is_a_config_error(data):
    with pytest.raises(ConfigError, match="^config must be an object$"):
        RunConfig.from_dict(data)


def test_theorem_domains_lie_within_the_property_domain():
    # validate leaves s, t and k to the class and theorem domains they hold
    for case in color.THEOREMS.values():
        for name, least in decompose_module.PARAM_LEAST.items():
            assert case.domain.get(name, least) >= least, (case.id, name)


def test_config_params_merge_class_and_theorem():
    cfg = RunConfig.from_dict({
        "source": {"kind": "enumerate", "n_max": 4}, "class_name": "thm3",
        "class_params": {"s": 3, "t": 3}, "theorem": "THM3",
        "theorem_params": {"t": 3}})
    spec, theorem_spec, params = cfg.validate()
    assert params == spec.params == {"s": 3, "t": 3}
    # the theorem runs at the run's values of the names it takes
    assert theorem_spec.params == {"s": 3, "t": 3}
    # theorem_params without a theorem set the property parameters alone
    cfg = RunConfig(source={"kind": "enumerate"}, theorem_params={"t": 3})
    assert cfg.validate() == (None, None, {"t": 3})
    assert RunConfig.from_dict(cfg.to_dict()) == cfg
    # the properties run at the theorem's parameters, defaults included,
    # and with a class alone at the class's
    cfg = RunConfig(source={"kind": "enumerate"}, class_name="thm3",
                    class_params={"t": 3}, theorem="THM3",
                    theorem_params={"t": 3})
    assert cfg.validate()[2] == {"s": 2, "t": 3}
    cfg = RunConfig(source={"kind": "enumerate"}, class_name="thm2")
    assert cfg.validate()[2] == {"s": 2, "t": 2, "k": 2, "y": "f1"}


def test_properties_run_at_the_theorems_s():
    # chibound sweep --theorem THM3 --t 3 colors at (s, t) = (2, 3), and
    # P5-P7 check there too, not at s = t = 3.  Every verdict equals the
    # one at s = 3 on the members with n <= 6.
    report = verify_run(RunConfig(
        source={"kind": "enumerate", "n_max": 6}, class_name="thm3",
        class_params={"t": 3}, theorem="THM3", theorem_params={"t": 3},
        properties=("P5", "P6", "P7")))
    members = [rec for rec in report["records"] if "skipped" not in rec]
    assert len(members) == 186
    for rec in members:
        given = oracles.GraphOracles(parse_graph6(rec["graph6"]))
        at_s3 = [check_property(given, which, {"s": 3, "t": 3})
                 for which in ("P5", "P6", "P7")]
        assert [p["params"] for p in rec["properties"]] == [{"s": 2, "t": 3}] * 3
        assert ([(p["holds"], p["hypothesis_ok"]) for p in rec["properties"]]
                == [(r.holds, r.hypothesis_ok) for r in at_s3]), rec["graph6"]


def test_theorem_colors_at_the_run_params(monkeypatch):
    # The class fixes s = 3 and the theorem takes s, so its colorer and its
    # membership check run at s = 3 too, not at the theorem's default.
    case = color.THEOREMS["THM3"]
    details = []

    def colorer(g, **params):
        cert = case.colorer(g, **params)
        details.append(cert.details)
        return cert

    monkeypatch.setitem(color.THEOREMS, "THM3",
                        dataclasses.replace(case, colorer=colorer))
    report = verify_run(RunConfig.from_dict({
        "source": {"kind": "enumerate", "n_max": 5}, "class_name": "thm3",
        "class_params": {"s": 3, "t": 3}, "theorem": "THM3",
        "theorem_params": {"t": 3}}))
    assert len(details) == report["aggregates"]["members_found"] > 0
    assert all(d == {"s": 3, "t": 3} for d in details)


def test_empty_source_clean_exit(tmp_path):
    path = tmp_path / "empty.g6"
    path.write_text("")
    cfg = RunConfig(source={"kind": "graph6", "path": str(path)})
    report = verify_run(cfg)
    assert report["aggregates"]["graphs_scanned"] == 0
    assert exit_code_for(report) == 0


def test_missing_file_is_operational_error():
    cfg = RunConfig(source={"kind": "graph6", "path": "/nonexistent.g6"})
    report = verify_run(cfg)
    assert report["aggregates"]["errors"] == 1
    assert report["errors"][0]["stage"] == "source"
    assert report["errors"][0]["type"] == "FileNotFoundError"
    assert exit_code_for(report) == 1


def test_records_carry_the_canonical_graph6(tmp_path):
    # K5 with the ">>graph6<<" prefix, a 4-byte and an 8-byte header
    path_ = tmp_path / "k5.g6"
    path_.write_text(">>graph6<<D~{\n~??D~{\n~~?????D~{\n")
    report = verify_run(RunConfig(source={"kind": "graph6",
                                          "path": str(path_)}))
    assert [rec["graph6"] for rec in report["records"]] == ["D~{"] * 3


def test_pipeline_errors_name_stage_and_type(tmp_path, monkeypatch):
    path_ = tmp_path / "d.g6"
    path_.write_text(write_graph6(diamond()) + "\n")
    cfg = RunConfig(source={"kind": "graph6", "path": str(path_)},
                    properties=("P1",))

    def fail_decompose(g, t, within, clique):
        raise ValueError("no clique")

    # verify_graph has no stage of its own for the decomposition: a failure
    # there is caught by verify_run with the graph's other failures.
    monkeypatch.setattr(decompose_module, "decompose", fail_decompose)
    report = verify_run(cfg)
    assert [(e["stage"], e["type"], e["error"]) for e in report["errors"]] == [
        ("pipeline", "ValueError", "ValueError: no clique")]
    assert report["records"] == []

    def fail_omega(*args):
        raise KeyError("boom")

    monkeypatch.setattr(oracles, "max_clique", fail_omega)
    report = verify_run(cfg)
    assert [(e["stage"], e["type"]) for e in report["errors"]] == [
        ("pipeline", "KeyError")]
    assert exit_code_for(report) == 1


def test_clean_sweep_exit_zero():
    cfg = RunConfig(source={"kind": "enumerate", "n_max": 5},
                    class_name="thm4", theorem="THM4",
                    properties=("P4", "P5", "P6", "P7"))
    report = verify_run(cfg)
    assert report["aggregates"]["violations"] == 0
    assert report["aggregates"]["members_found"] > 0
    assert exit_code_for(report) == 0


def test_negative_fixture_exit_two(tmp_path):
    path = tmp_path / "diamond.g6"
    path.write_text(write_graph6(diamond()) + "\n")
    cfg = RunConfig(source={"kind": "graph6", "path": str(path)},
                    properties=("P1",), skip_membership=True)
    report = verify_run(cfg)
    assert report["aggregates"]["violations"] == 1
    assert exit_code_for(report) == 2
    # the witness re-verifies: it is a component of S on the same graph
    violation = report["violations"][0]
    g = parse_graph6(violation["graph6"])
    dec = oracles.GraphOracles(g).decomposition(2)
    assert mask_of(violation["witness"]) in connected_components(g, dec.s_set)


def test_out_of_class_graphs_are_skipped(tmp_path):
    path = tmp_path / "mix.g6"
    path.write_text(write_graph6(diamond()) + "\n"
                    + write_graph6(pineapple(4, 1)) + "\n")
    cfg = RunConfig(source={"kind": "graph6", "path": str(path)},
                    class_name="thm1", theorem="THM1", properties=("P1",))
    report = verify_run(cfg)
    assert report["aggregates"]["graphs_scanned"] == 2
    assert report["aggregates"]["members_found"] == 1
    assert report["aggregates"]["violations"] == 0
    skipped = [r for r in report["records"] if "skipped" in r]
    assert len(skipped) == 1
    assert skipped[0]["membership"]["violated"] == "diamond"
    assert skipped[0]["membership"]["witness"] == [0, 1, 2, 3]
    assert skipped[0]["omega"] == 3 and "chi" not in skipped[0]


def test_membership_filter_runs_before_chi_oracle(tmp_path, monkeypatch):
    """The exact chi oracle runs on class members only.

    A non-member is skipped before chi is asked of its oracles, so its
    record has no "chi" and, when it has more vertices than chi_cap, it is
    no longer counted as undecided (its chi used to be recorded as
    "capped").  With skip_membership every graph still gets chi, and a
    graph over chi_cap is "capped" without reaching DSATUR.
    """
    path_ = tmp_path / "mix.g6"
    path_.write_text(write_graph6(diamond()) + "\n"
                     + write_graph6(path(3)) + "\n")
    seen, searched = [], []
    real_chi, real_k = oracles.GraphOracles.chi, oracles._k_colorable

    def chi(self, within=None, lower=None):
        seen.append(write_graph6(self.g))
        return real_chi(self, within, lower)

    def k_colorable(g, k, within=None):
        searched.append(write_graph6(g))
        return real_k(g, k, within)

    monkeypatch.setattr(oracles.GraphOracles, "chi", chi)
    monkeypatch.setattr(oracles, "_k_colorable", k_colorable)
    cfg = RunConfig(source={"kind": "graph6", "path": str(path_)},
                    class_name="thm1", chi_cap=3)
    report = verify_run(cfg)
    assert seen == [write_graph6(path(3))]
    assert report["aggregates"]["members_found"] == 1
    assert report["aggregates"]["undecided"] == 0
    assert [r.get("chi") for r in report["records"]] == [None, 2]

    seen.clear()
    cfg.skip_membership = True
    report = verify_run(cfg)
    assert seen == [write_graph6(diamond()), write_graph6(path(3))]
    assert searched == []
    assert [r["chi"] for r in report["records"]] == ["capped", 2]
    assert report["aggregates"]["undecided"] == 1


def test_chin_cap_reaches_property_checks(tmp_path):
    path_ = tmp_path / "k7.g6"
    path_.write_text(write_graph6(complete(7)) + "\n")
    cfg = RunConfig(source={"kind": "graph6", "path": str(path_)},
                    properties=("P-property",), chin_cap=5)
    report = verify_run(cfg)
    [prop] = report["records"][0]["properties"]
    assert prop["holds"] is None
    assert "chi_n: graph has 7 vertices, exact-oracle cap is 5" in prop["notes"]
    assert report["aggregates"]["undecided"] == 1

    cfg.chin_cap = 7
    report = verify_run(cfg)
    [prop] = report["records"][0]["properties"]
    assert prop["holds"] is True and prop["measured"]["chi_up_to_t"] == 2
    assert report["aggregates"]["undecided"] == 0


def test_chi_over_the_cap_asks_no_clique(tmp_path, monkeypatch):
    # A block over chi_cap is undecided before its clique is searched: the
    # one clique-kernel call finds the record's omega.
    calls = []
    real = kernels.clique_number_sub

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kernels, "clique_number_sub", counting)
    path_ = tmp_path / "pineapple.g6"
    path_.write_text(write_graph6(pineapple(4, 6)) + "\n")
    report = verify_run(RunConfig(source={"kind": "graph6", "path": str(path_)},
                                  properties=("P8",), chi_cap=3))
    [prop] = report["records"][0]["properties"]
    assert prop["notes"] == ("undecided at desk scale: chi(T): graph has 6 "
                             "vertices, exact-oracle cap is 3")
    assert report["aggregates"]["undecided"] == 2
    assert len(calls) == 1


def test_undecided_property_reports_what_it_evaluated(tmp_path):
    # P5 + K4 at t = 3: chi^(t) is over chin_cap, and the P6 hypothesis
    # (P5-free, bowtie-free) fails on the path.
    g = from_edges(9, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (5, 7),
                       (5, 8), (6, 7), (6, 8), (7, 8)])
    path_ = tmp_path / "p5k4.g6"
    path_.write_text(write_graph6(g) + "\n")
    cfg = RunConfig(source={"kind": "graph6", "path": str(path_)},
                    theorem_params={"t": 3}, properties=("P6",), chin_cap=5)
    [prop] = verify_run(cfg)["records"][0]["properties"]
    assert prop["holds"] is None
    assert prop["hypothesis_ok"] is False
    assert prop["params"] == {"s": 3, "t": 3}
    assert "chi_n: graph has 9 vertices, exact-oracle cap is 5" in prop["notes"]


def test_properties_of_one_graph_share_one_chi_up_to_t(monkeypatch):
    # P5, P6 and P7 at t = 3 need chi^(t) as well as the P-property itself.
    calls = []
    real = oracles.chi_n

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(oracles, "chi_n", counting)
    cfg = RunConfig(source={"kind": "enumerate", "n_max": 5},
                    properties=("P-property", "P5", "P6", "P7"),
                    theorem_params={"t": 3})
    report = verify_run(cfg)
    assert len(report["records"]) == 52
    assert len(calls) == 52
    assert report["aggregates"]["undecided"] == 0


def test_reproducibility_modulo_walltime():
    cfg = RunConfig(source={"kind": "sample", "n": 7, "edge_prob": 0.3,
                            "count": 8},
                    class_name="diamond-free", seed=99, properties=("P8",))
    a = verify_run(cfg)
    b = verify_run(cfg)
    assert report_fingerprint(a) == report_fingerprint(b)
    assert a["wall_time_seconds"] >= 0


def test_report_is_json_serializable(tmp_path):
    cfg = RunConfig(source={"kind": "enumerate", "n_max": 4},
                    class_name="thm4", theorem="THM4")
    report = verify_run(cfg)
    out = tmp_path / "report.json"
    write_report(report, str(out))
    loaded = json.loads(out.read_text())
    assert loaded["schema_version"] == 1
    assert loaded["config"]["class_name"] == "thm4"
    assert len(loaded["records"]) == report["aggregates"]["graphs_scanned"]


def test_certificate_summary_in_records():
    cfg = RunConfig(source={"kind": "enumerate", "n_max": 5},
                    class_name="thm1", theorem="THM1",
                    theorem_params={"t": 2})
    report = verify_run(cfg)
    certs = [r["certificate"] for r in report["records"]
             if "certificate" in r and "palette_used" in r.get("certificate", {})]
    assert certs
    for c in certs:
        assert c["palette_used"] <= c["bound_value"]
        assert c["ok"] is True


def test_colorer_runs_at_the_theorem_params():
    cfg = RunConfig(source={"kind": "enumerate", "n_max": 5},
                    class_name="thm1", class_params={"t": 3},
                    theorem="THM1", theorem_params={"t": 3})
    bound = color.THEOREMS["THM1"].bound
    certs = [r["certificate"] for r in verify_run(cfg)["records"]
             if "certificate" in r]
    assert certs and all(c["bound_value"] == bound(c["omega"], c["c_value"], t=3)
                         for c in certs)
    assert any(c["bound_value"] != bound(c["omega"], c["c_value"], t=2)
               for c in certs)


def _patterns_searched_in_property_checks(monkeypatch):
    """Wrap find_induced and check_property; returns the list of patterns
    find_induced is asked for inside a property check."""
    real = detect.find_induced
    inside, depth = [], []

    def counting(host, pattern):
        if depth:
            inside.append(pattern)
        return real(host, pattern)

    for name, mod in list(sys.modules.items()):
        if name.startswith("chibound"):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, counting)
    real_check = harness.check_property

    def check(*args, **kwargs):
        depth.append(True)
        try:
            return real_check(*args, **kwargs)
        finally:
            depth.pop()

    monkeypatch.setattr(harness, "check_property", check)
    return inside


def test_patterns_the_run_class_forbids_are_not_searched_again(monkeypatch):
    inside = _patterns_searched_in_property_checks(monkeypatch)
    cfg = RunConfig(source={"kind": "enumerate", "n_max": 5},
                    class_name="thm3", theorem="THM3",
                    properties=("P5", "P6", "P7"))
    report = verify_run(cfg)
    props = [(r["omega"], p) for r in report["records"]
             for p in r.get("properties", ())]
    assert len(props) == 3 * report["aggregates"]["members_found"] > 0
    assert all(p["hypothesis_ok"] == (omega > 2) for omega, p in props)
    assert inside == []

    # THM2's class forbids f1, not the f2 of P2's hypothesis.
    cfg = RunConfig(source={"kind": "enumerate", "n_max": 5},
                    class_name="thm2", theorem="THM2", properties=("P2",))
    report = verify_run(cfg)
    members = report["aggregates"]["members_found"]
    assert members > 0
    assert inside and all(p == f2(2) for p in inside)
    # one search per member whose omega exceeds t
    assert len(inside) == sum(1 for r in report["records"]
                              if "skipped" not in r and r["omega"] > 2)


def test_membership_is_checked_once_outside_the_colorer(tmp_path, monkeypatch):
    real = detect.find_induced
    calls = {"inside": 0, "outside": 0}
    depth = []

    def counting(host, pattern):
        calls["inside" if depth else "outside"] += 1
        return real(host, pattern)

    for name, mod in list(sys.modules.items()):
        if name.startswith("chibound"):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, counting)
    case = color.THEOREMS["THM4"]

    def colorer(g, **params):
        depth.append(g)
        try:
            return case.colorer(g, **params)
        finally:
            depth.pop()

    monkeypatch.setitem(color.THEOREMS, "THM4",
                        dataclasses.replace(case, colorer=colorer))
    cfg = RunConfig(source={"kind": "enumerate", "n_max": 5},
                    class_name="thm4", theorem="THM4")
    report = verify_run(cfg)
    certs = [r["certificate"] for r in report["records"] if "certificate" in r]
    assert len(certs) == report["aggregates"]["members_found"] > 0
    assert all(c["ok"] for c in certs)
    assert calls["inside"] == 0 and calls["outside"] > 0

    # Without the class filter, a non-member is still rejected, not colored.
    path_ = tmp_path / "p5.g6"
    path_.write_text(write_graph6(path(5)) + "\n")
    cfg = RunConfig(source={"kind": "graph6", "path": str(path_)},
                    class_name="thm4", theorem="THM4", skip_membership=True)
    [record] = verify_run(cfg)["records"]
    assert list(record["certificate"]) == ["rejected"]
    assert "path(l=5)" in record["certificate"]["rejected"]
    assert calls["inside"] == 0


def _one_graph_run(tmp_path, g6, **fields):
    path_ = tmp_path / "g.g6"
    path_.write_text(g6 + "\n")
    report = verify_run(RunConfig(source={"kind": "graph6",
                                          "path": str(path_)}, **fields))
    return report, report["records"][0]


def test_structural_violation_is_recorded(tmp_path):
    report, record = _one_graph_run(tmp_path, ROOK_K4, class_name="thm5b",
                                    theorem="THM5B", properties=("D1",))
    assert [(v["kind"], v["theorem"]) for v in report["violations"]] == [
        ("structural", "THM5B")]
    assert "carry outside blades" in report["violations"][0]["error"]
    assert record["certificate"] == {"error": report["violations"][0]["error"]}
    [d1] = record["properties"]
    assert d1["holds"] is True and d1["hypothesis_ok"] is True
    assert exit_code_for(report) == 2


def test_failed_lift_degree_claim_is_a_structural_violation(tmp_path,
                                                            monkeypatch):
    # With alpha(omega) forced down to 1, the diamond, a THM2 member at
    # y = f2, fails the degree claim |N(v) \ (K ∪ T)| < alpha: a vertex of
    # its triangle K is peeled while its neighbour outside K is colored in
    # the rest.  The lift raises rather than noting it and coloring on.
    monkeypatch.setattr(color, "_thm2_alpha", lambda omega, t, k: 1)
    report, record = _one_graph_run(tmp_path, write_graph6(diamond()),
                                    class_name="thm2", theorem="THM2",
                                    class_params={"y": "f2"},
                                    theorem_params={"y": "f2"})
    [violation] = report["violations"]
    assert (violation["kind"], violation["theorem"]) == ("structural", "THM2")
    assert violation["error"].startswith(
        "structural claim failed: degree claim |N(v)\\(K∪T)| < alpha "
        "(witness {'vertex': ")
    assert re.search(r"'degree': [1-9]\d*, 'alpha': 1\}\)$", violation["error"])
    assert record["certificate"] == {"error": violation["error"]}
    assert exit_code_for(report) == 2


@pytest.mark.parametrize("build,kinds,chi", [
    (w3, ["structural", "chi-bound"], 6), (q43, ["structural", "chi-bound"], 5),
    (lambda: rook(4), ["structural"], 4)], ids=["W(3)", "Q(4,3)", "K4xK4"])
def test_chi_bound_is_checked_when_the_colorer_raises(tmp_path, build, kinds,
                                                      chi):
    # THM5B's colorer raises on all three; chi is still checked against the
    # bound omega = 4, and only the generalized quadrangles break it.
    report, record = _one_graph_run(tmp_path, write_graph6(build()),
                                    class_name="thm5b", theorem="THM5B",
                                    chi_cap=64)
    assert [v["kind"] for v in report["violations"]] == kinds
    assert record["chi"] == chi
    if "chi-bound" in kinds:
        assert {k: report["violations"][1][k] for k in (
            "theorem", "chi", "bound_value")} == {
                "theorem": "THM5B", "chi": chi, "bound_value": 4}
    assert exit_code_for(report) == 2


def test_bound_violations_are_recorded(tmp_path, monkeypatch):
    case = color.THEOREMS["THM4"]
    monkeypatch.setitem(color.THEOREMS, "THM4", dataclasses.replace(
        case, bound=lambda omega, c: omega - 1))
    report, record = _one_graph_run(tmp_path, write_graph6(complete(4)),
                                    class_name="thm4", theorem="THM4")
    assert record["certificate"]["ok"] is False
    bound, chi_bound = report["violations"]
    assert bound["kind"] == "bound" and bound["palette_used"] == 4
    assert bound["bound_value"] == 3 and len(bound["coloring"]) == 4
    assert chi_bound == {"graph6": write_graph6(complete(4)),
                         "kind": "chi-bound", "theorem": "THM4", "chi": 4,
                         "bound_value": 3}
    assert exit_code_for(report) == 2


def test_colorer_error_is_a_pipeline_error(tmp_path, monkeypatch):
    def colorer(g, **params):
        raise KeyError("boom")

    monkeypatch.setitem(color.THEOREMS, "THM4", dataclasses.replace(
        color.THEOREMS["THM4"], colorer=colorer))
    path_ = tmp_path / "k4.g6"
    path_.write_text(write_graph6(complete(4)) + "\n")
    report = verify_run(RunConfig(source={"kind": "graph6", "path": str(path_)},
                                  class_name="thm4", theorem="THM4"))
    assert report["records"] == []
    assert [(e["stage"], e["type"]) for e in report["errors"]] == [
        ("pipeline", "KeyError")]
    assert exit_code_for(report) == 1


def test_capped_colorer_is_undecided(tmp_path):
    report, record = _one_graph_run(tmp_path, write_graph6(path(3)),
                                    class_name="thm4", theorem="THM4",
                                    chi_cap=2)
    assert record["chi"] == "capped"
    assert record["certificate"] == {
        "undecided": "chromatic_number: graph has 3 vertices, "
                     "exact-oracle cap is 2"}
    assert report["aggregates"]["undecided"] == 1
    assert report["violations"] == [] and exit_code_for(report) == 0


def test_block_over_the_oracle_cap_is_undecided(tmp_path):
    # pineapple(4, 6): T is the six pendant vertices, over chi_cap = 3.
    report, record = _one_graph_run(tmp_path, write_graph6(pineapple(4, 6)),
                                    properties=("P8",), chi_cap=3)
    [p8] = record["properties"]
    assert p8["holds"] is None and p8["hypothesis_ok"] is True
    assert p8["notes"] == ("undecided at desk scale: chi(T): graph has 6 "
                           "vertices, exact-oracle cap is 3")
    # one undecided for the graph's own chi, one for the P8 check
    assert record["chi"] == "capped"
    assert report["aggregates"]["undecided"] == 2


# Each theorem's property list in the n <= 7 sweeps, as in the benchmark
# (perfbench/workloads.py).
SWEEP_PROPERTIES = {"THM1": ("P4", "P8"), "THM2": ("P1", "P2", "P3"),
                    "THM3": ("P5", "P6", "P7"), "THM4": ("P4", "P5"),
                    "THM5A": ("D1",), "THM5B": ("D1",)}


def _sweep(thm, n_max):
    return RunConfig(source={"kind": "enumerate", "n_max": n_max},
                     class_name=THEOREM_CLASS[thm], theorem=thm,
                     properties=SWEEP_PROPERTIES[thm], chi_cap=16, chin_cap=12)


def _no_class(s, t, k, properties=PROPERTY_IDS):
    return RunConfig(source={"kind": "enumerate", "n_max": 6},
                     theorem_params={"s": s, "t": t, "k": k},
                     properties=properties, chi_cap=16, chin_cap=12)


def test_report_fingerprints_are_pinned():
    # Nine reports that a change to how the pipeline computes must leave
    # byte-identical: the six theorem sweeps at n <= 7 and three runs of
    # all ten properties with no class at n <= 6.
    assert _pinned_digests() == PINNED_DIGESTS


PINNED_DIGESTS = {
    "THM1": "277c0d75efb66300", "THM2": "fae2788238698287",
    "THM3": "5cc91c537f0a6cb9", "THM4": "b240360424e3714a",
    "THM5A": "007522844568b688", "THM5B": "6578521a4c7e7bbd",
    (2, 2, 2): "b7a134291e4e7194", (3, 3, 3): "12f055a9f2afc11b",
    (3, 2, 2): "40105fb4d9589767"}


def _pinned_digests():
    runs = {thm: _sweep(thm, 7) for thm in SWEEP_PROPERTIES}
    runs.update({stk: _no_class(*stk)
                 for stk in ((2, 2, 2), (3, 3, 3), (3, 2, 2))})
    return {name: _digest(verify_run(cfg)) for name, cfg in runs.items()}


def _digest(report):
    return hashlib.sha256(report_fingerprint(report).encode()).hexdigest()[:16]


def test_batches_of_one_give_the_pinned_reports(monkeypatch):
    # verify_run steps BATCH graphs through their stages together; a batch
    # of one is the graph-by-graph order, and the reports are the same.
    # 1,252 graphs with n <= 7 end in a partial batch at the default size.
    assert 1252 % harness.BATCH
    monkeypatch.setattr(harness, "BATCH", 1)
    assert _pinned_digests() == PINNED_DIGESTS


def test_source_failure_mid_batch_follows_the_graphs_read(tmp_path,
                                                          monkeypatch):
    # 40 graph6 lines, line 21 corrupt: the 20 graphs before it are
    # verified and recorded, then the source error, whatever the batch size
    # (a batch of 4 ends exactly at line 20, one of 32 is cut short).  The
    # same holds for a sampler whose rejection budget runs out.
    rng = random.Random(40)
    lines = []
    for _ in range(40):
        n = rng.randint(4, 8)
        lines.append(write_graph6(from_edges(n, [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < 0.5])))
    lines[20] = "D~"
    path_ = tmp_path / "forty.g6"
    path_.write_text("\n".join(lines) + "\n")
    cfg = RunConfig(source={"kind": "graph6", "path": str(path_)},
                    class_name="thm4", theorem="THM4", properties=("P4", "P5"))
    digests = set()
    for batch in (1, 4, harness.BATCH):
        monkeypatch.setattr(harness, "BATCH", batch)
        report = verify_run(cfg)
        assert [r["graph6"] for r in report["records"]] == lines[:20]
        assert report["aggregates"]["graphs_scanned"] == 20
        [error] = report["errors"]
        assert error["stage"] == "source" and "line 21" in error["error"]
        assert exit_code_for(report) == 1
        digests.add(_digest(report))
    assert len(digests) == 1
    # One try per draw: five diamond-free draws at seed 0, then the sixth
    # exhausts the rejection budget.
    cfg = RunConfig(source={"kind": "sample", "n": 7, "edge_prob": 0.4,
                            "count": 50, "budget": 1},
                    class_name="diamond-free", theorem="THM5A",
                    properties=("D1",))
    digests = set()
    for batch in (1, 4, harness.BATCH):
        monkeypatch.setattr(harness, "BATCH", batch)
        report = verify_run(cfg)
        assert len(report["records"]) == report["aggregates"][
            "graphs_scanned"] == 5
        assert [(e["stage"], e["type"]) for e in report["errors"]] == [
            ("source", "RejectionBudgetExhausted")]
        digests.add(_digest(report))
    assert len(digests) == 1


def test_pipeline_errors_mid_batch_keep_source_order(monkeypatch):
    # Two members of one batch fail in check_property: the earlier one at
    # its second property, the later one at its first, so the later fails
    # first in stage order.  Each error takes its graph's place in source
    # order and every other record is the clean run's.
    cfg = _sweep("THM4", 6)
    clean = verify_run(cfg)["records"]
    members = [i for i, r in enumerate(clean) if "skipped" not in r]
    first, later = next((i, j) for i, j in zip(members, members[1:])
                        if i // harness.BATCH == j // harness.BATCH)
    fail_at = {clean[first]["graph6"]: "P5", clean[later]["graph6"]: "P4"}
    real = harness.check_property

    def check(oracles_, which, params):
        if fail_at.get(write_graph6(oracles_.g)) == which:
            raise RuntimeError(f"{which} fails")
        return real(oracles_, which, params)

    monkeypatch.setattr(harness, "check_property", check)
    digests = set()
    for batch in (1, harness.BATCH):
        monkeypatch.setattr(harness, "BATCH", batch)
        report = verify_run(cfg)
        assert [(e["graph6"], e["stage"], e["error"])
                for e in report["errors"]] == [
            (clean[first]["graph6"], "pipeline", "RuntimeError: P5 fails"),
            (clean[later]["graph6"], "pipeline", "RuntimeError: P4 fails")]
        assert report["records"] == [r for i, r in enumerate(clean)
                                     if i not in (first, later)]
        digests.add(_digest(report))
    assert len(digests) == 1


@pytest.mark.parametrize("thm,params,members,found,digest", [
    ("THM1", {"t": 3}, 420, {}, "02b414cc9cab213b"),
    # P1 and P2 fail on THM2 members at t = 3: findings, pinned as they are
    ("THM2", {"s": 2, "t": 3, "k": 3}, 1038, {"P1": 135, "P2": 18},
     "b0187e9e68884e7a"),
    ("THM3", {"s": 3, "t": 3}, 871, {}, "5cf4f0a3e9e1c462"),
])
def test_t3_sweep_fingerprints_are_pinned(thm, params, members, found, digest):
    # The t = 3 sweeps at n <= 7, class and theorem at the same parameters:
    # their hypotheses hammer_plus(3), f1(3) and bowtie(3, 3) are what the
    # pattern memo shares most between the filter and the properties.
    cfg = RunConfig(source={"kind": "enumerate", "n_max": 7},
                    class_name=THEOREM_CLASS[thm], class_params=params,
                    theorem=thm, theorem_params=params,
                    properties=SWEEP_PROPERTIES[thm], chi_cap=16, chin_cap=12)
    report = verify_run(cfg)
    violations = sum(found.values())
    assert report["aggregates"] == {
        "graphs_scanned": 1252, "members_found": members,
        "violations": violations, "undecided": 0, "errors": 0}
    by_id = {}
    for v in report["violations"]:
        by_id[v["id"]] = by_id.get(v["id"], 0) + 1
    assert by_id == found
    assert hashlib.sha256(report_fingerprint(report).encode()).hexdigest()[
        :16] == digest


def test_d1_outside_its_hypothesis_is_not_undecided():
    # 196 graphs with n <= 6 have a diamond or an edge in fewer than two
    # triangles, so D1 reports holds None with hypothesis_ok False.  As a
    # holds False there would be no violation, that is no undecided result
    # either; with skip_membership both count.
    cfg = _no_class(2, 2, 2, ("D1",))
    report = verify_run(cfg)
    d1s = [r["properties"][0] for r in report["records"]]
    assert sum(d["holds"] is None and d["hypothesis_ok"] is False
               for d in d1s) == 196
    assert all(d["holds"] is True for d in d1s if d["hypothesis_ok"])
    assert report["aggregates"]["undecided"] == 0
    cfg.skip_membership = True
    assert verify_run(cfg)["aggregates"]["undecided"] == 196


def test_verify_run_searches_each_pattern_once_per_graph(monkeypatch):
    # The membership filter, the property hypotheses and the colorer's
    # membership check all ask detect.embedding, so in one run no (graph,
    # pattern rows) pair reaches a search twice: not find_induced, not the
    # diamond scan (the diamond's rows), not the fan finder.  P4 and P8
    # share the diamond, P5 and P6 the bowtie, P6 and P7 the path, and D1
    # takes its diamond witness from the same memo.
    real = {name: getattr(detect, name) for name in (
        "find_induced", "diamond_free_fast", "find_fan_triangles_diamond_free")}
    diamond_rows = diamond().adj
    searched, repeats = set(), []

    def note(host, rows):
        key = (host.adj, rows)
        if key in searched:
            repeats.append(key)
        searched.add(key)

    def find_induced(host, pattern):
        note(host, pattern.adj)
        return real["find_induced"](host, pattern)

    def diamond_free_fast(host):
        note(host, diamond_rows)
        return real["diamond_free_fast"](host)

    def fan_finder(host, l):
        note(host, make_pattern("fan_triangles", l=l).graph.adj)
        return real["find_fan_triangles_diamond_free"](host, l)

    monkeypatch.setattr(detect, "find_induced", find_induced)
    monkeypatch.setattr(detect, "diamond_free_fast", diamond_free_fast)
    monkeypatch.setattr(detect, "find_fan_triangles_diamond_free", fan_finder)
    runs = {thm: _sweep(thm, 6) for thm in SWEEP_PROPERTIES}
    runs.update({stk: _no_class(*stk)
                 for stk in ((2, 2, 2), (3, 3, 3), (3, 2, 2))})
    for name, cfg in runs.items():
        searched.clear()
        verify_run(cfg)
        assert searched, name
        assert repeats == [], name


def test_verify_graph_asks_the_clique_kernel_nothing_twice(monkeypatch):
    # One run asks each graph's questions once: no (adj, within) pair
    # reaches the clique kernel twice, no (adj, vertex set) reaches the exact
    # chromatic oracle twice, and no (adj, t, within) is decomposed twice.
    # Each question is keyed by its graph's adjacency rows, as a batch asks
    # its graphs' questions interleaved, before verify_graph is called.  A run
    # whose checks and colorer read no decomposition (THM5A, THM5B, D1
    # alone) decomposes nothing.  Left out: the P-property, whose chi^(t)
    # colors g again when omega <= t, and whose maximal-set search at
    # t >= 3 repeats its own omega tests.  chi_n is not reached here: P5-P7
    # take c = 1 at t = 2.
    real_kernel = kernels.clique_number_sub
    real_chromatic = oracles.chromatic_number
    real_decompose = decompose_module.decompose
    asked = {"kernel": set(), "chi": set(), "decompose": set()}
    calls = {"kernel": [], "chi": [], "decompose": []}
    repeats = []

    def note(kind, key):
        calls[kind].append(key)
        if key in asked[kind]:
            repeats.append((kind, key))
        asked[kind].add(key)

    def kernel(adj, cand, clique=None):
        note("kernel", (tuple(adj), cand))
        return real_kernel(adj, cand, clique)

    def chromatic_number(g, within, lower):
        note("chi", (tuple(g.adj), within))
        return real_chromatic(g, within, lower)

    def decompose(g, t, within, clique):
        note("decompose", (tuple(g.adj), t, within))
        return real_decompose(g, t, within, clique)

    monkeypatch.setattr(kernels, "clique_number_sub", kernel)
    monkeypatch.setattr(oracles, "chromatic_number", chromatic_number)
    monkeypatch.setattr(decompose_module, "decompose", decompose)
    runs = {thm: _sweep(thm, 6) for thm in SWEEP_PROPERTIES}
    runs["no class"] = _no_class(2, 2, 2, ("P1", "P2", "P3", "P4", "P5", "P6",
                                           "P7", "P8", "D1"))
    runs["D1 only"] = _no_class(2, 2, 2, ("D1",))
    counts = {}
    for name, cfg in runs.items():
        for seen in (*asked.values(), *calls.values()):
            seen.clear()
        verify_run(cfg)
        counts[name] = tuple(map(len, calls.values()))
        assert repeats == [], name
    # (clique-kernel, chromatic_number, decompose calls) per run.  Before
    # GraphOracles.clique() decided a whole graph of at most two vertices
    # with no search, the first was three higher: 223, 212, 220, 219, 208,
    # 208, 220 and 208 (one per graph with n <= 2).  Before
    # GraphOracles answered sets of at most two vertices with no search,
    # THM1 took (336, 152, 142), THM2 (219, 75, 81), THM3 (561, 362, 206),
    # THM4 (386, 153, 206), THM5A (211, 3, 0) and no class (370, 5, 208).
    # Before GraphOracles.chi decided chi = omega from first fit with no
    # search, the second was 282, 90, 560, 385, 15, 12, 370 and 208.
    # Before one GraphOracles served the whole call, the first two were
    # (347, 324), (219, 155), (635, 656), (398, 419), (211, 15), (208, 12)
    # and (491, 491).  Before it also held the decompositions, the third was
    # 178, 96, 296, 296, 12, 12 and 208, and 208 for D1 alone.  Before P4
    # left chi(T') out, THM1 took (347, 293) and THM4 (398, 397).
    assert counts == {"THM1": (220, 53, 142), "THM2": (209, 65, 81),
                      "THM3": (217, 46, 206), "THM4": (216, 44, 206),
                      "THM5A": (205, 0, 0), "THM5B": (205, 0, 0),
                      "no class": (217, 5, 208), "D1 only": (205, 5, 0)}
