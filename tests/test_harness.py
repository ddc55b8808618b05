import dataclasses
import json
import sys

import pytest

from chibound import color, detect
from chibound import decompose as decompose_module
from chibound import harness
from chibound.graph6 import parse_graph6, write_graph6
from chibound.harness import (ConfigError, RunConfig, exit_code_for,
                              report_fingerprint, verify_run, write_report)
from chibound.patterns import complete, diamond, path, pineapple


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


def test_pipeline_errors_name_stage_and_type(tmp_path, monkeypatch):
    path_ = tmp_path / "d.g6"
    path_.write_text(write_graph6(diamond()) + "\n")
    cfg = RunConfig(source={"kind": "graph6", "path": str(path_)},
                    properties=("P1",))

    def fail_decompose(g, t):
        raise ValueError("no clique")

    monkeypatch.setattr(harness, "decompose_auto", fail_decompose)
    report = verify_run(cfg)
    assert [(e["stage"], e["type"]) for e in report["errors"]] == [
        ("decompose", "ValueError")]
    assert report["records"][0]["decompose_error"] == "no clique"

    def fail_omega(g):
        raise KeyError("boom")

    monkeypatch.setattr(harness, "clique_number", fail_omega)
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
    # the witness re-verifies: it names a vertex of S on the same graph
    violation = report["violations"][0]
    g = parse_graph6(violation["graph6"])
    from chibound.decompose import decompose_auto
    dec = decompose_auto(g, 2)
    assert dec.s_set >> violation["witness"] & 1


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

    A non-member is skipped before chi is computed, so its record has no
    "chi" and, when it has more vertices than chi_cap, it is no longer
    counted as undecided (its chi used to be recorded as "capped").  With
    skip_membership every graph still gets chi.
    """
    path_ = tmp_path / "mix.g6"
    path_.write_text(write_graph6(diamond()) + "\n"
                     + write_graph6(path(3)) + "\n")
    seen = []
    real = harness.chromatic_number

    def counting(g, cap):
        seen.append(write_graph6(g))
        return real(g, cap=cap)

    monkeypatch.setattr(harness, "chromatic_number", counting)
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


def test_properties_of_one_graph_share_one_chi_up_to_t(monkeypatch):
    # P5, P6 and P7 at t = 3 need chi^(t) as well as the P-property itself.
    calls = []
    real = decompose_module.chi_n

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(decompose_module, "chi_n", counting)
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
