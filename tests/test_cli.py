import ast
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chibound
from chibound import cli, kernels, oracles
from chibound.cli import main
from chibound.color import THEOREMS
from chibound.decompose import a_nv, decompose
from chibound.graph import bits
from chibound.graph6 import write_graph6
from chibound.oracles import chromatic_number, clique_number, max_clique
from chibound.patterns import (bowtie, complete, diamond, gem, pineapple,
                               path as path_graph)
from chibound.smallgraphs import enumerate_small


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_ramsey(capsys):
    code, out = run(capsys, "ramsey", "3", "3")
    assert code == 0 and out.strip() == "6"


def test_patterns_list_and_emit(capsys):
    code, out = run(capsys, "patterns", "list")
    assert code == 0
    assert "bowtie" in out and "hammer_plus" in out
    code, out = run(capsys, "patterns", "emit", "bowtie", "--s", "2", "--t", "2")
    assert code == 0
    assert out.strip() == write_graph6(bowtie(2, 2))
    code, out = run(capsys, "patterns", "emit", "diamond", "--format", "dot")
    assert code == 0 and out.startswith("graph")


def test_detect_and_member(capsys, tmp_path):
    path = tmp_path / "in.g6"
    path.write_text(write_graph6(diamond()) + "\n" + write_graph6(gem()) + "\n")
    code, out = run(capsys, "detect", "diamond", "--in", str(path))
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows[0]["found"] is True and rows[1]["found"] is True
    code, out = run(capsys, "member", "--class", "diamond-free", "--in", str(path))
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows[0]["member"] is False and rows[1]["member"] is False


def test_decompose_chi_omega_chin(capsys, tmp_path):
    path = tmp_path / "p.g6"
    path.write_text(write_graph6(pineapple(4, 1)) + "\n")
    code, out = run(capsys, "decompose", "--t", "2", "--in", str(path))
    rec = json.loads(out)
    assert code == 0 and rec["K"] == [0, 1, 2, 3] and rec["T"] == [4]
    code, out = run(capsys, "decompose", "--t", "2", "--in", str(path),
                    "--clique", "0,1,2,3")
    assert code == 0 and json.loads(out)["K"] == [0, 1, 2, 3]
    code, out = run(capsys, "chi", "--in", str(path))
    assert json.loads(out)["chi"] == 4
    code, out = run(capsys, "omega", "--in", str(path))
    assert json.loads(out)["omega"] == 4
    code, out = run(capsys, "chin", "--n", "2", "--in", str(path))
    assert json.loads(out)["chin"] == 2
    # dumbbell(3,3): auto takes the lex-first maximum clique, and a given
    # maximum clique other than it is the one decomposed around
    path.write_text("ExCW\n")
    code, out = run(capsys, "decompose", "--t", "2", "--in", str(path))
    rec = json.loads(out)
    assert code == 0 and (rec["K"], rec["T"]) == ([0, 1, 2], [3])
    code, out = run(capsys, "decompose", "--t", "2", "--in", str(path),
                    "--clique", "3,4,5")
    rec = json.loads(out)
    assert code == 0 and (rec["K"], rec["T"]) == ([3, 4, 5], [2])


def _decompose_record(i, g, t, dec):
    """The record chibound decompose prints for dec."""
    return {"graph": i, "graph6": write_graph6(g), "t": t,
            "K": list(bits(dec.k)), "S": list(bits(dec.s_set)),
            "T": list(bits(dec.t_set)), "S_prime": list(bits(dec.s_prime)),
            "T_prime": list(bits(dec.t_prime)),
            "residual": list(bits(dec.residual)),
            "a_m": {str(list(bits(m))): list(bits(a))
                    for m, a in sorted(dec.a_m.items())},
            "a_nv": {f"{list(bits(n))},{v}": list(bits(a))
                     for (n, v), a in sorted(a_nv(g, dec).items())}}


def test_scalar_and_decompose_records_equal_the_plain_oracles(capsys,
                                                              tmp_path):
    # chi, omega, chin and decompose ask each graph's GraphOracles; on every
    # graph with n <= 6 their records are the plain searches' answers: chi
    # and its coloring from chromatic_number, omega from clique_number,
    # chi^(n) as the largest chromatic_number over the vertex sets with
    # omega <= n, and the decomposition around the lex-first maximum clique
    # (auto) or around that clique given by --clique.
    graphs = list(enumerate_small(6))
    path = tmp_path / "all6.g6"
    path.write_text("".join(write_graph6(g) + "\n" for g in graphs))

    def records(*argv):
        code, out = run(capsys, *argv, "--in", str(path))
        assert code == 0, argv
        return [json.loads(line) for line in out.splitlines()]

    heads = [{"graph": i, "graph6": write_graph6(g)}
             for i, g in enumerate(graphs)]
    chis = [chromatic_number(g) for g in graphs]
    assert records("chi") == [{**head, "chi": chi, "coloring": coloring}
                              for head, (chi, coloring) in zip(heads, chis)]
    assert records("omega") == [{**head, "omega": clique_number(g)}
                                for head, g in zip(heads, graphs)]
    for n in (2, 3):
        want = [{**head, "chin": max(
            (chromatic_number(g, within=mask)[0]
             for mask in range(1 << g.n) if clique_number(g, mask) <= n)),
            "n": n} for head, g in zip(heads, graphs)]
        assert records("chin", "--n", str(n)) == want, n
    decs = {t: [decompose(g, t, g.full_mask(), max_clique(g)) for g in graphs]
            for t in (2, 3)}
    for t, dec in decs.items():
        assert records("decompose", "--t", str(t)) == [
            _decompose_record(i, g, t, d)
            for i, (g, d) in enumerate(zip(graphs, dec))], t
    for g, dec in zip(graphs, decs[2]):
        path.write_text(write_graph6(g) + "\n")
        clique = ",".join(map(str, bits(max_clique(g))))
        assert records("decompose", "--t", "2", "--clique", clique) == [
            _decompose_record(0, g, 2, dec)]


def test_chi_over_the_cap_searches_nothing(capsys, tmp_path, monkeypatch):
    # K9,9 has more vertices than the chi cap: chibound chi reports it
    # capped, exits 0 and never asks the clique kernel.
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    real = kernels.clique_number_sub
    monkeypatch.setattr(kernels, "clique_number_sub", counting)
    k99 = "Q??????~~~^{~w~w^{F~?~wB~_?"
    path = tmp_path / "k99.g6"
    path.write_text(k99 + "\n")
    code, out = run(capsys, "chi", "--in", str(path))
    assert code == 0 and calls == []
    assert json.loads(out) == {
        "graph": 0, "graph6": k99,
        "capped": "chromatic_number: graph has 18 vertices, "
                  f"exact-oracle cap is {oracles.DEFAULT_CHI_CAP}"}


def test_chin_rejects_a_negative_n_before_its_cap(capsys, tmp_path):
    # chin --n -1 is an argument error, exit 1 with one error line, for a
    # graph under chin_cap and for one over it alike.
    path = tmp_path / "g.g6"
    for n in (5, oracles.DEFAULT_CHIN_CAP + 1):
        path.write_text(write_graph6(path_graph(n)) + "\n")
        assert main(["chin", "--n", "-1", "--in", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n must be nonnegative\n"
    code, out = run(capsys, "chin", "--n", "2", "--in", str(path))
    assert code == 0 and json.loads(out)["capped"] == (
        f"chi_n: graph has {oracles.DEFAULT_CHIN_CAP + 1} vertices, "
        f"exact-oracle cap is {oracles.DEFAULT_CHIN_CAP}")


@pytest.mark.parametrize("clique", ["1,4", "0,4", "0,1,2", "0,9", "0,-1", ",",
                                    "0,x"])
def test_decompose_cli_rejects_bad_clique(tmp_path, monkeypatch, capsys,
                                          clique):
    # decompose takes its clique on trust: the CLI checks a user's clique
    # before decompose is called, and fails with one error line.  1,4 is no
    # clique, 0,4 and 0,1,2 are not maximum, and the first entry that is
    # not a vertex of pineapple(4,1) is named.
    bad = [x for x in clique.split(",") if x not in ("0", "1", "2", "3", "4")]
    error = (f"--clique entry {bad[0]!r} is not a vertex of graph 0" if bad
             else "--clique is not a maximum clique of graph 0")
    path = tmp_path / "p.g6"
    path.write_text(write_graph6(pineapple(4, 1)) + "\n")
    argv = ["decompose", "--t", "2", "--in", str(path), "--clique", clique]
    proc = subprocess.run([sys.executable, "-m", "chibound.cli", *argv],
                          env=_env_with_src(), capture_output=True, text=True,
                          timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: {error}\n"

    def unreachable(*args, **kwargs):
        raise AssertionError("decompose called on an unchecked clique")

    monkeypatch.setattr(cli, "decompose", unreachable)
    assert run(capsys, *argv) == (1, "")


def test_color_subcommand(capsys, tmp_path):
    path = tmp_path / "p.g6"
    path.write_text(write_graph6(pineapple(4, 1)) + "\n")
    code, out = run(capsys, "color", "--theorem", "THM1", "--t", "2",
                    "--in", str(path))
    rec = json.loads(out)
    assert code == 0
    assert rec["within_bound"] is True
    assert len(rec["coloring"]) == 5


def test_color_over_the_oracle_cap_is_undecided(capsys, tmp_path):
    # K9,9 is a THM4 member with 18 vertices, over the exact oracle's cap:
    # color reports it undecided and exits 0, as chi, chin and verify do.
    # P5, a non-member, still exits 1.
    k99 = "Q??????~~~^{~w~w^{F~?~wB~_?"
    path = tmp_path / "k99.g6"
    path.write_text(k99 + "\n")
    code, out = run(capsys, "color", "--theorem", "THM4", "--in", str(path))
    assert code == 0
    assert json.loads(out) == {
        "graph": 0, "graph6": k99, "theorem": "THM4",
        "undecided": "chromatic_number: graph has 18 vertices, "
                     f"exact-oracle cap is {oracles.DEFAULT_CHI_CAP}"}
    path.write_text(k99 + "\n" + write_graph6(path_graph(5)) + "\n")
    code, out = run(capsys, "color", "--theorem", "THM4", "--in", str(path))
    undecided, rejected = map(json.loads, out.splitlines())
    assert code == 1 and "undecided" in undecided
    assert rejected["error"].startswith("MembershipError")


def test_color_bound_miss_exits_two(capsys, tmp_path, monkeypatch):
    path = tmp_path / "p.g6"
    path.write_text(write_graph6(pineapple(4, 1)) + "\n")
    monkeypatch.setitem(THEOREMS, "THM1", dataclasses.replace(
        THEOREMS["THM1"], bound=lambda omega, c, t: omega - 1))
    code, out = run(capsys, "color", "--theorem", "THM1", "--in", str(path))
    assert code == 2
    rec = json.loads(out)
    assert rec["within_bound"] is False and rec["bound_value"] == 3


def test_parameter_outside_the_domain_exits_one(capsys, tmp_path):
    path = tmp_path / "p.g6"
    path.write_text(write_graph6(pineapple(4, 1)) + "\n")
    for argv in (["color", "--theorem", "THM1", "--in", str(path)],
                 ["sweep", "--theorem", "THM1", "--nmax", "4"],
                 ["member", "--class", "thm1", "--in", str(path)]):
        assert main([*argv, "--t", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: theorem THM1 takes an int t >= 2, not t=1\n"


@pytest.mark.parametrize("config", [
    {"source": {"kind": "enumerate", "n_max": 4}, "class_name": "thm4",
     "class_params": [1]},
    {"source": {"kind": "enumerate", "n_max": 4}, "properties": None},
    {"source": {"kind": "graph6"}},
    {"source": {"kind": "enumerate", "n_max": "x"}},
    {"source": {"kind": "enumerate", "n_max": 9}},
    None,
    5,
])
def test_bad_config_fails_before_any_output(capsys, tmp_path, config):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    assert main(["verify", "--config", str(cfgfile), "--out", str(out)]) == 1
    stdout, err = capsys.readouterr()
    assert not out.exists() and stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _env_with_src(**extra):
    """The environment of a child interpreter that imports this checkout."""
    src = str(Path(chibound.__file__).resolve().parent.parent)
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_env_chi_cap_applies_to_chi_command(tmp_path):
    path = tmp_path / "k6.g6"
    path.write_text(write_graph6(complete(6)) + "\n")
    env = _env_with_src(CHIBOUND_CHI_CAP="3")
    proc = subprocess.run(
        [sys.executable, "-m", "chibound.cli", "chi", "--in", str(path)],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(proc.stdout)
    assert "chi" not in rec
    assert "cap is 3" in rec["capped"]


@pytest.mark.parametrize("var", ["CHIBOUND_CHI_CAP", "CHIBOUND_CHIN_CAP"])
@pytest.mark.parametrize("value", ["abc", "0"])
def test_invalid_env_cap_fails_every_command_before_input(tmp_path, var,
                                                         value):
    # the input file does not exist: a command that read it would fail on it
    missing = str(tmp_path / "missing.g6")
    env = _env_with_src(**{var: value})
    for argv in (["chi", "--in", missing],
                 ["chin", "--n", "2", "--in", missing],
                 ["color", "--theorem", "THM4", "--in", missing],
                 ["sweep", "--theorem", "THM4", "--nmax", "3"]):
        proc = subprocess.run(
            [sys.executable, "-m", "chibound.cli", *argv],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1, (argv, proc.stderr)
        assert proc.stdout == ""
        assert proc.stderr == (
            f"error: {var} must be a positive int, not {value!r}\n"), argv


def test_cap_error_fails_main_before_its_command(capsys, monkeypatch):
    monkeypatch.setattr(cli, "CAP_ERROR", "CHIBOUND_CHI_CAP must be a "
                        "positive int, not 'abc'")
    assert main(["ramsey", "3", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: CHIBOUND_CHI_CAP must be a positive int, not 'abc'\n"


def test_env_caps_read_both_variables_without_raising():
    assert oracles._env_caps({}) == (16, 12, "")
    assert oracles._env_caps({"CHIBOUND_CHI_CAP": "9",
                              "CHIBOUND_CHIN_CAP": "7"}) == (9, 7, "")
    assert oracles._env_caps({"CHIBOUND_CHI_CAP": "-2",
                              "CHIBOUND_CHIN_CAP": "x"}) == (
        0, 0, "CHIBOUND_CHI_CAP must be a positive int, not '-2'; "
              "CHIBOUND_CHIN_CAP must be a positive int, not 'x'")


def test_import_leaves_numpy_unloaded():
    # numpy was most of the cold import time and of the resident memory.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, chibound.cli; print('numpy' in sys.modules)"],
        env=_env_with_src(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_src_holds_no_test_only_code():
    # Every top-level function and class of the package is used by the
    # package itself; references that only the tests need live in tests/.
    # report_fingerprint defines which report fields are timing.
    trees = [ast.parse(path.read_text())
             for path in Path(chibound.__file__).parent.glob("*.py")]
    defined, used = set(), set()
    for tree in trees:
        defined.update(node.name for node in tree.body if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(defined - used - {"report_fingerprint"}) == []


def test_verify_and_sweep(capsys, tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "source": {"kind": "enumerate", "n_max": 4},
        "class_name": "thm4", "theorem": "THM4", "properties": ["P4"],
    }))
    out_path = tmp_path / "report.json"
    code, out = run(capsys, "verify", "--config", str(cfgfile),
                    "--out", str(out_path))
    assert code == 0
    assert json.loads(out)["violations"] == 0
    assert json.loads(out_path.read_text())["schema_version"] == 1
    code, out = run(capsys, "sweep", "--theorem", "THM4", "--nmax", "4")
    assert code == 0
    report = json.loads(out)
    assert report["aggregates"]["violations"] == 0


def test_unknown_parameter_flags_exit_one(capsys, tmp_path):
    path = tmp_path / "p.g6"
    path.write_text(write_graph6(pineapple(4, 1)) + "\n")
    for command, rest in (("sweep", ["--nmax", "4"]),
                          ("color", ["--in", str(path)]),
                          ("member", ["--in", str(path)])):
        select = "--class" if command == "member" else "--theorem"
        for thm, t, code in (("THM4", "3", 1), ("THM1", "2", 0)):
            name = thm.lower() if command == "member" else thm
            assert main([command, select, name, *rest, "--t", t]) == code
            err = capsys.readouterr().err
            if code:
                assert "not ['t']" in err, (command, err)
    with pytest.raises(ValueError, match=r"THM4 takes \[\], not \['t'\]"):
        THEOREMS["THM4"].spec(t=3)
    assert main(["patterns", "emit", "diamond", "--t", "3"]) == 1
    assert main(["detect", "diamond", "--in", str(path), "--t", "3"]) == 1
    assert main(["detect", "bowtie", "--in", str(path), "--s", "2",
                 "--t", "2"]) == 0


def test_negative_fixture_exit_code(capsys, tmp_path):
    cfgfile = tmp_path / "bad.json"
    gfile = tmp_path / "d.g6"
    gfile.write_text(write_graph6(diamond()) + "\n")
    cfgfile.write_text(json.dumps({
        "source": {"kind": "graph6", "path": str(gfile)},
        "properties": ["P1"], "skip_membership": True,
    }))
    code, out = run(capsys, "verify", "--config", str(cfgfile))
    assert code == 2


def test_bad_usage(capsys):
    assert main(["frobnicate"]) == 1
    assert main(["patterns", "emit", "bowtie"]) == 1   # missing params
    assert main(["verify", "--config", "/nonexistent.json"]) == 1


def test_a_byte_that_is_not_utf8_is_named_with_its_line(capsys, tmp_path):
    # line 1 is K5 and line 2 holds the byte 0xff: omega fails with the
    # line, and verify scans line 1 and records line 2 as a source error
    gfile = tmp_path / "mixed.g6"
    gfile.write_bytes(b"D~{\nA\xff\n")
    message = "line 2: non-ASCII byte 0xff (byte offset 1)"
    assert main(["omega", "--in", str(gfile)]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"source": {"kind": "graph6",
                                              "path": str(gfile)}}))
    report_file = tmp_path / "report.json"
    assert main(["verify", "--config", str(cfgfile),
                 "--out", str(report_file)]) == 1
    report = json.loads(report_file.read_text())
    assert report["aggregates"]["graphs_scanned"] == 1
    assert [rec["graph6"] for rec in report["records"]] == ["D~{"]
    assert report["errors"] == [{"stage": "source", "type": "Graph6Error",
                                 "error": f"Graph6Error: {message}"}]
