import hashlib
import json
import re
from itertools import product

import networkx as nx
import pytest

from chibound import color, oracles
from chibound.classes import THEOREM_CLASS, get_class
from chibound.cli import main
from chibound.color import (MembershipError, StructureViolation, THEOREMS,
                            color_checked, color_thm1, color_thm2, color_thm3,
                            color_thm4, color_thm5a, verify_thm5b)
from chibound.detect import is_member
from chibound.graph import from_edges, mask_of
from chibound.graph6 import parse_graph6, write_graph6
from chibound.harness import RunConfig, verify_run
from chibound.decompose import check_property
from chibound.oracles import (GraphOracles, chromatic_number, clique_number,
                              is_proper)
from chibound.patterns import (complete, diamond, dumbbell, gem, path,
                               pineapple)
from chibound.smallgraphs import enumerate_small, sample_in_class
from reference import (G37_CORE, chromatic_number_inclusion_exclusion, g37,
                       induced_subgraph, q43, rook, to_nx, w3)


def _fan(blades, clique_size):
    """`blades` cliques of K_{clique_size} sharing vertex 0."""
    edges = []
    base = 1
    for _ in range(blades):
        verts = [0] + list(range(base, base + clique_size - 1))
        edges += [(a, b) for i, a in enumerate(verts) for b in verts[i + 1:]]
        base += clique_size - 1
    return from_edges(base, edges)


def _assert_valid(g, cert):
    colors = [cert.coloring[v] for v in range(g.n)]
    assert is_proper(g, colors)
    assert cert.palette_used == (max(colors) if colors else 0)
    assert cert.palette_used <= cert.bound_value
    chi, _ = chromatic_number(g)
    assert chi <= cert.palette_used


def test_thm1_pineapple():
    g = pineapple(4, 1)
    cert = color_thm1(GraphOracles(g), t=2)
    _assert_valid(g, cert)
    assert cert.omega == 4


def test_thm1_rejects_diamond():
    with pytest.raises(MembershipError):
        color_checked("THM1", GraphOracles(diamond()),
                      THEOREMS["THM1"].spec(t=2))


def test_thm4_gem_and_base_case():
    cert = color_thm4(GraphOracles(gem()))
    _assert_valid(gem(), cert)
    # omega < 3 members go straight to the oracle with a note
    cert2 = color_thm4(GraphOracles(path(4)))
    _assert_valid(path(4), cert2)
    assert any("omega >= 3" in n for n in cert2.notes)


def test_thm4_rejects_p5():
    with pytest.raises(MembershipError):
        color_checked("THM4", GraphOracles(path(5)))


def test_thm3_gem():
    cert = color_thm3(GraphOracles(gem()), 2, 2)
    _assert_valid(gem(), cert)


def test_thm2_complete_graph():
    cert = color_thm2(GraphOracles(complete(5)), 2, 2, 2, "f1")
    _assert_valid(complete(5), cert)
    assert cert.details["lift_checks"] >= 5


def test_thm2_rejects_bad_y():
    with pytest.raises(ValueError):
        THEOREMS["THM2"].spec(y="f3")


@pytest.mark.parametrize("thm,name,least", [
    ("THM1", "t", 2), ("THM2", "s", 2), ("THM2", "t", 2), ("THM2", "k", 2),
    ("THM3", "s", 2), ("THM3", "t", 2), ("THM5A", "k", 1),
])
def test_spec_checks_each_parameter_domain(thm, name, least):
    case = THEOREMS[thm]
    assert case.spec(**{name: least}).params[name] == least
    for bad in (least - 1, str(least + 1), True, float(least + 1)):
        with pytest.raises(ValueError, match=re.escape(
                f"theorem {thm} takes an int {name} >= {least}, "
                f"not {name}={bad!r}")):
            case.spec(**{name: bad})
    with pytest.raises(ValueError, match=re.escape(
            "theorem THM2 takes y in ('f1', 'f2'), not y='f3'")):
        THEOREMS["THM2"].spec(y="f3")


def test_thm5b_fans():
    g = _fan(2, 4)
    cert = verify_thm5b(GraphOracles(g))
    _assert_valid(g, cert)
    assert cert.palette_used == cert.omega == 4


@pytest.mark.parametrize("g", [_fan(2, 4), complete(17)], ids=["fan", "K17"])
def test_thm5b_proper_omega_coloring_needs_no_oracle(g, monkeypatch):
    # A proper coloring with omega colors proves chi = omega, also above the
    # oracle cap (K17 has 17 > 16 vertices).
    def no_oracle(*args, **kwargs):
        raise AssertionError("verify_thm5b ran the exact oracle")

    monkeypatch.setattr(oracles, "chromatic_number", no_oracle)
    cert = verify_thm5b(GraphOracles(g, chi_cap=16))
    assert cert.palette_used == cert.omega
    assert cert.notes == [f"proper coloring with omega = {cert.omega} "
                          "colors: chi = omega"]


def test_thm5b_rejects_forbidden_dumbbell():
    # two K4s, two clique vertices each carrying a blade, plus the joining
    # edge: exactly the forbidden (4,4)-dumbbell configuration
    edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    edges += [(a, b) for a in range(4, 8) for b in range(a + 1, 8)]
    edges += [(0, 4)]
    g = from_edges(8, edges)
    with pytest.raises(MembershipError) as exc:
        color_checked("THM5B", GraphOracles(g))
    assert "dumbbell" in str(exc.value)


def test_thm5a_fan():
    g = _fan(2, 5)
    cert = color_thm5a(GraphOracles(g), k=3)
    _assert_valid(g, cert)
    assert cert.omega == 5


def test_thm5a_rejects_small_omega():
    with pytest.raises(MembershipError):
        color_thm5a(GraphOracles(complete(3)), k=2)


def test_canvas_refuses_a_second_paint_and_an_uncolored_vertex():
    canvas = color._Canvas(GraphOracles(path(3)))
    canvas.paint(0, 1, "K", 0)
    with pytest.raises(RuntimeError, match="vertex 0 colored twice"):
        canvas.paint(0, 2, "K", 0)
    canvas.paint(1, 2, "K", 0)
    # vertex 2 is uncolored: is_proper refuses the partial coloring
    with pytest.raises(ValueError, match="assign a color to every vertex"):
        canvas.certificate("THM4", None, {})


def test_certificates_are_deterministic():
    g = pineapple(4, 1)
    a = color_thm1(GraphOracles(g), t=2)
    b = color_thm1(GraphOracles(g), t=2)
    assert a.coloring == b.coloring and a.trace == b.trace


def test_certificate_to_dict():
    cert = color_thm4(GraphOracles(gem()))
    d = cert.to_dict()
    assert d["theorem"] == "THM4"
    assert d["within_bound"] is True
    assert set(d["coloring"]) == {str(v) for v in range(5)}


# Each theorem's parameter grid for the bound checks below.
_BOUND_GRID = {"THM1": {"t": (2, 3, 4)},
               "THM2": {"s": (2, 3), "t": (2, 3, 4), "k": (2, 3),
                        "y": ("f1", "f2")},
               "THM3": {"s": (2, 3), "t": (2, 3, 4)}, "THM4": {},
               "THM5A": {"k": (1, 2, 3)}, "THM5B": {}}


@pytest.mark.parametrize("thm", sorted(THEOREMS))
def test_registry_bounds_monotone_in_omega(thm):
    # Every bound is nondecreasing in omega and in c, over omega 1..13 and
    # c 0..11 at each point of the grid (5,928 cells over the six
    # theorems): a palette within f(omega, c) is then within f(omega, c')
    # for every c' >= c.
    grid = _BOUND_GRID[thm]
    for values in product(*grid.values()):
        params = dict(zip(grid, values))
        table = [[THEOREMS[thm].bound(omega, c, **params) for c in range(12)]
                 for omega in range(1, 14)]
        for line in (*table, *zip(*table)):
            assert list(line) == sorted(line), (params, line)


@pytest.mark.parametrize("thm,params", [
    ("THM1", {"t": 2}), ("THM3", {"s": 2, "t": 2}), ("THM4", {}),
    ("THM2", {}), ("THM5A", {}), ("THM5B", {}),
])
def test_colorers_over_enumerated_members(thm, params):
    case = THEOREMS[thm]
    spec = get_class(THEOREM_CLASS[thm], **params)
    seen = 0
    omegas = set()
    for g in enumerate_small(6):
        if not is_member(g, spec):
            continue
        if thm == "THM5A" and clique_number(g) < 4:
            # omega >= 4 is a hypothesis of the colorer, not of the class
            with pytest.raises(MembershipError):
                case.colorer(GraphOracles(g), **spec.params)
            continue
        cert = case.colorer(GraphOracles(g), **spec.params)
        _assert_valid(g, cert)
        assert cert.omega == clique_number(g)
        assert cert.bound_value == case.bound(cert.omega, cert.c_value or 0,
                                              **spec.params)
        omegas.add(cert.omega)
        seen += 1
    assert seen > {"THM5A": 5, "THM5B": 10}.get(thm, 50)
    if thm == "THM2":
        # both bound branches: omega < 2t - 1 and omega >= 2t - 1
        assert min(omegas) < 3 <= max(omegas)


@pytest.fixture(scope="module")
def small_7():
    return list(enumerate_small(7))


@pytest.mark.parametrize("thm,members,certified", [
    ("THM1", 396, 396), ("THM2", 203, 203), ("THM3", 737, 737),
    ("THM4", 737, 737), ("THM5A", 17, 10), ("THM5B", 18, 18)])
def test_given_clique_changes_no_certificate(thm, members, certified, small_7):
    # verify_graph hands the colorer a GraphOracles whose clique, chi(G),
    # decomposition at t = 2 and block colorings from the property checks
    # are found already; a colorer run on a fresh one finds them itself.  Both give
    # the same certificate (coloring, trace, notes, details) on every
    # member with n <= 7, and a third run on the used object too.
    def outcome(oracles):
        try:
            return color_checked(thm, oracles, spec)
        except MembershipError as exc:   # THM5A's omega >= 4
            return str(exc)

    spec = THEOREMS[thm].spec()
    seen = certs = 0
    for g in small_7:
        if is_member(g, spec):
            seen += 1
            cert = outcome(GraphOracles(g))
            given = GraphOracles(g)
            given.chi()
            for which in ("P4", "P5", "P6", "P7", "P8"):
                check_property(given, which)
            assert cert == outcome(given) == outcome(given), write_graph6(g)
            certs += not isinstance(cert, str)
    assert (seen, certs) == (members, certified)


def test_thm2_t_lift_at_t3_is_pinned(small_7):
    # At the defaults no THM2 member with n <= 8 reaches the lift of its T
    # groups; at (s, t, k) = (2, 3, 3) sixteen members with n <= 7 do.  The
    # digest pins their certificates, colorings and traces included.
    spec = THEOREMS["THM2"].spec(s=2, t=3, k=3)
    certs = [color_checked("THM2", GraphOracles(g), spec)
             for g in small_7 if is_member(g, spec)]
    assert all(cert.within_bound for cert in certs)
    reached = {lbl: sum(any(l == lbl for _, l, _ in cert.trace)
                        for cert in certs) for lbl in ("K-lift", "T-lift")}
    assert (len(certs), reached) == (1038, {"K-lift": 23, "T-lift": 16})
    digest = hashlib.sha256(json.dumps([cert.to_dict() for cert in certs],
                                       sort_keys=True).encode())
    assert digest.hexdigest() == ("72ca82d5a1ce0137b6ca2db2e41fad55"
                                  "0fc4a6a8e74609df7c25b9ace5ec7c9f")


def test_thm2_over_sampled_members():
    spec = get_class("thm2", s=2, t=2, k=2, y="f2")
    for g in sample_in_class(spec, 8, 0.35, seed=5, count=25):
        cert = color_thm2(GraphOracles(g), 2, 2, 2, "f2")
        _assert_valid(g, cert)


def test_thm5b_and_d1_outcomes_are_pinned():
    # verify_thm5b's certificate, coloring and trace included, or its
    # StructureViolation, and the D1 report on 43 graphs: the 27 THM5B
    # members with n <= 8, AC-6's 12 fans, K4 x K4, K5 x K5, W(3) and
    # Q(4,3).  Report fingerprints leave colorings out, so this digest pins
    # them; it was taken while both still searched every fan for an edge
    # between two blades.
    spec = THEOREMS["THM5B"].spec()
    graphs = [g for g in enumerate_small(8) if is_member(g, spec)]
    graphs += [_fan(f, c) for c in (4, 5, 6) for f in (1, 2, 3, 4)]
    graphs += [rook(4), rook(5), w3(), q43()]
    outcomes = []
    for g in graphs:
        try:
            cert = verify_thm5b(GraphOracles(g)).to_dict()
        except StructureViolation as exc:
            cert = str(exc)
        outcomes.append([cert, check_property(GraphOracles(g), "D1").to_dict()])
    digest = hashlib.sha256(json.dumps(outcomes, sort_keys=True).encode())
    assert len(graphs) == 43
    assert digest.hexdigest() == ("0827fa4c9e6d082cbf257871c273cc06"
                                  "ead432c88c3e9cfe428bf4eeef9b9662")


def test_thm5b_structural_violation_is_raised_not_swallowed(monkeypatch):
    # K4 x K4 fails the carrier claim, which raises.  Given only its four
    # disjoint row cliques, no vertex carries two and the greedy coloring
    # leaves the column edges improper: the certificate refuses it.
    g = rook(4)
    with pytest.raises(StructureViolation, match="carry outside blades"):
        verify_thm5b(GraphOracles(g))
    rows = tuple(0b1111 << 4 * r for r in range(4))
    monkeypatch.setattr(color, "edge_clique_partition", lambda g: rows)
    with pytest.raises(RuntimeError, match="certificate coloring is not proper"):
        verify_thm5b(GraphOracles(g))
    # THM5A at k = 1, off its class, has alpha = 0: the degree claim fails.
    with pytest.raises(StructureViolation, match="degree claim") as exc:
        color_thm5a(GraphOracles(parse_graph6("EJ]w")), k=1)
    assert exc.value.witness["alpha"] == 0


_PENDANT_PATH = from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5)])
_S_EDGE = parse_graph6("E~Kw")    # K4 and an edge, both ends seeing 2 and 3


@pytest.mark.parametrize("colorer,g,claim,witness,lemma", [
    (lambda o: color_thm1(o, 2), diamond(),
     "S must be empty in diamond-free graphs", [3], ("P1", 2)),
    (lambda o: color_thm1(o, 3), _S_EDGE,
     "S must be empty in diamond-free graphs", [4, 5], ("P1", 3)),
    (lambda o: color_thm1(o, 2),
     from_edges(7, [(0, 1), (0, 6), (1, 6), (2, 4), (2, 5), (2, 6), (3, 4),
                    (3, 5), (3, 6), (4, 6), (5, 6)]),
     "components of A'(N,v) have at most omega vertices", [2, 3, 4, 5], None),
    (lambda o: color_thm1(o, 2),
     from_edges(8, [(0, 1), (0, 6), (1, 6), (2, 4), (2, 5), (2, 7), (3, 4),
                    (3, 5), (3, 7), (4, 7), (5, 7), (6, 7)]),
     "components of T' have at most omega vertices", [2, 3, 4, 5], ("P4", 2)),
    (lambda o: color_thm1(o, 2), _PENDANT_PATH,
     "every vertex of a component lies in K, S, T, S' or T'", [5], None),
    (lambda o: color_thm3(o, 2, 2), _PENDANT_PATH,
     "every vertex of a component lies in K, S, T, S' or T'", [5], None),
    (color_thm4, from_edges(5, [(0, 3), (0, 4), (1, 2), (1, 4), (2, 4), (3, 4)]),
     "A'(N,v) is edgeless for (2,2)-bowtie-free graphs", [1, 2], None),
    (color_thm4, from_edges(6, [(0, 3), (0, 4), (1, 2), (1, 5), (2, 5), (3, 4),
                                (3, 5), (4, 5)]),
     "S' is edgeless for {P5, (2,2)-bowtie}-free graphs", [1, 2], None),
    (color_thm4, from_edges(6, [(0, 3), (0, 5), (1, 2), (1, 4), (2, 4), (3, 5),
                                (4, 5)]),
     "T' is edgeless for {P5, (3,3)-dumbbell}-free graphs", [1, 2], None),
    (color_thm4, _PENDANT_PATH,
     "every vertex of a component lies in K, S, T, S' or T'", [5], None),
], ids=["THM1-S", "THM1-S-t3", "THM1-A'", "THM1-T'", "THM1-residual",
        "THM3-residual", "THM4-A'", "THM4-S'", "THM4-T'", "THM4-residual"])
def test_colorer_claims_fail_on_non_members(colorer, g, claim, witness, lemma):
    # Each claim of the K-layer colorers raises on a graph outside its class
    # (found by search over all graphs on at most 8 vertices), with the
    # failing component as the witness.  P1 and P4 are THM1's S and T'
    # lemmas: on the same graph at the same t they fail with the same claim,
    # as their note, and the same witness.
    with pytest.raises(StructureViolation) as exc:
        colorer(GraphOracles(g))
    assert (exc.value.claim, exc.value.witness) == (claim, witness)
    if lemma is not None:
        which, t = lemma
        rep = check_property(GraphOracles(g), which, {"t": t})
        assert (rep.holds, rep.notes, rep.witness) == (False, claim, witness)


@pytest.mark.parametrize("q,chi", [(4, 4), (5, "capped")])
def test_thm5b_carrier_claim_fails_on_rook_graphs(q, chi, tmp_path, capsys):
    # Kq x Kq is in the THM5B class, and every vertex carries two maximal
    # cliques, so the verifier's "one carrier per clique" claim fails while
    # chi = omega = q holds (K5 x K5 has more vertices than the oracle cap):
    # the report has the structural violation and no chi-bound one.
    g = rook(q)
    if q == 4:
        assert g == parse_graph6("O~`HW}GPHDaNaGPCcPWaN")
    assert is_member(g, get_class("thm5b"))
    with pytest.raises(StructureViolation) as exc:
        verify_thm5b(GraphOracles(g, chi_cap=16))
    assert exc.value.witness["omega"] == q
    path_ = tmp_path / "rook.g6"
    path_.write_text(write_graph6(g) + "\n")
    report = verify_run(RunConfig(source={"kind": "graph6", "path": str(path_)},
                                  class_name="thm5b", theorem="THM5B",
                                  chi_cap=16))
    assert report["records"][0]["chi"] == chi
    assert [v["kind"] for v in report["violations"]] == ["structural"]
    assert main(["color", "--theorem", "THM5B", "--in", str(path_)]) == 2
    assert capsys.readouterr().out.count("StructureViolation") == 1


def test_g37_is_a_thm5b_member_with_chi_5_proved_without_dsatur():
    # G37 refutes THM5B's chi = omega as W(3) and Q(4,3) do, at n = 37.
    # networkx confirms its membership independently.  chi <= 5 is
    # DSATUR's coloring, which is_proper checks; chi >= 5 needs no DSATUR:
    # G37_CORE induces a subgraph with omega = 4 that inclusion-exclusion
    # finds 5-chromatic, and that is 4-colorable once any vertex goes.
    g = g37()
    assert (g.n, g.num_edges()) == (37, 162)
    assert is_member(g, get_class("thm5b"))
    assert clique_number(g) == 4
    chi, coloring = GraphOracles(g, chi_cap=64).coloring()
    assert chi == 5 and is_proper(g, coloring)
    h = to_nx(g)
    for pattern in (diamond(), dumbbell(4, 4)):
        assert not nx.algorithms.isomorphism.GraphMatcher(
            h, to_nx(pattern)).subgraph_is_isomorphic()
    assert all(len(list(nx.common_neighbors(h, u, v))) >= 2
               for u, v in h.edges())
    core, _ = induced_subgraph(g, mask_of(G37_CORE))
    assert clique_number(core) == 4
    assert chromatic_number_inclusion_exclusion(core) == 5
    for v in range(core.n):
        rest = core.full_mask() & ~(1 << v)
        assert chromatic_number(core, rest)[0] == 4


@pytest.mark.parametrize("build,chi,thm5a_palette",
                         [(w3, 6, 42), (q43, 5, 41)], ids=["W(3)", "Q(4,3)"])
def test_thm5b_bound_fails_on_generalized_quadrangles(build, chi,
                                                      thm5a_palette, tmp_path,
                                                      monkeypatch):
    # The point graphs of the generalized quadrangles W(3) and Q(4,3) lie in
    # the THM5B class, yet chi > omega = 4: THM5B's chi = omega, as encoded,
    # is refuted.  The verifier stops at its carrier claim first, and the
    # report checks the exact chi against the bound all the same.
    g = build()
    if build is w3:
        assert write_graph6(g) == (
            "g?}KYOgEAQBAIG{?OMK?^OcobD?dQAHIOTBAHEPF_??OM?N_BbbOchICWcX?dPOoPHC"
            "eOTATGPGopPF_???A@oM?N_B_[[YCcchICWbCbGCiDPOoPHHGcqAgTATGPGpEEIG")
    assert (g.n, g.num_edges()) == (40, 240)
    assert is_member(g, get_class("thm5b"))
    h = to_nx(g)
    assert not nx.algorithms.isomorphism.GraphMatcher(
        h, to_nx(diamond())).subgraph_is_isomorphic()
    # every edge lies in exactly two triangles
    assert all(len(list(nx.common_neighbors(h, u, v))) == 2
               for u, v in h.edges())
    assert clique_number(g) == 4
    got, coloring = chromatic_number(g)
    assert got == chi and is_proper(g, coloring)
    with pytest.raises(StructureViolation, match="carry outside blades") as exc:
        verify_thm5b(GraphOracles(g, chi_cap=64))
    assert exc.value.witness["omega"] == 4
    calls = []

    def counted(h, within=None, lower=None):
        calls.append(within)
        return chromatic_number(h, within, lower)

    monkeypatch.setattr(oracles, "chromatic_number", counted)
    path_ = tmp_path / "gq.g6"
    path_.write_text(write_graph6(g) + "\n")
    report = verify_run(RunConfig(source={"kind": "graph6", "path": str(path_)},
                                  class_name="thm5b", theorem="THM5B",
                                  chi_cap=64))
    # the record's chi(G) is the one oracle call
    assert calls == [g.full_mask()]
    structural, chi_bound = report["violations"]
    assert structural["kind"] == "structural"
    assert (chi_bound["kind"], chi_bound["chi"], chi_bound["bound_value"]) == (
        "chi-bound", chi, 4)
    monkeypatch.undo()
    # THM5A is not refuted: a positive control at k = 5, out of class at 4.
    cert = color_checked("THM5A", GraphOracles(g, chi_cap=64),
                         THEOREMS["THM5A"].spec(k=5))
    assert (cert.palette_used, cert.bound_value) == (thm5a_palette, 52)
    assert is_proper(g, [cert.coloring[v] for v in range(g.n)])
    with pytest.raises(MembershipError) as exc:
        color_checked("THM5A", GraphOracles(g, chi_cap=64),
                      THEOREMS["THM5A"].spec(k=4))
    assert exc.value.violated == "fan_triangles(l=4)"
