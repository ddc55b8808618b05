import re
from itertools import product

import networkx as nx
import pytest

from chibound import color
from chibound.classes import THEOREM_CLASS, get_class
from chibound.cli import main
from chibound.color import (LiftError, MembershipError, StructureViolation,
                            THEOREMS, color_checked, color_thm1, color_thm2,
                            color_thm3, color_thm4, color_thm5a, verify_thm5b)
from chibound.detect import is_member
from chibound.graph import from_edges
from chibound.graph6 import parse_graph6, write_graph6
from chibound.oracles import chromatic_number, clique_number, is_proper
from chibound.patterns import complete, diamond, gem, path, pineapple
from chibound.smallgraphs import enumerate_small, sample_in_class
from reference import to_nx


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
    cert = color_thm1(g, t=2)
    _assert_valid(g, cert)
    assert cert.omega == 4


def test_thm1_rejects_diamond():
    with pytest.raises(MembershipError):
        color_checked("THM1", diamond(), THEOREMS["THM1"].spec(t=2))


def test_thm4_gem_and_base_case():
    cert = color_thm4(gem())
    _assert_valid(gem(), cert)
    # omega < 3 members go straight to the oracle with a note
    cert2 = color_thm4(path(4))
    _assert_valid(path(4), cert2)
    assert any("omega >= 3" in n for n in cert2.notes)


def test_thm4_rejects_p5():
    with pytest.raises(MembershipError):
        color_checked("THM4", path(5))


def test_thm3_gem():
    cert = color_thm3(gem(), 2, 2)
    _assert_valid(gem(), cert)


def test_thm2_complete_graph():
    cert = color_thm2(complete(5), 2, 2, 2, "f1")
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
    cert = verify_thm5b(g)
    _assert_valid(g, cert)
    assert cert.palette_used == cert.omega == 4


@pytest.mark.parametrize("g", [_fan(2, 4), complete(17)], ids=["fan", "K17"])
def test_thm5b_proper_omega_coloring_needs_no_oracle(g, monkeypatch):
    # A proper coloring with omega colors proves chi = omega, also above the
    # oracle cap (K17 has 17 > 16 vertices).
    def no_oracle(*args, **kwargs):
        raise AssertionError("verify_thm5b ran the exact oracle")

    monkeypatch.setattr(color, "chromatic_number", no_oracle)
    cert = verify_thm5b(g, chi_cap=16)
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
        color_checked("THM5B", g)
    assert "dumbbell" in str(exc.value)


def test_thm5a_fan():
    g = _fan(2, 5)
    cert = color_thm5a(g, k=3)
    _assert_valid(g, cert)
    assert cert.omega == 5


def test_thm5a_rejects_small_omega():
    with pytest.raises(MembershipError):
        color_thm5a(complete(3), k=2)


def test_certificates_are_deterministic():
    g = pineapple(4, 1)
    a = color_thm1(g, t=2)
    b = color_thm1(g, t=2)
    assert a.coloring == b.coloring and a.trace == b.trace


def test_certificate_to_dict():
    cert = color_thm4(gem())
    d = cert.to_dict()
    assert d["theorem"] == "THM4"
    assert d["within_bound"] is True
    assert set(d["coloring"]) == {str(v) for v in range(5)}


@pytest.mark.parametrize("thm", sorted(THEOREMS))
def test_registry_bounds_monotone_in_omega(thm):
    case = THEOREMS[thm]
    prev = 0
    for omega in range(1, 13):
        val = case.bound(omega, 3, **case.defaults)
        assert val >= prev
        prev = val


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
                case.colorer(g, **spec.params)
            continue
        cert = case.colorer(g, **spec.params)
        _assert_valid(g, cert)
        assert cert.bound_value == case.bound(cert.omega, cert.c_value or 0,
                                              **spec.params)
        omegas.add(cert.omega)
        seen += 1
    assert seen > {"THM5A": 5, "THM5B": 10}.get(thm, 50)
    if thm == "THM2":
        # both bound branches: omega < 2t - 1 and omega >= 2t - 1
        assert min(omegas) < 3 <= max(omegas)


def test_thm2_over_sampled_members():
    spec = get_class("thm2", s=2, t=2, k=2, y="f2")
    for g in sample_in_class(spec, 8, 0.35, seed=5, count=25):
        cert = color_thm2(g, 2, 2, 2, "f2")
        _assert_valid(g, cert)


def test_thm5b_structural_violation_is_raised_not_swallowed():
    # verify_thm5b must never silently pass a wrong coloring; the two-K4
    # bridge case is caught at membership, so exercise the error type exists
    assert issubclass(StructureViolation, RuntimeError)
    assert issubclass(LiftError, RuntimeError)


def _rook(q):
    """The rook's graph Kq x Kq: cells of a q x q board, adjacent when they
    share a row or a column."""
    cells = [(r, c) for r in range(q) for c in range(q)]
    return from_edges(q * q, [(i, j) for i, a in enumerate(cells)
                              for j, b in enumerate(cells[:i])
                              if a[0] == b[0] or a[1] == b[1]])


@pytest.mark.parametrize("q,chi", [(4, 4), (5, "capped")])
def test_thm5b_carrier_claim_fails_on_rook_graphs(q, chi, tmp_path, capsys):
    # Kq x Kq is in the THM5B class, and every vertex carries two maximal
    # cliques, so the verifier's "one carrier per clique" claim fails while
    # chi = omega = q holds; the witness carries the exact chi (K5 x K5 has
    # more vertices than the oracle cap).
    g = _rook(q)
    if q == 4:
        assert g == parse_graph6("O~`HW}GPHDaNaGPCcPWaN")
    assert is_member(g, get_class("thm5b"))
    with pytest.raises(StructureViolation) as exc:
        verify_thm5b(g, chi_cap=16)
    assert exc.value.witness["chi"] == chi
    assert exc.value.witness["omega"] == q
    path_ = tmp_path / "rook.g6"
    path_.write_text(write_graph6(g) + "\n")
    assert main(["color", "--theorem", "THM5B", "--in", str(path_)]) == 2
    assert capsys.readouterr().out.count("StructureViolation") == 1


def _projective_points(dim):
    """The points of PG(dim - 1, 3): the vectors of GF(3)^dim whose first
    nonzero coordinate is 1."""
    return [p for p in product(range(3), repeat=dim)
            if any(p) and next(x for x in p if x) == 1]


def _orthogonality_graph(points, form):
    """Points adjacent when the bilinear form vanishes on them mod 3."""
    return from_edges(len(points), [(i, j) for i, a in enumerate(points)
                                    for j, b in enumerate(points[:i])
                                    if form(a, b) % 3 == 0])


def _w3():
    """W(3): the points of PG(3,3), adjacent when
    x1y2 - x2y1 + x3y4 - x4y3 = 0."""
    return _orthogonality_graph(
        _projective_points(4),
        lambda x, y: x[0] * y[1] - x[1] * y[0] + x[2] * y[3] - x[3] * y[2])


def _q43():
    """Q(4,3): the zeros of x0^2 + x1x2 + x3x4 in PG(4,3), adjacent when
    orthogonal under the form's polarity."""
    points = [p for p in _projective_points(5)
              if (p[0] ** 2 + p[1] * p[2] + p[3] * p[4]) % 3 == 0]
    return _orthogonality_graph(
        points, lambda x, y: (2 * x[0] * y[0] + x[1] * y[2] + x[2] * y[1]
                              + x[3] * y[4] + x[4] * y[3]))


@pytest.mark.parametrize("build,chi,thm5a_palette",
                         [(_w3, 6, 42), (_q43, 5, 41)], ids=["W(3)", "Q(4,3)"])
def test_thm5b_bound_fails_on_generalized_quadrangles(build, chi,
                                                      thm5a_palette):
    # The point graphs of the generalized quadrangles W(3) and Q(4,3) lie in
    # the THM5B class, yet chi > omega = 4: THM5B's chi = omega, as encoded,
    # is refuted.  The verifier stops at its carrier claim first.
    g = build()
    if build is _w3:
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
    got, coloring = chromatic_number(g, cap=64)
    assert got == chi and is_proper(g, coloring)
    with pytest.raises(StructureViolation, match="carry outside blades") as exc:
        verify_thm5b(g, chi_cap=64)
    assert exc.value.witness["chi"] == chi and exc.value.witness["omega"] == 4
    # THM5A is not refuted: a positive control at k = 5, out of class at 4.
    cert = color_checked("THM5A", g, THEOREMS["THM5A"].spec(k=5), chi_cap=64)
    assert (cert.palette_used, cert.bound_value) == (thm5a_palette, 52)
    assert is_proper(g, [cert.coloring[v] for v in range(g.n)])
    with pytest.raises(MembershipError) as exc:
        color_checked("THM5A", g, THEOREMS["THM5A"].spec(k=4), chi_cap=64)
    assert exc.value.violated == "fan_triangles(l=4)"
