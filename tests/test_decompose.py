import random
from itertools import chain, combinations
from math import comb

import pytest

from chibound import kernels, oracles
from chibound.color import THEOREMS
from chibound.decompose import (PROPERTY_IDS, DecompositionError, a_nv,
                                check_property, decompose,
                                edge_clique_partition)
from chibound.detect import (diamond_free_fast, every_edge_two_triangles,
                             find_induced, is_member)
from chibound.graph import Graph, bits, from_edges, is_clique, mask_of
from chibound.oracles import GraphOracles, clique_number
from chibound.patterns import (bowtie, complete, diamond, dumbbell, f1, f2,
                               gem, hammer_plus, lollipop_star, path,
                               pineapple)
from chibound.smallgraphs import enumerate_small
from reference import fan_structure, q43, random_linear_two_section, rook, w3


def test_pineapple_example():
    g = pineapple(4, 1)
    dec = decompose(g, 2, g.full_mask(), mask_of([0, 1, 2, 3]))
    assert dec.k == mask_of([0, 1, 2, 3])
    assert dec.t_set == 1 << 4          # pendant has 3 >= 2 non-neighbors
    assert dec.s_set == dec.s_prime == dec.t_prime == dec.residual == 0


def test_gem_example():
    g = gem()
    # K = {apex=4, path vertices 0 and 1}
    dec = decompose(g, 2, g.full_mask(), mask_of([0, 1, 4]))
    assert dec.s_set == 1 << 2          # vertex 2: one non-neighbor (0)
    assert dec.t_set == 1 << 3          # vertex 3: two non-neighbors (0, 1)
    assert dec.a_m == {1 << 0: 1 << 2}
    assert (mask_of([0, 1]), 4) in a_nv(g, dec)
    assert dec.t_groups == {(mask_of([0, 1]), 4): 1 << 3}


def test_k5_all_empty():
    g = complete(5)
    dec = decompose(g, 2, g.full_mask(), g.full_mask())
    assert dec.k == g.full_mask()
    assert dec.s_set == dec.t_set == dec.s_prime == dec.t_prime == 0
    assert dec.residual == 0
    assert dec.a_m == {} and a_nv(g, dec) == {}


def test_decompose_rejects_bad_clique():
    # decompose takes its clique on trust; the CLI checks a user's clique
    # (tests/test_cli.py::test_decompose_cli_rejects_bad_clique).
    g = pineapple(4, 1)
    with pytest.raises(DecompositionError):
        decompose(g, 1, g.full_mask(), mask_of([0, 1, 2, 3]))  # t < 2


def test_partition_and_definition_fidelity():
    for g in enumerate_small(6):
        if clique_number(g) < 3:
            continue
        for t in (2, 3):
            dec = GraphOracles(g).decomposition(t)
            parts = (dec.k, dec.s_set, dec.t_set, dec.s_prime, dec.t_prime,
                     dec.residual)
            assert sum(p.bit_count() for p in parts) == g.n
            union = 0
            for p in parts:
                assert union & p == 0
                union |= p
            assert union == g.full_mask()
            # S/T recomputed from non-neighbor counts
            s2 = t2 = 0
            for u in range(g.n):
                if (1 << u) & dec.k or not (g.adj[u] & dec.k):
                    continue
                if (dec.k & ~g.adj[u]).bit_count() < t:
                    s2 |= 1 << u
                else:
                    t2 |= 1 << u
            assert s2 == dec.s_set and t2 == dec.t_set
            # family membership matches definitions
            for m, a in dec.a_m.items():
                for u in bits(a):
                    assert g.adj[u] & dec.k == dec.k & ~m
            for (nmask, v), a in a_nv(g, dec).items():
                for u in bits(a):
                    assert g.has_edge(u, v)
                    assert not g.adj[u] & nmask
            # union of families gives S and T back
            s_union = 0
            for a in dec.a_m.values():
                s_union |= a
            t_union = 0
            for a in a_nv(g, dec).values():
                t_union |= a
            assert s_union == dec.s_set
            assert t_union == dec.t_set


def test_within_mask_restriction():
    # two far-apart triangles; decomposing within one ignores the other
    g = from_edges(7, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (5, 6)])
    dec = GraphOracles(g).decomposition(2, mask_of([3, 4, 5, 6]))
    assert dec.k == mask_of([3, 4, 5])
    assert dec.t_set == 1 << 6
    assert dec.residual == 0


def test_default_decompose_is_one_clique_search(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return search(*args)

    search = kernels.clique_number_sub
    monkeypatch.setattr(kernels, "clique_number_sub", counting)
    for g in (rook(4), pineapple(4, 2), gem()):
        calls.clear()
        GraphOracles(g).decomposition(2)
        assert len(calls) == 1


def test_clique_a_m_is_no_larger_than_m():
    # A clique A_M is complete to K - M, so A_M | K - M is a clique and
    # |A_M| <= |M|: P2's check is the clique test alone.
    cliques = 0
    for g in enumerate_small(8):
        given = GraphOracles(g)
        for t in (2, 3, 4):
            for m_mask, a in given.decomposition(t).a_m.items():
                if is_clique(g, a):
                    cliques += 1
                    assert a.bit_count() <= m_mask.bit_count(), (g, t, m_mask)
    assert cliques == 62037


def test_property_p1_negative_control():
    # diamond contains F^1_2 = diamond, so the hypothesis fails and S != {}
    g = diamond()
    rep = check_property(GraphOracles(g), "P1")
    assert rep.holds is False
    assert rep.hypothesis_ok is False
    assert rep.witness is not None


def test_property_p8_pineapple():
    g = pineapple(4, 1)
    rep = check_property(GraphOracles(g), "P8")
    assert rep.holds is True
    assert rep.measured["chi_t"] == 1
    assert rep.measured["bound"] == 16 * 3


def test_property_block_over_the_cap_is_undecided():
    g = pineapple(4, 6)
    given = GraphOracles(g, chi_cap=3)
    assert given.decomposition(2).t_set.bit_count() == 6
    rep = check_property(given, "P8")
    assert rep.holds is None and rep.hypothesis_ok is True
    assert rep.notes == ("undecided at desk scale: chi(T): graph has 6 "
                         "vertices, exact-oracle cap is 3")


def test_property_reports_serialize():
    g = pineapple(4, 1)
    for which in ("P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "P-property"):
        d = check_property(GraphOracles(g), which).to_dict()
        assert d["property"] == which
        assert set(d) == {"property", "holds", "hypothesis_ok", "params",
                          "measured", "witness", "notes"}


def test_p_property_calls_chi_oracle_once(monkeypatch):
    g = pineapple(4, 1)
    calls = []
    real = oracles.chi_n

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(oracles, "chi_n", counting)
    given = GraphOracles(g, chin_cap=9)
    rep = check_property(given, "P-property")
    assert calls == [(given, 2)]
    assert rep.holds is True
    assert rep.measured["c"] == rep.measured["chi_up_to_t"] == 2
    # a second check on the same graph's oracles asks chi_n nothing more
    assert check_property(given, "P-property") == rep
    assert len(calls) == 1


def test_shared_oracles_match_one_check_per_property():
    ids = ("P-property", "P5", "P6", "P7", "P8")
    for g in enumerate_small(6):
        for t in (2, 3):
            given = GraphOracles(g)
            shared = [check_property(given, which, {"s": 3, "t": t})
                      for which in ids]
            alone = [check_property(GraphOracles(g), which, {"s": 3, "t": t})
                     for which in ids]
            assert [r.to_dict() for r in shared] == [r.to_dict() for r in alone]


def _hypothesis_by_hand(g, which, omega, s, t, k):
    """The ten property hypotheses, each written out on its own."""
    free = lambda pattern: find_induced(g, pattern) is None  # noqa: E731
    return {
        "P1": lambda: omega > t and free(f1(t)),
        "P2": lambda: omega > t and free(f2(t)),
        "P3": lambda: omega > t and free(lollipop_star(k, t)),
        "P4": lambda: (omega > t and diamond_free_fast(g)[0]
                       and free(hammer_plus(t))),
        "P5": lambda: omega > t and free(bowtie(s, t)),
        "P6": lambda: omega > t and free(path(5)) and free(bowtie(s, t)),
        "P7": lambda: (omega > t and free(path(5))
                       and free(dumbbell(s + 1, t + 1))),
        "P8": lambda: omega > t and diamond_free_fast(g)[0],
        "D1": lambda: (diamond_free_fast(g)[0]
                       and every_edge_two_triangles(g)[0]),
        "P-property": lambda: True,
    }[which]()


@pytest.mark.parametrize("s,t,k", [(2, 2, 2), (3, 3, 3), (3, 2, 2)])
def test_property_table_hypotheses_match_the_written_out_ones(s, t, k):
    assert PROPERTY_IDS == ("P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8",
                            "D1", "P-property")
    for g in enumerate_small(6):
        omega = clique_number(g)
        given = GraphOracles(g)
        reports = [check_property(given, which, {"s": s, "t": t, "k": k})
                   for which in PROPERTY_IDS]
        for which, rep in zip(PROPERTY_IDS, reports):
            assert rep.hypothesis_ok == _hypothesis_by_hand(
                g, which, omega, s, t, k), (which, g.adj)


@pytest.mark.parametrize("thm,params", [
    ("THM1", {}), ("THM2", {}), ("THM3", {}), ("THM4", {}), ("THM5A", {}),
    ("THM5B", {}), ("THM3", {"s": 3, "t": 3}), ("THM2", {"y": "f2"})])
def test_known_class_changes_no_property_report(thm, params):
    # A member whose memo already holds its class's pattern answers, from
    # the membership filter, gets the property reports of a fresh copy.
    spec = THEOREMS[thm].spec(**params)
    members = 0
    for g in enumerate_small(6):
        if not is_member(g, spec):
            continue
        members += 1
        given, fresh = GraphOracles(g), GraphOracles(Graph(g.n, g.adj))
        asked = [check_property(given, which, spec.params)
                  for which in PROPERTY_IDS]
        plain = [check_property(fresh, which, spec.params)
                 for which in PROPERTY_IDS]
        assert [r.to_dict() for r in asked] == [r.to_dict() for r in plain]
    assert members > 0


def test_unknown_property_rejected():
    g = pineapple(4, 1)
    with pytest.raises(ValueError):
        check_property(GraphOracles(g), "P99")


def _edge_map(cliques):
    """Each edge (u, v), u < v, of a partition's cliques -> its clique index."""
    return {e: i for i, c in enumerate(cliques)
            for e in combinations(bits(c), 2)}


def test_edge_clique_partition_k4():
    cliques = edge_clique_partition(complete(4))
    assert cliques == (0b1111,)
    assert len(_edge_map(cliques)) == 6


def test_edge_clique_partition_shared_vertex():
    edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    edges += [(0, 4), (0, 5), (0, 6), (4, 5), (4, 6), (5, 6)]
    g = from_edges(7, edges)
    cliques = edge_clique_partition(g)
    assert sorted(c.bit_count() for c in cliques) == [4, 4]
    inter = cliques[0] & cliques[1]
    assert inter == 1 << 0
    blades, violation = fan_structure(g, cliques, 0)
    assert len(blades) == 2 and violation is None
    blades1, _ = fan_structure(g, cliques, 1)
    assert len(blades1) == 1


def test_blade_lemma_holds_wherever_the_partition_exists():
    # The blade lemma of edge_clique_partition: wherever it returns, the
    # slow fan search finds no edge between two blades of any hub, and D1
    # holds.  Checked on every graph with n <= 8, on 300 seeded random
    # linear-hypergraph 2-sections with n = 8..40, on K4 x K4, K5 x K5, W(3)
    # and Q(4,3); (partitions, hubs with two or more blades) are pinned.
    rng = random.Random(1)
    samples = (random_linear_two_section(rng, rng.randint(8, 40))
               for _ in range(300))
    partitions = hubs = 0
    for g in chain(enumerate_small(8), samples, (rook(4), rook(5), w3(), q43())):
        try:
            cliques = edge_clique_partition(g)
        except DecompositionError:
            continue
        partitions += 1
        for v in range(g.n):
            blades, violation = fan_structure(g, cliques, v)
            assert violation is None, (g.adj, v)
            hubs += len(blades) > 1
        assert check_property(GraphOracles(g), "D1").holds is True, g.adj
    assert (partitions, hubs) == (198, 465)


def test_edge_clique_partition_preconditions():
    with pytest.raises(DecompositionError):
        edge_clique_partition(diamond())
    # K4 plus pendant: pendant edge in zero triangles
    g = from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
    with pytest.raises(DecompositionError):
        edge_clique_partition(g)


def test_edge_clique_partition_checks_its_preconditions_by_construction():
    with pytest.raises(DecompositionError, match=r"edge \(0,1\) is the spine"):
        edge_clique_partition(diamond())
    pendant = from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                             (3, 4)])
    with pytest.raises(DecompositionError,
                       match=r"edge \(3,4\) lies in fewer than two triangles"):
        edge_clique_partition(pendant)
    members = 0
    for g in enumerate_small(7):
        ok = diamond_free_fast(g)[0] and every_edge_two_triangles(g)[0]
        try:
            cliques = edge_clique_partition(g)
        except DecompositionError:
            assert not ok, g.adj
            continue
        assert ok, g.adj
        members += 1
        edge_map = _edge_map(cliques)
        assert sorted(edge_map) == sorted(g.edges())
        # no edge lies in two cliques
        assert sum(comb(c.bit_count(), 2) for c in cliques) == len(edge_map)
        for (a, b), i in edge_map.items():
            assert cliques[i] >> a & cliques[i] >> b & 1
    assert members > 0


def test_property_d1_on_fan():
    edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    edges += [(0, 4), (0, 5), (0, 6), (4, 5), (4, 6), (5, 6)]
    g = from_edges(7, edges)
    rep = check_property(GraphOracles(g), "D1")
    assert rep.holds is True
    assert rep.measured["cliques"] == 2
