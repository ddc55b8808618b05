import random
from itertools import permutations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chibound.classes import get_class
from chibound.detect import (Conditions, contains_induced, diamond_free_fast,
                             every_edge_two_triangles, find_induced,
                             is_isomorphic, is_member, make_class)
from chibound.graph import Graph, from_edges
from chibound.patterns import (bowtie, complete, diamond, make_pattern, path)

# The forbidden patterns of the theorems and of the property hypotheses,
# at the parameters a sweep uses and their neighbours.
PAPER_PATTERNS = [make_pattern(name, **params) for name, params in (
    ("diamond", {}), ("path", {"l": 5}),
    ("hammer_plus", {"t": 1}), ("hammer_plus", {"t": 2}),
    ("f1", {"t": 2}), ("f1", {"t": 3}), ("f2", {"t": 2}), ("f2", {"t": 3}),
    ("bowtie", {"s": 1, "t": 2}), ("bowtie", {"s": 2, "t": 2}),
    ("bowtie", {"s": 2, "t": 3}),
    ("lollipop_star", {"k": 2, "t": 2}), ("lollipop_star", {"k": 3, "t": 2}),
    ("lollipop_star", {"k": 2, "t": 3}),
    ("dumbbell", {"s": 2, "t": 3}), ("dumbbell", {"s": 3, "t": 3}),
    ("dumbbell", {"s": 4, "t": 4}),
    ("fan_triangles", {"l": 1}), ("fan_triangles", {"l": 2}),
)]
SMALL_PATTERNS = [p for p in PAPER_PATTERNS if p.graph.n <= 6]


def _naive_first(host, pattern):
    """First induced embedding by trying every injection; independent oracle.

    permutations(range(n), p) yields the injections in lexicographic order,
    so the first hit is the lexicographically first embedding.
    """
    pairs = [(i, j, pattern.has_edge(i, j))
             for i in range(pattern.n) for j in range(i + 1, pattern.n)]
    for perm in permutations(range(host.n), pattern.n):
        if all(host.has_edge(perm[i], perm[j]) == e for i, j, e in pairs):
            return perm
    return None


@st.composite
def _graphs(draw, min_n, max_n):
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edge_bits = draw(st.integers(0, (1 << len(pairs)) - 1))
    return from_edges(n, [e for k, e in enumerate(pairs) if edge_bits >> k & 1])


def _to_nx(g):
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


def _random_graph(rng, n, p):
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph(n, adj)


def test_find_induced_against_naive_oracle():
    rng = random.Random(11)
    patterns = [path(3), path(4), diamond(), complete(3), bowtie(2, 2)]
    for _ in range(150):
        host = _random_graph(rng, rng.randrange(1, 8), rng.random())
        for pat in patterns:
            assert find_induced(host, pat) == _naive_first(host, pat)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_graphs(1, 8))
def test_find_induced_is_lex_first_for_paper_patterns(host):
    for pat in SMALL_PATTERNS:
        assert find_induced(host, pat.graph) == _naive_first(host, pat.graph), \
            pat.label()


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(_graphs(9, 14))
def test_find_induced_matches_networkx_on_larger_hosts(host):
    nx_host = _to_nx(host)
    for pat in PAPER_PATTERNS:
        got = find_induced(host, pat.graph)
        # GraphMatcher.subgraph_is_isomorphic tests for an induced subgraph.
        want = nx.algorithms.isomorphism.GraphMatcher(
            nx_host, _to_nx(pat.graph)).subgraph_is_isomorphic()
        assert (got is not None) == want, pat.label()
        if got is not None:
            assert len(set(got)) == pat.graph.n
            for i in range(pat.graph.n):
                for j in range(i + 1, pat.graph.n):
                    assert pat.graph.has_edge(i, j) == host.has_edge(got[i], got[j])


def test_find_induced_is_deterministic_lex_first():
    host = complete(5)
    assert find_induced(host, complete(3)) == (0, 1, 2)
    with pytest.raises(ValueError):
        find_induced(host, Graph(0, []))
    assert find_induced(complete(2), complete(3)) is None


def test_is_isomorphic():
    a = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    b = from_edges(4, [(2, 0), (0, 3), (3, 1)])
    assert is_isomorphic(a, b)
    assert not is_isomorphic(a, from_edges(4, [(0, 1), (1, 2), (2, 0)]))
    assert is_isomorphic(Graph(0, []), Graph(0, []))


def test_diamond_free_fast_matches_induced_search():
    rng = random.Random(3)
    for _ in range(200):
        g = _random_graph(rng, rng.randrange(1, 8), rng.random())
        free, witness = diamond_free_fast(g)
        assert free == (not contains_induced(g, diamond()))
        if not free:
            u, v, a, b = witness
            assert g.has_edge(u, v) and g.has_edge(u, a) and g.has_edge(v, a)
            assert g.has_edge(u, b) and g.has_edge(v, b) and not g.has_edge(a, b)


def test_every_edge_two_triangles():
    assert every_edge_two_triangles(complete(4))
    ok, edge = every_edge_two_triangles(complete(3), witness=True)
    assert not ok and edge == (0, 1)
    assert every_edge_two_triangles(Graph(1, [0]))


def test_is_member_reports_violation():
    spec = get_class("diamond-free")
    rep = is_member(diamond(), spec)
    assert not rep
    assert rep.violated == "diamond"
    assert rep.witness is not None
    assert is_member(path(4), spec)


def test_triangle_fan_shortcut_matches_the_matcher():
    # After the diamond, is_member decides a triangle fan by the
    # diamond-free detector; verdicts and witnesses stay the matcher's.
    from chibound.smallgraphs import enumerate_small

    rng = random.Random(11)
    hosts = list(enumerate_small(7))
    hosts += [_random_graph(rng, rng.randrange(8, 14), rng.random())
              for _ in range(150)]
    for c in (4, 5):            # f blades K_c at hub 0, vertices shuffled
        for f in (1, 2, 3, 4):
            blades = [[0] + list(range(1 + b * (c - 1), 1 + (b + 1) * (c - 1)))
                      for b in range(f)]
            order = list(range(1 + f * (c - 1)))
            rng.shuffle(order)
            hosts.append(from_edges(len(order), [
                (order[a], order[b]) for blade in blades
                for i, a in enumerate(blade) for b in blade[i + 1:]]))
    for l in (1, 2, 3):
        fan = make_pattern("fan_triangles", l=l)
        for pats in ([make_pattern("diamond"), fan], [fan]):
            spec = make_class(pats)
            for g in hosts:
                want = next(((p.label(), emb) for p in pats
                             if (emb := find_induced(g, p.graph)) is not None),
                            (None, None))
                rep = is_member(g, spec)
                assert (rep.violated, rep.witness) == want


def test_conditions_in_membership():
    spec = make_class([make_pattern("diamond")],
                      conditions=Conditions(every_edge_in_two_triangles=True))
    assert not is_member(complete(3), spec)
    assert is_member(complete(4), spec)
    spec2 = make_class([], conditions=Conditions(min_omega=3))
    assert is_member(complete(3), spec2)
    assert not is_member(path(4), spec2)


def test_make_class_rejects_empty():
    with pytest.raises(ValueError):
        make_class([])
    with pytest.raises(TypeError):
        make_class([diamond()])  # raw Graph, not a PatternInstance
