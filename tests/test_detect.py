import random
import sys
from itertools import permutations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chibound import detect
from chibound.classes import get_class
from chibound.color import THEOREMS
from chibound.decompose import PROPERTIES
from chibound.detect import (Conditions, diamond_free_fast,
                             every_edge_two_triangles, find_induced,
                             is_member, make_class)
from chibound.graph import Graph, from_edges
from chibound.patterns import (bowtie, complete, diamond, fan_triangles,
                               make_pattern, path)
from chibound.smallgraphs import enumerate_small
import reference
from reference import (find_induced_plain, q43, random_linear_two_section,
                       rook, to_nx, w3)

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
    nx_host = to_nx(host)
    for pat in PAPER_PATTERNS:
        got = find_induced(host, pat.graph)
        # GraphMatcher.subgraph_is_isomorphic tests for an induced subgraph.
        want = nx.algorithms.isomorphism.GraphMatcher(
            nx_host, to_nx(pat.graph)).subgraph_is_isomorphic()
        assert (got is not None) == want, pat.label()
        if got is not None:
            assert len(set(got)) == pat.graph.n
            for i in range(pat.graph.n):
                for j in range(i + 1, pat.graph.n):
                    assert pat.graph.has_edge(i, j) == host.has_edge(got[i], got[j])


def test_find_induced_equals_the_plain_search_on_every_small_class():
    hosts = list(enumerate_small(7))
    assert len(hosts) == 1252
    for host in hosts:
        for pat in PAPER_PATTERNS:
            assert find_induced(host, pat.graph) == \
                find_induced_plain(host, pat.graph), pat.label()


def test_find_induced_equals_the_plain_search_on_seeded_hosts():
    rng = random.Random(5)
    found = 0
    for _ in range(60):
        host = _random_graph(rng, rng.randrange(8, 41), rng.random())
        for pat in PAPER_PATTERNS:
            got = find_induced(host, pat.graph)
            assert got == find_induced_plain(host, pat.graph), pat.label()
            found += got is not None
    assert 300 < found < 60 * len(PAPER_PATTERNS)


def _search_nodes(fn, module, hosts):
    """Calls of the matcher's recursion (the nested rec of module) while fn
    runs on every host and paper pattern, counted by a profile hook."""
    nodes = 0

    def hook(frame, event, arg):
        nonlocal nodes
        code = frame.f_code
        if (event == "call" and code.co_name == "rec"
                and code.co_filename == module.__file__):
            nodes += 1

    sys.setprofile(hook)
    try:
        for host in hosts:
            for pat in PAPER_PATTERNS:
                fn(host, pat.graph)
    finally:
        sys.setprofile(None)
    return nodes


def test_degree_window_spares_search_nodes():
    # The window's whole effect is fewer nodes, so a window that is dropped
    # or widened shows here and nowhere else.
    hosts = list(enumerate_small(6))
    assert _search_nodes(find_induced, detect, hosts) == 8475
    assert _search_nodes(find_induced_plain, reference, hosts) == 15053


def test_find_induced_is_deterministic_lex_first():
    host = complete(5)
    assert find_induced(host, complete(3)) == (0, 1, 2)
    with pytest.raises(ValueError):
        find_induced(host, Graph(0, []))
    assert find_induced(complete(2), complete(3)) is None


def test_diamond_free_fast_matches_induced_search():
    rng = random.Random(3)
    for _ in range(200):
        g = _random_graph(rng, rng.randrange(1, 8), rng.random())
        free, witness = diamond_free_fast(g)
        assert free == (find_induced(g, diamond()) is None)
        if not free:
            u, v, a, b = witness
            assert g.has_edge(u, v) and g.has_edge(u, a) and g.has_edge(v, a)
            assert g.has_edge(u, b) and g.has_edge(v, b) and not g.has_edge(a, b)


def test_diamond_free_fast_witness_is_the_lex_first_embedding():
    # is_member and embedding take a diamond's embedding from the edge scan.
    hosts = list(enumerate_small(7))
    assert len(hosts) == 1252
    rng = random.Random(8)
    hosts += [_random_graph(rng, rng.randrange(8, 15), rng.random())
              for _ in range(3000)]
    hosts += [_random_graph(rng, rng.randrange(15, 41), rng.random() ** 3)
              for _ in range(300)]
    found = 0
    for host in hosts:
        witness = diamond_free_fast(host)[1]
        assert witness == find_induced(host, diamond())
        if host.n <= 7:
            assert witness == _naive_first(host, diamond())
        found += witness is not None
    assert found > 2000


def test_f1_at_t2_takes_the_diamond_scan(monkeypatch):
    # f1(2) is the diamond's graph under another name: its embedding comes
    # from the edge scan, with no matcher call, and is the matcher's own.
    f1 = make_pattern("f1", t=2)
    assert f1.graph == diamond()
    hosts = list(enumerate_small(7))
    want = [find_induced(h, f1.graph) for h in hosts]

    def no_matcher(host, pattern):
        raise AssertionError("the matcher ran")

    with monkeypatch.context() as patched:
        patched.setattr(detect, "find_induced", no_matcher)
        assert [detect.embedding(h, f1) for h in hosts] == want
    assert sum(w is None for w in want) == 421
    # The memo keeps f1(2)'s answer as the diamond's, so the fan shortcut
    # takes it too: on a fresh diamond-free host the fan finder decides and
    # reports a fan, and the matcher does not run.
    fan = make_pattern("fan_triangles", l=2)
    ref = [is_member(h, make_class([make_pattern("diamond"), fan]))
           for h in hosts]
    calls = []
    monkeypatch.setattr(detect, "find_induced",
                        lambda host, pattern: calls.append(pattern)
                        or find_induced(host, pattern))
    got = [is_member(Graph(h.n, h.adj), make_class([f1, fan])) for h in hosts]
    assert [(r.member, r.witness) for r in got] == \
        [(r.member, r.witness) for r in ref]
    assert sum(r.violated == fan.label() for r in ref) > 0
    assert calls == []


def test_diamond_free_fan_finder_is_the_lex_first_embedding():
    # is_member reports the fan finder's embedding: on a diamond-free host
    # it is find_induced's lex-first one.
    rng = random.Random(28)
    hosts = [g for g in enumerate_small(8) if diamond_free_fast(g)[0]]
    assert len(hosts) == 1954
    while len(hosts) < 2354:
        g = random_linear_two_section(rng, rng.randrange(10, 14), (3, 4, 5),
                                      rng.randrange(3, 9))
        if diamond_free_fast(g)[0]:
            hosts.append(g)
    hosts += [w3(), q43(), rook(4), rook(5)]
    found = [0] * 4
    for host in hosts:
        for l in (1, 2, 3, 4):
            emb = detect.find_fan_triangles_diamond_free(host, l)
            assert emb == find_induced(host, fan_triangles(l))
            found[l - 1] += emb is not None
    assert found == [660, 138, 3, 2]
    with pytest.raises(ValueError, match="need l >= 1"):
        detect.find_fan_triangles_diamond_free(hosts[0], 0)


def test_is_member_reports_a_fan_with_no_matcher_run(monkeypatch):
    monkeypatch.setattr(detect, "find_induced",
                        lambda *args: pytest.fail("the matcher ran"))
    rep = is_member(fan_triangles(2), get_class("thm5a"))
    assert (rep.violated, rep.witness) == ("fan_triangles(l=2)",
                                           (0, 1, 2, 3, 4, 5, 6))


def test_fan_rule_asks_the_host_whether_it_is_diamond_free(monkeypatch):
    # A fresh host, as chibound detect reads one, has asked nothing of its
    # memo: embedding asks the diamond itself, and K6 x K6, diamond-free
    # with two K5s in each neighbourhood, gets the fan finder's "no 3-fan"
    # with no call of the matcher.
    calls = []
    monkeypatch.setattr(detect, "find_induced",
                        lambda *args: calls.append(args))
    host = rook(6)
    assert detect.embedding(host, make_pattern("fan_triangles", l=3)) is None
    assert calls == []


def test_every_edge_two_triangles():
    assert every_edge_two_triangles(complete(4)) == (True, None)
    ok, edge = every_edge_two_triangles(complete(3))
    assert not ok and edge == (0, 1)
    assert every_edge_two_triangles(Graph(1, [0])) == (True, None)


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


def test_known_class_passes_what_it_forbids_without_a_search(monkeypatch):
    # Once a graph has passed a class, its memo answers every pattern the
    # class forbids: asking again, under any class, gives a fresh copy's
    # answer, and for the class itself runs no search.
    specs = [get_class(name, **params) for name, params in (
        ("thm1", {}), ("thm1", {"t": 3}), ("thm2", {}), ("thm2", {"y": "f2"}),
        ("thm3", {}), ("thm3", {"s": 3, "t": 3}), ("thm4", {}), ("thm5a", {}),
        ("thm5b", {}), ("diamond-free", {}))]
    specs.append(make_class([], conditions=Conditions(min_omega=3)))
    graphs = list(enumerate_small(6))
    for known in specs:
        for g in graphs:
            if is_member(g, known):
                for spec in specs:
                    assert is_member(g, spec) == is_member(Graph(g.n, g.adj),
                                                           spec)
    hosts = [complete(5) for _ in specs[:-1]]
    assert all(is_member(h, spec) for h, spec in zip(hosts, specs))
    calls = []
    for name in ("find_induced", "diamond_free_fast",
                 "find_fan_triangles_diamond_free"):
        monkeypatch.setattr(detect, name, lambda *args: calls.append(args))
    for host, spec in zip(hosts, specs):
        assert is_member(host, spec)
        assert detect.embedding(host, spec.forbidden[-1]) is None
    assert calls == []


def _memo_patterns():
    """The patterns of every theorem's class and every property's
    hypothesis at several parameters, then fan_triangles(1) and (2), once
    per label in first-use order: the diamond comes before the fans, and
    f1(2) shares the diamond's rows under another name."""
    pats = {}
    for thm, params in (("THM1", {}), ("THM1", {"t": 3}), ("THM2", {}),
                        ("THM2", {"y": "f2"}), ("THM2", {"t": 3, "k": 3}),
                        ("THM3", {}), ("THM3", {"s": 3, "t": 3}),
                        ("THM4", {}), ("THM5A", {}), ("THM5A", {"k": 3}),
                        ("THM5B", {})):
        for pat in THEOREMS[thm].spec(**params).forbidden:
            pats.setdefault(pat.label(), pat)
    for s, t, k in ((2, 2, 2), (3, 3, 3), (3, 2, 2), (2, 3, 2), (2, 2, 3)):
        for prop in PROPERTIES.values():
            for pat in prop.patterns(s, t, k) if prop.patterns else ():
                pats.setdefault(pat.label(), pat)
    for l in (1, 2):
        pat = make_pattern("fan_triangles", l=l)
        pats.setdefault(pat.label(), pat)
    return list(pats.values())


def test_memo_answers_as_a_fresh_search_in_any_order():
    # Every pattern asked in turn of one Graph: each answer, searched or
    # from the memo, is find_induced's on a fresh copy, whatever was asked
    # of the graph before it.
    pats = _memo_patterns()
    assert len(pats) == 23
    assert any(p.graph.adj == diamond().adj and p.name != "diamond"
               for p in pats)
    mismatches, hits = 0, [0] * len(pats)
    for g in enumerate_small(7):
        for i, pat in enumerate(pats):
            want = find_induced(Graph(g.n, g.adj), pat.graph)
            mismatches += detect.embedding(g, pat) != want
            hits[i] += want is not None
    assert mismatches == 0
    # graphs with n <= 7 holding each pattern, in the order of pats
    assert hits == [831, 49, 1, 831, 222, 1007, 202, 178, 25, 25, 380, 22, 1,
                    0, 1, 0, 17, 25, 1, 268, 1, 350, 401]


def test_make_class_rejects_empty():
    with pytest.raises(ValueError):
        make_class([])
    with pytest.raises(TypeError):
        make_class([diamond()])  # raw Graph, not a PatternInstance
