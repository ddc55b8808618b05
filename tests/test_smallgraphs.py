from itertools import permutations

import pytest

from chibound.classes import get_class
from chibound.detect import is_member, make_class
from chibound.graph import Graph, from_edges
from chibound import kernels
from chibound.patterns import make_pattern
from chibound.smallgraphs import (ENUM_CAP, EnumerationCapExceeded,
                                  RejectionBudgetExhausted, enumerate_codes,
                                  enumerate_small, graph_from_code,
                                  sample_in_class)
from reference import canon_code_py

KNOWN_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}  # OEIS A000088


@pytest.mark.parametrize("n,count", sorted(KNOWN_COUNTS.items()))
def test_enumeration_counts(n, count):
    assert len(enumerate_codes(n)) == count


def test_enumeration_counts_bruteforce_crosscheck():
    # independent count at n = 4 by classing all 2^6 graphs under permutations
    n = 4
    classes = set()
    for code in range(1 << 6):
        g = graph_from_code(code, n)
        best = None
        for perm in permutations(range(n)):
            c = 0
            for j in range(1, n):
                for i in range(j):
                    c = (c << 1) | (g.adj[perm[i]] >> perm[j] & 1)
            best = c if best is None else min(best, c)
        classes.add(best)
    assert len(classes) == KNOWN_COUNTS[n]
    assert classes == {canon_code_py(graph_from_code(code, n).adj, n)
                       for code in enumerate_codes(n)}


def test_enumeration_matches_networkx_atlas():
    # The atlas lists every graph on at most 7 vertices once per class.
    nx = pytest.importorskip("networkx")
    codes = {}
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if n == 0:
            continue
        codes.setdefault(n, []).append(
            kernels.canonical_code(from_edges(n, h.edges).adj, n))
    assert sum(len(level) for level in codes.values()) == 1252
    for n in range(1, 8):
        assert sorted(codes[n]) == list(enumerate_codes(n))


def test_enumeration_is_deterministic():
    # Recompute level 7 past the cache (lower levels come from the cache).
    assert enumerate_codes.__wrapped__(7) == enumerate_codes(7)


def _unpruned_codes(n_max):
    """Every level up to n_max, each extension of every class canonicalized."""
    levels, level = {1: (0,)}, {0}
    for m in range(2, n_max + 1):
        nxt = set()
        for code in level:
            adj = list(graph_from_code(code, m - 1).adj) + [0]
            for nbrs in range(1 << (m - 1)):
                rows = list(adj)
                rows[m - 1] = nbrs
                for v in range(m - 1):
                    if nbrs >> v & 1:
                        rows[v] |= 1 << (m - 1)
                nxt.add(kernels.canonical_code(rows, m))
        level = nxt
        levels[m] = tuple(sorted(level))
    return levels


def test_orbit_pruned_enumeration_matches_unpruned():
    expected = _unpruned_codes(7)
    for n in range(1, 8):
        assert enumerate_codes(n) == expected[n]


def test_enumeration_canonicalizes_one_extension_per_orbit(monkeypatch):
    # 5,758 (parent, Aut(parent)-orbit) pairs for n <= 7, by Burnside's
    # count; the unpruned loop makes 11,290 calls.
    calls = 0
    canonical_code = kernels.canonical_code

    def counting(adj, n):
        nonlocal calls
        calls += 1
        return canonical_code(adj, n)

    monkeypatch.setattr(kernels, "canonical_code", counting)
    enumerate_codes.cache_clear()
    assert len(enumerate_codes(7)) == KNOWN_COUNTS[7]
    assert calls == 5758


def test_enumerate_small_yields_valid_canonical_graphs():
    seen = []
    for g in enumerate_small(5):
        g.validate()
        seen.append((g.n, kernels.canonical_code(g.adj, g.n)))
    assert len(seen) == len(set(seen))  # no isomorphic duplicates
    assert len(seen) == sum(KNOWN_COUNTS[n] for n in range(1, 6))


def test_graph_from_code_roundtrip():
    for g in enumerate_small(5):
        code = kernels.canonical_code(g.adj, g.n)
        decoded = graph_from_code(code, g.n)
        assert decoded.n == g.n
        assert kernels.canonical_code(decoded.adj, g.n) == code


def test_enumeration_cap():
    with pytest.raises(EnumerationCapExceeded):
        list(enumerate_small(ENUM_CAP + 1))


def test_sampling_is_deterministic_and_in_class():
    spec = get_class("diamond-free")
    a = list(sample_in_class(spec, 8, 0.3, seed=1, count=10))
    b = list(sample_in_class(spec, 8, 0.3, seed=1, count=10))
    assert a == b
    assert len(a) == 10
    for g in a:
        assert is_member(g, spec)
    c = list(sample_in_class(spec, 8, 0.3, seed=2, count=10))
    assert c != a


def test_sampling_budget_exhaustion():
    # forbidding K1 makes every nonempty graph a non-member
    spec = make_class([make_pattern("complete", t=1)], id="empty-class")
    with pytest.raises(RejectionBudgetExhausted):
        list(sample_in_class(spec, 4, 0.5, seed=0, count=1, budget=50))


def test_sampling_trivial_class_accepts_first():
    spec = get_class("diamond-free")
    # p = 0 gives the edgeless graph, trivially diamond-free
    gs = list(sample_in_class(spec, 5, 0.0, seed=3, count=1))
    assert gs[0] == Graph(5, [0] * 5)


def test_sampling_rejects_bad_args():
    spec = get_class("diamond-free")
    with pytest.raises(ValueError):
        list(sample_in_class(spec, 4, 1.5, seed=0, count=1))
    with pytest.raises(ValueError):
        list(sample_in_class(spec, 4, 0.5, seed=0, count=0))
