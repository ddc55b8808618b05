import gc
import random
from collections import Counter
from hashlib import sha256
from itertools import permutations
from types import SimpleNamespace

import pytest

from chibound.classes import get_class
from chibound.detect import is_member, make_class
from chibound.graph import Graph, bits, from_edges, mask_of
from chibound import kernels, smallgraphs
from chibound.patterns import make_pattern
from chibound.smallgraphs import (ENUM_CAP, EnumerationCapExceeded,
                                  RejectionBudgetExhausted, _canonical_orbit,
                                  enumerate_codes, enumerate_small,
                                  graph_from_code, sample_in_class)
from networkx.algorithms.isomorphism import GraphMatcher
from reference import (canon_code_py, group_order, is_automorphism,
                       networkx_aut_order, to_nx, validate_graph)

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
    again = enumerate_codes.__wrapped__(7)
    assert again == enumerate_codes(7)
    assert again.carried == enumerate_codes(7).carried


def test_carried_generators_generate_each_parents_group():
    # Every class with n <= 6 is a parent of the n <= 7 level, which
    # extends the rows its class's own search ran on one level down, by
    # that search's generators, and never searches it again.
    for n in range(1, 7):
        level = enumerate_codes(n)
        assert len(level.carried) == len(level)
        for code, carried in zip(level, level.carried):
            rows = list(carried[:n])
            gens = [carried[start:start + n]
                    for start in range(n, len(carried), n)]
            assert kernels.canonical_code(rows, n) == code
            for perm in gens:
                assert is_automorphism(rows, perm), (code, perm)
            assert group_order(gens, n) == networkx_aut_order(rows)


def test_cache_clear_drops_the_carried_generators():
    # The carried data lives only in the cached levels, so after
    # cache_clear no level (and no carried bytes) survives, and the next
    # call recomputes every level below it.
    enumerate_codes(7)
    enumerate_codes.cache_clear()
    assert enumerate_codes.cache_info().currsize == 0
    gc.collect()
    assert not [obj for obj in gc.get_objects()
                if isinstance(obj, smallgraphs._Level)]
    assert len(enumerate_codes(7)) == KNOWN_COUNTS[7]
    assert enumerate_codes.cache_info().currsize == 7


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
    # For n <= 7: 1,639 children whose new vertex has maximum degree (603
    # alone, 1,036 ties).  Each is refined once: 386 ties are rejected with
    # no call, and 1,253 are searched once from that root for their code,
    # least leaf and generators: 793 (the 603 and 190 ties) accepted and
    # 460 decided by their orbit.  No parent is searched: each carries its
    # generators from its own search one level down.  Every other orbit of
    # extensions is rejected by degree with no search.
    # Searching each parent again took 1,461 calls, searching every tie
    # 1,847, keeping all codes of the 5,758 orbits in a set 5,758, and the
    # unpruned loop 11,290.
    calls = Counter()
    canonical_code = kernels.canonical_code

    def counting(adj, n, *out, root=None):
        calls[len(out), root is not None] += 1
        return canonical_code(adj, n, *out, root=root)

    monkeypatch.setattr(kernels, "canonical_code", counting)
    for _ in range(2):  # a cleared cache gives a fully cold run
        calls.clear()
        enumerate_codes.cache_clear()
        assert len(enumerate_codes(7)) == KNOWN_COUNTS[7]
        assert calls == {(2, True): 1253}


def _search(adj, n):
    """(code, canonical orbit) of a graph, from a search from scratch: the
    orbit of the first vertex of maximum degree in the least-leaf order."""
    autos, order = [], []
    code = kernels.canonical_code(adj, n, autos, order)
    top = max(row.bit_count() for row in adj)
    tops = mask_of(v for v in range(n) if adj[v].bit_count() == top)
    return code, _canonical_orbit(order, autos, tops)


def test_tied_children_are_decided_from_their_root(monkeypatch):
    # The canonical vertex lies in the first cell of maximum degree of the
    # root partition, so a child whose new vertex is outside that cell is
    # rejected with no search, one whose new vertex is that cell is
    # accepted, and the rest are decided by their orbit.  Each verdict is
    # derived from the root's mask cells and checked against the orbit
    # that a search from scratch finds, which equals the orbit of the
    # cell's first vertex in the least-leaf order of a search from the root.
    children = []

    def rooting(adj, n):
        root = kernels.root_partition(adj, n)
        children.append([list(adj), n, root, False])
        return root

    def searching(adj, n, *out, root=None):
        assert root is children[-1][2] and not children[-1][3]
        children[-1][3] = True
        return kernels.canonical_code(adj, n, *out, root=root)

    monkeypatch.setattr(smallgraphs, "kernels", SimpleNamespace(
        root_partition=rooting, canonical_code=searching))
    enumerate_codes.cache_clear()
    assert len(enumerate_codes(7)) == KNOWN_COUNTS[7]
    monkeypatch.undo()
    verdicts = Counter()
    for adj, n, root, searched in children:
        new, top = n - 1, adj[n - 1].bit_count()
        assert top == max(row.bit_count() for row in adj)
        cell = next(c for c in root if adj[c.bit_length() - 1].bit_count() == top)
        _, orbit = _search(adj, n)
        assert orbit & ~cell == 0
        autos, order = [], []
        kernels.canonical_code(adj, n, autos, order, root=root)
        assert _canonical_orbit(order, autos, cell) == orbit
        if not cell >> new & 1:
            verdict = "reject"
            assert not searched and not orbit >> new & 1
        elif cell == 1 << new:
            verdict = "accept"
            assert searched and orbit == 1 << new
        else:
            verdict = "search"
            assert searched
        verdicts[verdict] += 1
    assert verdicts == {"reject": 386, "accept": 793, "search": 460}


def _networkx_orbits(g):
    """Bitmask of each vertex's Aut(g)-orbit, from networkx's matcher."""
    h = to_nx(g)
    orbits = [0] * g.n
    for iso in GraphMatcher(h, h).isomorphisms_iter():
        for u, w in iso.items():
            orbits[u] |= 1 << w
    return orbits


def _accepted(adj, n):
    """(code, vertices v such that enumerate_codes keeps G as (G - v) + v).

    v must have maximum degree, and be either the only such vertex or in
    the canonical orbit.
    """
    top = max(row.bit_count() for row in adj)
    tops = mask_of(v for v in range(n) if adj[v].bit_count() == top)
    code, orbit = _search(adj, n)
    return code, tops if tops.bit_count() == 1 else tops & orbit


def test_acceptance_rule_accepts_one_automorphism_orbit():
    # On every class the accepted vertices form one whole Aut(G)-orbit,
    # and a relabeling carries them onto the relabeled graph's.
    rng = random.Random(13)
    for n in range(1, 8):
        for code in enumerate_codes(n):
            g = graph_from_code(code, n)
            got, mask = _accepted(g.adj, n)
            assert got == code
            assert mask and mask == _networkx_orbits(g)[mask.bit_length() - 1]
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                h = from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])
                image = mask_of(perm[v] for v in bits(mask))
                assert _accepted(h.adj, n) == (code, image)


def test_enumeration_at_n8_is_canonical_and_matches_golden():
    codes = enumerate_codes(8)
    assert len(set(codes)) == KNOWN_COUNTS[8]
    for code in codes:
        assert kernels.canonical_code(graph_from_code(code, 8).adj, 8) == code
    # sha256 of every level up to n = 8, as the global-set enumeration
    # produced them
    levels = repr([enumerate_codes(n) for n in range(1, 9)]).encode()
    assert sha256(levels).hexdigest()[:16] == "a5a9635c40ba05c9"
    # no level extends the cap level, so it carries nothing
    assert codes.carried == ()


def test_enumerate_small_yields_valid_canonical_graphs():
    seen = []
    for g in enumerate_small(5):
        validate_graph(g)
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
    with pytest.raises(EnumerationCapExceeded):
        enumerate_codes(ENUM_CAP + 1)


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
