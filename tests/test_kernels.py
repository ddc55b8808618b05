import gc
import random
from itertools import combinations, permutations

import pytest

from chibound import color, detect, kernels, oracles
from chibound.graph import Graph, bits, from_edges, is_clique, mask_of
from chibound.smallgraphs import enumerate_codes, graph_from_code
from reference import (canon_code_py, canonical_code_lists, group_order,
                       is_automorphism, networkx_aut_order, refine_lists,
                       root_partition_lists)


def _random_adj(rng, n, p):
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def _code_of_perm(adj, n, perm):
    code = 0
    for j in range(1, n):
        for i in range(j):
            code = (code << 1) | (adj[perm[i]] >> perm[j] & 1)
    return code


def _canon_bruteforce(adj, n):
    return min(_code_of_perm(adj, n, p) for p in permutations(range(n)))


def _relabel(adj, perm):
    out = [0] * len(adj)
    for i, row in enumerate(adj):
        for j in range(len(adj)):
            if row >> j & 1:
                out[perm[i]] |= 1 << perm[j]
    return out


def _cycles(*lengths):
    edges, start = [], 0
    for k in lengths:
        edges += [(start + i, start + (i + 1) % k) for i in range(k)]
        start += k
    return from_edges(start, edges).adj


def _symmetric_graphs():
    """Regular graphs, on which refinement alone splits nothing.

    The vertex-transitive ones are the search's worst cases (many equal
    branches); in C3+C4 and C3+C5 the first cell mixes inequivalent
    vertices, so a search that skipped any non-twin branch would depend on
    the labeling.
    """
    k44 = [(u, v) for u in range(4) for v in range(4, 8)]
    k2222 = [(u, v) for u in range(8) for v in range(u + 1, 8) if u // 2 != v // 2]
    q3 = [(u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b]
    petersen = ([(i, (i + 1) % 5) for i in range(5)]
                + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                + [(i, i + 5) for i in range(5)])
    return {
        "K8": from_edges(8, combinations(range(8), 2)).adj,
        "empty8": [0] * 8,
        "C8": _cycles(8),
        "C3+C4": _cycles(3, 4),
        "C3+C5": _cycles(3, 5),
        "Q3": from_edges(8, q3).adj,
        "K4,4": from_edges(8, k44).adj,
        "K2,2,2,2": from_edges(8, k2222).adj,
        "Petersen": from_edges(10, petersen).adj,
    }


def _clique_bruteforce(adj, cand):
    g = Graph(len(adj), adj)
    verts = [v for v in range(len(adj)) if cand >> v & 1]
    for size in range(len(verts), 0, -1):
        for combo in combinations(verts, size):
            if is_clique(g, mask_of(combo)):
                return size
    return 0


def test_canon_pure_vs_bruteforce():
    rng = random.Random(5)
    for _ in range(120):
        n = rng.randrange(1, 7)
        adj = _random_adj(rng, n, rng.random())
        assert canon_code_py(adj, n) == _canon_bruteforce(adj, n)


def test_canon_classes_match_lexmin_oracle():
    # Half the pairs are relabelings (isomorphic), half share n and the
    # edge count (often isomorphic at small n, often not).
    rng = random.Random(6)
    agree = differ = 0
    for _ in range(300):
        n = rng.randrange(1, 9)
        a = _random_adj(rng, n, rng.random())
        if rng.random() < 0.5:
            perm = list(range(n))
            rng.shuffle(perm)
            b = _relabel(a, perm)
        else:
            pairs = list(combinations(range(n), 2))
            m = sum(row.bit_count() for row in a) // 2
            b = from_edges(n, rng.sample(pairs, m)).adj
        same = canon_code_py(a, n) == canon_code_py(b, n)
        assert (kernels.canonical_code(a, n) == kernels.canonical_code(b, n)) == same
        agree += same
        differ += not same
    assert agree > 100 and differ > 50


@pytest.mark.parametrize("name", sorted(_symmetric_graphs()))
def test_canon_invariant_on_symmetric_graphs(name):
    adj = _symmetric_graphs()[name]
    n = len(adj)
    code = kernels.canonical_code(adj, n)
    rng = random.Random(n)
    for _ in range(5):
        perm = list(range(n))
        rng.shuffle(perm)
        assert kernels.canonical_code(_relabel(adj, perm), n) == code
    decoded = graph_from_code(code, n)
    assert canon_code_py(decoded.adj, n) == canon_code_py(adj, n)


def test_canon_code_decodes_to_same_class():
    rng = random.Random(7)
    for _ in range(150):
        n = rng.randrange(1, 9)
        adj = _random_adj(rng, n, rng.random())
        decoded = graph_from_code(kernels.canonical_code(adj, n), n)
        assert canon_code_py(decoded.adj, n) == canon_code_py(adj, n)


def test_canon_invariant_under_relabeling():
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randrange(2, 7)
        adj = _random_adj(rng, n, 0.5)
        perm = list(range(n))
        rng.shuffle(perm)
        assert (kernels.canonical_code(adj, n)
                == kernels.canonical_code(_relabel(adj, perm), n))


def test_clique_kernel_vs_bruteforce():
    rng = random.Random(9)
    for _ in range(120):
        n = rng.randrange(1, 9)
        adj = _random_adj(rng, n, rng.random())
        cand = rng.randrange(1 << n)
        expect = _clique_bruteforce(adj, cand)
        assert kernels.clique_number_sub(adj, cand) == expect


def test_clique_kernel_beyond_numba_width():
    # 70 vertices: a mask wider than 64 bits
    n = 70
    adj = [0] * n
    trio = [10, 40, 69]
    for i in trio:
        for j in trio:
            if i != j:
                adj[i] |= 1 << j
    assert kernels.clique_number_sub(adj, (1 << n) - 1) == 3


def test_trivial_codes():
    assert kernels.canonical_code([0], 1) == 0
    assert kernels.canonical_code([], 0) == 0
    # K3 has all bits set: code 0b111
    k3 = [0b110, 0b101, 0b011]
    assert kernels.canonical_code(k3, 3) == 0b111


def _refine_every_cell(adj, cells):
    """Equitable refinement of mask cells keying every round on every
    cell's counts."""
    while True:
        out = []
        for cell in cells:
            parts = {}
            for v in bits(cell):
                key = tuple((adj[v] & m).bit_count() for m in cells)
                parts[key] = parts.get(key, 0) | 1 << v
            out.extend(parts[key] for key in sorted(parts))
        if len(out) == len(cells):
            return out
        cells = out


def _classes_and_seeded_graphs(n_max):
    """Every class with n <= n_max, seeded random graphs with n <= 16 and
    the symmetric graphs."""
    rng = random.Random(21)
    graphs = [graph_from_code(code, n).adj
              for n in range(1, n_max + 1) for code in enumerate_codes(n)]
    graphs += [_random_adj(rng, n, rng.random()) for n in range(2, 17)
               for _ in range(20)]
    return graphs + list(_symmetric_graphs().values())


def _individualized(cells):
    """(v, the cells with v split off its cell) for each vertex v of the
    first non-singleton cell, the search's first branches."""
    for t, target in enumerate(cells):
        if target & (target - 1):
            return [(v, cells[:t] + [1 << v, target & ~(1 << v)] + cells[t + 1:])
                    for v in bits(target)]
    return []


def test_refine_with_splitters_matches_every_cell_keys():
    # The search refines the degree partition with every cell as a
    # splitter, and an individualized vertex v with [v] alone; both must
    # give the same ordered cells as keying on every cell each round.
    for adj in _classes_and_seeded_graphs(6):
        n = len(adj)
        by_degree = {}
        for v in range(n):
            d = adj[v].bit_count()
            by_degree[d] = by_degree.get(d, 0) | 1 << v
        start = [by_degree[d] for d in sorted(by_degree)]
        cells = kernels.root_partition(adj, n)
        assert cells == _refine_every_cell(adj, start)
        for v, split in _individualized(cells):
            assert (kernels._refine(adj, split, [1 << v])
                    == _refine_every_cell(adj, split))


def test_mask_cells_match_list_cells():
    # The kernel keeps cells as vertex masks; tests/reference.py keeps the
    # same search on ascending lists.  Masks visit the same vertices in the
    # same order, so the ordered cells and every search result must agree.
    for adj in _classes_and_seeded_graphs(7):
        n = len(adj)
        root = kernels.root_partition(adj, n)
        assert root == [mask_of(c) for c in root_partition_lists(adj, n)]
        for v, split in _individualized(root):
            lists = [list(bits(cell)) for cell in split]
            assert kernels._refine(adj, split, [1 << v]) == [
                mask_of(c) for c in refine_lists(adj, lists, [1 << v])]
        want_autos, want_order = [], []
        want = canonical_code_lists(adj, n, want_autos, want_order)
        autos, order = [], []
        assert kernels.canonical_code(adj, n, autos, order) == want
        assert (order, autos) == (want_order, want_autos)


def test_search_from_a_given_root_matches_a_fresh_search():
    # enumerate_codes refines a tied child once and hands that root to the
    # search: the code, the least leaf's order and the generators must be
    # those of a search that refines the degree partition itself, and the
    # caller's root must come back unchanged.
    rng = random.Random(22)
    graphs = [graph_from_code(code, n).adj
              for n in range(1, 7) for code in enumerate_codes(n)]
    graphs += list(_symmetric_graphs().values())
    graphs += [_random_adj(rng, n, rng.random()) for n in range(2, 17)
               for _ in range(20)]
    for adj in graphs:
        n = len(adj)
        want_autos, want_order = [], []
        want = kernels.canonical_code(adj, n, want_autos, want_order)
        root = kernels.root_partition(adj, n)
        copy = list(root)
        autos, order = [], []
        assert kernels.canonical_code(adj, n, autos, order, root=root) == want
        assert (order, autos) == (want_order, want_autos)
        assert kernels.canonical_code(adj, n, root=root) == want
        assert root == copy


# ------------------------------------------------------- automorphism group

def _check_generators(adj):
    n = len(adj)
    gens = []
    kernels.canonical_code(adj, n, gens)
    for perm in gens:
        assert is_automorphism(adj, perm), perm
    assert group_order(gens, n) == networkx_aut_order(adj)


def test_automorphism_generators_on_every_small_graph():
    for n in range(1, 7):
        for code in enumerate_codes(n):
            _check_generators(graph_from_code(code, n).adj)


def test_automorphism_generators_on_random_graphs():
    # Edge densities away from 0 and 1 keep the groups small enough to list.
    rng = random.Random(10)
    for _ in range(200):
        n = rng.randrange(1, 10)
        _check_generators(_random_adj(rng, n, rng.uniform(0.2, 0.8)))


@pytest.mark.parametrize("name", ["K8", "C8", "Q3", "K4,4", "Petersen",
                                  "C3+C4", "C3+C5"])
def test_automorphism_generators_on_symmetric_graphs(name):
    _check_generators(_symmetric_graphs()[name])



def test_recursive_searches_leave_no_garbage():
    # Each of the first five searches is a nested function that calls
    # itself, so its closure cell holds it in a reference cycle; each
    # breaks the cycle once its search ends.  _lift_layers (THM5A on K5) is
    # one loop with no nested function, kept here so that none returns.
    # With the collector off, one call of each on a small graph leaves
    # nothing for gc.collect(): find_induced's rec, clique_number_sub's
    # rec, canonical_code's search, odd_hole's grow, maximal_low_omega_sets's
    # search and _lift_layers.
    g = from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 5),
                       (5, 6)])
    c5 = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    k5 = from_edges(5, list(combinations(range(5), 2)))
    calls = {
        "find_induced": lambda: detect.find_induced(g, c5),
        "clique_number_sub": lambda: kernels.clique_number_sub(g.adj, g.full_mask()),
        "canonical_code": lambda: kernels.canonical_code(g.adj, g.n),
        "odd_hole": lambda: oracles.odd_hole(g),
        "maximal_low_omega_sets": lambda: oracles.maximal_low_omega_sets(
            g, 2, lambda s: 0),
        "_lift_layers": lambda: color.color_thm5a(oracles.GraphOracles(k5), 5),
    }
    enabled = gc.isenabled()
    gc.disable()
    try:
        for name, call in calls.items():
            gc.collect()
            call()
            assert gc.collect() == 0, name
    finally:
        if enabled:
            gc.enable()
