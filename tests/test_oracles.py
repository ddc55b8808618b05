import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chibound import kernels, oracles
from chibound.graph import (Graph, bits, connected_components, from_edges,
                            is_clique, mask_of)
from chibound.graph6 import parse_graph6, write_graph6
from chibound.decompose import decompose
from chibound.oracles import (GraphOracles, OracleCapExceeded, chi_n,
                              chromatic_number, clique_number, is_proper,
                              least_order, maximal_low_omega_sets,
                              max_clique, odd_hole, ramsey_upper)
from chibound.patterns import complete, cycle, path, pineapple
from chibound.smallgraphs import enumerate_small
from reference import (chi_n_unpivoted, chromatic_number_bruteforce,
                       chromatic_number_inclusion_exclusion, induced_subgraph,
                       maximal_low_omega_sets_unpivoted, q43, rook, to_nx,
                       w3)


def test_clique_number_basics():
    assert clique_number(Graph(0, [])) == 0
    assert clique_number(complete(6)) == 6
    assert clique_number(path(5)) == 2
    assert clique_number(cycle(5)) == 2
    assert clique_number(pineapple(4, 2)) == 4


def test_clique_number_in_mask():
    g = pineapple(4, 2)
    assert clique_number(g, mask_of([0, 4, 5])) == 2
    assert clique_number(g, within=0) == 0
    assert max_clique(g, within=0) == 0


def test_max_clique_exhaustive_up_to_7():
    # every vertex mask of every graph with n <= 6: the largest clique inside
    # it, least by its ascending vertex list among those of that size
    for g in enumerate_small(6):
        cliques = [m for m in range(1 << g.n) if is_clique(g, m)]
        for within in range(1 << g.n):
            best = min((m for m in cliques if not m & ~within),
                       key=lambda m: (-m.bit_count(), list(bits(m))))
            assert max_clique(g, within) == best, (g, within)
            assert clique_number(g, within) == best.bit_count(), (g, within)
        assert max_clique(g) == max_clique(g, g.full_mask())
        assert clique_number(g) == clique_number(g, g.full_mask())


def test_max_clique_is_lex_min():
    # two disjoint triangles: the clique on the smaller indices wins
    g = from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    assert max_clique(g) == mask_of([0, 1, 2])
    assert max_clique(g, mask_of([3, 4, 5])) == mask_of([3, 4, 5])


def test_max_clique_is_the_least_maximum_clique_of_networkx():
    # the least sorted vertex tuple among the maximum cliques that
    # networkx.find_cliques lists, on seeded G(n, p) and on three
    # vertex-transitive graphs with many maximum cliques
    rng = random.Random(14)
    graphs = [w3(), q43(), rook(4)]
    for _ in range(60):
        n, p = rng.randint(8, 40), rng.choice((0.25, 0.5, 0.7))
        graphs.append(from_edges(n, [(u, v) for v in range(n)
                                     for u in range(v) if rng.random() < p]))
    for g in graphs:
        cliques = [tuple(sorted(c)) for c in nx.find_cliques(to_nx(g))]
        omega = max(map(len, cliques))
        got = max_clique(g)
        assert is_clique(g, got) and got.bit_count() == omega
        assert tuple(bits(got)) == min(c for c in cliques if len(c) == omega)


def test_max_clique_is_one_kernel_search(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return search(*args)

    # One kernel search on a graph of three or more vertices, none on one
    # of at most two, which max_clique decides by its size and one
    # adjacency bit.  Graph(0, []) took one search before that rule moved
    # into max_clique.
    search = kernels.clique_number_sub
    monkeypatch.setattr(kernels, "clique_number_sub", counting)
    for g, searches in ((w3(), 1), (rook(4), 1), (pineapple(4, 2), 1),
                        (Graph(0, []), 0), (Graph(1, [0]), 0),
                        (from_edges(2, [(0, 1)]), 0)):
        calls.clear()
        max_clique(g)
        assert len(calls) == searches, g.adj


def test_graph_oracles_answer_as_the_plain_oracles_in_any_order():
    # clique(within) is max_clique(g, within), chi(within) is
    # chromatic_number(g, within=within)[0], coloring(within) is that pair
    # and decomposition(t, within) is decompose around that clique,
    # whichever set is asked first: V(g) of every graph with n <= 6 and
    # every vertex set of each graph with n <= 5, each asked of a fresh
    # object and of one object in ascending and in descending mask order.
    # None and V(g) are one question.
    for g in enumerate_small(6):
        masks = [None] if g.n > 5 else [None, *range(1 << g.n)]
        orders = [[within] for within in masks] + [masks, masks[::-1]]
        for order in orders:
            given = GraphOracles(g)
            for within in order:
                mask = g.full_mask() if within is None else within
                k = max_clique(g, mask)
                assert given.clique(within) == k, (g.adj, within)
                want = chromatic_number(g, within=mask)
                assert given.chi(within) == want[0]
                assert given.coloring(within) == want
                for t in (2, 3):
                    assert given.decomposition(t, within) == decompose(
                        g, t, mask, k)
        assert given.decomposition(2) is given.decomposition(2, g.full_mask())


def test_chromatic_number_known_values():
    assert chromatic_number(Graph(0, []))[0] == 0
    assert chromatic_number(Graph(3, [0, 0, 0]))[0] == 1
    assert chromatic_number(complete(5))[0] == 5
    assert chromatic_number(cycle(5))[0] == 3
    assert chromatic_number(cycle(6))[0] == 2
    chi, coloring = chromatic_number(pineapple(4, 2))
    assert chi == 4
    assert is_proper(pineapple(4, 2), coloring)
    assert max(coloring) == chi


def test_chromatic_number_vs_bruteforce_exhaustive():
    for g in enumerate_small(5):
        assert chromatic_number(g)[0] == chromatic_number_bruteforce(g)


def test_oracle_caps():
    # The caps live in GraphOracles; the library searches take none.
    big = Graph(20, [0] * 20)
    with pytest.raises(OracleCapExceeded) as info:
        GraphOracles(big, chi_cap=16).chi()
    assert (info.value.what, info.value.n, info.value.cap) == (
        "chromatic_number", 20, 16)
    assert chromatic_number(big) == (1, [1] * 20)
    with pytest.raises(OracleCapExceeded):
        chromatic_number_bruteforce(Graph(8, [0] * 8))
    with pytest.raises(OracleCapExceeded) as info:
        GraphOracles(Graph(13, [0] * 13), chin_cap=12).chi_n(2)
    assert (info.value.what, info.value.n, info.value.cap) == ("chi_n", 13, 12)
    assert chi_n(GraphOracles(Graph(13, [0] * 13)), 2) == 1
    # chi_n's cap guards the set search and the odd-hole search, which run
    # at t >= 2 only; at t <= 1 chi^(t) is min(omega, t), from one clique.
    over = GraphOracles(path(13), chin_cap=12)
    assert (over.chi_n(0), over.chi_n(1)) == (0, 1)
    with pytest.raises(OracleCapExceeded):
        over.chi_n(2)


def test_chi_n_examples():
    # K5: only subsets of size <= 2 have omega <= 2, so chi^(2) = 2
    assert chi_n(GraphOracles(complete(5)), 2) == 2
    # C5 is triangle-free, so the whole graph qualifies at n = 2
    assert chi_n(GraphOracles(cycle(5)), 2) == 3
    assert chi_n(GraphOracles(complete(4)), 4) == 4
    assert chi_n(GraphOracles(path(4)), 0) == 0
    with pytest.raises(ValueError):
        chi_n(GraphOracles(path(3)), -1)
    # the argument error comes before the cap check, below it and above it
    for chin_cap in (2, 3):
        with pytest.raises(ValueError):
            GraphOracles(path(3), chin_cap=chin_cap).chi_n(-1)


def test_chi_n_brute_reference():
    # independent re-computation over all induced subgraphs, no maximality cut
    for g in enumerate_small(5):
        for n in (1, 2, 3):
            best = 0
            for mask in range(1, g.full_mask() + 1):
                if clique_number(g, mask) <= n:
                    sub, _ = induced_subgraph(g, mask)
                    best = max(best, chromatic_number(sub)[0])
            assert chi_n(GraphOracles(g), n) == best


def test_chi_n_matches_unpivoted_reference_on_every_class_to_7():
    # The start, both cuts and the visit rule against the reference's
    # uncut search.
    graphs = list(enumerate_small(7))
    assert len(graphs) == 1252
    for g in graphs:
        assert chi_n(GraphOracles(g), 0) == 0
        for t in range(1, 5):
            assert chi_n(GraphOracles(g), t) == chi_n_unpivoted(g, t), \
                (write_graph6(g), t)


@st.composite
def _graphs(draw, max_n):
    n = draw(st.integers(0, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return from_edges(n, [e for e, k in zip(pairs, keep) if k])


def _k_colorable_reference(g, k):
    """DSATUR over a relabelled graph, as the oracle was before the class-mask
    core: a per-vertex color array and neighbour scans."""
    n = g.n
    colors = [0] * n
    degs = [g.degree(v) for v in range(n)]

    def rec(count, max_used):
        if count == n:
            return True
        best_v, best_key = -1, None
        for v in range(n):
            if colors[v]:
                continue
            sat = 0
            for u in bits(g.adj[v]):
                if colors[u]:
                    sat |= 1 << colors[u]
            key = (sat.bit_count(), degs[v], -v)
            if best_key is None or key > best_key:
                best_v, best_key = v, key
        v = best_v
        neighbor_colors = 0
        for u in bits(g.adj[v]):
            neighbor_colors |= 1 << colors[u]
        for c in range(1, min(k, max_used + 1) + 1):
            if neighbor_colors >> c & 1:
                continue
            colors[v] = c
            if rec(count + 1, max(max_used, c)):
                return True
            colors[v] = 0
        return False

    return list(colors) if rec(0, 0) else None


def _chromatic_reference(g):
    """(chi, coloring) by the reference DSATUR, counting up from omega."""
    if g.n == 0:
        return 0, []
    k = max(clique_number(g), 1)
    while _k_colorable_reference(g, k) is None:
        k += 1
    return k, _k_colorable_reference(g, k)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_graphs(9))
def test_dsatur_core_matches_reference_colorings(g):
    for k in range(g.n + 1):
        assert oracles._k_colorable(g, k) == _k_colorable_reference(g, k), k
    assert chromatic_number(g) == _chromatic_reference(g)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_graphs(9), st.integers(0, (1 << 9) - 1))
def test_chromatic_number_within_mask_matches_relabelled_subgraph(g, mask):
    mask &= g.full_mask()
    sub, index_map = induced_subgraph(g, mask)
    chi, sub_colors = _chromatic_reference(sub)
    colors = [0] * g.n
    for i, v in enumerate(index_map):
        colors[v] = sub_colors[i]
    assert chromatic_number(g, within=mask) == (chi, colors)
    _assert_dsatur_matches_reference(g, range(1, mask.bit_count() + 1), mask)


def _assert_dsatur_matches_reference(g, ks, mask=None):
    """_k_colorable(g, k, mask) against the reference on G[mask] relabelled:
    the same coloring, read through the relabelling, or both None."""
    mask = g.full_mask() if mask is None else mask
    sub, index_map = induced_subgraph(g, mask)
    for k in ks:
        found = oracles._k_colorable(g, k, mask)
        expected = _k_colorable_reference(sub, k)
        assert (found is None) == (expected is None), k
        if found is not None:
            assert [found[v] for v in index_map] == expected, k
            assert all(found[v] == 0 for v in bits(g.full_mask() & ~mask))


def test_dsatur_core_matches_reference_where_it_backtracks():
    # At n = 10-12 DSATUR backtracks at k = chi - 1 and below.
    for g in _half_batch():
        for within in (None, g.full_mask() & ~mask_of([2, 5, 8])):
            chi, _ = chromatic_number(g, within)
            omega = clique_number(g, within)
            _assert_dsatur_matches_reference(g, range(omega - 1, chi + 1), within)


def test_dsatur_core_matches_reference_on_the_algebraic_fixtures():
    # W(3) at k = 5 is the exhaustive case: every 5-coloring fails.
    for g, chi in ((rook(5), 5), (q43(), 5), (w3(), 6)):
        _assert_dsatur_matches_reference(g, (chi - 1, chi))
        assert oracles._k_colorable(g, chi - 1) is None


def test_chi_from_its_two_ends_matches_dsatur_and_inclusion_exclusion():
    # GraphOracles.chi returns |clique| with no search when first fit by
    # decreasing degree uses that many colors.  Its value must be DSATUR's
    # chi and the inclusion-exclusion reference's, and coloring(within)
    # must be chromatic_number's pair exactly, whether chi was asked first
    # or not: every graph with n <= 7 at V and at a seeded random mask, and
    # the 60 + 300 graphs at n = 10-12 at V and at a random mask.
    rng = random.Random(35)
    graphs = list(enumerate_small(7)) + _half_batch() + _ingest_batch()
    assert len(graphs) == 1252 + 60 + 300
    for g in graphs:
        for mask in (g.full_mask(), rng.getrandbits(g.n)):
            want = chromatic_number(g, within=mask)
            sub, _ = induced_subgraph(g, mask)
            assert want[0] == chromatic_number_inclusion_exclusion(sub)
            given = GraphOracles(g)
            assert given.chi(mask) == want[0], (write_graph6(g), mask)
            assert given.coloring(mask) == want
            assert GraphOracles(g).coloring(mask) == want


def test_chi_spares_dsatur_where_first_fit_meets_the_clique(monkeypatch):
    # Of perfbench's 300 ingest graphs, 265 have chi = omega, and on 223 of
    # them first fit by decreasing degree already uses omega colors: chi
    # runs no DSATUR there.  coloring() then asks DSATUR for chi colors
    # only, one search, and gives chromatic_number's pair.
    searched = []
    real = oracles.chromatic_number

    def chromatic(g, within, lower):
        searched.append(lower)
        return real(g, within, lower)

    monkeypatch.setattr(oracles, "chromatic_number", chromatic)
    tight = spared = 0
    for g in _ingest_batch():
        given = GraphOracles(g)
        searched.clear()
        chi = given.chi()
        tight += chi == clique_number(g)
        spared += not searched
        if not searched:
            assert chi == clique_number(g)
            assert given.coloring() == real(g)
            assert searched == [chi]
    assert (tight, spared) == (265, 223)


def test_chromatic_number_cap_counts_the_mask():
    big = Graph(20, [0] * 20)
    given = GraphOracles(big, chi_cap=16)
    with pytest.raises(OracleCapExceeded) as info:
        given.chi((1 << 17) - 1)
    assert (info.value.what, info.value.n, info.value.cap) == ("chromatic_number", 17, 16)
    with pytest.raises(OracleCapExceeded):
        given.coloring((1 << 17) - 1)
    assert given.chi((1 << 16) - 1) == 1
    chi, colors = given.coloring((1 << 16) - 1)
    assert chi == 1 and colors == [1] * 16 + [0] * 4
    assert given.chi(0) == 0
    assert given.coloring(0) == (0, [0] * 20)
    assert chromatic_number(big, within=0) == (0, [0] * 20)


def _omega_table(g):
    """omega(G[mask]) for every mask, indexed by mask: the masks with top
    vertex v are those below 1 << v with v added."""
    omega = [0]
    for v in range(g.n):
        omega += [max(w, 1 + omega[m & g.adj[v]]) for m, w in enumerate(omega)]
    return omega


def _maximal_sets_by_table(g, t):
    """The 2^n omega-table enumeration chi_n used before the search."""
    full = g.full_mask()
    omega = _omega_table(g)
    return {mask for mask in range(full + 1) if omega[mask] <= t
            and all(omega[mask | 1 << u] > t for u in bits(full & ~mask))}


def _all_maximal(g, t):
    """Every maximal omega <= t set, by a visit that cuts nothing."""
    found = []
    maximal_low_omega_sets(g, t, lambda s: found.append(s) or 0)
    return found


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_graphs(8))
def test_maximal_low_omega_sets_match_table_enumeration(g):
    for t in range(1, 5):
        found = _all_maximal(g, t)
        assert len(found) == len(set(found)), t
        assert set(found) == _maximal_sets_by_table(g, t), t


def _gnp(rng, n, p):
    return from_edges(n, [(u, v) for v in range(n) for u in range(v)
                          if rng.random() < p])


def _half_batch():
    """60 seeded G(n, 1/2), 20 each at n = 10, 11 and 12."""
    rng = random.Random(15)
    return [_gnp(rng, n, 0.5) for n in (10, 11, 12) for _ in range(20)]


def _ingest_batch():
    """perfbench's ingest graphs at its seed 0: 300 G(n, 1/2), 100 each at
    n = 10, 11 and 12, each pair u < v drawn in row order."""
    rng = random.Random(0)
    graphs = []
    for n in (10, 11, 12):
        for _ in range(100):
            adj = [0] * n
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.5:
                        adj[u] |= 1 << v
                        adj[v] |= 1 << u
            graphs.append(Graph(n, adj))
    return graphs


def test_max_clique_is_the_max_clique_of_its_component():
    # The colorers take g's maximum clique as that of the component that
    # holds it, and search every other component for its own.
    rng = random.Random(30)
    graphs = list(enumerate_small(7)) + [
        _gnp(rng, n, p) for n in range(8, 31) for p in (0.1, 0.3, 0.6)]
    assert len(graphs) == 1252 + 23 * 3
    for g in graphs:
        k = max_clique(g)
        [comp] = [c for c in connected_components(g, g.full_mask()) if c & k]
        assert max_clique(g, comp) == k, write_graph6(g)


def test_maximal_low_omega_sets_match_unpivoted_search_and_table():
    rng = random.Random(21)
    for n in range(9, 13):
        for p in (0.2, 0.5, 0.8):
            for _ in range(2):
                g = _gnp(rng, n, p)
                for t in range(1, 5):
                    found = _all_maximal(g, t)
                    assert len(found) == len(set(found)), (n, p, t)
                    want = set(maximal_low_omega_sets_unpivoted(g, t))
                    assert set(found) == want, (n, p, t)
                    assert want == _maximal_sets_by_table(g, t), (n, p, t)


def test_maximal_low_omega_sets_at_t1_are_networkx_maximal_independent_sets():
    rng = random.Random(22)
    graphs = [rook(4)] + [_gnp(rng, rng.randint(5, 16), p)
                          for p in (0.2, 0.5, 0.8) for _ in range(15)]
    for g in graphs:
        found = _all_maximal(g, 1)
        assert len(found) == len(set(found))
        complement = nx.complement(to_nx(g))
        assert set(found) == {mask_of(c) for c in nx.find_cliques(complement)}


def test_pivot_spares_closing_tests(monkeypatch):
    # Kernel calls made by the closing test at t = 3 over the batch: the
    # pivot branches on fewer vertices than the unpivoted search.
    calls = []
    search = kernels.clique_number_sub

    def counting(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(kernels, "clique_number_sub", counting)
    for g in _half_batch():
        _all_maximal(g, 3)
    pivoted = len(calls)
    calls.clear()
    for g in _half_batch():
        maximal_low_omega_sets_unpivoted(g, 3)
    assert (pivoted, len(calls)) == (6183, 23983)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_graphs(8))
def test_chi_n_matches_reference_over_all_induced_subgraphs(g):
    by_size = sorted(range(1 << g.n), key=lambda m: -m.bit_count())
    for t in range(5):
        # Largest sets first; a set no larger than the best chi cannot beat it.
        best = 0
        for mask in by_size:
            if mask.bit_count() <= best:
                break
            if clique_number(g, mask) <= t:
                sub, _ = induced_subgraph(g, mask)
                best = max(best, chromatic_number_bruteforce(sub, cap=8))
        assert chi_n(GraphOracles(g), t) == best, t


def test_chi_n_checks_chi_cap_on_maximal_sets_first(monkeypatch):
    # C5 plus five isolated vertices at t = 3: its clique starts best at 2,
    # and its one maximal set, all 10 vertices, fails first fit and DSATUR
    # at 2 colors, so it must be colored exactly: over chi_cap it raises
    # before oracles.chi runs its first-fit bound, at best + 1 = 3 colors,
    # or asks chromatic_number anything.  (chi_n's own first fit, at 2
    # colors, still runs.)  The edgeless graph on 10 vertices is decided at
    # t = 1 from its clique, with no set colored.
    def no_chromatic(*args):
        raise AssertionError("a capped set reached a bound or chromatic_number")

    def first_fit(g, k, within):
        if k == 3:
            no_chromatic()
        return real_first_fit(g, k, within)

    real_first_fit = oracles._first_fit
    g = from_edges(10, [(i, (i + 1) % 5) for i in range(5)])
    with monkeypatch.context() as patched:
        patched.setattr(oracles, "_first_fit", first_fit)
        patched.setattr(oracles, "chromatic_number", no_chromatic)
        with pytest.raises(OracleCapExceeded) as info:
            GraphOracles(g, chi_cap=8).chi_n(3)
        assert GraphOracles(Graph(10, [0] * 10), chi_cap=8).chi_n(1) == 1
    assert (info.value.what, info.value.n, info.value.cap) == ("chromatic_number", 10, 8)
    assert str(info.value) == ("chromatic_number: graph has 10 vertices, "
                               "exact-oracle cap is 8")
    assert GraphOracles(g, chi_cap=10).chi_n(3) == 3


def test_chi_n_keeps_the_sets_it_colors_in_its_oracles(monkeypatch):
    # chi_n asks oracles.chi of each set it must color exactly, from a
    # start proved <= chi, so the kept answer is the one chi(within) gives
    # from its own clique, and coloring(within) is chromatic_number's pair.
    # Making the oracles searches nothing; the whole graph's clique is
    # found on the first ask.  A graph that asks nothing has chi^(t) at its
    # start: 3 at t = 2 from its odd hole, else min(omega, t) from its
    # clique.
    colored, kernel_calls, colored_any = [], [], []
    real_chi = GraphOracles.chi
    real_kernel = kernels.clique_number_sub

    def chi(self, within=None, lower=None):
        colored.append(within)
        return real_chi(self, within, lower)

    def kernel(*args):
        kernel_calls.append(args)
        return real_kernel(*args)

    for g in _half_batch()[::4]:
        for t in (2, 3):
            with monkeypatch.context() as patched:
                patched.setattr(GraphOracles, "chi", chi)
                patched.setattr(kernels, "clique_number_sub", kernel)
                colored.clear()
                kernel_calls.clear()
                given = GraphOracles(g)
                assert kernel_calls == []
                value = given.chi_n(t)
            start = 3 if t == 2 and odd_hole(g) else min(clique_number(g), t)
            assert value == max(map(given.chi, colored), default=start)
            colored_any.append((t, bool(colored)))
            for mask in colored:
                want = chromatic_number(g, within=mask)
                assert given.chi(mask) == GraphOracles(g).chi(mask) == want[0]
                assert given.coloring(mask) == want
    assert (colored_any.count((2, True)), colored_any.count((3, True))) \
        == (0, 12)


def test_chi_n_stops_at_sets_that_cannot_beat_best(monkeypatch):
    # K5 at t = 1: its clique starts best at min(5, 1) = 1, which is
    # chi^(1), so no set is searched, colored or checked.
    calls = {"chromatic_number": 0, "_k_colorable": 0}
    for name in calls:
        real = getattr(oracles, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(oracles, name, counting)
    assert chi_n(GraphOracles(complete(5)), 1) == 1
    assert calls == {"chromatic_number": 0, "_k_colorable": 0}


def test_chi_n_values_do_not_depend_on_the_first_fit_check(monkeypatch):
    graphs = _half_batch()
    with_check = [[chi_n(GraphOracles(g), t) for t in (2, 3)] for g in graphs]
    monkeypatch.setattr(oracles, "_first_fit", lambda g, k, within: False)
    assert [[chi_n(GraphOracles(g), t) for t in (2, 3)] for g in graphs] == with_check


@pytest.mark.parametrize("h, chi2", [
    (nx.cycle_graph(5), 3),
    (nx.petersen_graph(), 3),
    (nx.mycielski_graph(4), 4),
    (nx.chvatal_graph(), 4),
], ids=["C5", "Petersen", "Groetzsch", "Chvatal"])
def test_chi_n_of_triangle_free_named_graphs(h, chi2):
    h = nx.convert_node_labels_to_integers(h)
    assert chi_n(GraphOracles(from_edges(len(h), list(h.edges()))), 2) == chi2


def test_chi_n_finds_the_groetzsch_graph_behind_a_3_chromatic_set(monkeypatch):
    # The Groetzsch graph on vertices 1..11 with vertex 0 closing a triangle
    # on its edge 1-2.  Its odd hole starts best at 3, and the sets through
    # 0 have chi 3; its clique cover bounds every triangle-free set by 11,
    # not below least_order(2, 4) = 11, so the start must not end the
    # search, and the Groetzsch graph's own 11 vertices, chi 4, must survive
    # the cut at 11 from the root on: it is the one set whose chi is asked
    # of the oracles.
    h = nx.convert_node_labels_to_integers(nx.mycielski_graph(4))
    g = from_edges(12, [(u + 1, v + 1) for u, v in h.edges()] + [(0, 1), (0, 2)])
    assert write_graph6(g) == "KxOXQ_cP?o?^"
    colored = []
    real = GraphOracles.chi

    def chi(self, within=None, lower=None):
        colored.append(within)
        return real(self, within, lower)

    monkeypatch.setattr(GraphOracles, "chi", chi)
    assert chi_n(GraphOracles(g), 2) == 4
    assert colored == [g.full_mask() & ~1]


def test_least_order_bounds_every_graph_to_8():
    # No graph with omega <= t and chi >= k has fewer than least_order(t, k)
    # vertices; chi >= k for every k <= chi, so each k up to chi is checked.
    graphs = list(enumerate_small(8))
    assert len(graphs) == 13598
    for g in graphs:
        omega = clique_number(g)
        chi = chromatic_number(g, lower=omega)[0]
        for t in range(max(omega, 1), 5):
            for k in range(1, chi + 1):
                assert g.n >= least_order(t, k), (write_graph6(g), t, k)


@pytest.mark.parametrize("t, g6", [
    (2, "Dhc"), (3, "Ehfw"), (4, "Fhf~w"), (5, "Ghf~~{")])
def test_least_order_above_t_is_attained_by_c5_join_a_clique(t, g6):
    # C5 joined to K_(t-2): t + 3 vertices, omega = t, chi = chi^(t) = t + 1.
    g = parse_graph6(g6)
    join = nx.complement(nx.disjoint_union(
        nx.complement(nx.cycle_graph(5)),
        nx.complement(nx.complete_graph(t - 2))))
    assert nx.is_isomorphic(to_nx(g), join)
    assert (g.n, clique_number(g), chromatic_number(g)[0]) == (t + 3, t, t + 1)
    assert chi_n(GraphOracles(g), t) == t + 1
    assert least_order(t, t + 1) == g.n


def test_least_order_table_entries():
    groetzsch = nx.mycielski_graph(4)
    assert len(groetzsch) == 11 and not any(nx.triangles(groetzsch).values())
    assert least_order(2, 4) == len(groetzsch)
    assert [least_order(2, k) for k in range(1, 7)] == [1, 2, 5, 11, 22, 22]
    assert [least_order(3, k) for k in range(1, 6)] == [1, 2, 3, 6, 7]
    assert least_order(1, 1) == 1
    assert least_order(1, 2) == least_order(0, 1) == float("inf")


def test_size_cut_reports_exactly_the_maximal_sets_that_large():
    # A visit that always asks for `need` vertices sees the first maximal
    # set found, before it has asked, then every maximal set with at least
    # need vertices and no other, each once.
    rng = random.Random(23)
    for n in (8, 10, 12):
        for p in (0.3, 0.5, 0.7):
            g = _gnp(rng, n, p)
            for t in (1, 2, 3):
                every = maximal_low_omega_sets_unpivoted(g, t)
                for need in range(n + 2):
                    seen = []
                    maximal_low_omega_sets(
                        g, t, lambda s, need=need: seen.append(s) or need)
                    want = {m for m in every if m.bit_count() >= need}
                    assert len(seen) == len(set(seen)) and seen[0] in every
                    assert set(seen) == want | {seen[0]}, (n, p, t, need)


def test_size_cut_from_the_root_reports_exactly_the_maximal_sets_that_large():
    # A starting need cuts from the root on: with a visit that keeps asking
    # for it, only the maximal sets with at least need vertices are seen,
    # each once, the first one too.
    rng = random.Random(24)
    for n in (8, 10, 12):
        for p in (0.3, 0.5, 0.7):
            g = _gnp(rng, n, p)
            for t in (1, 2, 3):
                every = maximal_low_omega_sets_unpivoted(g, t)
                for need in range(n + 2):
                    seen = []
                    maximal_low_omega_sets(
                        g, t, lambda s, need=need: seen.append(s) or need,
                        need)
                    assert len(seen) == len(set(seen)), (n, p, t, need)
                    assert set(seen) == {
                        m for m in every if m.bit_count() >= need}


def test_first_fit_check_spares_dsatur_calls(monkeypatch):
    calls = []
    real = oracles._k_colorable

    def counting(*args):
        calls.append(args)
        return real(*args)

    def dsatur_calls():
        """(at t = 3, at t = 4), each from best = min(omega, t)"""
        counts = []
        for t in (3, 4):
            calls.clear()
            for g in _half_batch():
                chi_n(GraphOracles(g), t)
            counts.append(len(calls))
        return counts

    monkeypatch.setattr(oracles, "_k_colorable", counting)
    with_check = dsatur_calls()
    # First fit runs by decreasing degree in the set.  Before chi_n shared
    # that order with GraphOracles.chi it ran in ascending vertex order, and
    # the pins were (182, 612), (93, 194).
    monkeypatch.setattr(oracles, "_first_fit", lambda g, k, within: False)
    assert list(zip(with_check, dsatur_calls())) == [(59, 612), (28, 194)]


def test_inclusion_exclusion_reference_matches_bruteforce():
    for g in enumerate_small(6):
        assert chromatic_number_inclusion_exclusion(g) == \
            chromatic_number_bruteforce(g, cap=6)


def test_chromatic_number_matches_inclusion_exclusion_on_every_class_to_8():
    graphs = list(enumerate_small(8))
    assert len(graphs) == 13598
    for g in graphs:
        assert chromatic_number(g)[0] == chromatic_number_inclusion_exclusion(g)


def test_chromatic_number_matches_inclusion_exclusion_on_seeded_gnp():
    rng = random.Random(16)
    for n in range(10, 19):
        for p in (0.2, 0.5, 0.8):
            g = _gnp(rng, n, p)
            assert chromatic_number(g)[0] == \
                chromatic_number_inclusion_exclusion(g), (n, p)


def test_chi_n_matches_inclusion_exclusion_over_unpivoted_sets():
    # The reference search has no size cut: it lists every maximal set.
    rng = random.Random(17)
    for n in (9, 10, 11, 12, 13, 14):
        for p in (0.3, 0.5, 0.7):
            g = _gnp(rng, n, p)
            for t in (1, 2, 3, 4):
                want = max(chromatic_number_inclusion_exclusion(
                    induced_subgraph(g, mask)[0])
                    for mask in maximal_low_omega_sets_unpivoted(g, t))
                assert chi_n(GraphOracles(g), t) == want, (n, p, t)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_graphs(9), st.integers(0, (1 << 9) - 1))
def test_chromatic_number_from_a_proved_lower_bound(g, mask):
    # Any start up to chi, below omega too, differs only in counts that
    # fail: same chi, same coloring.
    mask &= g.full_mask()
    want = chromatic_number(g, within=mask)
    for lower in range(want[0] + 1):
        assert chromatic_number(g, within=mask, lower=lower) == want


def test_chi_n_asks_dsatur_only_above_best(monkeypatch):
    # A set that beats best is colored from best + 1 up: no DSATUR call
    # inside oracles.chi repeats a count chi_n has shown too small, the
    # count of the failed DSATUR call just before it.  At t = 2 no set of
    # this batch reaches oracles.chi, so t = 3 is checked too; first fit
    # decides every set that reaches it there, so the batch runs again with
    # first fit off, and then DSATUR must run inside oracles.chi.
    events, inside_calls = [], 0
    real_k, real_chi = oracles._k_colorable, GraphOracles.chi

    def k_colorable(g, k, within=None):
        events.append(("k", k))
        return real_k(g, k, within)

    def chi(*args, **kwargs):
        events.append(("start", None))
        value = real_chi(*args, **kwargs)
        events.append(("chi", value))
        return value

    monkeypatch.setattr(oracles, "_k_colorable", k_colorable)
    monkeypatch.setattr(GraphOracles, "chi", chi)
    for first_fit in (oracles._first_fit, lambda g, k, within: False):
        monkeypatch.setattr(oracles, "_first_fit", first_fit)
        for g in _half_batch():
            for t in (2, 3):
                events.clear()
                chi_n(GraphOracles(g), t)
                shown, inside = 0, False
                for what, value in events:
                    if what == "start":
                        inside = True
                    elif what == "chi":
                        inside = False
                    elif inside:
                        assert value > shown
                        inside_calls += 1
                    else:
                        shown = value
    assert inside_calls > 0


def _is_odd_hole(g, hole):
    """True when hole lists, in cycle order, an induced cycle of g of odd
    length >= 5."""
    k = len(hole)
    return (k >= 5 and k % 2 == 1 and len(set(hole)) == k
            and all(bool(g.adj[hole[i]] >> hole[j] & 1)
                    == (j - i in (1, k - 1))
                    for i in range(k) for j in range(i + 1, k)))


def test_odd_hole_is_one_exactly_when_networkx_finds_one():
    # networkx lists every chordless cycle; an odd one of length >= 5 is an
    # odd hole.  A hole returned is checked as a witness, which networkx
    # would list; a graph with none must have no such cycle in networkx.
    graphs = list(enumerate_small(8)) + _half_batch() + [
        cycle(9), pineapple(4, 2), rook(5)]
    assert len(graphs) == 13598 + 60 + 3
    found = []
    for g in graphs:
        hole = odd_hole(g)
        if hole is not None:
            assert _is_odd_hole(g, hole), (write_graph6(g), hole)
            found.append(len(hole))
        else:
            assert not any(len(c) % 2 and len(c) >= 5
                           for c in nx.chordless_cycles(to_nx(g))), \
                write_graph6(g)
    assert len(found) == 3593 + 53 + 1
    assert odd_hole(cycle(9)) == tuple(range(9))


def test_odd_hole_is_one_exactly_when_chi_2_is_3_or_more():
    # chi^(2) >= 3 exactly when g has an odd hole; chi_n then starts at 3,
    # and with none it is 2, or 1 with no edge, with no set searched.
    graphs = list(enumerate_small(7)) + _half_batch()
    for g in graphs:
        want = chi_n_unpivoted(g, 2)
        assert (odd_hole(g) is not None) == (want >= 3), write_graph6(g)
        assert chi_n(GraphOracles(g), 2) == want, write_graph6(g)


def test_clique_cover_bound_holds_every_set_with_low_omega():
    # n <= 8: every set, by the omega table; n = 9..14: every maximal set of
    # the unpivoted search.  Each is at most the greedy cover's bound.
    for g in enumerate_small(8):
        largest = [0] * (g.n + 1)
        for mask, omega in enumerate(_omega_table(g)):
            if mask.bit_count() > largest[omega]:
                largest[omega] = mask.bit_count()
        for t in range(1, 5):
            assert oracles._clique_cover_bound(g, t) >= max(
                largest[:t + 1]), (write_graph6(g), t)
    rng = random.Random(25)
    for n in range(9, 15):
        for p in (0.3, 0.5, 0.7):
            g = _gnp(rng, n, p)
            for t in range(1, 5):
                assert oracles._clique_cover_bound(g, t) >= max(
                    m.bit_count()
                    for m in maximal_low_omega_sets_unpivoted(g, t)), (n, p, t)


def test_clique_cover_cut_decides_most_graphs_with_an_odd_hole(monkeypatch):
    # At t = 2 a graph with an odd hole whose cover bound is below
    # least_order(2, 4) = 11 is decided with no set search: every such graph
    # of the batch.  The Groetzsch graph plus a vertex closing a triangle,
    # and the Chvatal graph, both on 12 vertices, bound 11 and 12 and are
    # searched.
    searched = []
    real = oracles.maximal_low_omega_sets

    def counting(g, t, visit, need=0):
        searched.append(g.n)
        return real(g, t, visit, need)

    monkeypatch.setattr(oracles, "maximal_low_omega_sets", counting)
    graphs = [g for g in _half_batch() if odd_hole(g) is not None]
    chvatal = nx.convert_node_labels_to_integers(nx.chvatal_graph())
    graphs += [parse_graph6("KxOXQ_cP?o?^"),
               from_edges(12, list(chvatal.edges()))]
    assert [oracles._clique_cover_bound(g, 2) for g in graphs[-2:]] == [11, 12]
    assert [chi_n(GraphOracles(g), 2) for g in graphs] == [3] * 53 + [4, 4]
    assert searched == [12, 12]


def test_chi_n_colors_no_set_of_a_graph_to_10_vertices_with_an_odd_hole(
        monkeypatch):
    # At t = 2 an odd hole starts best at 3 and asks least_order(2, 4) = 11
    # vertices of every set from the root on, so a graph on at most 10
    # vertices with an odd hole has chi^(2) = 3 with no set colored or
    # checked.
    graphs = [g for g in list(enumerate_small(7)) + _half_batch()[:20]
              if g.n <= 10 and odd_hole(g) is not None]
    petersen = nx.petersen_graph()
    graphs.append(from_edges(len(petersen), list(petersen.edges())))
    assert len(graphs) == 146 + 16 + 1

    def no_call(*args, **kwargs):
        raise AssertionError("a set was colored or checked")

    for name in ("chromatic_number", "_k_colorable", "_first_fit"):
        monkeypatch.setattr(oracles, name, no_call)
    assert [chi_n(GraphOracles(g), 2) for g in graphs] == [3] * len(graphs)


def test_ramsey_upper():
    assert ramsey_upper(3, 3) == 6
    for s in range(2, 13):
        assert ramsey_upper(s, 2) == s
        assert ramsey_upper(2, s) == s
    with pytest.raises(ValueError):
        ramsey_upper(0, 3)


def test_is_proper():
    g = path(3)
    assert is_proper(g, [1, 2, 1])
    assert not is_proper(g, [1, 1, 2])
    with pytest.raises(ValueError):
        is_proper(g, [1, 2])
    with pytest.raises(ValueError):
        is_proper(g, [1, None, 2])


def test_is_proper_matches_the_edge_definition():
    # is_proper checks each row against the mask of its own color; the
    # definition is that no edge has both ends in one color.  Every graph
    # with n <= 6, under its DSATUR coloring, seeded greedy colorings in
    # random vertex order (proper) and seeded random colorings with up to
    # three colors (mostly improper, some proper), some colors not ints.
    rng = random.Random(36)
    seen = {True: 0, False: 0}
    for g in enumerate_small(6):
        colorings = [chromatic_number(g)[1]]
        for _ in range(3):
            order = list(range(g.n))
            rng.shuffle(order)
            greedy = [None] * g.n
            for v in order:
                taken = {greedy[u] for u in bits(g.adj[v])}
                greedy[v] = next(c for c in range(g.n) if c not in taken)
            colorings.append(greedy)
            colorings.append([rng.randrange(3) for _ in range(g.n)])
        colorings.append(["ab"[rng.randrange(2)] for _ in range(g.n)])
        for coloring in colorings:
            want = all(coloring[u] != coloring[v] for u, v in g.edges())
            assert is_proper(g, coloring) == want, (g.adj, coloring)
            seen[want] += 1
    assert min(seen.values()) > 500
