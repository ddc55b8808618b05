"""Slow, independent references the tests compare the package against, and
explicit constructions of the graphs that test THM5B."""

from itertools import product

import networkx as nx

from chibound import kernels
from chibound.graph import Graph, GraphError, bits, from_edges
from chibound.oracles import OracleCapExceeded


def canon_code_py(adj, n: int) -> int:
    """Lexicographically minimal adjacency code over all vertex permutations.

    Exponential in n; the oracle for kernels.canonical_code's classes.
    """
    if n <= 1:
        return 0
    total = n * (n - 1) // 2
    best = 0
    for j in range(1, n):
        for i in range(j):
            best = (best << 1) | (adj[i] >> j & 1)
    perm = [0] * n

    def rec(pos, used, cur, bits_done):
        nonlocal best
        if pos == n:
            if cur < best:
                best = cur
            return
        for v in range(n):
            if used >> v & 1:
                continue
            chunk = 0
            for j in range(pos):
                chunk = (chunk << 1) | (adj[perm[j]] >> v & 1)
            cur2 = (cur << pos) | chunk
            bits2 = bits_done + pos
            if cur2 > best >> (total - bits2):
                continue
            perm[pos] = v
            rec(pos + 1, used | (1 << v), cur2, bits2)

    rec(0, 0, 0, 0)
    return best


def chromatic_number_bruteforce(g: Graph, cap: int = 7) -> int:
    """Chromatic number by trying every assignment in k^n order."""
    if g.n == 0:
        return 0
    if g.n > cap:
        raise OracleCapExceeded("chromatic_number_bruteforce", g.n, cap)
    edges = list(g.edges())
    for k in range(1, g.n + 1):
        for assignment in product(range(k), repeat=g.n):
            if all(assignment[u] != assignment[v] for u, v in edges):
                return k
    return g.n  # pragma: no cover


def maximal_low_omega_sets_unpivoted(g: Graph, t: int) -> list:
    """The inclusion-maximal vertex sets with omega <= t, as masks: the slow
    path for oracles.maximal_low_omega_sets, its search without the pivot.

    Bron & Kerbosch over (S, P, X) for the hereditary property "omega <= t":
    every vertex of P is branched on in ascending order, and a node is cut
    when some x in X has no neighbour in P, since x can then join every set
    below it.  The closing test is the per-vertex one for every t.
    """
    adj = g.adj
    found = []

    def closing(s, v, cand):
        near = cand & adj[v]
        if t == 1:
            return near
        common = s & adj[v]
        out = 0
        for u in bits(near):
            shared = common & adj[u]
            if (shared.bit_count() >= t - 1
                    and kernels.clique_number_sub(adj, shared) >= t - 1):
                out |= 1 << u
        return out

    def search(s, p, x):
        while True:
            if any(not adj[u] & p for u in bits(x)):
                return
            if not p:
                found.append(s)
                return
            low = p & -p
            p ^= low
            drop = closing(s, low.bit_length() - 1, p | x)
            search(s | low, p & ~drop, x & ~drop)
            x |= low

    search(0, g.full_mask(), 0)
    return found


def induced_subgraph(g: Graph, vs: int):
    """Induced subgraph on the vertex mask vs, relabelled to 0..|vs|-1.

    Returns (subgraph, index_map) where index_map[i] is the original
    vertex behind new index i.
    """
    if vs & ~g.full_mask():
        raise GraphError("vertex set contains out-of-range index")
    index_map = list(bits(vs))
    pos = {v: i for i, v in enumerate(index_map)}
    adj = []
    for v in index_map:
        row = 0
        for u in bits(g.adj[v] & vs):
            row |= 1 << pos[u]
        adj.append(row)
    return Graph(len(index_map), adj), index_map


def to_nx(g: Graph):
    """g as a networkx graph on the same vertices, for networkx's oracles."""
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


def rook(q):
    """The rook's graph Kq x Kq: cells of a q x q board, adjacent when they
    share a row or a column."""
    cells = [(r, c) for r in range(q) for c in range(q)]
    return from_edges(q * q, [(i, j) for i, a in enumerate(cells)
                              for j, b in enumerate(cells[:i])
                              if a[0] == b[0] or a[1] == b[1]])


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


def w3():
    """W(3): the points of PG(3,3), adjacent when
    x1y2 - x2y1 + x3y4 - x4y3 = 0."""
    return _orthogonality_graph(
        _projective_points(4),
        lambda x, y: x[0] * y[1] - x[1] * y[0] + x[2] * y[3] - x[3] * y[2])


def q43():
    """Q(4,3): the zeros of x0^2 + x1x2 + x3x4 in PG(4,3), adjacent when
    orthogonal under the form's polarity."""
    points = [p for p in _projective_points(5)
              if (p[0] ** 2 + p[1] * p[2] + p[3] * p[4]) % 3 == 0]
    return _orthogonality_graph(
        points, lambda x, y: (2 * x[0] * y[0] + x[1] * y[2] + x[2] * y[1]
                              + x[3] * y[4] + x[4] * y[3]))
