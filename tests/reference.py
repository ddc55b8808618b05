"""Slow, independent references the tests compare the package against."""

from itertools import product

import networkx as nx

from chibound.graph import Graph, GraphError, bits
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
