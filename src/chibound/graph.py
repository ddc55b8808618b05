"""Immutable bitset-backed simple undirected graphs.

Vertices are dense integers 0..n-1.  Vertex sets are plain Python ints
used as bitmasks, so all set algebra is &, |, ^ and bit_count().
"""

from __future__ import annotations

MAX_VERTICES = 512


class GraphError(ValueError):
    pass


def bits(mask: int):
    """Iterate the set bit positions of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Graph:
    """A simple undirected graph with bitmask adjacency rows."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj):
        self.n = n
        self.adj = tuple(adj)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.num_edges()})"

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self):
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1) << (u + 1)
            for v in bits(rest):
                yield (u, v)

    def num_edges(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2


def from_edges(n: int, edges) -> Graph:
    """Build a graph from an explicit edge list."""
    if n < 0 or n > MAX_VERTICES:
        raise GraphError(f"vertex count {n} out of range 0..{MAX_VERTICES}")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge endpoint out of range: ({u},{v}) with n={n}")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, adj)


def neighborhood(g: Graph, x: int) -> int:
    """N(x): vertices outside x with a neighbor in x."""
    out = 0
    for v in bits(x):
        out |= g.adj[v]
    return out & ~x


def is_clique(g: Graph, x: int) -> bool:
    return all(g.adj[v] & x == x & ~(1 << v) for v in bits(x))


def connected_components(g: Graph, within: int | None = None):
    """Connected components of the subgraph induced on `within` (default V)."""
    remaining = g.full_mask() if within is None else within
    comps = []
    while remaining:
        start = remaining & -remaining
        comp = start
        frontier = start
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= g.adj[v]
            nxt &= remaining & ~comp
            comp |= nxt
            frontier = nxt
        comps.append(comp)
        remaining &= ~comp
    return comps


def to_dot(g: Graph, name: str = "g") -> str:
    """DOT export for debugging; not a stable interface."""
    lines = [f"graph {name} {{"]
    for v in range(g.n):
        lines.append(f"  {v};")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines)
