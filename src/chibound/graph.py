"""Immutable bitset-backed simple undirected graphs.

Vertices are dense integers 0..n-1.  Vertex sets are plain Python ints
used as bitmasks, so all set algebra is &, |, ^ and bit_count().

A graph's adjacency code is its upper triangle read column by column,
(0,1), (0,2), (1,2), (0,3), ..., as one n(n-1)/2-bit integer whose most
significant bit is the pair (0,1).  It is graph6's body before padding
(McKay, "graph6 and sparse6 graph formats") and the order in which
kernels.canonical_code compares leaves.  Graph.code packs it and
from_code unpacks it; nothing else reads or writes the bits.

A Graph is immutable and keeps what is derived from it: its code, and
_found, detect.embedding's memo of induced-pattern answers by pattern rows.
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

    __slots__ = ("n", "adj", "_code", "_found")

    def __init__(self, n: int, adj):
        self.n = n
        self.adj = tuple(adj)
        self._code = None
        self._found = {}

    @property
    def code(self) -> int:
        """The adjacency code: kept from from_code, else packed once.

        Column j is row j below the diagonal, bits j - 1 down to 0 (bin()
        of the row with a sentinel bit j).  Joined last column first, the
        columns spell the code's binary string backwards.
        """
        if self._code is None:
            adj = self.adj
            text = "".join([bin(adj[j] & ((1 << j) - 1) | 1 << j)[3:]
                            for j in range(self.n - 1, 0, -1)])
            self._code = int(text[::-1] or "0", 2)
        return self._code

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


def from_code(code: int, n: int) -> Graph:
    """The graph on n vertices whose adjacency code (Graph.code) is code.

    Column j of the code is row j below the diagonal, and each of its set
    bits i adds j to row i.  Columns are read sixteen at a time, as one int
    from a slice of the code's reversed binary string, so no shift touches
    more than 16n bits and the unpack is linear in n^2.
    """
    total = n * (n - 1) // 2
    if code >> total:
        raise GraphError(f"an adjacency code for n={n} lies in 0 .. 2**{total} - 1")
    adj = [0] * n
    # The code's binary string, reversed (bin() of it with a sentinel bit
    # total): column j is text[total - j(j+1)/2 : total - j(j-1)/2].
    text = bin(code | 1 << total)[:2:-1]
    end = total
    for first in range(1, n, 16):
        last = min(first + 16, n)
        width = (last * (last - 1) - first * (first - 1)) // 2
        block = int(text[end - width:end], 2)
        end -= width
        for j in range(first, last):
            col = block & ((1 << j) - 1)
            block >>= j
            adj[j] = col
            bit = 1 << j
            while col:
                i = col.bit_length() - 1
                adj[i] |= bit
                col ^= 1 << i
    g = Graph(n, adj)
    g._code = code
    return g


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
