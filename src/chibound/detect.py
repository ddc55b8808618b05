"""Induced-subgraph detection and hereditary class membership."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from .graph import Graph, bits, connected_components
from .oracles import clique_number
from .patterns import PatternInstance, make_pattern


@dataclass(frozen=True)
class Conditions:
    every_edge_in_two_triangles: bool = False
    min_omega: int | None = None


@dataclass(frozen=True)
class ClassSpec:
    """A hereditary class: forbidden induced patterns plus optional conditions."""

    forbidden: tuple
    conditions: Conditions = field(default_factory=Conditions)
    params: dict = field(default_factory=dict)
    id: str = ""

    def label(self) -> str:
        names = ", ".join(p.label() for p in self.forbidden)
        return self.id or f"{{{names}}}-free"


class MembershipReport(NamedTuple):
    """is_member's answer: member, else the first pattern or condition
    violated and its witness.  Truthy exactly when member."""

    member: bool
    violated: str | None = None       # pattern label or condition name
    witness: tuple | None = None      # embedding or witness edge/vertex tuple

    def __bool__(self):
        return self.member

    def to_dict(self):
        return {"member": self.member, "violated": self.violated,
                "witness": list(self.witness) if self.witness else None}


@lru_cache(maxsize=256)
def _plan(pattern: Graph):
    """find_induced's pattern-side data, computed once per pattern: the
    degree of each vertex, and later[i], the pairs (j, adjacent) for each
    pattern vertex j > i."""
    adj, p = pattern.adj, pattern.n
    degrees = tuple(row.bit_count() for row in adj)
    later = tuple(tuple((j, bool(adj[i] >> j & 1)) for j in range(i + 1, p))
                  for i in range(p))
    return degrees, later


def find_induced(host: Graph, pattern: Graph):
    """First induced embedding of pattern in host, or None.

    Deterministic: pattern vertices are mapped in index order and host
    candidates tried ascending, so the returned embedding is the
    lexicographically first one.

    Forward checking on candidate bitmasks (after VF2, Cordella et al.,
    IEEE TPAMI 26(10), 2004).  A pattern vertex of degree d starts with the
    host vertices h of d <= deg(h) <= n - p + d: its d neighbours map into
    N(h), and its p - 1 - d non-neighbours to the n - 1 - deg(h) other
    vertices outside N(h).  Mapping vertex i to h intersects every later
    vertex's mask with N(h) or with its complement minus h, and a branch
    ends as soon as some mask is empty.  The window and the cuts only
    remove candidates that no embedding can use, so the search order and
    its first hit are those of plain backtracking.
    """
    p, n = pattern.n, host.n
    if p == 0:
        raise ValueError("empty pattern")
    if p > n:
        return None
    degrees, later = _plan(pattern)
    hadj = host.adj
    full = (1 << n) - 1
    # at_least[d]: the host vertices of degree >= d, for d = 0..n
    at_least = [0] * (n + 1)
    for h, row in enumerate(hadj):
        at_least[row.bit_count()] |= 1 << h
    for d in range(n - 1, -1, -1):
        at_least[d] |= at_least[d + 1]
    cands = []
    for d in degrees:
        c = at_least[d] & ~at_least[n - p + d + 1]
        if not c:
            return None
        cands.append(c)
    image = [0] * p
    last = p - 1

    def rec(i, cands):
        m = cands[i]
        if i == last:
            image[i] = (m & -m).bit_length() - 1
            return True
        pairs = later[i]
        while m:
            low = m & -m
            m ^= low
            row = hadj[low.bit_length() - 1]
            non = full & ~row & ~low
            nxt = cands[:]
            for j, adjacent in pairs:
                c = nxt[j] & (row if adjacent else non)
                if not c:
                    break
                nxt[j] = c
            else:
                image[i] = low.bit_length() - 1
                if rec(i + 1, nxt):
                    return True
        return False

    found = rec(0, cands)
    del rec  # the closure holds itself: free it now, not at a collection
    return tuple(image) if found else None


def diamond_free_fast(g: Graph):
    """Fast diamond check: for every edge uv, N(u) ∩ N(v) must be a clique.

    Returns (True, None) or (False, (u, v, a, b)) with a diamond witness:
    the first edge uv with u < v in edges() order, the least a in the
    common neighbourhood with a non-neighbour there, and the least such b.
    An edge with at most one common neighbour holds no diamond and is
    skipped.
    """
    adj = g.adj
    for u in range(g.n):
        row = adj[u]
        m = row >> u + 1 << u + 1
        while m:
            low = m & -m
            m ^= low
            common = row & adj[low.bit_length() - 1]
            if not common & (common - 1):
                continue
            c = common
            while c:
                low_a = c & -c
                c ^= low_a
                missing = common & ~adj[low_a.bit_length() - 1] & ~low_a
                if missing:
                    return False, (u, low.bit_length() - 1,
                                   low_a.bit_length() - 1,
                                   (missing & -missing).bit_length() - 1)
    return True, None


def find_fan_triangles_diamond_free(g: Graph, l: int):
    """Induced l-fan-of-triangles embedding in a diamond-free host, or None.

    In a diamond-free graph the neighborhood of every vertex is a disjoint
    union of cliques (a non-clique component would yield an induced
    diamond).  Two triangles of an induced fan must therefore lie in
    distinct neighborhood cliques of the hub, so the fan exists exactly
    when some vertex has at least l neighborhood cliques of size >= 3.
    Much faster than the generic matcher for large l.

    Its embedding is find_induced's lex-first one: hubs go in ascending
    order, the cliques of N(hub) in order of least vertex, and each triangle
    takes the three least vertices of the next clique with at least three.
    """
    if l < 1:
        raise ValueError("need l >= 1")
    for hub in range(g.n):
        image = [hub]
        for comp in connected_components(g, within=g.adj[hub]):
            if comp.bit_count() >= 3:
                image.extend(list(bits(comp))[:3])
                if len(image) == 3 * l + 1:
                    return tuple(image)
    return None


def every_edge_two_triangles(g: Graph):
    """(True, None) if every edge lies in at least two triangles, else
    (False, (u, v)) for the first edge that does not."""
    for u, v in g.edges():
        if (g.adj[u] & g.adj[v]).bit_count() < 2:
            return False, (u, v)
    return True, None


# The diamond's adjacency rows, which f1 at t = 2 shares: embedding tests
# a pattern graph's rows against them, not its name.
_DIAMOND = make_pattern("diamond").graph.adj


def embedding(host: Graph, pat: PatternInstance):
    """The lex-first induced embedding of pat.graph in host, or None: the
    one search behind every membership and hypothesis question.

    Each answer is kept in host's memo (Graph._found) under the pattern
    graph's adjacency rows, so a (host, pattern) question is searched at
    most once, whoever asks it and by whichever name.  A diamond is found
    by the edge scan of diamond_free_fast, whose witness is the same
    embedding; a triangle fan on a host the memo knows to be diamond-free
    by find_fan_triangles_diamond_free, exact there and fast where the
    matcher's search is exponential; anything else by find_induced."""
    found, rows = host._found, pat.graph.adj
    if rows not in found:
        if rows == _DIAMOND:
            found[rows] = diamond_free_fast(host)[1]
        elif pat.name == "fan_triangles" and found.get(_DIAMOND, ()) is None:
            found[rows] = find_fan_triangles_diamond_free(host, pat.params["l"])
        else:
            found[rows] = find_induced(host, pat.graph)
    return found[rows]


def is_free(host: Graph, pat: PatternInstance) -> bool:
    """True iff host has no induced pat (embedding)."""
    return embedding(host, pat) is None


def is_member(host: Graph, spec: ClassSpec) -> MembershipReport:
    """Check H-freeness for every forbidden pattern (embedding, so a pattern
    already asked of host is not searched again), then the conditions."""
    for pat in spec.forbidden:
        emb = embedding(host, pat)
        if emb is not None:
            return MembershipReport(False, pat.label(), emb)
    cond = spec.conditions
    if cond.every_edge_in_two_triangles:
        ok, edge = every_edge_two_triangles(host)
        if not ok:
            return MembershipReport(False, "every_edge_in_two_triangles", edge)
    if cond.min_omega is not None and clique_number(host) < cond.min_omega:
        return MembershipReport(False, f"min_omega>={cond.min_omega}", None)
    return MembershipReport(True)


def check_params(who: str, params: dict, domain: dict):
    """Raise ValueError naming who unless each params[name] lies in
    domain[name]: a tuple of values, or the least of the plain ints."""
    unknown = sorted(params.keys() - domain.keys())
    if unknown:
        raise ValueError(f"{who} takes {sorted(domain)}, not {unknown}")
    for name, value in params.items():
        least = domain[name]
        if isinstance(least, tuple):
            ok, want = value in least, f"{name} in {least}"
        else:
            ok, want = type(value) is int and value >= least, f"an int {name} >= {least}"
        if not ok:
            raise ValueError(f"{who} takes {want}, not {name}={value!r}")


def make_class(forbidden_patterns, conditions: Conditions | None = None,
               params: dict | None = None, id: str = "") -> ClassSpec:
    pats = tuple(forbidden_patterns)
    for p in pats:
        if not isinstance(p, PatternInstance):
            raise TypeError("forbidden list must hold PatternInstance values")
    if not pats and (conditions is None or conditions == Conditions()):
        raise ValueError("class spec needs forbidden patterns or a condition")
    return ClassSpec(pats, conditions or Conditions(), params or {}, id)
