"""Induced-subgraph detection and hereditary class membership."""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import Graph, bits
from .patterns import PatternInstance


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


@dataclass(frozen=True)
class MembershipReport:
    member: bool
    violated: str | None = None       # pattern label or condition name
    witness: tuple | None = None      # embedding or witness edge/vertex tuple

    def __bool__(self):
        return self.member


def find_induced(host: Graph, pattern: Graph):
    """First induced embedding of pattern in host, or None.

    Deterministic: pattern vertices are mapped in index order and host
    candidates tried ascending, so the returned embedding is the
    lexicographically first one.

    Forward checking on candidate bitmasks (after VF2, Cordella et al.,
    IEEE TPAMI 26(10), 2004): each pattern vertex starts with the host
    vertices of at least its degree; mapping vertex i to h intersects every
    later vertex's mask with N(h) or with its complement minus h, and a
    branch ends as soon as some mask is empty.  Only branches without an
    embedding are cut, so the search order and its first hit are those of
    plain backtracking.
    """
    p, n = pattern.n, host.n
    if p == 0:
        raise ValueError("empty pattern")
    if p > n:
        return None
    hadj = host.adj
    full = (1 << n) - 1
    hdeg = [row.bit_count() for row in hadj]
    cands = []
    for row in pattern.adj:
        d = row.bit_count()
        cands.append(sum(1 << h for h in range(n) if hdeg[h] >= d))
    if not all(cands):
        return None
    # later[i]: (j, adjacent) for each pattern vertex j > i
    later = [[(j, bool(pattern.adj[i] >> j & 1)) for j in range(i + 1, p)]
             for i in range(p)]
    image = [0] * p

    def rec(i, cands):
        m = cands[i]
        if i == p - 1:
            image[i] = (m & -m).bit_length() - 1
            return True
        while m:
            low = m & -m
            m ^= low
            row = hadj[low.bit_length() - 1]
            non = full & ~row & ~low
            nxt = cands[:]
            for j, adjacent in later[i]:
                c = nxt[j] & (row if adjacent else non)
                if not c:
                    break
                nxt[j] = c
            else:
                image[i] = low.bit_length() - 1
                if rec(i + 1, nxt):
                    return True
        return False

    if rec(0, cands):
        return tuple(image)
    return None


def contains_induced(host: Graph, pattern: Graph) -> bool:
    return find_induced(host, pattern) is not None


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.num_edges() != h.num_edges():
        return False
    if g.n == 0:
        return True
    return find_induced(h, g) is not None


def diamond_free_fast(g: Graph):
    """Fast diamond check: for every edge uv, N(u) ∩ N(v) must be a clique.

    Returns (True, None) or (False, (u, v, a, b)) with a diamond witness.
    """
    for u, v in g.edges():
        common = g.adj[u] & g.adj[v]
        for a in bits(common):
            missing = common & ~g.adj[a] & ~(1 << a)
            if missing:
                b = (missing & -missing).bit_length() - 1
                return False, (u, v, a, b)
    return True, None


def find_fan_triangles_diamond_free(g: Graph, l: int):
    """Induced l-fan-of-triangles embedding in a diamond-free host, or None.

    In a diamond-free graph the neighborhood of every vertex is a disjoint
    union of cliques (a non-clique component would yield an induced
    diamond).  Two triangles of an induced fan must therefore lie in
    distinct neighborhood cliques of the hub, so the fan exists exactly
    when some vertex has at least l neighborhood cliques of size >= 3.
    Much faster than the generic matcher for large l.
    """
    from .graph import connected_components

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


def every_edge_two_triangles(g: Graph, witness: bool = False):
    """True iff every edge lies in at least two triangles."""
    for u, v in g.edges():
        if (g.adj[u] & g.adj[v]).bit_count() < 2:
            return (False, (u, v)) if witness else False
    return (True, None) if witness else True


def is_member(host: Graph, spec: ClassSpec) -> MembershipReport:
    """Check H-freeness for every forbidden pattern plus the conditions.

    Once the diamond is ruled out, a triangle fan is first decided by
    find_fan_triangles_diamond_free, which is exact on diamond-free hosts
    and fast where the matcher's search is exponential; the matcher runs
    only when there is a fan, to report its lex-first embedding.
    """
    diamond_free = False
    for pat in spec.forbidden:
        if (diamond_free and pat.name == "fan_triangles"
                and find_fan_triangles_diamond_free(host, pat.params["l"]) is None):
            continue
        emb = find_induced(host, pat.graph)
        if emb is not None:
            return MembershipReport(False, pat.label(), emb)
        diamond_free = diamond_free or pat.name == "diamond"
    cond = spec.conditions
    if cond.every_edge_in_two_triangles:
        ok, edge = every_edge_two_triangles(host, witness=True)
        if not ok:
            return MembershipReport(False, "every_edge_in_two_triangles", edge)
    if cond.min_omega is not None:
        from .oracles import clique_number

        if clique_number(host) < cond.min_omega:
            return MembershipReport(False, f"min_omega>={cond.min_omega}", None)
    return MembershipReport(True)


def make_class(forbidden_patterns, conditions: Conditions | None = None,
               params: dict | None = None, id: str = "") -> ClassSpec:
    pats = tuple(forbidden_patterns)
    for p in pats:
        if not isinstance(p, PatternInstance):
            raise TypeError("forbidden list must hold PatternInstance values")
    if not pats and (conditions is None or conditions == Conditions()):
        raise ValueError("class spec needs forbidden patterns or a condition")
    return ClassSpec(pats, conditions or Conditions(), params or {}, id)
