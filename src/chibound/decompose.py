"""Maximum-clique decomposition, property checkers, and the edge-clique
partition for diamond-free graphs whose edges all lie in two triangles."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import NamedTuple

from .certificate import StructureViolation
from .detect import embedding, every_edge_two_triangles
from .graph import (Graph, bits, connected_components, is_clique, mask_of,
                    neighborhood)
from .oracles import GraphOracles, OracleCapExceeded, ramsey_upper
from .patterns import make_pattern


class DecompositionError(ValueError):
    pass


class CliqueDecomposition(NamedTuple):
    """The sets K, S, T, S', T' around a maximum clique K at threshold t, as
    masks; an immutable tuple, built once per (t, set) by GraphOracles.

    a_m maps a non-neighbor mask M (subset of K, 1 <= |M| < t) to the
    vertices complete to K\\M and anticomplete to M; a_nv(g, dec) gives the
    A'(N, v) families of T.  t_groups partitions T by each vertex's
    canonical pair, its first t non-neighbors in K and its first neighbor
    in K, in key order.  S'/T' overlap is broken toward T'.
    """

    k: int
    t: int
    a_m: dict
    s_set: int
    t_set: int
    s_prime: int
    t_prime: int
    residual: int
    t_groups: dict

    def blocks(self) -> list:
        """The blocks colored after K, in order, as (kind, mask, key): each
        A_M by M (kind "S", key M), each T group ("T", its key), then S',
        T' and the residual (key None).  block_label names one for a trace."""
        return ([("S", self.a_m[m], m) for m in sorted(self.a_m)]
                + [("T", group, key) for key, group in self.t_groups.items()]
                + [("S'", self.s_prime, None), ("T'", self.t_prime, None),
                   ("residual", self.residual, None)])


def block_label(kind: str, key) -> str:
    """The trace label of a block (kind, mask, key) of
    CliqueDecomposition.blocks."""
    if kind == "S":
        return f"S[A_{list(bits(key))}]"
    if kind == "T":
        return f"T[{list(bits(key[0]))},{key[1]}]"
    return kind


def decompose(g: Graph, t: int, within: int,
              clique: int) -> CliqueDecomposition:
    """Decompose G[within] at threshold t around clique, a maximum clique of
    G[within] taken on trust (GraphOracles.decomposition finds it)."""
    if t < 2:
        raise DecompositionError("threshold t must be >= 2")

    nk = neighborhood(g, clique) & within
    a_m: dict[int, int] = {}
    t_groups: dict[tuple[int, int], int] = {}
    s_set = 0
    t_set = 0
    for u in bits(nk):
        non = clique & ~g.adj[u]
        if non.bit_count() < t:
            s_set |= 1 << u
            a_m[non] = a_m.get(non, 0) | 1 << u
        else:
            t_set |= 1 << u
            first = 0  # the first t non-neighbors in K
            for _ in range(t):
                first |= non & -non
                non &= non - 1
            nbrs = clique & g.adj[u]
            key = (first, (nbrs & -nbrs).bit_length() - 1)
            t_groups[key] = t_groups.get(key, 0) | 1 << u

    outside = within & ~(clique | s_set | t_set)
    s_prime = 0
    t_prime = 0
    residual = 0
    for v in bits(outside):
        if g.adj[v] & t_set:
            t_prime |= 1 << v
        elif g.adj[v] & s_set:
            s_prime |= 1 << v
        else:
            residual |= 1 << v

    return CliqueDecomposition(clique, t, a_m, s_set, t_set,
                               s_prime, t_prime, residual,
                               dict(sorted(t_groups.items())))


def a_nv(g: Graph, dec: CliqueDecomposition) -> dict:
    """A'(N, v) of dec, built on demand: each pair (N, v), N a subset of K
    with |N| = t and v in K\\N, maps to the vertices of N(v)\\K
    anticomplete to N, which lie in T.  A vertex can appear under several
    pairs; pairs with no vertex are left out."""
    k_verts = list(bits(dec.k))
    out: dict[tuple[int, int], int] = {}
    for u in bits(dec.t_set):
        nons = [v for v in k_verts if not g.adj[u] >> v & 1]
        nbrs = [v for v in k_verts if g.adj[u] >> v & 1]
        for ncomb in combinations(nons, dec.t):
            n_mask = mask_of(ncomb)
            for v in nbrs:
                out[n_mask, v] = out.get((n_mask, v), 0) | 1 << u
    return out


class Lemma(NamedTuple):
    """A block lemma: each component of the block has at most most vertices."""

    claim: str
    most: int | str

    def components(self, g: Graph, mask: int, omega: int) -> list:
        """G[mask]'s components; the first with more than most vertices (omega
        for "omega") raises StructureViolation(claim, its vertices)."""
        comps = connected_components(g, mask)
        for comp in comps:
            if comp.bit_count() > (omega if self.most == "omega" else self.most):
                raise StructureViolation(self.claim, list(bits(comp)))
        return comps


_RESIDUAL = Lemma("every vertex of a component lies in K, S, T, S' or T'", 0)

# The K-layer colorers' lemmas by block kind (most: 0, 1 or "omega", the
# clique number); a kind with none goes to the exact oracle.
LEMMAS = {
    "THM1": {
        "S": Lemma("S must be empty in diamond-free graphs", 0),
        "T": Lemma("components of A'(N,v) have at most omega vertices",
                   "omega"),
        "S'": Lemma("S' is empty in diamond-free graphs", 0),
        "T'": Lemma("components of T' have at most omega vertices", "omega"),
        "residual": _RESIDUAL},
    "THM3": {"residual": _RESIDUAL},
    "THM4": {
        "S": Lemma("A_M is edgeless at t=2 by maximality of K", 1),
        "T": Lemma("A'(N,v) is edgeless for (2,2)-bowtie-free graphs", 1),
        "S'": Lemma("S' is edgeless for {P5, (2,2)-bowtie}-free graphs", 1),
        "T'": Lemma("T' is edgeless for {P5, (3,3)-dumbbell}-free graphs", 1),
        "residual": _RESIDUAL},
}


@dataclass
class PropertyReport:
    property_id: str
    holds: bool | None            # None = undecided at desk scale
    hypothesis_ok: bool
    params: dict
    measured: dict
    witness: object = None
    notes: str = ""

    def to_dict(self):
        return {"property": self.property_id, "holds": self.holds,
                "hypothesis_ok": self.hypothesis_ok,
                "params": dict(self.params), "measured": dict(self.measured),
                "witness": self.witness, "notes": self.notes}


class _Check:
    """The inputs of one property check.  dec, g's decomposition at t, is
    asked of oracles only when a measure reads it: D1 and the P-property
    never do."""

    def __init__(self, oracles, s, t, k):
        self.oracles, self.g = oracles, oracles.g
        self.s, self.t, self.k = s, t, k
        self.omega = oracles.clique().bit_count()

    @property
    def dec(self) -> CliqueDecomposition:
        return self.oracles.decomposition(self.t)

    def chi(self, block):
        """chi(G[block]) for block "T", "T'" or "S'"."""
        mask = getattr(self.dec, {"T": "t_set", "T'": "t_prime",
                                  "S'": "s_prime"}[block])
        try:
            return self.oracles.chi(mask) if mask else 0
        except OracleCapExceeded as exc:
            raise OracleCapExceeded(f"chi({block})", exc.n, exc.cap) from None


def _lemma(kind):
    """P1 and P4: THM1's lemma on its blocks of kind, as its colorer checks it."""
    def measure(x: _Check):
        try:
            for k, mask, _ in x.dec.blocks():
                if k == kind:
                    LEMMAS["THM1"][kind].components(x.g, mask, x.omega)
        except StructureViolation as exc:
            return dict(holds=False, measured={"omega": x.omega},
                        witness=exc.witness, notes=exc.claim)
        return dict(holds=True, measured={"omega": x.omega})
    return measure


def _p2(x: _Check):
    # A clique A_M is complete to K - M, so A_M | K - M is a clique and
    # |A_M| <= |M| < omega: only the clique test can fail.
    witness = None
    for m_mask, a in x.dec.a_m.items():
        if not is_clique(x.g, a):
            witness = (list(bits(m_mask)), *next(
                e for e in combinations(bits(a), 2) if not x.g.has_edge(*e)))
            break
    max_am = max((a.bit_count() for a in x.dec.a_m.values()), default=0)
    return dict(holds=witness is None, witness=witness,
                measured={"max_a_m": max_am, "omega": x.omega})


def _p3(x: _Check):
    bound = ramsey_upper(max(x.omega - 1, 1), x.k)
    worst, witness = 0, None
    for v0 in bits(x.dec.t_set):
        deg = (x.g.adj[v0] & x.dec.t_prime).bit_count()
        worst = max(worst, deg)
        if deg >= bound:
            witness = (v0, deg)
            break
    return dict(holds=witness is None, witness=witness,
                measured={"max_t_prime_degree": worst, "bound": bound})


def _chi_within(block, key, bound, small=None):
    """P5-P8's check: chi(G[block]) <= bound(c, omega, t), reported under
    key.  c, the P-property constant, is chi^(t) of g, or 1 and reported
    as None when small(s, t); without small there is no c."""
    def measure(x: _Check):
        chi = x.chi(block)
        if small is None:
            b = bound(None, x.omega, x.t)
            return dict(holds=chi <= b, measured={key: chi, "bound": b})
        cc = None if small(x.s, x.t) else x.oracles.chi_n(x.t)
        b = bound(1 if cc is None else cc, x.omega, x.t)
        return dict(holds=chi <= b, measured={key: chi, "bound": b, "c": cc})
    return measure


def _p_property(x: _Check):
    """The P-property constant is chi^(t) of g itself, so the property
    holds by definition; the report records chi^(t)."""
    c = x.oracles.chi_n(x.t)
    return dict(holds=True, measured={"chi_up_to_t": c, "c": c})


def _d1(x: _Check):
    """Blade anticompleteness over the edge-clique partition: it holds by
    the blade lemma of edge_clique_partition once the partition exists.
    Its diamond witness is detect.embedding's, asked once per graph."""
    dwit = embedding(x.g, make_pattern("diamond"))
    tt, ewit = every_edge_two_triangles(x.g)
    if dwit or not tt:
        return dict(holds=None, hypothesis_ok=False, measured={},
                    witness=dwit or ewit,
                    notes="edge-clique partition preconditions fail")
    return dict(holds=True,
                measured={"cliques": len(edge_clique_partition(x.g))})


class Property(NamedTuple):
    """One property.  patterns(s, t, k) lists its hypothesis patterns in
    search order, tested behind omega > t (None: no pattern hypothesis);
    measure(_Check) returns its PropertyReport fields as a dict; params
    names the parameters the report carries."""

    patterns: object
    measure: object
    params: tuple = ("t",)


PROPERTIES = {
    "P1": Property(lambda s, t, k: [make_pattern("f1", t=t)], _lemma("S")),
    "P2": Property(lambda s, t, k: [make_pattern("f2", t=t)], _p2),
    "P3": Property(lambda s, t, k: [make_pattern("lollipop_star", k=k, t=t)],
                   _p3, ("t", "k")),
    "P4": Property(lambda s, t, k: [make_pattern("diamond"),
                                    make_pattern("hammer_plus", t=t)],
                   _lemma("T'")),
    "P5": Property(lambda s, t, k: [make_pattern("bowtie", s=s, t=t)],
                   _chi_within("T", "chi_t",
                               lambda c, w, t: c * w * comb(max(w - 1, 0), t),
                               lambda s, t: t == 2), ("s", "t")),
    "P6": Property(lambda s, t, k: [make_pattern("path", l=5),
                                    make_pattern("bowtie", s=s, t=t)],
                   _chi_within("S'", "chi_s_prime", lambda c, w, t: c,
                               lambda s, t: t == 2), ("s", "t")),
    "P7": Property(lambda s, t, k: [make_pattern("path", l=5),
                                    make_pattern("dumbbell", s=s + 1, t=t + 1)],
                   _chi_within("T'", "chi_t_prime", lambda c, w, t: c,
                               lambda s, t: t == 2 and s == 2), ("s", "t")),
    "P8": Property(lambda s, t, k: [make_pattern("diamond")],
                   _chi_within("T", "chi_t",
                               lambda c, w, t: w * w * comb(max(w - 1, 0), t))),
    "D1": Property(None, _d1, ()),
    "P-property": Property(None, _p_property),
}
PROPERTY_IDS = tuple(PROPERTIES)
# least s, t, k that bowtie, decompose and lollipop_star/ramsey_upper accept
PARAM_LEAST = {"s": 1, "t": 2, "k": 1}


def check_property(oracles: GraphOracles, which: str,
                   params: dict | None = None) -> PropertyReport:
    """Evaluate one of the decomposition properties against oracles.g at
    params' t (default 2), around oracles' decomposition of g at t.

    The hypothesis is verified and reported, never assumed, so the checker
    serves as a negative control on out-of-class graphs; a pattern that
    membership or another property asked of g is not searched again
    (detect.embedding).  The decomposition, each chi of a block and the
    P-property constant chi^(t) of g come from oracles, so the checks of
    one graph share them.  An exact oracle over its cap leaves the check
    undecided (holds None); hypothesis and params are still reported.
    """
    if which not in PROPERTIES:
        raise ValueError(f"unknown property {which!r}")
    prop, params = PROPERTIES[which], params or {}
    t = params.get("t", 2)
    x = _Check(oracles, params.get("s", t), t, params.get("k", 2))
    hyp = prop.patterns is None or (x.omega > t and all(
        embedding(x.g, pat) is None for pat in prop.patterns(x.s, t, x.k)))
    try:
        fields = prop.measure(x)
    except OracleCapExceeded as exc:
        fields = dict(holds=None, measured={},
                      notes=f"undecided at desk scale: {exc}")
    return PropertyReport(which, **{
        "hypothesis_ok": hyp, "params": {p: getattr(x, p) for p in prop.params},
        **fields})


def edge_clique_partition(g: Graph) -> tuple:
    """Partition E(G) into the maximal cliques K(uv) = {u, v} + N(u) & N(v),
    returned as masks in the order of their first edge.

    Requires g diamond-free with every edge in at least two triangles, and
    checks both edge by edge: K(uv) is a clique exactly when uv is the spine
    of no diamond, and has four or more vertices exactly when uv lies in two
    triangles.  A failure raises DecompositionError naming the edge.  Once
    every K(uv) is a clique, it is the one maximal clique on uv, so the
    cliques share no edge.

    Blade lemma: the cliques through a hub v, its fan's blades, are pairwise
    anticomplete away from v.  Were ab an edge with a in C_i - v and b in
    C_j - v for blades C_i != C_j, b would be a common neighbour of v and a,
    so in K(va) = C_i, and the edge vb would lie in both C_i and C_j.
    """
    cliques = {}
    for u, v in g.edges():
        kmask = (g.adj[u] & g.adj[v]) | (1 << u) | (1 << v)
        if not is_clique(g, kmask):
            raise DecompositionError(f"edge ({u},{v}) is the spine of a diamond")
        if kmask.bit_count() < 4:
            raise DecompositionError(
                f"edge ({u},{v}) lies in fewer than two triangles")
        # every edge of one clique gives the same K(uv), kept at its first
        cliques[kmask] = None
    return tuple(cliques)
