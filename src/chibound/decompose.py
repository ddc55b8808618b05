"""Maximum-clique decomposition, property checkers, and the edge-clique
partition for diamond-free graphs whose edges all lie in two triangles."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations
from math import comb

from .detect import contains_induced, diamond_free_fast, every_edge_two_triangles
from .graph import (Graph, GraphError, bits, connected_components, is_clique,
                    mask_of, neighborhood)
from .oracles import (DEFAULT_CHI_CAP, DEFAULT_CHIN_CAP, OracleCapExceeded,
                      chi_n, chromatic_number, clique_number_in, ramsey_upper)
from .patterns import (bowtie, diamond, dumbbell, f1, f2, hammer_plus,
                       lollipop_star, path)


class DecompositionError(ValueError):
    pass


@dataclass(frozen=True)
class CliqueDecomposition:
    """The sets K, S, T, S', T' around a maximum clique K at threshold t.

    a_m maps a non-neighbor mask M (subset of K, 1 <= |M| < t) to the
    vertices complete to K\\M and anticomplete to M.  a_nv maps (N, v)
    pairs (N subset of K with |N| = t, v in K\\N) to the vertices of N(v)\\K
    anticomplete to N; a vertex can appear under several pairs.  S'/T'
    overlap is broken toward T'.
    """

    graph: Graph
    k: int
    t: int
    a_m: dict
    a_nv: dict
    s_set: int
    t_set: int
    s_prime: int
    t_prime: int
    residual: int
    canonical_nv: dict = field(default_factory=dict)

    def parts(self):
        return (self.k, self.s_set, self.t_set, self.s_prime, self.t_prime,
                self.residual)


def decompose(g: Graph, k_clique: int, t: int,
              within: int | None = None) -> CliqueDecomposition:
    if t < 2:
        raise DecompositionError("threshold t must be >= 2")
    if within is None:
        within = g.full_mask()
    if k_clique & ~within:
        raise DecompositionError("clique not contained in the working vertex set")
    if not is_clique(g, k_clique):
        raise DecompositionError("supplied vertex set is not a clique")
    omega = clique_number_in(g, within)
    if k_clique.bit_count() != omega:
        raise DecompositionError(
            f"supplied clique has size {k_clique.bit_count()}, maximum is {omega}")

    k_verts = list(bits(k_clique))
    nk = neighborhood(g, k_clique) & within
    a_m: dict[int, int] = {}
    a_nv: dict[tuple[int, int], int] = {}
    canonical_nv: dict[int, tuple[int, int]] = {}
    s_set = 0
    t_set = 0
    for u in bits(nk):
        non = k_clique & ~g.adj[u]
        cnt = non.bit_count()
        if cnt < t:
            s_set |= 1 << u
            a_m[non] = a_m.get(non, 0) | 1 << u
        else:
            t_set |= 1 << u
            nons = [v for v in k_verts if non >> v & 1]
            nbrs = [v for v in k_verts if g.adj[u] >> v & 1]
            for ncomb in combinations(nons, t):
                n_mask = mask_of(ncomb)
                for v in nbrs:
                    key = (n_mask, v)
                    a_nv[key] = a_nv.get(key, 0) | 1 << u
            canonical_nv[u] = (mask_of(nons[:t]), nbrs[0])

    outside = within & ~(k_clique | s_set | t_set)
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

    return CliqueDecomposition(g, k_clique, t, a_m, a_nv, s_set, t_set,
                               s_prime, t_prime, residual, canonical_nv)


def decompose_auto(g: Graph, t: int, within: int | None = None) -> CliqueDecomposition:
    """Decompose around the lexicographically smallest maximum clique."""
    from .oracles import max_clique_in

    if within is None:
        within = g.full_mask()
    return decompose(g, max_clique_in(g, within), t, within)


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
        return {
            "property": self.property_id,
            "holds": self.holds,
            "hypothesis_ok": self.hypothesis_ok,
            "params": dict(self.params),
            "measured": dict(self.measured),
            "witness": _jsonable(self.witness),
            "notes": self.notes,
        }


def _jsonable(obj):
    if isinstance(obj, (tuple, list)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    return obj


def _chi_of(g: Graph, mask: int, chi_cap: int):
    """Exact chi of an induced subgraph, or None when over the oracle cap."""
    if mask == 0:
        return 0
    try:
        return chromatic_number(g, cap=chi_cap, within=mask)[0]
    except OracleCapExceeded:
        return None


def _distance_claim_violations(g: Graph, sources: int, allowed: int,
                               avoid: int):
    """Vertices at finite distance >= 2 from some source, outside `allowed`.

    Distances are measured in the subgraph avoiding `avoid` (the central
    clique): a connection that tunnels through K yields no forbidden
    pattern, so it does not count.
    """
    out = []
    mask = g.full_mask() & ~avoid
    for v0 in bits(sources & mask):
        seen = 1 << v0
        frontier = seen
        dist = 0
        far = 0
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= g.adj[v] & mask & ~seen
            seen |= nxt
            frontier = nxt
            dist += 1
            if dist >= 2:
                far |= nxt
        bad = far & ~allowed
        if bad:
            out.append((v0, (bad & -bad).bit_length() - 1))
    return out


PROPERTY_IDS = ("P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "D1", "P-property")


def _chi_up_to_t(g: Graph, t: int, chi_cap: int, chin_cap: int):
    """A callable returning chi^(t) of g, computed on its first call only."""
    return cache(lambda: chi_n(g, t, cap=chin_cap, chi_cap=chi_cap))


def check_properties(g: Graph, dec: CliqueDecomposition, which_ids,
                     params: dict | None = None, c_value: int | None = None,
                     chi_cap: int = DEFAULT_CHI_CAP,
                     chin_cap: int = DEFAULT_CHIN_CAP) -> list:
    """check_property for each id in which_ids, in order.

    chi^(t) is computed at most once for all of them, when first needed.
    """
    chi_up_to_t = _chi_up_to_t(g, dec.t, chi_cap, chin_cap)
    return [check_property(g, dec, which, params, c_value, chi_cap, chin_cap,
                           chi_up_to_t) for which in which_ids]


def check_property(g: Graph, dec: CliqueDecomposition, which: str,
                   params: dict | None = None, c_value: int | None = None,
                   chi_cap: int = DEFAULT_CHI_CAP,
                   chin_cap: int = DEFAULT_CHIN_CAP,
                   chi_up_to_t=None) -> PropertyReport:
    """Evaluate one of the decomposition properties against this graph.

    The class hypothesis is verified and reported, never assumed, so the
    checker can serve as a negative control on out-of-class graphs.
    c_value=None realizes the P-property constant by the exact oracle
    (chi^(t) of this graph); chin_cap and chi_cap are that oracle's caps.
    chi_up_to_t, a callable returning that chi^(t), lets check_properties
    share one value between the properties of a graph.
    """
    if chi_up_to_t is None:
        chi_up_to_t = _chi_up_to_t(g, dec.t, chi_cap, chin_cap)
    try:
        return _check_property_impl(g, dec, which, params, c_value, chi_cap,
                                    chi_up_to_t)
    except OracleCapExceeded as exc:
        return PropertyReport(which, None, True, dict(params or {}), {},
                              notes=f"undecided at desk scale: {exc}")


def _check_property_impl(g: Graph, dec: CliqueDecomposition, which: str,
                         params, c_value, chi_cap, chi_up_to_t) -> PropertyReport:
    params = dict(params or {})
    t = dec.t
    omega = dec.k.bit_count()
    s = params.get("s", t)
    k = params.get("k", 2)

    if which not in PROPERTY_IDS:
        raise ValueError(f"unknown property {which!r}")

    def realized_c():
        return chi_up_to_t() if c_value is None else c_value

    if which == "P1":
        hyp = omega > t and not contains_induced(g, f1(t))
        holds = dec.s_set == 0
        witness = None if holds else (dec.s_set & -dec.s_set).bit_length() - 1
        return PropertyReport("P1", holds, hyp, {"t": t},
                              {"s_size": dec.s_set.bit_count()}, witness)

    if which == "P2":
        hyp = omega > t and not contains_induced(g, f2(t))
        witness = None
        for m_mask, a in dec.a_m.items():
            if not is_clique(g, a):
                u, w = next((u, w) for u, w in combinations(bits(a), 2)
                            if not g.has_edge(u, w))
                witness = (list(bits(m_mask)), u, w)
                break
            if a.bit_count() > omega:
                witness = (list(bits(m_mask)), "size", a.bit_count())
                break
        max_am = max((a.bit_count() for a in dec.a_m.values()), default=0)
        return PropertyReport("P2", witness is None, hyp, {"t": t},
                              {"max_a_m": max_am, "omega": omega}, witness)

    if which == "P3":
        hyp = omega > t and not contains_induced(g, lollipop_star(k, t))
        bound = ramsey_upper(omega - 1, k) if omega >= 2 else ramsey_upper(1, k)
        holds = True
        witness = None
        worst = 0
        for v0 in bits(dec.t_set):
            deg = (g.adj[v0] & dec.t_prime).bit_count()
            worst = max(worst, deg)
            if deg >= bound:
                holds = False
                witness = (v0, deg)
                break
        return PropertyReport("P3", holds, hyp, {"t": t, "k": k},
                              {"max_t_prime_degree": worst, "bound": bound}, witness)

    if which == "P4":
        hyp = (omega > t and diamond_free_fast(g)[0]
               and not contains_induced(g, hammer_plus(t)))
        chi_tp = _chi_of(g, dec.t_prime, chi_cap)
        if chi_tp is None:
            return PropertyReport("P4", None, hyp, {"t": t}, {},
                                  notes="undecided at desk scale: chi(T') over cap")
        dist_bad = _distance_claim_violations(g, dec.t_set, dec.k | dec.t_set,
                                              avoid=dec.k)
        comps = connected_components(g, dec.t_prime)
        comp_bad = [c for c in comps if c.bit_count() > omega]
        # The distance claim is an intermediate step of the argument and
        # fails on small in-class graphs where the central clique is too
        # tight to complete the forbidden pattern; it is reported as a
        # diagnostic but the property itself is the chi(T') inequality
        # (realized via the bounded-component structure).
        holds = chi_tp <= omega and not comp_bad
        witness = list(bits(comp_bad[0])) if comp_bad else None
        notes = ""
        if dist_bad:
            notes = (f"distance-claim diagnostic: {len(dist_bad)} source(s) "
                     "reach a vertex outside K and T in two or more steps")
        return PropertyReport("P4", holds, hyp, {"t": t},
                              {"chi_t_prime": chi_tp, "omega": omega,
                               "max_component": max(
                                   (c.bit_count() for c in comps), default=0),
                               "distance_violations": len(dist_bad)},
                              witness, notes)

    if which == "P5":
        hyp = omega > t and not contains_induced(g, bowtie(s, t))
        chi_t = _chi_of(g, dec.t_set, chi_cap)
        if chi_t is None:
            return PropertyReport("P5", None, hyp, {"s": s, "t": t}, {},
                                  notes="undecided at desk scale: chi(T) over cap")
        if t == 2 and c_value is None:
            bound = omega * comb(max(omega - 1, 0), 2)
            cc = None
        else:
            cc = realized_c()
            bound = cc * omega * comb(max(omega - 1, 0), t)
        return PropertyReport("P5", chi_t <= bound, hyp, {"s": s, "t": t},
                              {"chi_t": chi_t, "bound": bound, "c": cc})

    if which == "P6":
        hyp = (omega > t and not contains_induced(g, path(5))
               and not contains_induced(g, bowtie(s, t)))
        chi_sp = _chi_of(g, dec.s_prime, chi_cap)
        if chi_sp is None:
            return PropertyReport("P6", None, hyp, {"s": s, "t": t}, {},
                                  notes="undecided at desk scale: chi(S') over cap")
        if t == 2 and c_value is None:
            bound, cc = 1, None
        else:
            cc = realized_c()
            bound = cc
        return PropertyReport("P6", chi_sp <= bound, hyp, {"s": s, "t": t},
                              {"chi_s_prime": chi_sp, "bound": bound, "c": cc})

    if which == "P7":
        hyp = (omega > t and not contains_induced(g, path(5))
               and not contains_induced(g, dumbbell(s + 1, t + 1)))
        chi_tp = _chi_of(g, dec.t_prime, chi_cap)
        if chi_tp is None:
            return PropertyReport("P7", None, hyp, {"s": s, "t": t}, {},
                                  notes="undecided at desk scale: chi(T') over cap")
        if t == 2 and s == 2 and c_value is None:
            bound, cc = 1, None
        else:
            cc = realized_c()
            bound = cc
        return PropertyReport("P7", chi_tp <= bound, hyp, {"s": s, "t": t},
                              {"chi_t_prime": chi_tp, "bound": bound, "c": cc})

    if which == "P8":
        hyp = omega > t and diamond_free_fast(g)[0]
        chi_t = _chi_of(g, dec.t_set, chi_cap)
        if chi_t is None:
            return PropertyReport("P8", None, hyp, {"t": t}, {},
                                  notes="undecided at desk scale: chi(T) over cap")
        bound = omega * omega * comb(max(omega - 1, 0), t)
        return PropertyReport("P8", chi_t <= bound, hyp, {"t": t},
                              {"chi_t": chi_t, "bound": bound})

    if which == "P-property":
        measured = chi_up_to_t()
        cc = measured if c_value is None else c_value
        return PropertyReport("P-property", measured <= cc, True, {"t": t},
                              {"chi_up_to_t": measured, "c": cc})

    # D1: blade anticompleteness over the whole edge-clique partition
    df, dwit = diamond_free_fast(g)
    tt, ewit = every_edge_two_triangles(g, witness=True)
    hyp = df and tt
    if not hyp:
        return PropertyReport("D1", None, False, {},
                              {}, dwit or ewit,
                              notes="edge-clique partition preconditions fail")
    part = edge_clique_partition(g)
    for v in range(g.n):
        _, violation = fan_structure(g, part, v)
        if violation is not None:
            return PropertyReport("D1", False, True, {},
                                  {"cliques": len(part.cliques)}, violation)
    return PropertyReport("D1", True, True, {}, {"cliques": len(part.cliques)})


@dataclass(frozen=True)
class EdgeCliquePartition:
    cliques: tuple            # masks, each a maximal clique of size >= 4
    edge_to_clique: dict      # (u, v) with u < v -> clique index


def edge_clique_partition(g: Graph) -> EdgeCliquePartition:
    """Partition E(G) into maximal cliques K(uv).

    Requires g diamond-free with every edge in at least two triangles;
    violations raise DecompositionError naming a witness.
    """
    df, wit = diamond_free_fast(g)
    if not df:
        raise DecompositionError(f"graph contains a diamond on vertices {wit}")
    ok, edge = every_edge_two_triangles(g, witness=True)
    if not ok:
        raise DecompositionError(
            f"edge {edge} lies in fewer than two triangles")

    cliques = []
    edge_to_clique = {}
    for u, v in g.edges():
        if (u, v) in edge_to_clique:
            continue
        kmask = (g.adj[u] & g.adj[v]) | (1 << u) | (1 << v)
        if not is_clique(g, kmask):  # pragma: no cover - excluded by diamond check
            raise DecompositionError(f"K({u},{v}) is not a clique")
        idx = len(cliques)
        cliques.append(kmask)
        kv = list(bits(kmask))
        for i, a in enumerate(kv):
            for b in kv[i + 1:]:
                if (a, b) in edge_to_clique:
                    raise DecompositionError(
                        f"edge ({a},{b}) claimed by two maximal cliques")
                edge_to_clique[(a, b)] = idx
    for i, a in enumerate(cliques):
        if a.bit_count() < 4:
            raise DecompositionError(
                f"partition clique {list(bits(a))} has size < 4")
        for b in cliques[i + 1:]:
            if (a & b).bit_count() > 1:
                raise DecompositionError("partition cliques share an edge")
    return EdgeCliquePartition(tuple(cliques), edge_to_clique)


def fan_structure(g: Graph, part: EdgeCliquePartition, v: int):
    """Blades of the fan at v: partition cliques containing v.

    Returns (indices, violation); violation is (a, b, i, j) when an edge
    runs between two distinct blades away from v.
    """
    if not 0 <= v < g.n:
        raise GraphError(f"vertex {v} out of range")
    indices = [i for i, c in enumerate(part.cliques) if c >> v & 1]
    for x, i in enumerate(indices):
        for j in indices[x + 1:]:
            a_side = part.cliques[i] & ~(1 << v)
            b_side = part.cliques[j] & ~(1 << v)
            for a in bits(a_side):
                cross = g.adj[a] & b_side
                if cross:
                    b = (cross & -cross).bit_length() - 1
                    return indices, (a, b, i, j)
    return indices, None
