"""Constructive colorers for the decomposition theorems.

Every colorer emits a ColoringCertificate whose coloring is re-verified
for properness and whose palette is compared against the theorem's bound
formula.  Bound violations and structural surprises are surfaced as
findings, never silently patched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .detect import (diamond_free_fast, every_edge_two_triangles,
                     find_fan_triangles_diamond_free, find_induced)
from .decompose import decompose, edge_clique_partition, fan_structure
from .graph import Graph, bits, connected_components, induced_subgraph
from .oracles import (DEFAULT_CHI_CAP, chromatic_number, clique_number_in,
                      is_proper, max_clique_in, ramsey_upper)
from .patterns import (bowtie, diamond, dumbbell, f1, f2, fan_triangles,
                       hammer_plus, lollipop_star, path)


class MembershipError(ValueError):
    """The input graph is outside the theorem's hypothesis class."""

    def __init__(self, theorem: str, violated: str, witness=None):
        super().__init__(f"{theorem}: graph is not {violated}-free"
                         f" (witness {witness})" if witness is not None
                         else f"{theorem}: hypothesis failed: {violated}")
        self.theorem = theorem
        self.violated = violated
        self.witness = witness


class LiftError(RuntimeError):
    """No free color in a lift block: the proof's degree bound failed."""

    def __init__(self, vertex: int, outside_degree: int, block: int):
        super().__init__(
            f"lift failed at vertex {vertex}: {outside_degree} outside "
            f"neighbors exceed the block size {block}")
        self.vertex = vertex
        self.outside_degree = outside_degree
        self.block = block


class StructureViolation(RuntimeError):
    """A structural claim from a proof failed on this input."""

    def __init__(self, claim: str, witness=None):
        super().__init__(f"structural claim failed: {claim} (witness {witness})")
        self.claim = claim
        self.witness = witness


@dataclass
class ColoringCertificate:
    theorem_id: str
    coloring: dict                      # vertex -> positive color
    palette_used: int
    bound_value: int
    omega: int
    c_value: int | None
    trace: list = field(default_factory=list)   # (vertex, block label, depth)
    notes: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def within_bound(self) -> bool:
        return self.palette_used <= self.bound_value

    def to_dict(self):
        return {
            "theorem": self.theorem_id,
            "coloring": {str(v): c for v, c in sorted(self.coloring.items())},
            "palette_used": self.palette_used,
            "bound_value": self.bound_value,
            "within_bound": self.within_bound,
            "omega": self.omega,
            "c_value": self.c_value,
            "trace": [[v, lbl, d] for v, lbl, d in self.trace],
            "notes": list(self.notes),
            "details": dict(self.details),
        }


class OracleTracker:
    """Wraps the base-case coloring oracle and records the palette it used.

    The recorded maximum realizes the abstract class constant C at desk
    scale, making bound checks self-consistent.
    """

    def __init__(self, fn=None, chi_cap: int = DEFAULT_CHI_CAP):
        self.fn = fn
        self.chi_cap = chi_cap
        self.max_used = 0

    def color(self, sub: Graph):
        if sub.n == 0:
            return []
        if self.fn is not None:
            cols = list(self.fn(sub))
        else:
            _, cols = chromatic_number(sub, cap=self.chi_cap)
        if len(cols) != sub.n or not is_proper(sub, cols):
            raise ValueError("coloring oracle returned an improper coloring")
        self.max_used = max(self.max_used, max(cols))
        return cols


def _require_free(theorem: str, g: Graph, pattern_graph: Graph, name: str):
    emb = find_induced(g, pattern_graph)
    if emb is not None:
        raise MembershipError(theorem, name, emb)


def _paint(coloring, trace, v, color, label, depth):
    if v in coloring:
        raise RuntimeError(f"vertex {v} colored twice")
    coloring[v] = color
    trace.append((v, label, depth))


def _oracle_block(g, mask, tracker, base, coloring, trace, label, depth):
    """Color the induced subgraph on mask with the oracle, offset by base."""
    if mask == 0:
        return 0
    sub, idx = induced_subgraph(g, mask)
    cols = tracker.color(sub)
    for i, v in enumerate(idx):
        _paint(coloring, trace, v, base + cols[i], label, depth)
    return max(cols)


def _independent_block(g, mask, base, coloring, trace, label, depth, claim):
    """Give every vertex of mask the color base+1; mask must be independent."""
    if mask == 0:
        return 0
    for v in bits(mask):
        if g.adj[v] & mask:
            raise StructureViolation(claim, (v, (g.adj[v] & mask & -(g.adj[v] & mask)).bit_length() - 1))
        _paint(coloring, trace, v, base + 1, label, depth)
    return 1


def _small_components_block(g, mask, base, limit, coloring, trace, label,
                            depth, claim):
    """Color each component of mask with distinct colors base+1..; components
    must have at most `limit` vertices."""
    used = 0
    for comp in connected_components(g, mask):
        size = comp.bit_count()
        if size > limit:
            raise StructureViolation(claim, list(bits(comp)))
        for i, v in enumerate(bits(comp)):
            _paint(coloring, trace, v, base + i + 1, label, depth)
        used = max(used, size)
    return used


def _grouped_t(dec):
    """T vertices grouped by their canonical (N, v) pair, sorted."""
    groups = {}
    for u, key in dec.canonical_nv.items():
        groups.setdefault(key, 0)
        groups[key] |= 1 << u
    return sorted(groups.items())


# --------------------------------------------------------------------- THM1

def color_thm1(g: Graph, t: int = 2, c_oracle=None,
               chi_cap: int = DEFAULT_CHI_CAP) -> ColoringCertificate:
    """{diamond, hammer(t)+}-free graphs: K + T + T' blocks, base case <= t."""
    if t < 2:
        raise ValueError("t must be >= 2")
    ok, wit = diamond_free_fast(g)
    if not ok:
        raise MembershipError("THM1", "diamond", wit)
    _require_free("THM1", g, hammer_plus(t), f"hammer({t})+")

    tracker = OracleTracker(c_oracle, chi_cap)
    coloring: dict[int, int] = {}
    trace: list = []
    notes: list = []
    omega_top = clique_number_in(g, g.full_mask())

    def rec(mask, depth):
        best = 0
        for comp in connected_components(g, mask):
            best = max(best, rec_comp(comp, depth))
        return best

    def rec_comp(comp, depth):
        w = clique_number_in(g, comp)
        if w <= t:
            return _oracle_block(g, comp, tracker, 0, coloring, trace,
                                 "base", depth)
        k_mask = max_clique_in(g, comp)
        dec = decompose(g, k_mask, t, within=comp)
        if dec.s_set:
            raise StructureViolation("S must be empty in diamond-free graphs",
                                     list(bits(dec.s_set)))
        for i, v in enumerate(bits(dec.k)):
            _paint(coloring, trace, v, i + 1, "K", depth)
        offset = w
        for key, group in _grouped_t(dec):
            label = f"T[{list(bits(key[0]))},{key[1]}]"
            used = _small_components_block(
                g, group, offset, w, coloring, trace, label, depth,
                "components of A'(N,v) have at most omega vertices")
            offset += used
        offset += _small_components_block(
            g, dec.t_prime, offset, w, coloring, trace, "T'", depth,
            "components of T' have at most omega vertices")
        leftover = comp & ~(dec.k | dec.t_set | dec.t_prime)
        if leftover:
            notes.append(f"unexpected leftover vertices {list(bits(leftover))} "
                         f"in a K-component at depth {depth}")
            offset += rec_shifted(leftover, offset, depth + 1)
        return offset

    def rec_shifted(mask, base, depth):
        # defensive path only: color leftovers in a fresh block
        sub_used = 0
        start = len(trace)
        used = rec(mask, depth)
        for i in range(start, len(trace)):
            v = trace[i][0]
            coloring[v] += base
        sub_used = used
        return sub_used

    palette = rec(g.full_mask(), 0)
    c_real = tracker.max_used
    bound = 2 * omega_top + omega_top ** 2 * comb(max(omega_top - 1, 0), t) + c_real
    cert = ColoringCertificate("THM1", coloring, palette, bound, omega_top,
                               c_real, trace, notes, {"t": t})
    _finalize(g, cert)
    return cert


# --------------------------------------------------------------------- THM4

def color_thm4(g: Graph, c_oracle=None,
               chi_cap: int = DEFAULT_CHI_CAP) -> ColoringCertificate:
    """{(2,2)-bowtie, P5, (3,3)-dumbbell}-free graphs, the C-free t=2 case."""
    _require_free("THM4", g, bowtie(2, 2), "(2,2)-bowtie")
    _require_free("THM4", g, path(5), "P5")
    _require_free("THM4", g, dumbbell(3, 3), "(3,3)-dumbbell")

    tracker = OracleTracker(c_oracle, chi_cap)
    coloring: dict[int, int] = {}
    trace: list = []
    notes: list = []
    omega_top = clique_number_in(g, g.full_mask())
    if omega_top < 3:
        notes.append("hypothesis omega >= 3 not met; colored by the exact oracle")

    def rec(mask, depth):
        best = 0
        for comp in connected_components(g, mask):
            best = max(best, rec_comp(comp, depth))
        return best

    def rec_comp(comp, depth):
        w = clique_number_in(g, comp)
        if w < 3:
            return _oracle_block(g, comp, tracker, 0, coloring, trace,
                                 "base", depth)
        k_mask = max_clique_in(g, comp)
        dec = decompose(g, k_mask, 2, within=comp)
        for i, v in enumerate(bits(dec.k)):
            _paint(coloring, trace, v, i + 1, "K", depth)
        offset = w
        for m_mask in sorted(dec.a_m):
            offset += _independent_block(
                g, dec.a_m[m_mask], offset, coloring, trace,
                f"S[A_{list(bits(m_mask))}]", depth,
                "A_M is edgeless at t=2 by maximality of K")
        for key, group in _grouped_t(dec):
            offset += _independent_block(
                g, group, offset, coloring, trace,
                f"T[{list(bits(key[0]))},{key[1]}]", depth,
                "A'(N,v) is edgeless for (2,2)-bowtie-free graphs")
        offset += _independent_block(
            g, dec.s_prime, offset, coloring, trace, "S'", depth,
            "S' is edgeless for {P5, (2,2)-bowtie}-free graphs")
        offset += _independent_block(
            g, dec.t_prime, offset, coloring, trace, "T'", depth,
            "T' is edgeless for {P5, (3,3)-dumbbell}-free graphs")
        leftover = comp & ~(dec.k | dec.s_set | dec.t_set
                            | dec.s_prime | dec.t_prime)
        if leftover:
            notes.append(f"unexpected leftover vertices {list(bits(leftover))} "
                         f"at depth {depth}")
            start = len(trace)
            used = rec(leftover, depth + 1)
            for i in range(start, len(trace)):
                coloring[trace[i][0]] += offset
            offset += used
        return offset

    palette = rec(g.full_mask(), 0)
    bound = 2 * omega_top + omega_top * comb(omega_top, 2) + 2
    cert = ColoringCertificate("THM4", coloring, palette, bound, omega_top,
                               None, trace, notes, {})
    _finalize(g, cert)
    return cert


# --------------------------------------------------------------------- THM3

def color_thm3(g: Graph, s: int = 2, t: int = 2, c_oracle=None,
               chi_cap: int = DEFAULT_CHI_CAP) -> ColoringCertificate:
    """{(s,t)-bowtie, P5, (s+1,t+1)-dumbbell}-free graphs."""
    if s < 2 or t < 2:
        raise ValueError("s and t must be >= 2")
    _require_free("THM3", g, bowtie(s, t), f"({s},{t})-bowtie")
    _require_free("THM3", g, path(5), "P5")
    _require_free("THM3", g, dumbbell(s + 1, t + 1), f"({s + 1},{t + 1})-dumbbell")

    tracker = OracleTracker(c_oracle, chi_cap)
    coloring: dict[int, int] = {}
    trace: list = []
    notes: list = []
    omega_top = clique_number_in(g, g.full_mask())

    def rec(mask, depth):
        best = 0
        for comp in connected_components(g, mask):
            best = max(best, rec_comp(comp, depth))
        return best

    def rec_comp(comp, depth):
        w = clique_number_in(g, comp)
        if w <= 2 * t - 2:
            return _oracle_block(g, comp, tracker, 0, coloring, trace,
                                 "base", depth)
        k_mask = max_clique_in(g, comp)
        dec = decompose(g, k_mask, t, within=comp)
        for i, v in enumerate(bits(dec.k)):
            _paint(coloring, trace, v, i + 1, "K", depth)
        offset = w
        for m_mask in sorted(dec.a_m):
            offset += _oracle_block(
                g, dec.a_m[m_mask], tracker, offset, coloring, trace,
                f"S[A_{list(bits(m_mask))}]", depth)
        for key, group in _grouped_t(dec):
            offset += _oracle_block(
                g, group, tracker, offset, coloring, trace,
                f"T[{list(bits(key[0]))},{key[1]}]", depth)
        offset += _oracle_block(g, dec.s_prime, tracker, offset, coloring,
                                trace, "S'", depth)
        offset += _oracle_block(g, dec.t_prime, tracker, offset, coloring,
                                trace, "T'", depth)
        leftover = comp & ~(dec.k | dec.s_set | dec.t_set
                            | dec.s_prime | dec.t_prime)
        if leftover:
            notes.append(f"unexpected leftover vertices {list(bits(leftover))} "
                         f"at depth {depth}")
            start = len(trace)
            used = rec(leftover, depth + 1)
            for i in range(start, len(trace)):
                coloring[trace[i][0]] += offset
            offset += used
        return offset

    palette = rec(g.full_mask(), 0)
    c_real = tracker.max_used
    bound = (c_real * (2 + sum(comb(omega_top, i) for i in range(1, t))
                       + omega_top * comb(max(omega_top - 1, 0), t))
             + omega_top)
    cert = ColoringCertificate("THM3", coloring, palette, bound, omega_top,
                               c_real, trace, notes, {"s": s, "t": t})
    _finalize(g, cert)
    return cert


# --------------------------------------------------------------------- THM2

def color_thm2(g: Graph, s: int = 2, t: int = 2, k: int = 2, y: str = "f1",
               c_oracle=None, chi_cap: int = DEFAULT_CHI_CAP) -> ColoringCertificate:
    """{Y, (s,t)-bowtie, (k,t)-lollipop}-free graphs via alpha-block lifting."""
    if s < 2 or t < 2 or k < 2:
        raise ValueError("s, t, k must be >= 2")
    if y not in ("f1", "f2"):
        raise ValueError("y must be 'f1' or 'f2'")
    y_graph = f1(t) if y == "f1" else f2(t)
    _require_free("THM2", g, y_graph, f"{y}({t})")
    _require_free("THM2", g, bowtie(s, t), f"({s},{t})-bowtie")
    _require_free("THM2", g, lollipop_star(k, t), f"({k},{t})-lollipop")

    tracker = OracleTracker(c_oracle, chi_cap)
    coloring: dict[int, int] = {}
    trace: list = []
    notes: list = []
    omega_top = clique_number_in(g, g.full_mask())
    lift_checks: list = []

    def alpha_of(w):
        return (ramsey_upper(w - 1, k)
                + sum(w * comb(w, i) for i in range(1, t)))

    def rec(mask, depth):
        if mask == 0:
            return 0
        w = clique_number_in(g, mask)
        if w <= 2 * t - 2:
            return _oracle_block(g, mask, tracker, 0, coloring, trace,
                                 "base", depth)
        k_mask = max_clique_in(g, mask)
        dec = decompose(g, k_mask, t, within=mask)
        rest = mask & ~(dec.k | dec.t_set)
        p1 = rec(rest, depth + 1)

        # c2: provisional coloring of K ∪ T
        c2: dict[int, int] = {}
        for i, v in enumerate(bits(dec.k)):
            c2[v] = i + 1
        c2_next = w
        for key, group in _grouped_t(dec):
            sub, idx = induced_subgraph(g, group)
            cols = tracker.color(sub)
            for i, v in enumerate(idx):
                c2[v] = c2_next + cols[i]
            c2_next += max(cols)
        m_realized = c2_next

        alpha = alpha_of(w)
        lifted_max = 0
        for v in sorted(c2):
            outside = g.adj[v] & rest
            deg = outside.bit_count()
            lift_checks.append((v, deg, alpha))
            if deg >= alpha:
                notes.append(f"degree claim |N(v)\\(K∪T)| < alpha failed at "
                             f"vertex {v}: {deg} >= {alpha}")
            forbidden = {coloring[u] for u in bits(outside)}
            base = alpha * (c2[v] - 1)
            for c in range(base + 1, base + alpha + 1):
                if c not in forbidden:
                    _paint(coloring, trace, v,
                           c, "K-lift" if dec.k >> v & 1 else "T-lift", depth)
                    lifted_max = max(lifted_max, c)
                    break
            else:
                raise LiftError(v, deg, alpha)
        return max(p1, lifted_max, alpha * m_realized if m_realized else 0)

    palette = rec(g.full_mask(), 0)
    c_real = tracker.max_used
    if omega_top >= 2 * t - 1:
        alpha_top = alpha_of(omega_top)
        m_top = omega_top + c_real * omega_top * comb(omega_top - 1, t)
        g_top = m_top * alpha_top
        bound = max(alpha_top * m_top, g_top)
    else:
        alpha_top = m_top = g_top = None
        bound = max(c_real, 1)
    cert = ColoringCertificate("THM2", coloring, palette, bound, omega_top,
                               c_real, trace, notes,
                               {"s": s, "t": t, "k": k, "y": y,
                                "alpha": alpha_top, "m_omega": m_top,
                                "g_omega": g_top,
                                "lift_checks": len(lift_checks)})
    _finalize(g, cert)
    return cert


# -------------------------------------------------------------------- THM5A

def color_thm5a(g: Graph, k: int = 2,
                chi_cap: int = DEFAULT_CHI_CAP) -> ColoringCertificate:
    """Diamond-free, edges in two triangles, F(3,k)-free: lift over fans."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ok, wit = diamond_free_fast(g)
    if not ok:
        raise MembershipError("THM5A", "diamond", wit)
    good, edge = every_edge_two_triangles(g, witness=True)
    if not good:
        raise MembershipError("THM5A", "every-edge-in-two-triangles", edge)
    # diamond-freeness is already established, so the fast neighborhood
    # detector applies; the generic matcher is too slow at this pattern size
    fan_emb = find_fan_triangles_diamond_free(g, k)
    if fan_emb is not None:
        raise MembershipError("THM5A", f"F(3,{k})", fan_emb)
    omega_top = clique_number_in(g, g.full_mask())
    if omega_top < 4:
        raise MembershipError("THM5A", f"omega >= 4 (found {omega_top})")

    tracker = OracleTracker(None, chi_cap)
    coloring: dict[int, int] = {}
    trace: list = []
    notes: list = []

    def rec(mask, depth):
        if mask == 0:
            return 0
        w = clique_number_in(g, mask)
        if w <= 3:
            return _oracle_block(g, mask, tracker, 0, coloring, trace,
                                 "base", depth)
        k_mask = max_clique_in(g, mask)
        rest = mask & ~k_mask
        p1 = rec(rest, depth + 1)
        alpha = (w - 1) * (k - 1)
        block = alpha + 1
        lifted_max = 0
        for i, v in enumerate(bits(k_mask)):
            outside = g.adj[v] & rest
            deg = outside.bit_count()
            if deg >= alpha and alpha > 0:
                notes.append(f"degree claim |N(v)\\K| < alpha failed at "
                             f"vertex {v}: {deg} >= {alpha}")
            forbidden = {coloring[u] for u in bits(outside)}
            base = block * i
            for c in range(base + 1, base + block + 1):
                if c not in forbidden:
                    _paint(coloring, trace, v, c, "K-lift", depth)
                    lifted_max = max(lifted_max, c)
                    break
            else:
                raise LiftError(v, deg, block)
        return max(p1, lifted_max)

    palette = rec(g.full_mask(), 0)
    alpha_top = (omega_top - 1) * (k - 1)
    nominal = omega_top * (omega_top - 1) * (k - 1)
    bound = max((alpha_top + 1) * omega_top, nominal, tracker.max_used)
    notes.append("budget achieved: "
                 + ("nominal g(omega)" if palette <= nominal
                    else "(alpha+1)*omega block budget"))
    cert = ColoringCertificate("THM5A", coloring, palette, bound, omega_top,
                               tracker.max_used, trace, notes,
                               {"k": k, "alpha": alpha_top,
                                "nominal_bound": nominal})
    _finalize(g, cert)
    return cert


# -------------------------------------------------------------------- THM5B

def verify_thm5b(g: Graph,
                 chi_cap: int = DEFAULT_CHI_CAP) -> ColoringCertificate:
    """Diamond-free, edges in two triangles, (4,4)-dumbbell-free: chi = omega."""
    ok, wit = diamond_free_fast(g)
    if not ok:
        raise MembershipError("THM5B", "diamond", wit)
    _require_free("THM5B", g, dumbbell(4, 4), "(4,4)-dumbbell")
    good, edge = every_edge_two_triangles(g, witness=True)
    if not good:
        raise MembershipError("THM5B", "every-edge-in-two-triangles", edge)

    omega_top = clique_number_in(g, g.full_mask())
    coloring: dict[int, int] = {}
    trace: list = []
    notes: list = []

    part = edge_clique_partition(g)
    # Structural claim: in each partition clique, at most one vertex carries
    # blades outside it.  A failure is a potential counterexample.
    for idx, clique in enumerate(part.cliques):
        carriers = []
        for v in bits(clique):
            blades, violation = fan_structure(g, part, v)
            if violation is not None:
                raise StructureViolation("fan blades must be pairwise "
                                         "anticomplete away from the hub",
                                         violation)
            if len(blades) > 1:
                carriers.append(v)
        if len(carriers) > 1:
            raise StructureViolation(
                "two vertices of one maximal clique carry outside blades; "
                "potential counterexample to chi = omega",
                (idx, carriers))

    # Greedy clique-by-clique coloring along the fan forest.
    order = []
    seen = set()
    adj_cliques = {i: set() for i in range(len(part.cliques))}
    for i, a in enumerate(part.cliques):
        for j in range(i + 1, len(part.cliques)):
            if a & part.cliques[j]:
                adj_cliques[i].add(j)
                adj_cliques[j].add(i)
    for root in range(len(part.cliques)):
        if root in seen:
            continue
        queue = [root]
        seen.add(root)
        while queue:
            cur = queue.pop(0)
            order.append(cur)
            for nxt in sorted(adj_cliques[cur]):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    for ci in order:
        clique = part.cliques[ci]
        used = {coloring[v] for v in bits(clique) if v in coloring}
        free = (c for c in range(1, g.n + 2) if c not in used)
        for v in bits(clique):
            if v not in coloring:
                _paint(coloring, trace, v, next(free), f"clique[{ci}]", 0)
    for v in range(g.n):
        if v not in coloring:
            _paint(coloring, trace, v, 1, "isolated", 0)

    palette = max(coloring.values(), default=0)
    if palette != omega_top:
        raise StructureViolation(
            f"greedy fan coloring used {palette} colors but omega is {omega_top}")
    if g.n <= chi_cap:
        chi, _ = chromatic_number(g, cap=chi_cap)
        if chi != omega_top:
            raise StructureViolation(
                f"exact chromatic number {chi} differs from omega {omega_top}")
        notes.append(f"exact oracle confirms chi = omega = {omega_top}")
    else:
        notes.append("exact chi cross-check skipped: over oracle cap")
    cert = ColoringCertificate("THM5B", coloring, palette, omega_top,
                               omega_top, None, trace, notes,
                               {"cliques": len(part.cliques)})
    _finalize(g, cert)
    return cert


def _finalize(g: Graph, cert: ColoringCertificate):
    colors = [cert.coloring.get(v) for v in range(g.n)]
    if any(c is None for c in colors):
        raise RuntimeError("certificate does not color every vertex")
    if not is_proper(g, colors):
        raise RuntimeError("certificate coloring is not proper")
    traced = [v for v, _, _ in cert.trace]
    if sorted(traced) != list(range(g.n)):
        raise RuntimeError("trace does not cover every vertex exactly once")
    cert.palette_used = max(colors, default=0) if g.n else 0


@dataclass(frozen=True)
class TheoremCase:
    id: str
    description: str
    param_names: tuple
    bound: object           # fn(omega, c, **params) -> int
    colorer: object         # fn(g, **params) -> ColoringCertificate
    class_patterns: object  # fn(**params) -> list[(name, param dict)]


THEOREMS = {
    "THM1": TheoremCase(
        "THM1", "{diamond, hammer(t)+}-free", ("t",),
        lambda omega, c, t=2: 2 * omega + omega ** 2 * comb(max(omega - 1, 0), t) + c,
        color_thm1,
        lambda t=2: [("diamond", {}), ("hammer_plus", {"t": t})]),
    "THM2": TheoremCase(
        "THM2", "{Y, (s,t)-bowtie, (k,t)-lollipop}-free", ("s", "t", "k", "y"),
        lambda omega, c, s=2, t=2, k=2, y="f1":
            (omega + c * omega * comb(max(omega - 1, 0), t))
            * (ramsey_upper(max(omega - 1, 1), k)
               + sum(omega * comb(omega, i) for i in range(1, t))),
        color_thm2,
        lambda s=2, t=2, k=2, y="f1": [
            (y, {"t": t}), ("bowtie", {"s": s, "t": t}),
            ("lollipop_star", {"k": k, "t": t})]),
    "THM3": TheoremCase(
        "THM3", "{(s,t)-bowtie, P5, (s+1,t+1)-dumbbell}-free", ("s", "t"),
        lambda omega, c, s=2, t=2:
            c * (2 + sum(comb(omega, i) for i in range(1, t))
                 + omega * comb(max(omega - 1, 0), t)) + omega,
        color_thm3,
        lambda s=2, t=2: [
            ("bowtie", {"s": s, "t": t}), ("path", {"l": 5}),
            ("dumbbell", {"s": s + 1, "t": t + 1})]),
    "THM4": TheoremCase(
        "THM4", "{(2,2)-bowtie, P5, (3,3)-dumbbell}-free", (),
        lambda omega, c: 2 * omega + omega * comb(omega, 2) + 2,
        color_thm4,
        lambda: [("bowtie", {"s": 2, "t": 2}), ("path", {"l": 5}),
                 ("dumbbell", {"s": 3, "t": 3})]),
    "THM5A": TheoremCase(
        "THM5A", "diamond-free + 2-triangle edges + F(3,k)-free", ("k",),
        lambda omega, c, k=2: max(((omega - 1) * (k - 1) + 1) * omega,
                                  omega * (omega - 1) * (k - 1)),
        color_thm5a,
        lambda k=2: [("diamond", {}), ("fan_triangles", {"l": k})]),
    "THM5B": TheoremCase(
        "THM5B", "diamond-free + 2-triangle edges + (4,4)-dumbbell-free", (),
        lambda omega, c: omega,
        verify_thm5b,
        lambda: [("diamond", {}), ("dumbbell", {"s": 4, "t": 4})]),
}
