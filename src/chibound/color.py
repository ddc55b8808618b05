"""The theorem registry and its constructive colorers.

THEOREMS holds each theorem once: parameter defaults, the forbidden patterns
and conditions of its class, bound formula and colorer.  Colorers take class
members only (color_checked, or the harness, checks membership first) and
check just the hypotheses outside the class.  They color vertex masks of the
input and emit a re-verified ColoringCertificate; bound violations and failed
structural claims are findings, never silently patched.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .certificate import (ColoringCertificate, LiftError, MembershipError,
                          StructureViolation)
from .decompose import decompose, edge_clique_partition, fan_structure
from .detect import ClassSpec, Conditions, is_member, make_class
from .graph import Graph, bits, connected_components
from .oracles import (DEFAULT_CHI_CAP, chromatic_number, clique_number_in,
                      is_proper, max_clique_in, ramsey_upper)
from .patterns import make_pattern


class _Canvas:
    """A coloring of g under construction, painted block by block.  max_used,
    the largest palette the exact oracle used on a block, realizes the class
    constant C at desk scale, which keeps the bound checks self-consistent."""

    def __init__(self, g: Graph, chi_cap: int):
        self.g = g
        self.chi_cap = chi_cap
        self.coloring: dict[int, int] = {}
        self.trace: list = []
        self.notes: list = []
        self.max_used = 0

    def paint(self, v, color, label, depth):
        if v in self.coloring:
            raise RuntimeError(f"vertex {v} colored twice")
        self.coloring[v] = color
        self.trace.append((v, label, depth))

    def exact(self, mask):
        """(chi, colors) of G[mask], colors indexed by g's vertices."""
        chi, cols = chromatic_number(self.g, cap=self.chi_cap, within=mask)
        self.max_used = max(self.max_used, chi)
        return chi, cols

    def block(self, rule, mask, base, label, depth, omega=0):
        """Color mask with fresh colors above base by rule, a (kind, claim)
        pair: "oracle", exact; "independent", one color; or "components",
        one color per vertex of each component, of at most omega vertices.
        Returns the number of colors used; a failed claim raises."""
        kind, claim = rule
        if kind == "oracle":
            if not mask:
                return 0
            chi, cols = self.exact(mask)
            for v in bits(mask):
                self.paint(v, base + cols[v], label, depth)
            return chi
        if kind == "independent":
            for v in bits(mask):
                hit = self.g.adj[v] & mask
                if hit:
                    raise StructureViolation(claim, (v, (hit & -hit).bit_length() - 1))
                self.paint(v, base + 1, label, depth)
            return 1 if mask else 0
        used = 0
        for comp in connected_components(self.g, mask):
            size = comp.bit_count()
            if size > omega:
                raise StructureViolation(claim, list(bits(comp)))
            for i, v in enumerate(bits(comp)):
                self.paint(v, base + i + 1, label, depth)
            used = max(used, size)
        return used

    def certificate(self, thm, omega, c, params, **details):
        """Verify the finished coloring and certify it against the bound."""
        g = self.g
        colors = [self.coloring.get(v) for v in range(g.n)]
        if None in colors:
            raise RuntimeError("certificate does not color every vertex")
        if not is_proper(g, colors):
            raise RuntimeError("certificate coloring is not proper")
        if sorted(v for v, _, _ in self.trace) != list(range(g.n)):
            raise RuntimeError("trace does not cover every vertex exactly once")
        return ColoringCertificate(
            thm, self.coloring, max(colors, default=0),
            THEOREMS[thm].bound(omega, c or 0, **params), omega, c,
            self.trace, self.notes, {**params, **details})


def _grouped_t(dec):
    """T vertices grouped by their canonical (N, v) pair, sorted."""
    groups = {}
    for u, key in dec.canonical_nv.items():
        groups[key] = groups.get(key, 0) | 1 << u
    return sorted(groups.items())


_ORACLE = ("oracle", None)


def _k_layers(g, chi_cap, base, t, a_m, t_group, s_prime, t_prime,
              s_empty=False):
    """The colorer of THM1, THM3 and THM4, run on the plan in its arguments.

    A component with omega <= base goes to the exact oracle.  Any other is
    decomposed at t around its lex-first maximum clique K, colored 1..omega;
    then each A_M, T group, S' and T' takes fresh colors by its rule (see
    _Canvas.block), or is empty by the plan's claims if the rule is None.
    With s_empty, S must be empty.  Returns (canvas, omega).
    """
    canvas = _Canvas(g, chi_cap)
    for comp in connected_components(g, g.full_mask()):
        w = clique_number_in(g, comp)
        if w <= base:
            canvas.block(_ORACLE, comp, 0, "base", 0)
            continue
        dec = decompose(g, max_clique_in(g, comp), t, within=comp)
        if s_empty and dec.s_set:
            raise StructureViolation("S must be empty in diamond-free graphs",
                                     list(bits(dec.s_set)))
        for i, v in enumerate(bits(dec.k)):
            canvas.paint(v, i + 1, "K", 0)
        parts = [(a_m, dec.a_m[m], f"S[A_{list(bits(m))}]")
                 for m in sorted(dec.a_m)]
        parts += [(t_group, group, f"T[{list(bits(key[0]))},{key[1]}]")
                  for key, group in _grouped_t(dec)]
        parts += [(s_prime, dec.s_prime, "S'"), (t_prime, dec.t_prime, "T'")]
        offset = w
        for rule, mask, label in parts:
            if rule is not None:
                offset += canvas.block(rule, mask, offset, label, 0, w)
        if dec.residual:
            raise StructureViolation(
                "every vertex of a component lies in K, S, T, S' or T'",
                list(bits(dec.residual)))
    return canvas, clique_number_in(g, g.full_mask())


def _lift_layers(g, chi_cap, base, layer, outside):
    """The colorer of THM2 and THM5A: alpha-block lifting.

    A mask with omega <= base goes to the exact oracle.  Otherwise
    layer(canvas, mask, omega) peels a maximum clique K and returns
    (K, rest, plan); rest is colored first, then plan() gives (blocks,
    alpha, size) and each peeled v takes the first color of its block
    blocks[v] >= 1 of `size` colors that no neighbour in rest uses.  A
    degree |N(v) & rest| >= alpha, against the proof's claim, is noted.
    """
    canvas = _Canvas(g, chi_cap)

    def rec(mask, depth):
        if not mask:
            return
        w = clique_number_in(g, mask)
        if w <= base:
            canvas.block(_ORACLE, mask, 0, "base", depth)
            return
        k_mask, rest, plan = layer(canvas, mask, w)
        rec(rest, depth + 1)
        blocks, alpha, size = plan()
        for v in sorted(blocks):
            near = g.adj[v] & rest
            deg = near.bit_count()
            if deg >= alpha > 0:
                canvas.notes.append(f"degree claim |N(v)\\{outside}| < alpha "
                                    f"failed at vertex {v}: {deg} >= {alpha}")
            taken = {canvas.coloring[u] for u in bits(near)}
            start = size * (blocks[v] - 1)
            for c in range(start + 1, start + size + 1):
                if c not in taken:
                    canvas.paint(v, c, "K-lift" if k_mask >> v & 1 else "T-lift",
                                 depth)
                    break
            else:
                raise LiftError(v, deg, size)

    rec(g.full_mask(), 0)
    return canvas


def color_thm1(g: Graph, t: int = 2,
               chi_cap: int = DEFAULT_CHI_CAP) -> ColoringCertificate:
    """{diamond, hammer(t)+}-free graphs: K + T + T' blocks, base case <= t."""
    if t < 2:
        raise ValueError("t must be >= 2")
    canvas, omega = _k_layers(
        g, chi_cap, base=t, t=t, s_empty=True, a_m=None, s_prime=None,
        t_group=("components", "components of A'(N,v) have at most omega vertices"),
        t_prime=("components", "components of T' have at most omega vertices"))
    return canvas.certificate("THM1", omega, canvas.max_used, {"t": t})


def color_thm3(g: Graph, s: int = 2, t: int = 2,
               chi_cap: int = DEFAULT_CHI_CAP) -> ColoringCertificate:
    """{(s,t)-bowtie, P5, (s+1,t+1)-dumbbell}-free graphs."""
    if s < 2 or t < 2:
        raise ValueError("s and t must be >= 2")
    canvas, omega = _k_layers(g, chi_cap, base=2 * t - 2, t=t, a_m=_ORACLE,
                              t_group=_ORACLE, s_prime=_ORACLE, t_prime=_ORACLE)
    return canvas.certificate("THM3", omega, canvas.max_used, {"s": s, "t": t})


def color_thm4(g: Graph, chi_cap: int = DEFAULT_CHI_CAP) -> ColoringCertificate:
    """{(2,2)-bowtie, P5, (3,3)-dumbbell}-free graphs, the C-free t=2 case."""
    canvas, omega = _k_layers(
        g, chi_cap, base=2, t=2,
        a_m=("independent", "A_M is edgeless at t=2 by maximality of K"),
        t_group=("independent", "A'(N,v) is edgeless for (2,2)-bowtie-free graphs"),
        s_prime=("independent", "S' is edgeless for {P5, (2,2)-bowtie}-free graphs"),
        t_prime=("independent", "T' is edgeless for {P5, (3,3)-dumbbell}-free graphs"))
    if omega < 3:
        canvas.notes.append(
            "hypothesis omega >= 3 not met; colored by the exact oracle")
    return canvas.certificate("THM4", omega, None, {})


def _thm2_y(y):
    if y not in ("f1", "f2"):
        raise ValueError("y must be 'f1' or 'f2'")
    return y


def _thm2_alpha(omega, t, k):
    return ramsey_upper(omega - 1, k) + sum(omega * comb(omega, i)
                                            for i in range(1, t))


def _thm2_bound(omega, c, s=2, t=2, k=2, y="f1"):
    """alpha(omega) * m(omega), m(omega) = omega + C omega C(omega-1, t)."""
    if omega < 2 * t - 1:
        return max(c, 1)
    return _thm2_alpha(omega, t, k) * (omega + c * omega * comb(omega - 1, t))


def color_thm2(g: Graph, s: int = 2, t: int = 2, k: int = 2, y: str = "f1",
               chi_cap: int = DEFAULT_CHI_CAP) -> ColoringCertificate:
    """{Y, (s,t)-bowtie, (k,t)-lollipop}-free graphs via alpha-block lifting."""
    if s < 2 or t < 2 or k < 2:
        raise ValueError("s, t, k must be >= 2")
    _thm2_y(y)

    def layer(canvas, mask, w):
        dec = decompose(g, max_clique_in(g, mask), t, within=mask)

        def plan():
            # provisional coloring of K ∪ T; each color is a lift block
            blocks = {v: i + 1 for i, v in enumerate(bits(dec.k))}
            top = w
            for _, group in _grouped_t(dec):
                chi, cols = canvas.exact(group)
                for v in bits(group):
                    blocks[v] = top + cols[v]
                top += chi
            alpha = _thm2_alpha(w, t, k)
            return blocks, alpha, alpha
        return dec.k, mask & ~(dec.k | dec.t_set), plan

    canvas = _lift_layers(g, chi_cap, 2 * t - 2, layer, "(K∪T)")
    omega = clique_number_in(g, g.full_mask())
    cert = canvas.certificate(
        "THM2", omega, canvas.max_used, {"s": s, "t": t, "k": k, "y": y},
        alpha=None, m_omega=None, g_omega=None,
        lift_checks=sum(lbl.endswith("-lift") for _, lbl, _ in canvas.trace))
    if omega >= 2 * t - 1:
        alpha = _thm2_alpha(omega, t, k)
        cert.details.update(alpha=alpha, m_omega=cert.bound_value // alpha,
                            g_omega=cert.bound_value)
    return cert


def color_thm5a(g: Graph, k: int = 2,
                chi_cap: int = DEFAULT_CHI_CAP) -> ColoringCertificate:
    """Diamond-free, edges in two triangles, F(3,k)-free: lift over fans."""
    if k < 1:
        raise ValueError("k must be >= 1")
    omega = clique_number_in(g, g.full_mask())
    if omega < 4:
        raise MembershipError("THM5A", f"omega >= 4 (found {omega})")

    def layer(canvas, mask, w):
        k_mask = max_clique_in(g, mask)
        alpha = (w - 1) * (k - 1)
        blocks = {v: i + 1 for i, v in enumerate(bits(k_mask))}
        return k_mask, mask & ~k_mask, lambda: (blocks, alpha, alpha + 1)

    canvas = _lift_layers(g, chi_cap, 3, layer, "K")
    nominal = omega * (omega - 1) * (k - 1)
    cert = canvas.certificate("THM5A", omega, canvas.max_used, {"k": k},
                              alpha=(omega - 1) * (k - 1), nominal_bound=nominal)
    cert.notes.append("budget achieved: "
                      + ("nominal g(omega)" if cert.palette_used <= nominal
                         else "(alpha+1)*omega block budget"))
    return cert


def verify_thm5b(g: Graph,
                 chi_cap: int = DEFAULT_CHI_CAP) -> ColoringCertificate:
    """Diamond-free, edges in two triangles, (4,4)-dumbbell-free: chi = omega.

    Claim: in each maximal clique at most one vertex carries blades outside
    it.  The greedy fan coloring below relies on it, so a failure raises
    StructureViolation with the exact chi, or "capped" above chi_cap, in its
    witness: the claim can fail where chi = omega still holds.
    """
    omega = clique_number_in(g, g.full_mask())
    canvas = _Canvas(g, chi_cap)

    def exact_chi():
        return chromatic_number(g, cap=chi_cap)[0] if g.n <= chi_cap else "capped"

    part = edge_clique_partition(g)
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
                "two vertices of one maximal clique carry outside blades",
                {"clique": idx, "carriers": carriers, "omega": omega,
                 "chi": exact_chi()})

    # Greedy clique-by-clique coloring along the fan forest, breadth first.
    cliques = part.cliques
    order, seen = [], set()
    for root in range(len(cliques)):
        if root not in seen:
            seen.add(root)
            queue = [root]
            for cur in queue:
                for nxt in range(len(cliques)):
                    if nxt not in seen and cliques[cur] & cliques[nxt]:
                        seen.add(nxt)
                        queue.append(nxt)
            order += queue
    coloring = canvas.coloring
    for ci in order:
        clique = cliques[ci]
        used = {coloring[v] for v in bits(clique) if v in coloring}
        free = (c for c in range(1, g.n + 2) if c not in used)
        for v in bits(clique):
            if v not in coloring:
                canvas.paint(v, next(free), f"clique[{ci}]", 0)
    for v in range(g.n):
        if v not in coloring:
            canvas.paint(v, 1, "isolated", 0)

    palette = max(coloring.values(), default=0)
    if palette != omega:
        raise StructureViolation(
            f"greedy fan coloring used {palette} colors but omega is {omega}")
    chi = exact_chi()
    if chi not in (omega, "capped"):
        raise StructureViolation(
            f"exact chromatic number {chi} differs from omega {omega}")
    canvas.notes.append(f"exact oracle confirms chi = omega = {omega}"
                        if chi == omega else
                        "exact chi cross-check skipped: over oracle cap")
    return canvas.certificate("THM5B", omega, None, {},
                              cliques=len(part.cliques))


# ------------------------------------------------------------------ registry

@dataclass(frozen=True)
class TheoremCase:
    id: str
    defaults: dict          # parameter name -> default value
    forbidden: object       # fn(**params) -> [PatternInstance], search order
    bound: object           # fn(omega, c, **params) -> int
    colorer: object         # fn(g, chi_cap=..., **params) -> ColoringCertificate
    conditions: Conditions = Conditions()

    def spec(self, **params) -> ClassSpec:
        """The hypothesis class, named by the lower-cased id and parameters."""
        merged = {**self.defaults, **params}
        inner = ",".join(f"{k}={v}" for k, v in merged.items())
        return make_class(self.forbidden(**merged), self.conditions, merged,
                          self.id.lower() + (f"({inner})" if inner else ""))


_TWO_TRIANGLES = Conditions(every_edge_in_two_triangles=True)

THEOREMS = {case.id: case for case in (
    TheoremCase(
        "THM1", {"t": 2},
        lambda t: [make_pattern("diamond"), make_pattern("hammer_plus", t=t)],
        lambda omega, c, t=2:
            2 * omega + omega ** 2 * comb(max(omega - 1, 0), t) + c,
        color_thm1),
    TheoremCase(
        "THM2", {"s": 2, "t": 2, "k": 2, "y": "f1"},
        lambda s, t, k, y: [make_pattern(_thm2_y(y), t=t),
                            make_pattern("bowtie", s=s, t=t),
                            make_pattern("lollipop_star", k=k, t=t)],
        _thm2_bound, color_thm2),
    TheoremCase(
        "THM3", {"s": 2, "t": 2},
        lambda s, t: [make_pattern("bowtie", s=s, t=t), make_pattern("path", l=5),
                      make_pattern("dumbbell", s=s + 1, t=t + 1)],
        lambda omega, c, s=2, t=2:
            c * (2 + sum(comb(omega, i) for i in range(1, t))
                 + omega * comb(max(omega - 1, 0), t)) + omega,
        color_thm3),
    TheoremCase(
        "THM4", {},
        lambda: [make_pattern("bowtie", s=2, t=2), make_pattern("path", l=5),
                 make_pattern("dumbbell", s=3, t=3)],
        lambda omega, c: 2 * omega + omega * comb(omega, 2) + 2,
        color_thm4),
    TheoremCase(
        "THM5A", {"k": 2},
        lambda k: [make_pattern("diamond"), make_pattern("fan_triangles", l=k)],
        lambda omega, c, k=2: max(((omega - 1) * (k - 1) + 1) * omega,
                                  omega * (omega - 1) * (k - 1), c),
        color_thm5a, _TWO_TRIANGLES),
    TheoremCase(
        "THM5B", {},
        lambda: [make_pattern("diamond"), make_pattern("dumbbell", s=4, t=4)],
        lambda omega, c: omega,
        verify_thm5b, _TWO_TRIANGLES),
)}


def require_member(thm: str, g: Graph, spec: ClassSpec):
    """Raise MembershipError unless g is in spec, the class of theorem thm."""
    rep = is_member(g, spec)
    if not rep.member:
        raise MembershipError(thm, rep.violated, rep.witness)


def color_checked(thm: str, g: Graph, chi_cap: int = DEFAULT_CHI_CAP,
                  **params) -> ColoringCertificate:
    """Check that g is in the class of theorem thm, then run its colorer."""
    case = THEOREMS[thm]
    require_member(thm, g, case.spec(**params))
    return case.colorer(g, chi_cap=chi_cap, **params)
