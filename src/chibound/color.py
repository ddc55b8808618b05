"""The theorem registry and its constructive colorers.

THEOREMS holds each theorem once: its parameters (defaults and domain), the
forbidden patterns and conditions of its class, bound formula and colorer.
Colorers take class members inside the domain (color_checked checks both
first) and check only the hypotheses outside the class.  They color vertex
masks of the input and emit a re-verified ColoringCertificate; bound
violations and failed structural claims are findings, never silently patched.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .certificate import (ColoringCertificate, MembershipError,
                          StructureViolation)
from .decompose import LEMMAS, block_label, edge_clique_partition
from .detect import ClassSpec, Conditions, check_params, is_member, make_class
from .graph import bits, connected_components
from .oracles import GraphOracles, is_proper, ramsey_upper
from .patterns import make_pattern


class _Canvas:
    """A coloring of oracles.g under construction, painted block by block
    around oracles.clique(), of size omega.  max_used, the largest palette the
    exact oracle used on a block, realizes the class constant C at desk
    scale: the bound checks stay consistent."""

    def __init__(self, oracles: GraphOracles):
        self.oracles, self.g = oracles, oracles.g
        self.omega = oracles.clique().bit_count()
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
        """oracles.coloring(mask): (chi, colors)."""
        chi, cols = self.oracles.coloring(mask)
        self.max_used = max(self.max_used, chi)
        return chi, cols

    def block(self, lemma, mask, base, label, depth, omega=0):
        """Color mask with fresh colors above base, return how many: the exact
        oracle's if lemma is None, else one per vertex of each component."""
        if lemma is None:
            if not mask:
                return 0
            chi, cols = self.exact(mask)
            for v in bits(mask):
                self.paint(v, base + cols[v], label, depth)
            return chi
        comps = lemma.components(self.g, mask, omega)
        for comp in comps:
            for i, v in enumerate(bits(comp)):
                self.paint(v, base + i + 1, label, depth)
        return max(map(int.bit_count, comps), default=0)

    def certificate(self, thm, c, params, **details):
        """Verify the finished coloring and certify it against the bound."""
        g = self.g
        colors = [self.coloring.get(v) for v in range(g.n)]
        if None in colors:
            raise RuntimeError("certificate does not color every vertex")
        if not is_proper(g, colors):
            raise RuntimeError("certificate coloring is not proper")
        return ColoringCertificate(
            thm, self.coloring, max(colors, default=0),
            THEOREMS[thm].bound(self.omega, c or 0, **params), self.omega, c,
            self.trace, self.notes, {**params, **details})


def _k_layers(oracles, thm, base, t):
    """The colorer of THM1, THM3 and THM4, run on thm's LEMMAS.

    A component's K is oracles.clique(comp).  With |K| <= base it goes to
    the exact oracle; else it is oracles.decomposition(t, comp) around K,
    colored 1..|K|, then each of its blocks takes fresh colors by its
    kind's lemma (see _Canvas.block).  Returns the canvas.
    """
    lemmas = LEMMAS[thm]
    canvas = _Canvas(oracles)
    g = canvas.g
    for comp in connected_components(g, g.full_mask()):
        w = oracles.clique(comp).bit_count()
        if w <= base:
            canvas.block(None, comp, 0, "base", 0)
            continue
        dec = oracles.decomposition(t, comp)
        for i, v in enumerate(bits(dec.k)):
            canvas.paint(v, i + 1, "K", 0)
        offset = w
        for kind, mask, key in dec.blocks():
            offset += canvas.block(lemmas.get(kind), mask, offset,
                                   block_label(kind, key), 0, w)
    return canvas


def _lift_layers(canvas, base, layer, outside):
    """The colorer of THM2 and THM5A: alpha-block lifting, on the canvas.

    A mask's K is oracles.clique(mask).  With |K| <= base it goes to the
    exact oracle.  Otherwise layer(canvas, mask, K) peels K and returns
    (rest, plan); rest is colored first, then plan() gives (blocks, alpha,
    size) and each peeled v takes the first color of its block blocks[v]
    >= 1 of `size` colors that no neighbour in rest uses.  A degree
    |N(v) & rest| >= alpha fails the proof's claim and raises
    StructureViolation with v, its degree and alpha.
    """
    g = canvas.g

    def rec(mask, depth):
        k_mask = canvas.oracles.clique(mask)
        if k_mask.bit_count() <= base:
            canvas.block(None, mask, 0, "base", depth)
            return
        rest, plan = layer(canvas, mask, k_mask)
        if rest:
            rec(rest, depth + 1)
        blocks, alpha, size = plan()
        for v in sorted(blocks):
            near = g.adj[v] & rest
            deg = near.bit_count()
            if deg >= alpha:
                raise StructureViolation(
                    f"degree claim |N(v)\\{outside}| < alpha",
                    {"vertex": v, "degree": deg, "alpha": alpha})
            taken = {canvas.coloring[u] for u in bits(near)}
            start = size * (blocks[v] - 1)
            # deg < alpha <= size: at most deg of the block's colors are taken
            c = next(c for c in range(start + 1, start + size + 1)
                     if c not in taken)
            canvas.paint(v, c, "K-lift" if k_mask >> v & 1 else "T-lift", depth)

    try:
        rec(g.full_mask(), 0)
    finally:
        del rec  # the closure holds itself: free it now, not at a collection


def color_thm1(oracles: GraphOracles, t: int) -> ColoringCertificate:
    """{diamond, hammer(t)+}-free graphs: K + T + T' blocks, base case <= t."""
    canvas = _k_layers(oracles, "THM1", base=t, t=t)
    return canvas.certificate("THM1", canvas.max_used, {"t": t})


def color_thm3(oracles: GraphOracles, s: int, t: int) -> ColoringCertificate:
    """{(s,t)-bowtie, P5, (s+1,t+1)-dumbbell}-free graphs."""
    canvas = _k_layers(oracles, "THM3", base=2 * t - 2, t=t)
    return canvas.certificate("THM3", canvas.max_used, {"s": s, "t": t})


def color_thm4(oracles: GraphOracles) -> ColoringCertificate:
    """{(2,2)-bowtie, P5, (3,3)-dumbbell}-free graphs, the C-free t=2 case."""
    canvas = _k_layers(oracles, "THM4", base=2, t=2)
    if canvas.omega < 3:
        canvas.notes.append(
            "hypothesis omega >= 3 not met; colored by the exact oracle")
    return canvas.certificate("THM4", None, {})


def _thm2_alpha(omega, t, k):
    return ramsey_upper(omega - 1, k) + sum(omega * comb(omega, i)
                                            for i in range(1, t))


def _thm2_bound(omega, c, s, t, k, y):
    """alpha(omega) * m(omega), m(omega) = omega + C omega C(omega-1, t)."""
    if omega < 2 * t - 1:
        return max(c, 1)
    return _thm2_alpha(omega, t, k) * (omega + c * omega * comb(omega - 1, t))


def color_thm2(oracles: GraphOracles, s: int, t: int, k: int,
               y: str) -> ColoringCertificate:
    """{Y, (s,t)-bowtie, (k,t)-lollipop}-free graphs via alpha-block lifting."""
    def layer(canvas, mask, k_mask):
        dec = canvas.oracles.decomposition(t, mask)

        def plan():
            # provisional coloring of K ∪ T; each color is a lift block
            blocks = {v: i + 1 for i, v in enumerate(bits(dec.k))}
            top = len(blocks)
            for group in dec.t_groups.values():
                chi, cols = canvas.exact(group)
                for v in bits(group):
                    blocks[v] = top + cols[v]
                top += chi
            alpha = _thm2_alpha(dec.k.bit_count(), t, k)
            return blocks, alpha, alpha
        return mask & ~(dec.k | dec.t_set), plan

    canvas = _Canvas(oracles)
    _lift_layers(canvas, 2 * t - 2, layer, "(K∪T)")
    cert = canvas.certificate(
        "THM2", canvas.max_used, {"s": s, "t": t, "k": k, "y": y},
        alpha=None, m_omega=None, g_omega=None,
        lift_checks=sum(lbl.endswith("-lift") for _, lbl, _ in canvas.trace))
    if canvas.omega >= 2 * t - 1:
        alpha = _thm2_alpha(canvas.omega, t, k)
        cert.details.update(alpha=alpha, m_omega=cert.bound_value // alpha,
                            g_omega=cert.bound_value)
    return cert


def color_thm5a(oracles: GraphOracles, k: int) -> ColoringCertificate:
    """Diamond-free, edges in two triangles, F(3,k)-free: lift over fans."""
    canvas = _Canvas(oracles)
    if (omega := canvas.omega) < 4:
        raise MembershipError("THM5A", f"omega >= 4 (found {omega})")

    def layer(canvas, mask, k_mask):
        alpha = (k_mask.bit_count() - 1) * (k - 1)
        blocks = {v: i + 1 for i, v in enumerate(bits(k_mask))}
        return mask & ~k_mask, lambda: (blocks, alpha, alpha + 1)

    _lift_layers(canvas, 3, layer, "K")
    nominal = omega * (omega - 1) * (k - 1)
    cert = canvas.certificate("THM5A", canvas.max_used, {"k": k},
                              alpha=(omega - 1) * (k - 1), nominal_bound=nominal)
    cert.notes.append("budget achieved: "
                      + ("nominal g(omega)" if cert.palette_used <= nominal
                         else "(alpha+1)*omega block budget"))
    return cert


def verify_thm5b(oracles: GraphOracles) -> ColoringCertificate:
    """Diamond-free, edges in two triangles, (4,4)-dumbbell-free: chi = omega.

    Claim: in each maximal clique at most one vertex, its carrier, lies in
    another clique of the edge-clique partition.  The greedy coloring below
    relies on it, so a failure raises StructureViolation; the claim can fail
    where chi = omega still holds.  A proper coloring with omega colors
    proves chi = omega, so no oracle runs.
    """
    canvas = _Canvas(oracles)
    g, omega = canvas.g, canvas.omega
    cliques = edge_clique_partition(g)
    seen = shared = 0           # shared: the carriers, in two or more cliques
    for clique in cliques:
        shared |= seen & clique
        seen |= clique
    # Greedy clique-by-clique coloring in index order.  Past the claim, a
    # clique meets the others only at its carrier, so at most one of its
    # vertices is colored already when its turn comes: no color exceeds
    # omega.
    coloring = canvas.coloring
    for ci, clique in enumerate(cliques):
        if (clique & shared).bit_count() > 1:
            raise StructureViolation(
                "two vertices of one maximal clique carry outside blades",
                {"clique": ci, "carriers": list(bits(clique & shared)),
                 "omega": omega})
        used = {coloring[v] for v in bits(clique) if v in coloring}
        free = (c for c in range(1, g.n + 2) if c not in used)
        for v in bits(clique):
            if v not in coloring:
                canvas.paint(v, next(free), f"clique[{ci}]", 0)
    for v in range(g.n):
        if v not in coloring:
            canvas.paint(v, 1, "isolated", 0)
    canvas.notes.append(
        f"proper coloring with omega = {omega} colors: chi = omega")
    return canvas.certificate("THM5B", None, {}, cliques=len(cliques))


# ------------------------------------------------------------------ registry

@dataclass(frozen=True)
class TheoremCase:
    id: str
    defaults: dict          # parameter name -> default value
    domain: dict            # parameter name -> least int, or tuple of values
    forbidden: object       # fn(**params) -> [PatternInstance], search order
    bound: object           # fn(omega, c, **params) -> int
    colorer: object         # fn(GraphOracles, **params) -> certificate
    conditions: Conditions = Conditions()

    def spec(self, **params) -> ClassSpec:
        """The hypothesis class at the defaults updated by params, named by
        the lower-cased id and parameters; the colorer and the bound run at
        its params.  A parameter outside the domain raises ValueError."""
        check_params(f"theorem {self.id}", params, self.domain)
        merged = {**self.defaults, **params}
        inner = ",".join(f"{k}={v}" for k, v in merged.items())
        return make_class(self.forbidden(**merged), self.conditions, merged,
                          self.id.lower() + (f"({inner})" if inner else ""))


_TWO_TRIANGLES = Conditions(every_edge_in_two_triangles=True)

THEOREMS = {case.id: case for case in (
    TheoremCase(
        "THM1", {"t": 2}, {"t": 2},
        lambda t: [make_pattern("diamond"), make_pattern("hammer_plus", t=t)],
        lambda omega, c, t:
            2 * omega + omega ** 2 * comb(max(omega - 1, 0), t) + c,
        color_thm1),
    TheoremCase(
        "THM2", {"s": 2, "t": 2, "k": 2, "y": "f1"},
        {"s": 2, "t": 2, "k": 2, "y": ("f1", "f2")},
        lambda s, t, k, y: [make_pattern(y, t=t),
                            make_pattern("bowtie", s=s, t=t),
                            make_pattern("lollipop_star", k=k, t=t)],
        _thm2_bound, color_thm2),
    TheoremCase(
        "THM3", {"s": 2, "t": 2}, {"s": 2, "t": 2},
        lambda s, t: [make_pattern("bowtie", s=s, t=t), make_pattern("path", l=5),
                      make_pattern("dumbbell", s=s + 1, t=t + 1)],
        lambda omega, c, s, t:
            c * (2 + sum(comb(omega, i) for i in range(1, t))
                 + omega * comb(max(omega - 1, 0), t)) + omega,
        color_thm3),
    TheoremCase(
        "THM4", {}, {},
        lambda: [make_pattern("bowtie", s=2, t=2), make_pattern("path", l=5),
                 make_pattern("dumbbell", s=3, t=3)],
        lambda omega, c: 2 * omega + omega * comb(omega, 2) + 2,
        color_thm4),
    TheoremCase(
        "THM5A", {"k": 2}, {"k": 1},
        lambda k: [make_pattern("diamond"), make_pattern("fan_triangles", l=k)],
        lambda omega, c, k: max(((omega - 1) * (k - 1) + 1) * omega, c),
        color_thm5a, _TWO_TRIANGLES),
    TheoremCase(
        "THM5B", {}, {},
        lambda: [make_pattern("diamond"), make_pattern("dumbbell", s=4, t=4)],
        lambda omega, c: omega,
        verify_thm5b, _TWO_TRIANGLES),
)}


def color_checked(thm: str, oracles: GraphOracles,
                  spec: ClassSpec | None = None) -> ColoringCertificate:
    """Check that oracles.g is in spec, the class of theorem thm (its
    defaults' when None), then run the colorer on oracles at spec's
    parameters.  A pattern already asked of g is not searched again
    (detect.embedding)."""
    if spec is None:
        spec = THEOREMS[thm].spec()
    rep = is_member(oracles.g, spec)
    if not rep.member:
        raise MembershipError(thm, rep.violated, rep.witness)
    return THEOREMS[thm].colorer(oracles, **spec.params)
