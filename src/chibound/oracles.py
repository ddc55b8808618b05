"""Exact ground-truth oracles: clique number, chromatic number, odd holes,
chi^(n).

The chromatic oracle is DSATUR backtracking (_k_colorable) in one loop over
an explicit stack.  It keeps per color class the mask of the vertices that
see it and per free vertex its DSATUR key, updated as a vertex takes a color
and undone on backtracking.  The vertex rule (most classes seen, then
highest degree, then lowest index) and the color order (0 up to one past
the colors used) alone fix the search tree, so this bookkeeping changes no
node and no coloring from a search that rescans every class.  The tests
compare its colorings with a plain DSATUR over the relabelled subgraph
(_k_colorable_reference in tests/test_oracles.py), and its chi with the
all-assignments and inclusion-exclusion references of tests/reference.py.

Each oracle question has one rule.  max_clique decides a set of at most
two vertices by its size and one adjacency bit and searches any larger one
with the kernel.  _first_fit visits a set's vertices by decreasing degree
in the set, for GraphOracles.chi and chi_n alike.  GraphOracles keeps one
entry per set, (chi, DSATUR's coloring or None): chi is answered from a
clique below and first fit above where they meet (chi = omega on most
inputs), with no DSATUR search, and coloring() fills in the coloring when
it is asked.  On a set of at most two vertices chi also keeps DSATUR's
coloring, with no search; that rule stops at two, as a three-vertex path
already takes DSATUR's colors [2, 2, 1].
"""

from __future__ import annotations

import os
from math import comb, inf

from . import kernels
from .graph import Graph, bits


def _env_caps(env) -> tuple:
    """(chi cap, chi^(n) cap, error): the exact oracles' default vertex
    caps from CHIBOUND_CHI_CAP and CHIBOUND_CHIN_CAP, else 16 and 12.
    Never raises: a value that is not a positive int gives a cap of 0 and
    an error naming it, which the CLI reports before any command runs."""
    caps, errors = [], []
    for name, default in (("CHIBOUND_CHI_CAP", "16"),
                          ("CHIBOUND_CHIN_CAP", "12")):
        raw = env.get(name, default)
        try:
            caps.append(max(int(raw), 0))
        except ValueError:
            caps.append(0)
        if not caps[-1]:
            errors.append(f"{name} must be a positive int, not {raw!r}")
    return caps[0], caps[1], "; ".join(errors)


# GraphOracles' default vertex caps, which RunConfig and the CLI take too.
DEFAULT_CHI_CAP, DEFAULT_CHIN_CAP, CAP_ERROR = _env_caps(os.environ)


class OracleCapExceeded(RuntimeError):
    def __init__(self, what: str, n: int, cap: int):
        super().__init__(f"{what}: graph has {n} vertices, exact-oracle cap is {cap}")
        self.what, self.n, self.cap = what, n, cap


def clique_number(g: Graph, within: int | None = None) -> int:
    """Clique number of G[within] (default G)."""
    within = g.full_mask() if within is None else within
    return kernels.clique_number_sub(g.adj, within)


def max_clique(g: Graph, within: int | None = None) -> int:
    """Lexicographically smallest maximum clique of G[within] (default G),
    as a bitmask.  A set of at most two vertices is decided by its size
    and one adjacency bit, with no search: the set itself when it is a
    clique (no vertex, one, or an edge), else its lower vertex.  Larger
    sets take one kernel search."""
    within = g.full_mask() if within is None else within
    if within.bit_count() <= 2:
        low = within & -within
        if within == low or g.adj[low.bit_length() - 1] & within:
            return within
        return low
    return kernels.clique_number_sub(g.adj, within, True)


def _k_colorable(g: Graph, k: int, within: int | None = None):
    """DSATUR backtracking (Brelaz, CACM 22(4), 1979) on G[within], default G.

    Returns a 1-based coloring indexed by g's vertices, 0 outside `within`,
    or None.  Next is the free vertex whose row meets the most color
    classes, then the highest degree in `within`, then the lowest index; it
    tries colors 0 .. min(k, used + 1) - 1 in order.

    One loop over an explicit stack.  seen[c] is the mask of the vertices
    with a neighbour in class c, so v may take c when it is not in seen[c].
    keys[v] is (sat * |within| + degree) * n + n - 1 - v for a free v and
    -1 otherwise, so max(keys) names the next vertex.  When v takes c, each
    free neighbour of v outside seen[c] gains one saturation; backtracking
    undoes exactly that, from the frame's gain mask and old seen[c].
    """
    within = g.full_mask() if within is None else within
    n = g.n
    rows = [row & within for row in g.adj]
    step = within.bit_count() * n  # one saturation outranks degree and index
    keys = [row.bit_count() * n + n - 1 - v if within >> v & 1 else -1
            for v, row in enumerate(rows)]
    seen = [0] * k
    colors = [0] * n
    frames = []
    free, used, v, c = within, 0, -1, 0
    while free:
        if v < 0:
            v, c = n - 1 - max(keys) % n, 0
        bit = 1 << v
        limit = min(k, used + 1)
        while c < limit and seen[c] & bit:
            c += 1
        if c < limit:
            old = seen[c]
            row = rows[v]
            gain = m = row & free & ~old
            while m:
                low = m & -m
                m ^= low
                keys[low.bit_length() - 1] += step
            seen[c] = old | row
            frames.append((v, c, gain, old, used, keys[v]))
            keys[v] = -1
            free ^= bit
            colors[v] = c + 1
            if c == used:
                used += 1
            v = -1
            continue
        if not frames:
            return None
        v, c, gain, old, used, keys[v] = frames.pop()
        seen[c] = old
        while gain:
            low = gain & -gain
            gain ^= low
            keys[low.bit_length() - 1] -= step
        free |= 1 << v
        c += 1
    return colors


def _first_fit(g: Graph, k: int, within: int) -> bool:
    """True when first fit on G[within] uses at most k colors, which proves
    chi(G[within]) <= k.  The vertices of within go by decreasing degree in
    G[within], ties to the lower index (Welsh & Powell, Comput. J. 10(1),
    1967), each into the first color class, one mask each, that holds none
    of its neighbours."""
    adj = g.adj
    classes = []
    order = sorted(bits(within), key=lambda v: -(adj[v] & within).bit_count())
    for v in order:
        row = adj[v]
        for i, members in enumerate(classes):
            if not row & members:
                classes[i] = members | 1 << v
                break
        else:
            if len(classes) == k:
                return False
            classes.append(1 << v)
    return True


def chromatic_number(g: Graph, within: int | None = None,
                     lower: int | None = None):
    """Exact chromatic number with an optimal coloring, (chi, colors), of
    G[within] (default G); colors is indexed by g's vertices, 0 outside.

    DSATUR is asked for k = lower colors first, then one more each time;
    None starts at omega(G[within]), one clique search.  lower must be a
    lower bound on chi that the caller has proved, such as a clique's size;
    every k below chi fails, so the answer and coloring do not depend on it.
    No vertex cap: GraphOracles(g).chi() and .coloring() are the capped
    entrances."""
    within = g.full_mask() if within is None else within
    k = clique_number(g, within) if lower is None else lower
    while True:
        coloring = _k_colorable(g, k, within)
        if coloring is not None:
            return k, coloring
        k += 1


def least_order(t: int, k: int):
    """A proved lower bound on the order of every graph with omega <= t and
    chi >= k; inf when no such graph exists (t <= 1 < k).

    - k <= t: k, which K_k attains.
    - k > t: k + 2, which C5 joined to K_(k-3) attains at k = t + 1.  A
      graph on n <= k + 1 vertices with chi >= k has n = k + 1, as K_k is
      the only one on k.  If the complement has two disjoint edges, one
      color per pair and one per other vertex give k - 1 colors.  Else the
      non-edges form a star, which leaves a k-clique outside its centre,
      or a triangle, whose three vertices take one color and the rest k - 2.
    - t = 2: 11 for k = 4, the Groetzsch graph's order (Chvatal, "The
      minimality of the Mycielski graph", LNM 406, 1974), and 22 for
      k >= 5 (Jensen & Royle, J. Graph Theory 19, 1995), the least orders
      of triangle-free graphs with chi = 4 and 5.
    """
    if k <= t:
        return k
    if t <= 1:
        return inf
    if t == 2 and k >= 4:
        return max(k + 2, 11 if k == 4 else 22)
    return k + 2


def maximal_low_omega_sets(g: Graph, t: int, visit, need: int = 0) -> None:
    """Pass each inclusion-maximal vertex set S with omega(G[S]) <= t, as a
    mask, to visit(mask) as it is found.

    A depth-first search over (S, P, X) after Bron & Kerbosch (CACM 16(9),
    1973), run over the hereditary property "omega <= t" instead of "is a
    clique".  P holds the vertices that can still join S; X holds those
    that could join S but whose branches were searched already.  When v
    joins S, a vertex u leaves P and X exactly when u and v close a
    (t+1)-clique with S: u is a neighbour of v and
    omega(S & N(u) & N(v)) >= t - 1.

    Each node branches only on the vertices of ({u} & P) | (N(u) & P) for a
    pivot u, the vertex of P | X with the fewest neighbours in P (ties to
    the lowest index), after Tomita, Tanaka & Takahashi (Theor. Comput.
    Sci. 363, 2006).  This is exact for every t >= 1: a maximal set below
    the node that misses u cannot take u, so S + u holds a (t+1)-clique
    through u; u is compatible with the node's S, so that clique uses a
    vertex added from P, which is a neighbour of u.  A pivot in X with no
    neighbour in P gives no branch, which cuts the node: it could join
    every set below.  A node with P empty reports S only when X is empty,
    and then S is maximal.  Each maximal set is reported once.  Needs
    t >= 1.

    need is the least size of set worth finding from the root on (0 to
    find them all), and visit returns the new least size after each set.
    The search drops every node with |S | P| below it: every set below the
    node lies in S | P.  Dropping a node leaves the X of its siblings as it
    is, so each set still reported is maximal.
    """
    adj = g.adj

    def closing(s, v, cand):
        """The vertices of cand that close a (t+1)-clique with S + v."""
        near = cand & adj[v]
        common = s & adj[v]
        if t == 2:
            # u closes a triangle with S + v iff it meets S & N(v).
            reach = 0
            while common:
                low = common & -common
                common ^= low
                reach |= adj[low.bit_length() - 1]
            return near & reach
        if common.bit_count() < t - 1:
            return 0
        out = 0
        while near:
            low = near & -near
            near ^= low
            shared = common & adj[low.bit_length() - 1]
            if (shared.bit_count() >= t - 1
                    and kernels.clique_number_sub(adj, shared) >= t - 1):
                out |= low
        return out

    def search(s, p, x):
        nonlocal need
        if (s | p).bit_count() < need:
            return
        if not p:
            if not x:
                need = visit(s)
            return
        pivot, fewest = -1, p.bit_count() + 1
        m = p | x
        while m:
            low = m & -m
            m ^= low
            u = low.bit_length() - 1
            deg = (adj[u] & p).bit_count()
            if deg < fewest:
                pivot, fewest = u, deg
        branch = (adj[pivot] | 1 << pivot) & p
        while branch:
            low = branch & -branch
            branch ^= low
            p ^= low
            drop = closing(s, low.bit_length() - 1, p | x)
            search(s | low, p & ~drop, x & ~drop)
            x |= low

    try:
        search(0, g.full_mask(), 0)
    finally:
        del search  # the closure holds itself: free it now, not at a collection


def odd_hole(g: Graph):
    """An odd hole of g, an induced cycle of odd length >= 5, as a tuple of
    its vertices in cycle order; None when g has none.

    A depth-first search from each vertex s in ascending order grows
    induced paths s, p1, ..., pk over the vertices above s: p1 is a
    neighbour of s, and each later vertex is a neighbour of the path's end
    that sees neither s nor any earlier path vertex.  A neighbour u > p1 of
    s and of pk that none of p1, ..., p(k-1) sees closes the hole
    s, p1, ..., pk, u, taken when its length k + 2 is odd and at least 5.
    Every odd hole is found from its least vertex s and the lesser p1 of
    s's two neighbours on it: walked from p1, each of its vertices before
    the last sees neither s nor any earlier one but its predecessor.
    """
    adj = g.adj
    path = []

    def grow(last, seen, far, ends):
        """Extend path, which ends at last.  seen is the closed
        neighbourhoods of the path's vertices after s and before last, far
        the vertices that may go on it, ends those that may close it."""
        if len(path) % 2 == 0 and len(path) >= 4:
            close = adj[last] & ends & ~seen
            if close:
                return (*path, (close & -close).bit_length() - 1)
        nxt = adj[last] & far & ~seen
        seen |= adj[last] | 1 << last
        while nxt:
            low = nxt & -nxt
            nxt ^= low
            path.append(low.bit_length() - 1)
            hole = grow(path[-1], seen, far, ends)
            if hole:
                return hole
            path.pop()
        return None

    try:
        for s in range(g.n):
            above = g.full_mask() & ~((2 << s) - 1)
            far, firsts = above & ~adj[s], above & adj[s]
            while firsts:
                low = firsts & -firsts
                firsts ^= low
                if not firsts:
                    break  # no neighbour of s above p1 can close a hole
                p1 = low.bit_length() - 1
                path[:] = [s, p1]
                hole = grow(p1, 0, far, firsts)
                if hole:
                    return hole
        return None
    finally:
        del grow  # the closure holds itself: free it now, not at a collection


def _clique_cover_bound(g: Graph, t: int) -> int:
    """A bound on the size of every vertex set with omega <= t: the sum of
    min(|C|, t) over a partition of V(g) into cliques C, each grown from
    the least vertex left by adding the least vertex that sees all of it.
    A set with omega <= t meets each clique in at most t vertices."""
    bound, left = 0, g.full_mask()
    while left:
        clique, cand = 0, left
        while cand:
            low = cand & -cand
            clique |= low
            cand &= g.adj[low.bit_length() - 1]
        left ^= clique
        bound += min(clique.bit_count(), t)
    return bound


def chi_n(oracles: "GraphOracles", n: int) -> int:
    """chi^(n) of oracles.g: max chromatic number over induced subgraphs
    with omega <= n.

    best starts at a proved lower bound: 3 when n = 2 and g has an odd hole
    (omega 2, chi 3), else min(omega(g), n), the chi of a clique of that
    size, oracles.clique()'s.  At n <= 1, and at n = 2 with no odd hole,
    that start is chi^(n): a triangle-free induced subgraph that is not
    bipartite has a shortest odd cycle, which is induced and has length
    >= 5.  Else, when _clique_cover_bound(g, n) bounds every set with
    omega <= n below least_order(n, best + 1), no set beats best and best
    is the answer with no set searched.  Else chi is monotone under taking
    induced subgraphs, so only the inclusion-maximal qualifying sets are
    colored, each as maximal_low_omega_sets finds it; the search is told
    least_order(n, best + 1) from the root on and again after each set,
    and it drops every branch too small to hold a set with chi above best.
    A set that _first_fit or DSATUR colors with best colors is skipped;
    any other has its chi from oracles.chi, from best + 1 colors up.  No
    cap is checked here: oracles' chi_cap meets a set only when it must be
    colored exactly.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    g = oracles.g
    if n == 2 and odd_hole(g) is not None:
        best = 3
    else:
        best = min(oracles.clique().bit_count(), n)
        if n <= 2:
            return best
    need = least_order(n, best + 1)
    if _clique_cover_bound(g, n) < need:
        return best

    def visit(mask):
        nonlocal best
        if not (_first_fit(g, best, mask)
                or _k_colorable(g, best, mask) is not None):
            best = oracles.chi(mask, best + 1)
        return least_order(n, best + 1)

    maximal_low_omega_sets(g, n, visit, need)
    return best


class GraphOracles:
    """One graph g's exact oracles, each asked once per vertex set within (None
    is V(g)), and the one place that checks their vertex caps.
    clique(within) is g's max_clique, found on first ask, when within holds
    it, else max_clique(g, within): the same lex-first clique.

    chi(within, lower) is chi(G[within]) as an int.  On a set of at most
    two vertices it is its clique's size, kept with DSATUR's coloring of
    it (1 on each vertex, 2 on an edge's upper end), and lower is not read.
    On any other set it comes from both ends: lower, by default
    |clique(within)|, is a proved lower bound, and _first_fit(g, lower,
    within) an upper one.  When first fit uses at most lower colors the two
    meet and chi is lower with no search; else chi is chromatic_number's
    from lower colors up.  Each set keeps one entry, (chi, coloring or
    None).  coloring(within) is chromatic_number's (chi, colors) pair,
    DSATUR's coloring: the kept one, else DSATUR asked for chi colors,
    which fills in the entry.  Every k below chi fails, so any proved lower
    gives the same chi and the same coloring, and the first one asked is
    kept.  Over chi_cap, chi and coloring raise before any bound or search.

    chi_n(t) is chi_n(self, t); at t >= 2 a graph over chin_cap raises
    before chi_n runs, while at t <= 1 chi_n answers min(omega, t) from
    clique() with no set search, and a negative t is chi_n's ValueError.  A
    set of chi_n over chi_cap raises only when it must be colored exactly,
    which no set does at the defaults (chin_cap 12 < chi_cap 16).
    decomposition(t, within) decomposes around clique(within).  A cap hit
    is not kept."""

    def __init__(self, g: Graph, chi_cap: int = DEFAULT_CHI_CAP,
                 chin_cap: int = DEFAULT_CHIN_CAP):
        self.g, self.chi_cap, self.chin_cap = g, chi_cap, chin_cap
        self._cliques, self._chis, self._chi_ns = {}, {}, {}
        self._decompositions, self._whole = {}, None

    def clique(self, within: int | None = None) -> int:
        if self._whole is None:
            self._whole = max_clique(self.g)
        if within is None or self._whole & within == self._whole:
            return self._whole
        if within not in self._cliques:
            self._cliques[within] = max_clique(self.g, within)
        return self._cliques[within]

    def chi(self, within: int | None = None, lower: int | None = None) -> int:
        g = self.g
        within = g.full_mask() if within is None else within
        if within not in self._chis:
            size = within.bit_count()
            if size > self.chi_cap:
                raise OracleCapExceeded("chromatic_number", size, self.chi_cap)
            if size <= 2:
                chi = max_clique(g, within).bit_count()
                colors = [0] * g.n
                for v in bits(within):
                    colors[v] = 1
                if chi == 2:  # DSATUR colors an edge 1, 2 in index order
                    colors[within.bit_length() - 1] = 2
                self._chis[within] = chi, colors
            else:
                if lower is None:
                    lower = self.clique(within).bit_count()
                self._chis[within] = (
                    (lower, None) if _first_fit(g, lower, within)
                    else chromatic_number(g, within, lower))
        return self._chis[within][0]

    def coloring(self, within: int | None = None):
        within = self.g.full_mask() if within is None else within
        chi = self.chi(within)
        if self._chis[within][1] is None:
            self._chis[within] = chromatic_number(self.g, within, chi)
        return self._chis[within]

    def chi_n(self, t: int) -> int:
        if t not in self._chi_ns:
            if t >= 2 and self.g.n > self.chin_cap:
                raise OracleCapExceeded("chi_n", self.g.n, self.chin_cap)
            self._chi_ns[t] = chi_n(self, t)
        return self._chi_ns[t]

    def decomposition(self, t: int, within: int | None = None):
        within = self.g.full_mask() if within is None else within
        if (t, within) not in self._decompositions:
            from .decompose import decompose  # decompose imports this module
            self._decompositions[t, within] = decompose(
                self.g, t, within, self.clique(within))
        return self._decompositions[t, within]


def ramsey_upper(s: int, t: int) -> int:
    """Binomial Ramsey upper bound: C(s+t-2, t-1)."""
    if s < 1 or t < 1:
        raise ValueError("ramsey_upper needs positive arguments")
    return comb(s + t - 2, t - 1)


def is_proper(g: Graph, coloring: list) -> bool:
    """True iff the total coloring, a list indexed by vertex, has no
    monochromatic edge: no vertex's row meets the mask of its own color."""
    if len(coloring) != g.n or None in coloring:
        raise ValueError("coloring must assign a color to every vertex")
    classes = {}
    for v, c in enumerate(coloring):
        classes[c] = classes.get(c, 0) | 1 << v
    return not any(row & classes[c] for row, c in zip(g.adj, coloring))
