"""Exact ground-truth oracles: clique number, chromatic number, chi^(n).

Two independent exact chromatic implementations live here: the
DSATUR-ordered backtracking solver (the production oracle) and a raw
all-assignments checker used only to validate it in tests.
"""

from __future__ import annotations

import os
from itertools import product
from math import comb

from . import kernels
from .graph import Graph, bits

# Vertex caps of the exact oracles.  Every default in the package (CLI,
# colorers, property checks, RunConfig) is one of these two values.
DEFAULT_CHI_CAP = int(os.environ.get("CHIBOUND_CHI_CAP", "16"))
DEFAULT_CHIN_CAP = int(os.environ.get("CHIBOUND_CHIN_CAP", "12"))


class OracleCapExceeded(RuntimeError):
    def __init__(self, what: str, n: int, cap: int):
        super().__init__(f"{what}: graph has {n} vertices, exact-oracle cap is {cap}")
        self.what, self.n, self.cap = what, n, cap


def clique_number(g: Graph) -> int:
    if g.n == 0:
        return 0
    return kernels.clique_number_sub(g.adj, g.full_mask())


def clique_number_in(g: Graph, mask: int) -> int:
    """Clique number of the subgraph induced on a vertex mask."""
    if mask == 0:
        return 0
    return kernels.clique_number_sub(g.adj, mask)


def max_clique(g: Graph) -> int:
    """Lexicographically smallest maximum clique, as a bitmask."""
    return max_clique_in(g, g.full_mask())


def max_clique_in(g: Graph, mask: int) -> int:
    """Lex-smallest maximum clique of the subgraph induced on mask."""
    if mask == 0:
        return 0
    need = kernels.clique_number_sub(g.adj, mask)
    chosen = 0
    cand = mask
    while need:
        for v in bits(cand):
            if kernels.clique_number_sub(g.adj, cand & g.adj[v]) >= need - 1:
                chosen |= 1 << v
                cand &= g.adj[v]
                need -= 1
                break
        else:  # pragma: no cover - cannot happen if clique_number is correct
            raise RuntimeError("clique reconstruction failed")
    return chosen


def _k_colorable(g: Graph, k: int):
    """DSATUR-ordered backtracking; returns a coloring list (1-based) or None."""
    n = g.n
    colors = [0] * n
    degs = [g.degree(v) for v in range(n)]

    def rec(count, max_used):
        if count == n:
            return True
        best_v, best_key = -1, None
        for v in range(n):
            if colors[v]:
                continue
            sat = 0
            for u in bits(g.adj[v]):
                if colors[u]:
                    sat |= 1 << colors[u]
            key = (sat.bit_count(), degs[v], -v)
            if best_key is None or key > best_key:
                best_v, best_key = v, key
        v = best_v
        neighbor_colors = 0
        for u in bits(g.adj[v]):
            neighbor_colors |= 1 << colors[u]
        for c in range(1, min(k, max_used + 1) + 1):
            if neighbor_colors >> c & 1:
                continue
            colors[v] = c
            if rec(count + 1, max(max_used, c)):
                return True
            colors[v] = 0
        return False

    return list(colors) if rec(0, 0) else None


def chromatic_number(g: Graph, cap: int = DEFAULT_CHI_CAP):
    """Exact chromatic number with an optimal coloring, (chi, colors)."""
    if g.n == 0:
        return 0, []
    if g.n > cap:
        raise OracleCapExceeded("chromatic_number", g.n, cap)
    k = max(clique_number(g), 1)
    while True:
        coloring = _k_colorable(g, k)
        if coloring is not None:
            return k, coloring
        k += 1


def chromatic_number_bruteforce(g: Graph, cap: int = 7) -> int:
    """Independent test oracle: try every assignment in k^n order."""
    if g.n == 0:
        return 0
    if g.n > cap:
        raise OracleCapExceeded("chromatic_number_bruteforce", g.n, cap)
    edges = list(g.edges())
    for k in range(1, g.n + 1):
        for assignment in product(range(k), repeat=g.n):
            if all(assignment[u] != assignment[v] for u, v in edges):
                return k
    return g.n  # pragma: no cover


def chi_n(g: Graph, n: int, cap: int = DEFAULT_CHIN_CAP,
          chi_cap: int = DEFAULT_CHI_CAP) -> int:
    """chi^(n): max chromatic number over induced subgraphs with omega <= n.

    Only inclusion-maximal qualifying subsets are colored, since chi is
    monotone under taking induced subgraphs.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if g.n > cap:
        raise OracleCapExceeded("chi_n", g.n, cap)
    if g.n == 0 or n == 0:
        return 0
    from .graph import induced_subgraph

    full = g.full_mask()
    omega = [0] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        omega[mask] = max(omega[rest], 1 + omega[rest & g.adj[v]])
    best = 0
    for mask in range(1, full + 1):
        if omega[mask] > n:
            continue
        maximal = True
        for u in bits(full & ~mask):
            if omega[mask | (1 << u)] <= n:
                maximal = False
                break
        if not maximal:
            continue
        sub, _ = induced_subgraph(g, mask)
        chi, _ = chromatic_number(sub, cap=chi_cap)
        if chi > best:
            best = chi
    return best


def ramsey_upper(s: int, t: int) -> int:
    """Binomial Ramsey upper bound: C(s+t-2, t-1)."""
    if s < 1 or t < 1:
        raise ValueError("ramsey_upper needs positive arguments")
    return comb(s + t - 2, t - 1)


def is_proper(g: Graph, coloring) -> bool:
    """True iff the (total) coloring has no monochromatic edge."""
    if isinstance(coloring, dict):
        colors = [coloring.get(v) for v in range(g.n)]
    else:
        colors = list(coloring)
    if len(colors) != g.n or any(c is None for c in colors):
        raise ValueError("coloring must assign a color to every vertex")
    return all(colors[u] != colors[v] for u, v in g.edges())
