"""Constructors for the named forbidden-pattern graphs.

Each constructor returns a Graph with a fixed vertex layout so witnesses
and embeddings are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .graph import Graph, GraphError, from_edges


@dataclass(frozen=True)
class PatternInstance:
    name: str
    params: dict = field(default_factory=dict)
    graph: Graph = None

    def label(self) -> str:
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.name}({inner})"


def _require(cond: bool, message: str):
    if not cond:
        raise GraphError(message)


def complete(n: int) -> Graph:
    _require(n >= 0, "complete: n must be nonnegative")
    return from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path(length: int) -> Graph:
    """Path on `length` vertices."""
    _require(length >= 1, "path: need at least one vertex")
    return from_edges(length, [(i, i + 1) for i in range(length - 1)])


def cycle(n: int) -> Graph:
    _require(n >= 3, "cycle: need at least three vertices")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def diamond() -> Graph:
    # K4 minus the edge 2-3
    return from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def gem() -> Graph:
    # P4 on 0..3 plus apex 4 complete to the path
    return from_edges(5, [(0, 1), (1, 2), (2, 3), (4, 0), (4, 1), (4, 2), (4, 3)])


def kite() -> Graph:
    # P4 on 0..3 plus vertex 4 adjacent to all but endpoint 3
    return from_edges(5, [(0, 1), (1, 2), (2, 3), (4, 0), (4, 1), (4, 2)])


def flag() -> Graph:
    # K4 on 0..3 with pendant 4 at vertex 0
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)] + [(0, 4)]
    return from_edges(5, edges)


def pineapple(t: int, k: int) -> Graph:
    """K_t with k pendant edges attached at vertex 0."""
    _require(t >= 1 and k >= 1, "pineapple: need t >= 1 and k >= 1")
    edges = [(i, j) for i in range(t) for j in range(i + 1, t)]
    edges += [(0, t + i) for i in range(k)]
    return from_edges(t + k, edges)


def bowtie(s: int, t: int) -> Graph:
    """Disjoint K_s and K_t plus a vertex complete to everything."""
    _require(s >= 1 and t >= 1, "bowtie: need s >= 1 and t >= 1")
    edges = [(i, j) for i in range(s) for j in range(i + 1, s)]
    edges += [(s + i, s + j) for i in range(t) for j in range(i + 1, t)]
    center = s + t
    edges += [(center, v) for v in range(s + t)]
    return from_edges(s + t + 1, edges)


def lollipop_path(t: int) -> Graph:
    """The t-lollipop: K_t joined by one edge to an end of a P_2."""
    _require(t >= 1, "lollipop_path: need t >= 1")
    edges = [(i, j) for i in range(t) for j in range(i + 1, t)]
    edges += [(0, t), (t, t + 1)]
    return from_edges(t + 2, edges)


def dumbbell(s: int, t: int) -> Graph:
    """Disjoint K_s and K_t joined by a single edge."""
    _require(s >= 1 and t >= 1, "dumbbell: need s >= 1 and t >= 1")
    edges = [(i, j) for i in range(s) for j in range(i + 1, s)]
    edges += [(s + i, s + j) for i in range(t) for j in range(i + 1, t)]
    edges.append((0, s))
    return from_edges(s + t, edges)


def lollipop_star(k: int, t: int) -> Graph:
    """The (k,t)-lollipop: a star on k vertices whose center is complete to K_t.

    The definition reads the star as having k vertices total (center plus
    k-1 leaves).  The figure counts k leaves instead (k+1 star vertices);
    that graph is lollipop_star(k + 1, t).
    """
    _require(t >= 2, "lollipop_star: need t >= 2")
    _require(k >= 1, "lollipop_star: need k >= 1")
    # vertices: 0..t-1 = K_t, t = star center, t+1..t+k-1 = leaves
    edges = [(i, j) for i in range(t) for j in range(i + 1, t)]
    edges += [(t, v) for v in range(t + k) if v != t]
    return from_edges(t + k, edges)


def fan_triangles(l: int) -> Graph:
    """F(3,l): l disjoint triangles, every vertex adjacent to a common center."""
    _require(l >= 1, "fan_triangles: need l >= 1")
    center = 0
    edges = []
    for i in range(l):
        a, b, c = 1 + 3 * i, 2 + 3 * i, 3 + 3 * i
        edges += [(a, b), (b, c), (a, c), (center, a), (center, b), (center, c)]
    return from_edges(3 * l + 1, edges)


def hammer_plus(t: int) -> Graph:
    """hammer(t)+: P4 whose endpoint u3 is complete to a K_t."""
    _require(t >= 1, "hammer_plus: need t >= 1")
    # vertices: 0..3 = the path u0..u3, 4..t+3 = K_t
    edges = [(0, 1), (1, 2), (2, 3)]
    edges += [(4 + i, 4 + j) for i in range(t) for j in range(i + 1, t)]
    edges += [(3, 4 + i) for i in range(t)]
    return from_edges(t + 4, edges)


def f1(t: int) -> Graph:
    """F^1_t: K_t plus two nonadjacent vertices, each complete to the K_t."""
    _require(t >= 1, "f1: need t >= 1")
    edges = [(i, j) for i in range(t) for j in range(i + 1, t)]
    edges += [(t, v) for v in range(t)] + [(t + 1, v) for v in range(t)]
    return from_edges(t + 2, edges)


def f2(t: int) -> Graph:
    """F^2_t: K_t plus three pairwise nonadjacent vertices complete to it."""
    _require(t >= 1, "f2: need t >= 1")
    edges = [(i, j) for i in range(t) for j in range(i + 1, t)]
    for extra in (t, t + 1, t + 2):
        edges += [(extra, v) for v in range(t)]
    return from_edges(t + 3, edges)


# name -> (constructor, parameter names)
PATTERNS = {
    "diamond": (diamond, ()),
    "gem": (gem, ()),
    "kite": (kite, ()),
    "flag": (flag, ()),
    "complete": (complete, ("t",)),
    "path": (path, ("l",)),
    "cycle": (cycle, ("l",)),
    "pineapple": (pineapple, ("t", "k")),
    "bowtie": (bowtie, ("s", "t")),
    "lollipop_path": (lollipop_path, ("t",)),
    "dumbbell": (dumbbell, ("s", "t")),
    "lollipop_star": (lollipop_star, ("k", "t")),
    "fan_triangles": (fan_triangles, ("l",)),
    "hammer_plus": (hammer_plus, ("t",)),
    "f1": (f1, ("t",)),
    "f2": (f2, ("t",)),
}


@lru_cache(maxsize=256)
def make_pattern(name: str, **params) -> PatternInstance:
    """The named pattern at params.  Instances are cached and shared: the
    property checks ask for the same few patterns on every graph."""
    if name not in PATTERNS:
        raise GraphError(f"unknown pattern {name!r}; known: {', '.join(sorted(PATTERNS))}")
    ctor, param_names = PATTERNS[name]
    missing = [p for p in param_names if p not in params]
    if missing:
        raise GraphError(f"pattern {name} needs parameters: {', '.join(missing)}")
    unknown = set(params) - set(param_names)
    if unknown:
        raise GraphError(f"pattern {name} takes {list(param_names)}, "
                         f"not {sorted(unknown)}")
    kwargs = {p: params[p] for p in param_names}
    return PatternInstance(name, kwargs, ctor(*(kwargs[p] for p in param_names)))
