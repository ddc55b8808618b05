"""Exhaustive enumeration of small graphs and class-constrained sampling.

Enumeration grows each class by one vertex in every way and keeps the
canonical codes.  It canonicalizes one neighbour set per orbit of the
parent's automorphism group (kernels.automorphism_generators): extensions
by two sets in one orbit are isomorphic, so the set of codes is the same
as when every extension is canonicalized (5,758 canonical forms instead of
11,290 for n <= 7).
"""

from __future__ import annotations

import random
from functools import lru_cache

from . import kernels
from .detect import ClassSpec, is_member
from .graph import Graph

ENUM_CAP = 8


class EnumerationCapExceeded(ValueError):
    def __init__(self, n: int):
        super().__init__(
            f"internal enumerator is capped at n={ENUM_CAP} (asked for {n}); "
            "supply a graph6 file from an external enumerator for larger sweeps"
        )


def graph_from_code(code: int, n: int) -> Graph:
    """Inverse of the adjacency code (column-major upper triangle)."""
    adj = [0] * n
    total = n * (n - 1) // 2
    bit = total - 1
    for j in range(1, n):
        for i in range(j):
            if code >> bit & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            bit -= 1
    return Graph(n, adj)


def _image(mask: int, perm) -> int:
    """Image of a vertex bitmask under the permutation v -> perm[v]."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


@lru_cache(maxsize=None)
def enumerate_codes(n: int):
    """Sorted canonical codes of all isomorphism classes on exactly n vertices.

    Each class on m vertices is a class P on m - 1 vertices with a new
    vertex joined to a subset of P's vertices.  Two subsets in one orbit of
    Aut(P) give isomorphic graphs (extend the automorphism by fixing the
    new vertex), so only the first subset of each orbit is canonicalized;
    the orbit is the closure of that subset under the generators that
    kernels.automorphism_generators reads off P's canonical search.
    """
    if n > ENUM_CAP:
        raise EnumerationCapExceeded(n)
    if n < 1:
        return ()
    if n > 2:
        level = set(enumerate_codes(n - 1))
        start = n
    else:
        level = {0}
        start = 2
    for m in range(start, n + 1):
        nxt = set()
        for code in level:
            base = graph_from_code(code, m - 1)
            gens = kernels.automorphism_generators(base.adj, m - 1)
            seen = bytearray(1 << (m - 1))
            for nbrs in range(1 << (m - 1)):
                if seen[nbrs]:
                    continue
                rows = list(base.adj) + [nbrs]
                for v in range(m - 1):
                    if nbrs >> v & 1:
                        rows[v] |= 1 << (m - 1)
                nxt.add(kernels.canonical_code(rows, m))
                seen[nbrs] = 1
                todo = [nbrs]
                while todo:
                    mask = todo.pop()
                    for perm in gens:
                        image = _image(mask, perm)
                        if not seen[image]:
                            seen[image] = 1
                            todo.append(image)
        level = nxt
    return tuple(sorted(level))


def enumerate_small(n_max: int):
    """Yield one representative per isomorphism class for 1..n_max vertices."""
    if n_max > ENUM_CAP:
        raise EnumerationCapExceeded(n_max)
    for n in range(1, n_max + 1):
        for code in enumerate_codes(n):
            yield graph_from_code(code, n)


class RejectionBudgetExhausted(RuntimeError):
    def __init__(self, spec: ClassSpec, n: int, budget: int):
        super().__init__(
            f"no member of {spec.label()} found on n={n} vertices "
            f"within {budget} rejection-sampling attempts"
        )


def sample_in_class(spec: ClassSpec, n: int, edge_prob: float, seed: int,
                    count: int, budget: int = 20000):
    """Rejection-sample `count` members of the class, deterministically per seed.

    Uses random.Random (Mersenne Twister), so sequences reproduce across
    platforms for a fixed seed.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not 0 <= edge_prob <= 1:
        raise ValueError("edge_prob must lie in [0, 1]")
    rng = random.Random(seed)
    produced = 0
    while produced < count:
        for _ in range(budget):
            adj = [0] * n
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < edge_prob:
                        adj[i] |= 1 << j
                        adj[j] |= 1 << i
            g = Graph(n, adj)
            if is_member(g, spec):
                yield g
                produced += 1
                break
        else:
            raise RejectionBudgetExhausted(spec, n, budget)
