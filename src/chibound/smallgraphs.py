"""Exhaustive enumeration of small graphs and class-constrained sampling.

Enumeration is McKay's canonical augmentation: it grows each class by one
vertex, one neighbour set per orbit of the parent's automorphism group,
and keeps a child only when its new vertex is in the child's canonical
orbit, so every class comes out once and no set of codes is kept.  For
n <= 7 that takes 1,461 canonical forms (208 parents, 793 children
accepted code-only and 460 orbit searches), where searching every tie took
1,847, a global set of codes 5,758 and no pruning 11,290.

A class is kept as its canonical adjacency code (graph.Graph.code, the bit
order of graph6's body); graph_from_code, which is graph.from_code, turns
one back into a Graph that keeps its code.
"""

from __future__ import annotations

import random
from functools import lru_cache

from . import kernels
from .detect import ClassSpec, is_member
from .graph import Graph, code_rows, from_code

ENUM_CAP = 8


class EnumerationCapExceeded(ValueError):
    def __init__(self, n: int):
        super().__init__(
            f"internal enumerator is capped at n={ENUM_CAP} (asked for {n}); "
            "supply a graph6 file from an external enumerator for larger sweeps"
        )


# The graph of an adjacency code (Graph.code), the form classes are kept in.
graph_from_code = from_code


def _image(mask: int, perm) -> int:
    """Image of a vertex bitmask under the permutation v -> perm[v]."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def _canonical_orbit(adj, n: int, root=None):
    """(canonical code, bitmask of the canonical orbit) of a graph.

    The canonical orbit is the Aut(G)-orbit of the first vertex of maximum
    degree in the order of a least leaf of kernels.canonical_code's search
    (from `root` when it is given).
    """
    autos, order = [], []
    code = kernels.canonical_code(adj, n, autos, order, root=root)
    top = max(row.bit_count() for row in adj)
    canon = next(v for v in order if adj[v].bit_count() == top)
    orbit, grown = 0, 1 << canon
    while grown != orbit:
        orbit = grown
        for perm in autos:
            grown |= _image(orbit, perm)
    return code, orbit


@lru_cache(maxsize=None)
def enumerate_codes(n: int):
    """Sorted canonical codes of all isomorphism classes on exactly n vertices.

    Canonical augmentation (McKay, "Isomorph-free exhaustive generation",
    J. Algorithms 26, 1998).  Each class on n vertices is a class P on
    n - 1 vertices with a new vertex v joined to a subset of P's vertices.
    Two subsets in one orbit of Aut(P) give isomorphic graphs (extend the
    automorphism by fixing v), so each orbit yields one child, P + v; the
    orbit is the closure of its first subset under the generators that
    kernels.canonical_code reads off P's search.  The child is kept only if
    v lies in the Aut(child)-orbit of its canonical vertex: the first
    vertex of maximum degree in the order of a least leaf of the child's
    search.  Least leaves differ by an automorphism, so the orbit does not
    depend on the leaf, and an isomorphism maps it onto the other graph's.

    Every class is kept exactly once:
      - existence: deleting a canonical vertex c of a class G leaves a
        graph isomorphic to a class P, by a map carrying N(c) to a subset
        S of P.  The child of S's orbit is isomorphic to G by a map that
        sends its new vertex to c, so the child is kept.
      - uniqueness: an isomorphism between two kept children can be
        composed with an automorphism so that it maps one new vertex onto
        the other, since each lies in its graph's canonical orbit.  It
        then restricts to an isomorphism between the parents, which are
        therefore one class P, and to an automorphism of P carrying one
        neighbour set onto the other, so both children come from one orbit.

    Most children need little work: v's degree below the child's maximum
    rejects it with no search.  Every other child is refined once, to
    kernels.root_partition, whose vertices of maximum degree (v's degree)
    are its last cells.  Leaves keep the cells' positions, so the canonical
    vertex lies in the first of those cells, and so does its orbit, as the
    cell is Aut-invariant.  v outside that cell rejects the child.  v alone
    in it, as when v alone has maximum degree, accepts the child with a
    code-only search from the root.  Only the other ties search, from the
    same root, for a least leaf and generators.
    """
    if n > ENUM_CAP:
        raise EnumerationCapExceeded(n)
    if n < 2:
        return (0,) * n
    new = n - 1
    kept = []
    for code in enumerate_codes(new):
        base = code_rows(code, new)
        gens = []
        kernels.canonical_code(base, new, gens)
        top = max(row.bit_count() for row in base)
        tops = sum(1 << v for v in range(new) if base[v].bit_count() == top)
        seen = bytearray(1 << new)
        for nbrs in range(1 << new):
            # v's rival: the child's maximum degree over P's vertices.  The
            # test is Aut(P)-invariant, so a rejected orbit is never closed.
            rival = top + 1 if nbrs & tops else top
            if nbrs.bit_count() < rival or seen[nbrs]:
                continue
            seen[nbrs] = 1
            todo = [nbrs]
            while todo:
                mask = todo.pop()
                for perm in gens:
                    image = _image(mask, perm)
                    if not seen[image]:
                        seen[image] = 1
                        todo.append(image)
            rows = list(base) + [nbrs]
            for v in range(new):
                if nbrs >> v & 1:
                    rows[v] |= 1 << new
            root = kernels.root_partition(rows, n)
            degree = nbrs.bit_count()  # the child's maximum degree
            cell = next(c for c in root if rows[c[0]].bit_count() == degree)
            if cell == [new]:
                kept.append(kernels.canonical_code(rows, n, root=root))
            elif new in cell:
                child, orbit = _canonical_orbit(rows, n, root)
                if orbit >> new & 1:
                    kept.append(child)
    return tuple(sorted(kept))


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
