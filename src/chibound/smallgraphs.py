"""Exhaustive enumeration of small graphs and class-constrained sampling.

Enumeration is McKay's canonical augmentation: it grows each class by one
vertex, one neighbour set per orbit of the parent's automorphism group,
and keeps a child only when its new vertex is in the child's canonical
orbit, so every class comes out once and no set of codes is kept.  A kept
child carries the rows its own search ran on and the generators that
search found, in that labelling, and is extended from them as a parent
with no search and no relabelling.  For n <= 7 that takes 1,253
canonical forms (793 children accepted and 460 decided by their orbit),
where searching each parent again took 1,461, searching every tie 1,847,
a global set of codes 5,758 and no pruning 11,290.

A class is kept as its canonical adjacency code (graph.Graph.code, the bit
order of graph6's body); graph_from_code, which is graph.from_code, turns
one back into a Graph that keeps its code.
"""

from __future__ import annotations

import random
from functools import lru_cache

from . import kernels
from .detect import ClassSpec, is_member
from .graph import Graph, from_code

ENUM_CAP = 8


class EnumerationCapExceeded(ValueError):
    def __init__(self, n: int):
        super().__init__(
            f"internal enumerator is capped at n={ENUM_CAP} (asked for {n}); "
            "supply a graph6 file from an external enumerator for larger sweeps"
        )


# The graph of an adjacency code (Graph.code), the form classes are kept in.
graph_from_code = from_code


class _Level(tuple):
    """A level of enumerate_codes: the sorted codes, and in `carried` one
    bytes object per code holding the rows its class's own search ran on
    and the generators of Aut that search found, in that labelling (see
    _carry); empty at n = ENUM_CAP, which no level extends."""


def _carry(rows, autos) -> bytes:
    """A search's rows, then each generator, one byte per row and per
    generator entry, in the labelling the search ran on.  Only levels below
    ENUM_CAP = 8 carry, so every row fits; bytes() raises on a wider one."""
    return bytes(rows) + b"".join(map(bytes, autos))


def _image_table(perm):
    """table[mask] = the image of the vertex mask under v -> perm[v], for
    every mask of len(perm) bits, built one vertex at a time."""
    table = [0]
    for w in perm:
        bit = 1 << w
        table += [image | bit for image in table]
    return table


def _canonical_orbit(order, autos, cell) -> int:
    """Bitmask of a graph's canonical orbit, from its search's least-leaf
    `order` and generators `autos`: the Aut(G)-orbit of the first vertex in
    `order` of the root's first maximum-degree cell, which is the first
    vertex of maximum degree in `order`, as leaves keep cells' positions."""
    canon = next(v for v in order if cell >> v & 1)
    orbit, todo = 1 << canon, [canon]
    while todo:
        v = todo.pop()
        for perm in autos:
            w = perm[v]
            if not orbit >> w & 1:
                orbit |= 1 << w
                todo.append(w)
    return orbit


@lru_cache(maxsize=None)
def enumerate_codes(n: int):
    """Sorted canonical codes of all isomorphism classes on exactly n vertices.

    Canonical augmentation (McKay, "Isomorph-free exhaustive generation",
    J. Algorithms 26, 1998).  Each class on n vertices is a class P on
    n - 1 vertices with a new vertex v joined to a subset of P's vertices.
    Two subsets in one orbit of Aut(P) give isomorphic graphs (extend the
    automorphism by fixing v), so each orbit yields one child, P + v; the
    orbit is the closure of its first subset under P's generators, each
    applied through a table of its images of all 2^(n-1) subsets.  The
    child is kept only if v lies in the Aut(child)-orbit of its canonical
    vertex: the first vertex of maximum degree in the order of a least
    leaf of the child's search.  Least leaves differ by an automorphism, so
    the orbit does not depend on the leaf, and an isomorphism maps it onto
    the other graph's.

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
    cell is Aut-invariant.  v outside that cell rejects the child.  Every
    other child is searched once from that root, for its code, a least
    leaf and generators: v alone in the cell accepts it, and otherwise the
    canonical orbit decides.  A kept child carries its rows and its
    search's generators, both in the labelling the search ran on, in the
    returned level's `carried`, and as a parent it is extended in that
    labelling: augmentation needs only rows and generators that agree, so
    a class is never searched or relabelled again.  The level at ENUM_CAP
    carries nothing, as no level extends it.  The carried data lives only
    in the cached levels, so enumerate_codes.cache_clear() drops it too.
    """
    if n > ENUM_CAP:
        raise EnumerationCapExceeded(n)
    if n < 2:
        level = _Level((0,) * n)
        level.carried = (_carry([0], []),) * n
        return level
    new = n - 1
    parents = enumerate_codes(new)
    kept = []
    for carry in parents.carried:
        base = carry[:new]
        tables = [_image_table(carry[start:start + new])
                  for start in range(new, len(carry), new)]
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
                for table in tables:
                    image = table[mask]
                    if not seen[image]:
                        seen[image] = 1
                        todo.append(image)
            rows = list(base) + [nbrs]
            for v in range(new):
                if nbrs >> v & 1:
                    rows[v] |= 1 << new
            root = kernels.root_partition(rows, n)
            degree = nbrs.bit_count()  # the child's maximum degree
            cell = next(c for c in root
                        if rows[c.bit_length() - 1].bit_count() == degree)
            if cell >> new & 1:
                autos, order = [], []
                child = kernels.canonical_code(rows, n, autos, order, root=root)
                if (cell == 1 << new
                        or _canonical_orbit(order, autos, cell) >> new & 1):
                    kept.append((child, _carry(rows, autos)))
    kept.sort()
    level = _Level(code for code, _ in kept)
    level.carried = () if n == ENUM_CAP else tuple(carry for _, carry in kept)
    return level


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
