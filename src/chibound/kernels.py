"""Hot graph kernels: canonical form and clique number.

Kernels:
  canonical_code  -- canonical adjacency code by individualization-refinement
                     (McKay & Piperno, "Practical graph isomorphism, II",
                     J. Symb. Comput. 60, 2014): the minimum, over the leaves
                     of the search tree, of the column-major upper-triangle
                     bit-string (the graph6 bit order) as an integer.  Pure
                     Python.  Isomorphic graphs get equal codes, but the code
                     is not the lexicographic minimum over all permutations;
                     canon_code_py computes that one and serves as the test
                     oracle.
  clique_number_sub -- clique number of the subgraph induced on a
                     candidate bitmask, by branch and bound.  Pure Python.
"""

from __future__ import annotations

# There is no numba path; the flag stays for callers that report it.
NUMBA_OK = False


# ----------------------------------------------------------- canonical form

def _refine(adj, cells):
    """Coarsest equitable refinement of the ordered partition `cells`.

    Each round splits every cell by the tuple of neighbour counts of its
    vertices into each cell, placing the parts in increasing tuple order.
    The result therefore depends on the graph and the order of the input
    cells, never on vertex indices.
    """
    while True:
        masks = [sum(1 << v for v in cell) for cell in cells]
        out = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            parts = {}
            for v in cell:
                row = adj[v]
                key = tuple((row & m).bit_count() for m in masks)
                parts.setdefault(key, []).append(v)
            if len(parts) == 1:
                out.append(cell)
            else:
                out.extend(parts[key] for key in sorted(parts))
        if len(out) == len(cells):
            return out
        cells = out


def _code_of_order(adj, order) -> int:
    """Adjacency code of the graph relabeled so that order[i] becomes i."""
    code = 0
    for j in range(1, len(order)):
        row = adj[order[j]]
        for i in range(j):
            code = (code << 1) | (row >> order[i] & 1)
    return code


def canonical_code(adj, n: int) -> int:
    """Canonical form of a graph as an adjacency code.

    Refines the partition by degree to an equitable one, then
    individualizes each vertex of the first non-singleton cell in turn,
    refines and recurses; each discrete partition is a leaf, and the code
    is the least leaf code.  A vertex that is a twin of one already tried
    in the same cell is skipped: swapping the two is an automorphism fixing
    the current path, so both branches reach the same codes.
    """
    if n <= 1:
        return 0
    by_degree = {}
    for v in range(n):
        by_degree.setdefault(adj[v].bit_count(), []).append(v)
    best = -1

    def search(cells):
        nonlocal best
        for t, target in enumerate(cells):
            if len(target) > 1:
                break
        else:
            code = _code_of_order(adj, [cell[0] for cell in cells])
            if best < 0 or code < best:
                best = code
            return
        tried = []
        for v in target:
            row = adj[v]
            if any(adj[u] & ~(1 << v) == row & ~(1 << u) for u in tried):
                continue
            tried.append(v)
            rest = [u for u in target if u != v]
            search(_refine(adj, cells[:t] + [[v], rest] + cells[t + 1:]))

    search(_refine(adj, [by_degree[d] for d in sorted(by_degree)]))
    return best


def canon_code_py(adj, n: int) -> int:
    """Lexicographically minimal adjacency code over all vertex permutations.

    Exponential in n; kept as the test oracle for canonical_code.
    """
    if n <= 1:
        return 0
    total = n * (n - 1) // 2
    best = 0
    for j in range(1, n):
        for i in range(j):
            best = (best << 1) | (adj[i] >> j & 1)
    perm = [0] * n

    def rec(pos, used, cur, bits_done):
        nonlocal best
        if pos == n:
            if cur < best:
                best = cur
            return
        for v in range(n):
            if used >> v & 1:
                continue
            chunk = 0
            for j in range(pos):
                chunk = (chunk << 1) | (adj[perm[j]] >> v & 1)
            cur2 = (cur << pos) | chunk
            bits2 = bits_done + pos
            if cur2 > best >> (total - bits2):
                continue
            perm[pos] = v
            rec(pos + 1, used | (1 << v), cur2, bits2)

    rec(0, 0, 0, 0)
    return best


# ------------------------------------------------------------ clique number

def clique_number_sub(adj, cand: int) -> int:
    """Clique number of the subgraph induced on the bitmask cand."""
    best = 0

    def rec(size, cand):
        nonlocal best
        if size > best:
            best = size
        while cand:
            if size + cand.bit_count() <= best:
                return
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            rec(size + 1, cand & adj[v])

    rec(0, cand)
    return best
