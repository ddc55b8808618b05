"""Hot graph kernels: canonical form, automorphisms and clique number.

Kernels:
  canonical_code  -- canonical adjacency code by individualization-refinement
                     (McKay & Piperno, "Practical graph isomorphism, II",
                     J. Symb. Comput. 60, 2014): the minimum, over the leaves
                     of the search tree, of the adjacency code
                     (graph.Graph.code: the column-major upper triangle,
                     graph6's bit order).  Pure Python.  Isomorphic graphs
                     get equal codes, but the code is not the
                     lexicographic minimum over all permutations;
                     the tests compute that one (canon_code_py in
                     tests/reference.py) as their oracle.
                     Its ordered partitions are lists of vertex masks:
                     refinement by one individualized vertex w splits a
                     cell by N(w) with two mask operations, and by several
                     splitters on one int key per vertex.
                     On request the same search also gives the vertex
                     order of a least leaf and generators of Aut(G) (the
                     maps between leaves with equal codes and the twin
                     transpositions it prunes by); smallgraphs needs both
                     for canonical augmentation, and it starts from a
                     caller's root_partition when given one.
  clique_number_sub -- clique number of the subgraph induced on a
                     candidate bitmask, by branch and bound.  Pure Python.
                     On request the same search gives, instead, the
                     lexicographically first maximum clique as a mask.
"""

from __future__ import annotations

# There is no numba path; the flag stays for callers that report it.
NUMBA_OK = False


# ----------------------------------------------------------- canonical form

def _refine(adj, cells, splitters):
    """Coarsest equitable refinement of the ordered partition `cells`.

    Cells and splitters are vertex masks.  Each round splits every cell by
    its vertices' neighbour counts into the splitter masks and places the
    parts in increasing key order; the next round's splitters are the parts
    split off, all but the last of each split.  A lone one-vertex splitter
    w splits a cell into cell & ~N(w), then cell & N(w), by two mask
    operations; several splitters key each vertex on one int, its counts in
    base n + 1, which sorts like the tuple of counts.  The caller passes
    splitters that decide every cell's counts into every cell: all cells,
    or the vertex just individualized in an equitable partition.  Counts
    into the other cells are then constant on each cell or follow from the
    splitters' counts, and a differing one comes after a differing
    splitter, so keying on every cell would give the same parts in the same
    order.  The result depends on the graph and the order of the input
    cells, never on vertex indices.
    """
    base = len(adj) + 1
    while True:
        out = []
        new = []
        if len(splitters) == 1 and not splitters[0] & (splitters[0] - 1):
            nbrs = adj[splitters[0].bit_length() - 1]
            for cell in cells:
                part = cell & ~nbrs
                if part and part != cell:
                    out.append(part)
                    out.append(cell & nbrs)
                    new.append(part)
                else:
                    out.append(cell)
        else:
            for cell in cells:
                if not cell & (cell - 1):
                    out.append(cell)
                    continue
                parts = {}
                rest = cell
                while rest:
                    low = rest & -rest
                    rest ^= low
                    row = adj[low.bit_length() - 1]
                    key = 0
                    for m in splitters:
                        key = key * base + (row & m).bit_count()
                    parts[key] = parts.get(key, 0) | low
                if len(parts) == 1:
                    out.append(cell)
                else:
                    split = [parts[key] for key in sorted(parts)]
                    out.extend(split)
                    new.extend(split[:-1])
        if not new:
            return out
        cells, splitters = out, new


def _code_of_order(adj, order) -> int:
    """Adjacency code of the graph relabeled so that order[i] becomes i."""
    code = 0
    for j in range(1, len(order)):
        row = adj[order[j]]
        for i in range(j):
            code = (code << 1) | (row >> order[i] & 1)
    return code


def root_partition(adj, n: int):
    """Root of canonical_code's search, as vertex masks: the cells of equal
    degree, in increasing degree, refined with every cell as a splitter.
    Each degree stays a block of consecutive cells, and isomorphisms keep
    positions.
    """
    by_degree = {}
    for v in range(n):
        d = adj[v].bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    cells = [by_degree[d] for d in sorted(by_degree)]
    return _refine(adj, cells, cells)


def canonical_code(adj, n: int, autos=None, order=None, root=None) -> int:
    """Canonical form of a graph as an adjacency code: the least leaf code
    of an individualization-refinement search.

    The search starts from `root`, by default root_partition(adj, n) (a
    caller's root, a list of vertex masks, is not changed), then
    individualizes each vertex of the first non-singleton cell in turn,
    in increasing order, refines by that one vertex's neighbourhood and
    recurses; each discrete partition is a leaf.  A vertex that is a twin
    of one already tried in the same cell is skipped: swapping the two is
    an automorphism fixing the current path, so both branches reach the
    same codes.

    With a list `order`, the same search sets order[:] to the vertex order
    of a least leaf: order[i] becomes vertex i of graph.from_code(code, n).
    Two least leaves differ by an automorphism.

    With a list `autos`, the same search appends generators of Aut(G) to
    it, as image lists (v -> perm[v]); the identity group gets none.  They
    are the map from the first leaf to every later leaf with the same
    code, and every twin transposition the search prunes by.  They
    generate the whole group: a pruned subtree is the image of a searched
    sibling under its transposition, which fixes the path, so every leaf
    of the unpruned tree is the image of a searched leaf under the
    generated group H.  For an automorphism a, the image of the first leaf
    under a is thus h(L) for a searched leaf L and h in H; L then has the
    first leaf's code, so the map from the first leaf to L, which is a
    followed by the inverse of h, is a generator, and a lies in H.
    """
    best = -1
    best_order = None
    first = None                      # (code, order) of the first leaf

    def search(cells):
        nonlocal best, best_order, first
        for t, target in enumerate(cells):
            if target & (target - 1):
                break
        else:
            leaf = [cell.bit_length() - 1 for cell in cells]
            code = _code_of_order(adj, leaf)
            if best < 0 or code < best:
                best = code
                best_order = leaf
            if autos is not None:
                if first is None:
                    first = code, leaf
                elif code == first[0]:
                    perm = [0] * n
                    for u, w in zip(first[1], leaf):
                        perm[u] = w
                    autos.append(perm)
            return
        tried = []
        rest = target
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            row = adj[v]
            for u in tried:
                if adj[u] & ~low == row & ~(1 << u):
                    if autos is not None:
                        perm = list(range(n))
                        perm[u], perm[v] = v, u
                        autos.append(perm)
                    break
            else:
                tried.append(v)
                search(_refine(adj, cells[:t] + [low, target ^ low]
                               + cells[t + 1:], [low]))

    search(root_partition(adj, n) if root is None else root)
    del search  # the closure holds itself: free it now, not at a collection
    if order is not None:
        order[:] = best_order
    return best


# ------------------------------------------------------------ clique number

def clique_number_sub(adj, cand: int, clique: bool = False) -> int:
    """Clique number of the subgraph induced on the bitmask cand.

    With clique=True the same search returns, instead, the mask of the
    lexicographically first maximum clique, as it holds it: adding vertices
    in ascending order, it reaches cliques in the order of their sorted
    vertex tuples, keeps one only when it beats the best so far and cuts
    only branches that cannot, so it keeps the first maximum one it reaches.
    """
    best = 0
    best_set = 0

    def rec(size, cand, cur):
        nonlocal best, best_set
        if size > best:
            best = size
            best_set = cur
        while cand:
            if size + cand.bit_count() <= best:
                return
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            rec(size + 1, cand & adj[v], cur | low)

    rec(0, cand, 0)
    del rec  # the closure holds itself: free it now, not at a collection
    return best_set if clique else best
