"""Slow, independent references the tests compare the package against,
explicit constructions of the graphs that test THM5B, and the graph
invariants and pattern counts that only the tests check."""

from itertools import combinations, product
from math import comb

import networkx as nx

from chibound import kernels
from chibound.graph import (MAX_VERTICES, Graph, GraphError, bits, from_edges,
                            mask_of)
from chibound.graph6 import Graph6Error, _read_n, parse_graph6
from chibound.oracles import OracleCapExceeded, chromatic_number


def validate_graph(g: Graph) -> Graph:
    """Check g's invariants: vertex count in range, one row per vertex, no
    self-loop, no bit beyond the vertex range, symmetric rows.  Returns g."""
    if g.n < 0 or g.n > MAX_VERTICES:
        raise GraphError(f"vertex count {g.n} out of range 0..{MAX_VERTICES}")
    if len(g.adj) != g.n:
        raise GraphError("adjacency row count differs from n")
    full = g.full_mask()
    for v, row in enumerate(g.adj):
        if row >> v & 1:
            raise GraphError(f"self-loop at vertex {v}")
        if row & ~full:
            raise GraphError(f"adjacency row {v} has bits beyond vertex range")
        for u in bits(row):
            if not (g.adj[u] >> v & 1):
                raise GraphError(f"asymmetric edge {v}-{u}")
    return g


# pattern name -> its (vertices, edges) count as a function of its parameters
PATTERN_COUNTS = {
    "diamond": lambda: (4, 5),
    "gem": lambda: (5, 7),
    "kite": lambda: (5, 6),
    "flag": lambda: (5, 7),
    "complete": lambda t: (t, comb(t, 2)),
    "path": lambda l: (l, l - 1),
    "cycle": lambda l: (l, l),
    "pineapple": lambda t, k: (t + k, comb(t, 2) + k),
    "bowtie": lambda s, t: (s + t + 1, comb(s, 2) + comb(t, 2) + s + t),
    "lollipop_path": lambda t: (t + 2, comb(t, 2) + 2),
    "dumbbell": lambda s, t: (s + t, comb(s, 2) + comb(t, 2) + 1),
    "lollipop_star": lambda k, t: (t + k, comb(t, 2) + (k - 1) + t),
    "fan_triangles": lambda l: (3 * l + 1, 6 * l),
    "hammer_plus": lambda t: (t + 4, 3 + comb(t, 2) + t),
    "f1": lambda t: (t + 2, comb(t, 2) + 2 * t),
    "f2": lambda t: (t + 3, comb(t, 2) + 3 * t),
}


# The adjacency code pair by pair, (0,1), (0,2), (1,2), (0,3), ...: the
# references for Graph.code, graph.from_code, parse_graph6 and write_graph6.

def code_walk(adj, n: int) -> int:
    """The adjacency code of the rows adj, one bit per pair."""
    code = 0
    for j in range(1, n):
        for i in range(j):
            code = (code << 1) | (adj[i] >> j & 1)
    return code


def graph_from_code_walk(code: int, n: int) -> Graph:
    """The graph of an adjacency code, one bit per pair."""
    adj = [0] * n
    bit = n * (n - 1) // 2 - 1
    for j in range(1, n):
        for i in range(j):
            if code >> bit & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            bit -= 1
    return Graph(n, adj)


def write_graph6_walk(g: Graph) -> str:
    """graph6 line of g, six pairs per byte."""
    n = g.n
    if n <= 62:
        out = bytearray([n + 63])
    else:
        out = bytearray([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63,
                         (n & 63) + 63])
    chunk = width = 0
    for j in range(1, n):
        for i in range(j):
            chunk = (chunk << 1) | (g.adj[i] >> j & 1)
            width += 1
            if width == 6:
                out.append(chunk + 63)
                chunk = width = 0
    if width:
        out.append((chunk << (6 - width)) + 63)
    return out.decode("ascii")


def parse_graph6_walk(line: str) -> Graph:
    """graph6.parse_graph6 one bit at a time: the same checks in the same
    order, raising the same Graph6Error messages at the same offsets."""
    if line.startswith(">>graph6<<"):
        line = line[10:]
    text = line.rstrip("\r\n")
    for i, ch in enumerate(text):
        if not ch.isascii():
            what = (f"byte {ord(ch) - 0xDC00:#x}" if "\udc80" <= ch <= "\udcff"
                    else f"character {ch!r}")
            raise Graph6Error(f"non-ASCII {what}", i)
    data = text.encode("ascii")
    for i, b in enumerate(data):
        if b < 63 or b > 126:
            raise Graph6Error(f"non-printable or out-of-range byte {b}", i)
    n, start = _read_n(data)
    if n > MAX_VERTICES:
        raise Graph6Error(f"graph6 vertex count {n} exceeds supported maximum {MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - start != nbytes:
        raise Graph6Error(
            f"bad length: expected {nbytes} adjacency bytes for n={n}, got {len(data) - start}",
            start)
    adj = [0] * n
    bit = 0
    i, j = 0, 1
    for k in range(start, len(data)):
        chunk = data[k] - 63
        for shift in range(5, -1, -1):
            if bit >= nbits:
                if (chunk >> shift) & 1:
                    raise Graph6Error("trailing padding bits set", k)
                continue
            if (chunk >> shift) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            bit += 1
            i += 1
            if i == j:
                i, j = 0, j + 1
    return Graph(n, adj)


def canon_code_py(adj, n: int) -> int:
    """Lexicographically minimal adjacency code over all vertex permutations.

    Exponential in n; the oracle for kernels.canonical_code's classes.
    """
    if n <= 1:
        return 0
    total = n * (n - 1) // 2
    best = code_walk(adj, n)
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


# The canonical form's search with each cell an ascending list of vertices:
# the slow path for kernels._refine, kernels.root_partition and
# kernels.canonical_code, which keep cells as vertex masks.

def refine_lists(adj, cells, splitters):
    """kernels._refine on list cells: each vertex keyed on the tuple of its
    neighbour counts into the splitter masks, the parts in increasing key
    order, and the next round's splitters all but the last part of each
    split."""
    while True:
        out = []
        new = []
        for cell in cells:
            parts = {}
            for v in cell:
                key = tuple((adj[v] & m).bit_count() for m in splitters)
                parts.setdefault(key, []).append(v)
            split = [parts[key] for key in sorted(parts)]
            out.extend(split)
            new.extend(mask_of(part) for part in split[:-1])
        if not new:
            return out
        cells, splitters = out, new


def root_partition_lists(adj, n: int):
    """kernels.root_partition on list cells."""
    by_degree = {}
    for v in range(n):
        by_degree.setdefault(adj[v].bit_count(), []).append(v)
    cells = [by_degree[d] for d in sorted(by_degree)]
    return refine_lists(adj, cells, [mask_of(cell) for cell in cells])


def canonical_code_lists(adj, n: int, autos=None, order=None, root=None):
    """kernels.canonical_code's search on list cells, from the list-cell
    `root` when it is given: the same leaves in the same order, so the same
    code, least-leaf order and generators."""
    best = -1
    best_order = None
    first = None

    def search(cells):
        nonlocal best, best_order, first
        for t, target in enumerate(cells):
            if len(target) > 1:
                break
        else:
            leaf = [cell[0] for cell in cells]
            code = 0
            for j in range(1, n):
                for i in range(j):
                    code = (code << 1) | (adj[leaf[i]] >> leaf[j] & 1)
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
        for v in target:
            for u in tried:
                if adj[u] & ~(1 << v) == adj[v] & ~(1 << u):
                    if autos is not None:
                        perm = list(range(n))
                        perm[u], perm[v] = v, u
                        autos.append(perm)
                    break
            else:
                tried.append(v)
                rest = [u for u in target if u != v]
                search(refine_lists(adj, cells[:t] + [[v], rest]
                                    + cells[t + 1:], [1 << v]))

    search(root_partition_lists(adj, n) if root is None else root)
    if order is not None:
        order[:] = best_order
    return best


def is_automorphism(adj, perm) -> bool:
    """Whether v -> perm[v] is a permutation of the vertices that keeps
    every adjacency and non-adjacency."""
    n = len(adj)
    return sorted(perm) == list(range(n)) and all(
        (adj[u] >> v & 1) == (adj[perm[u]] >> perm[v] & 1)
        for u in range(n) for v in range(n))


def group_order(gens, n: int) -> int:
    """Order of the group the permutations generate, by listing it."""
    identity = tuple(range(n))
    group, frontier = {identity}, [identity]
    while frontier:
        elem = frontier.pop()
        for g in gens:
            prod = tuple(g[v] for v in elem)
            if prod not in group:
                group.add(prod)
                frontier.append(prod)
    return len(group)


def networkx_aut_order(adj) -> int:
    """|Aut(G)| of the rows adj, counted by networkx's matcher."""
    h = to_nx(Graph(len(adj), adj))
    return sum(1 for _ in nx.algorithms.isomorphism.GraphMatcher(
        h, h).isomorphisms_iter())


def chromatic_number_bruteforce(g: Graph, cap: int = 7) -> int:
    """Chromatic number by trying every assignment in k^n order."""
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


def chromatic_number_inclusion_exclusion(g: Graph) -> int:
    """Chromatic number by inclusion-exclusion (Bjorklund, Husfeldt &
    Koivisto, SIAM J. Comput. 39(2), 2009); shares nothing with DSATUR.

    i(X), the number of independent subsets of X (the empty set included),
    follows from i(X) = i(X - v) + i(X - N[v]) for the least v in X.  G is
    k-colorable iff sum over X of (-1)^(n - |X|) i(X)^k > 0, which counts
    the k-tuples of independent sets covering V.  The sum is taken over the
    distinct values of i(X), each with its net sign.
    """
    n = g.n
    if n == 0:
        return 0
    closed = [row | 1 << v for v, row in enumerate(g.adj)]
    count = [1] * (1 << n)
    for x in range(1, 1 << n):
        low = x & -x
        count[x] = count[x ^ low] + count[x & ~closed[low.bit_length() - 1]]
    net = {}
    for x, c in enumerate(count):
        net[c] = net.get(c, 0) + (-1) ** (n - x.bit_count())
    terms = [(c, sign) for c, sign in net.items() if sign]
    powers = [sign for _, sign in terms]
    for k in range(1, n + 1):
        powers = [p * c for p, (c, _) in zip(powers, terms)]
        if sum(powers) > 0:
            return k
    raise AssertionError("n colors always suffice")  # pragma: no cover


def find_induced_plain(host: Graph, pattern: Graph):
    """First induced embedding of pattern in host, or None: the slow path
    for detect.find_induced, its forward-checking search with each pattern
    vertex starting at every host vertex of at least its degree and the
    pattern-side lists rebuilt on each call."""
    p, n = pattern.n, host.n
    if p == 0:
        raise ValueError("empty pattern")
    if p > n:
        return None
    hadj = host.adj
    full = (1 << n) - 1
    hdeg = [row.bit_count() for row in hadj]
    cands = []
    for row in pattern.adj:
        d = row.bit_count()
        cands.append(sum(1 << h for h in range(n) if hdeg[h] >= d))
    if not all(cands):
        return None
    # later[i]: (j, adjacent) for each pattern vertex j > i
    later = [[(j, bool(pattern.adj[i] >> j & 1)) for j in range(i + 1, p)]
             for i in range(p)]
    image = [0] * p

    def rec(i, cands):
        m = cands[i]
        if i == p - 1:
            image[i] = (m & -m).bit_length() - 1
            return True
        while m:
            low = m & -m
            m ^= low
            row = hadj[low.bit_length() - 1]
            non = full & ~row & ~low
            nxt = cands[:]
            for j, adjacent in later[i]:
                c = nxt[j] & (row if adjacent else non)
                if not c:
                    break
                nxt[j] = c
            else:
                image[i] = low.bit_length() - 1
                if rec(i + 1, nxt):
                    return True
        return False

    if rec(0, cands):
        return tuple(image)
    return None


def maximal_low_omega_sets_unpivoted(g: Graph, t: int) -> list:
    """The inclusion-maximal vertex sets with omega <= t, as masks: the slow
    path for oracles.maximal_low_omega_sets, its search without the pivot.

    Bron & Kerbosch over (S, P, X) for the hereditary property "omega <= t":
    every vertex of P is branched on in ascending order, and a node is cut
    when some x in X has no neighbour in P, since x can then join every set
    below it.  The closing test is the per-vertex one for every t.
    """
    adj = g.adj
    found = []

    def closing(s, v, cand):
        near = cand & adj[v]
        if t == 1:
            return near
        common = s & adj[v]
        out = 0
        for u in bits(near):
            shared = common & adj[u]
            if (shared.bit_count() >= t - 1
                    and kernels.clique_number_sub(adj, shared) >= t - 1):
                out |= 1 << u
        return out

    def search(s, p, x):
        while True:
            if any(not adj[u] & p for u in bits(x)):
                return
            if not p:
                found.append(s)
                return
            low = p & -p
            p ^= low
            drop = closing(s, low.bit_length() - 1, p | x)
            search(s | low, p & ~drop, x & ~drop)
            x |= low

    search(0, g.full_mask(), 0)
    return found


def chi_n_unpivoted(g: Graph, t: int) -> int:
    """chi^(t) of g, the slow path for oracles.chi_n: the max chromatic
    number over every maximal omega <= t set of the unpivoted search, with
    no odd-hole test, no starting best and no cut.  Needs t >= 1."""
    return max(chromatic_number(g, mask)[0]
               for mask in maximal_low_omega_sets_unpivoted(g, t))


def induced_subgraph(g: Graph, vs: int):
    """Induced subgraph on the vertex mask vs, relabelled to 0..|vs|-1.

    Returns (subgraph, index_map) where index_map[i] is the original
    vertex behind new index i.
    """
    if vs & ~g.full_mask():
        raise GraphError("vertex set contains out-of-range index")
    index_map = list(bits(vs))
    pos = {v: i for i, v in enumerate(index_map)}
    adj = []
    for v in index_map:
        row = 0
        for u in bits(g.adj[v] & vs):
            row |= 1 << pos[u]
        adj.append(row)
    return Graph(len(index_map), adj), index_map


def to_nx(g: Graph):
    """g as a networkx graph on the same vertices, for networkx's oracles."""
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


def fan_structure(g: Graph, cliques: tuple, v: int):
    """Blades of the fan at v: the indices of the cliques of an edge-clique
    partition that contain v.  Returns (indices, violation); violation is
    (a, b, i, j) when an edge runs between two distinct blades away from v.
    The slow search that decompose.edge_clique_partition's blade lemma
    makes unnecessary."""
    if not 0 <= v < g.n:
        raise GraphError(f"vertex {v} out of range")
    indices = [i for i, c in enumerate(cliques) if c >> v & 1]
    for x, i in enumerate(indices):
        for j in indices[x + 1:]:
            a_side = cliques[i] & ~(1 << v)
            b_side = cliques[j] & ~(1 << v)
            for a in bits(a_side):
                cross = g.adj[a] & b_side
                if cross:
                    b = (cross & -cross).bit_length() - 1
                    return indices, (a, b, i, j)
    return indices, None


def random_linear_two_section(rng, n: int, sizes=(4, 5, 6), draws: int = 8):
    """The 2-section of a random linear hypergraph on n points: of `draws`
    blocks of random sizes, each is kept when it meets every kept block in
    at most one point, and each kept block becomes a clique."""
    blocks = []
    for _ in range(draws):
        block = set(rng.sample(range(n), rng.choice(sizes)))
        if all(len(block & kept) <= 1 for kept in blocks):
            blocks.append(block)
    return from_edges(n, [e for block in blocks
                          for e in combinations(sorted(block), 2)])


def rook(q):
    """The rook's graph Kq x Kq: cells of a q x q board, adjacent when they
    share a row or a column."""
    cells = [(r, c) for r in range(q) for c in range(q)]
    return from_edges(q * q, [(i, j) for i, a in enumerate(cells)
                              for j, b in enumerate(cells[:i])
                              if a[0] == b[0] or a[1] == b[1]])


def _projective_points(dim):
    """The points of PG(dim - 1, 3): the vectors of GF(3)^dim whose first
    nonzero coordinate is 1."""
    return [p for p in product(range(3), repeat=dim)
            if any(p) and next(x for x in p if x) == 1]


def _orthogonality_graph(points, form):
    """Points adjacent when the bilinear form vanishes on them mod 3."""
    return from_edges(len(points), [(i, j) for i, a in enumerate(points)
                                    for j, b in enumerate(points[:i])
                                    if form(a, b) % 3 == 0])


def w3():
    """W(3): the points of PG(3,3), adjacent when
    x1y2 - x2y1 + x3y4 - x4y3 = 0."""
    return _orthogonality_graph(
        _projective_points(4),
        lambda x, y: x[0] * y[1] - x[1] * y[0] + x[2] * y[3] - x[3] * y[2])


def q43():
    """Q(4,3): the zeros of x0^2 + x1x2 + x3x4 in PG(4,3), adjacent when
    orthogonal under the form's polarity."""
    points = [p for p in _projective_points(5)
              if (p[0] ** 2 + p[1] * p[2] + p[3] * p[4]) % 3 == 0]
    return _orthogonality_graph(
        points, lambda x, y: (2 * x[0] * y[0] + x[1] * y[2] + x[2] * y[1]
                              + x[3] * y[4] + x[4] * y[3]))


def g37():
    """G37, the 2-section of 27 of W(3)'s 40 lines (its 37 points on at
    least one of them): a thm5b member with omega = 4 and chi = 5, the
    least that a seeded line-deletion descent from W(3) reached (ROADMAP
    item 10)."""
    return parse_graph6(
        "dF?Ca_oc``IGg??w?BcHC@_?dQCQS`SKGB?B?C@?HIQ?pGo@OS??QH?@"
        "OdO?P`a?w????B_[@o?WEWCGHGHPEGpbGHSIiECQAACqCOG?`AQKPeIG")


# A 5-vertex-critical core of G37: deleting vertices in
# random.Random(36)-shuffled order while the rest stays not 4-colourable
# leaves these 22, the fewest over seeds 0-199.
G37_CORE = (0, 1, 2, 3, 5, 6, 7, 8, 11, 12, 15, 16, 17, 18, 19, 22, 26, 28,
            29, 32, 33, 36)
