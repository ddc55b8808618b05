"""A fixed reference workload that measures how fast the machine is right now.

On a shared host the same Python code runs up to twice as slowly at one
moment as at the next.  Each timed chunk is therefore divided by the time
of this yardstick, run next to it, and reported at the yardstick's nominal
speed.  The yardstick is a frozen copy of the program's three hot loops as
they stood when the benchmark was defined (lex-min canonical code,
backtracking induced matcher, DSATUR colouring), so that it slows down the
way the program does; it must never change, or results stop being
comparable between commits.
"""

from __future__ import annotations

import random
from time import perf_counter

# Seconds the yardstick takes on an uncontended core of a 2-vCPU x86-64 VM
# under CPython 3.11.  Only a scale factor: it makes the reported values
# read as seconds, but it must stay fixed for them to be comparable.
NOMINAL_S = 0.015


def _random_adj(n, rng):
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


_RNG = random.Random(20260217)
_CANON_GRAPHS = [_random_adj(7, _RNG) for _ in range(15)]
_HOSTS = [_random_adj(8, _RNG) for _ in range(10)]
_P5 = [0b10, 0b101, 0b1010, 0b10100, 0b1000]
_BOWTIE = [0b110, 0b11101, 0b11011, 0b10100, 0b1100]
_COLOR_GRAPHS = [_random_adj(12, _RNG) for _ in range(20)]


def _canon(adj, n):
    """Lex-min adjacency code over all permutations, with prefix pruning."""
    total = n * (n - 1) // 2
    best = 0
    for j in range(1, n):
        for i in range(j):
            best = (best << 1) | (adj[i] >> j & 1)
    perm = [0] * n

    def rec(pos, used, cur, bits_done):
        nonlocal best
        if pos == n:
            best = min(best, cur)
            return
        for v in range(n):
            if used >> v & 1:
                continue
            chunk = 0
            for j in range(pos):
                chunk = (chunk << 1) | (adj[perm[j]] >> v & 1)
            cur2 = (cur << pos) | chunk
            if cur2 > best >> (total - bits_done - pos):
                continue
            perm[pos] = v
            rec(pos + 1, used | (1 << v), cur2, bits_done + pos)

    rec(0, 0, 0, 0)
    return best


def _find_induced(host, pattern):
    """First induced embedding of pattern in host by backtracking, or None."""
    p, n = len(pattern), len(host)
    pdeg = [row.bit_count() for row in pattern]
    image = [-1] * p

    def rec(i, used):
        if i == p:
            return True
        for h in range(n):
            if used >> h & 1 or host[h].bit_count() < pdeg[i]:
                continue
            if all((pattern[i] >> j & 1) == (host[h] >> image[j] & 1)
                   for j in range(i)):
                image[i] = h
                if rec(i + 1, used | 1 << h):
                    return True
        return False

    return tuple(image) if rec(0, 0) else None


def _chromatic(adj):
    """Smallest k for which DSATUR-ordered backtracking finds a k-colouring."""
    n = len(adj)
    degs = [row.bit_count() for row in adj]

    def colorable(k):
        colors = [0] * n

        def rec(count, max_used):
            if count == n:
                return True
            best_v, best_key = -1, None
            for v in range(n):
                if colors[v]:
                    continue
                sat = 0
                for u in range(n):
                    if adj[v] >> u & 1 and colors[u]:
                        sat |= 1 << colors[u]
                key = (sat.bit_count(), degs[v], -v)
                if best_key is None or key > best_key:
                    best_v, best_key = v, key
            taken = 0
            for u in range(n):
                if adj[best_v] >> u & 1:
                    taken |= 1 << colors[u]
            for c in range(1, min(k, max_used + 1) + 1):
                if not taken >> c & 1:
                    colors[best_v] = c
                    if rec(count + 1, max(max_used, c)):
                        return True
                    colors[best_v] = 0
            return False

        return rec(0, 0)

    k = 1
    while not colorable(k):
        k += 1
    return k


def yardstick_seconds():
    """Run the fixed reference workload once; returns its wall time."""
    t0 = perf_counter()
    for adj in _CANON_GRAPHS:
        _canon(adj, 7)
    for host in _HOSTS:
        _find_induced(host, _P5)
        _find_induced(host, _BOWTIE)
    for adj in _COLOR_GRAPHS:
        _chromatic(adj)
    return perf_counter() - t0
