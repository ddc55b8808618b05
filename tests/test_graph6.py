import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chibound.graph import Graph, from_edges
from chibound.graph6 import (Graph6Error, parse_graph6, read_graph6_file,
                             write_graph6)
from chibound.patterns import complete


def test_known_encodings():
    # K5 is "D~{": n=5 -> 'D', all ten upper-triangle bits set
    assert write_graph6(complete(5)) == "D~{"
    assert parse_graph6("D~{") == complete(5)
    # K1 is "@"
    assert write_graph6(complete(1)) == "@"
    assert parse_graph6("@") == complete(1)
    # the empty graph on 0 vertices
    assert write_graph6(Graph(0, [])) == "?"
    assert parse_graph6("?").n == 0


def test_header_prefix_accepted():
    assert parse_graph6(">>graph6<<D~{") == complete(5)


def test_bit_order_matches_column_major():
    # single edge (0,1) on 3 vertices: first bit of the triangle
    g = from_edges(3, [(0, 1)])
    s = write_graph6(g)
    assert parse_graph6(s) == g
    # edge (1,2) is the third bit
    h = from_edges(3, [(1, 2)])
    assert parse_graph6(write_graph6(h)) == h
    assert write_graph6(g) != write_graph6(h)


def test_roundtrip_random_graphs():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(0, 12)
        adj = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        g = Graph(n, adj)
        assert parse_graph6(write_graph6(g)) == g


def test_roundtrip_large_n_header():
    # 4-byte length form kicks in above n = 62
    for g in (from_edges(70, [(0, 69), (1, 2)]), complete(200)):
        s = write_graph6(g)
        assert s.startswith("~")
        assert parse_graph6(s) == g


def test_parse_errors_carry_offsets():
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("D~")          # truncated adjacency section
    assert "expected" in str(exc.value)
    with pytest.raises(Graph6Error):
        parse_graph6("B\x07")       # out-of-range byte
    # trailing padding bits must be zero: K2 is "A_"; "A~" sets padding
    with pytest.raises(Graph6Error):
        parse_graph6("A~")


def test_non_ascii_character_is_rejected_at_its_offset():
    # "?" is six zero bits: a replaced character used to parse as padding.
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("A\u00e9")
    assert exc.value.offset == 1
    with pytest.raises(Graph6Error) as exc:
        parse_graph6(">>graph6<<\u00e9")
    assert exc.value.offset == 0


@st.composite
def _sparse_graphs(draw):
    # Both header forms: n <= 62 is one byte, 63..512 is "~" plus three.
    n = draw(st.one_of(st.integers(0, 62), st.integers(63, 512)))
    if n < 2:
        return Graph(n, [0] * n)
    ends = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=3 * n))
    return from_edges(n, [(u, v) for u, v in pairs if u != v])


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_sparse_graphs())
def test_roundtrip_up_to_512_vertices(g):
    line = write_graph6(g)
    assert line.startswith("~") == (g.n > 62)
    assert parse_graph6(line) == g


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_sparse_graphs(), st.data())
def test_malformed_lines_raise_at_their_offset(g, data):
    line = write_graph6(g)
    start = 4 if g.n > 62 else 1
    cases = [(line[:start] + line[start:] + "?", start)]        # one byte long
    if len(line) > start:
        cases.append((line[:-1], start))                         # one byte short
    if g.n > 62:
        cut = data.draw(st.integers(1, 3))
        cases.append((line[:cut], cut))                          # header cut
    nbits = g.n * (g.n - 1) // 2
    if nbits % 6:
        last = len(line) - 1                                     # a padding bit
        padded = chr((ord(line[last]) - 63 | 1) + 63)
        cases.append((line[:last] + padded, last))
    at = data.draw(st.integers(0, len(line)))
    cases.append((line[:at] + "\u00e9" + line[at:], at))          # non-ASCII
    for bad, offset in cases:
        with pytest.raises(Graph6Error) as exc:
            parse_graph6(bad)
        assert exc.value.offset == offset, bad


def test_read_graph6_file(tmp_path):
    path = tmp_path / "graphs.g6"
    gs = [complete(3), from_edges(4, [(0, 1), (2, 3)])]
    path.write_text("\n".join(write_graph6(g) for g in gs) + "\n\n")
    assert list(read_graph6_file(path)) == gs
    bad = tmp_path / "bad.g6"
    bad.write_text("D~\n")
    with pytest.raises(Graph6Error) as exc:
        list(read_graph6_file(bad))
    assert "line 1" in str(exc.value)
