import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chibound.graph import Graph, from_code, from_edges
from chibound.graph6 import (Graph6Error, parse_graph6, read_graph6_file,
                             write_graph6)
from chibound.patterns import complete
from chibound.smallgraphs import enumerate_codes
from reference import (code_walk, graph_from_code_walk, parse_graph6_walk,
                       write_graph6_walk)


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


def test_eight_byte_header():
    # "~~" and six bytes of 6 bits each: n = 0 and 1 parse, a cut header
    # fails at its end, and n = 4096 exceeds the vertex limit.
    assert parse_graph6("~~??????") == Graph(0, [])
    assert parse_graph6("~~?????@") == Graph(1, [0])
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("~~????")
    assert exc.value.offset == 6
    assert "truncated 8-byte length header" in str(exc.value)
    with pytest.raises(Graph6Error, match="vertex count 4096 exceeds"):
        parse_graph6("~~???@??")


def test_non_ascii_character_is_rejected_at_its_offset():
    # "?" is six zero bits: a replaced character used to parse as padding.
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("A\u00e9")
    assert exc.value.offset == 1
    with pytest.raises(Graph6Error) as exc:
        parse_graph6(">>graph6<<\u00e9")
    assert exc.value.offset == 0


def _check_codec(g):
    """Graph.code, from_code, write_graph6 and parse_graph6 on g agree with
    the pair-by-pair references, on g as given and on g rebuilt from rows."""
    n = g.n
    code = code_walk(g.adj, n)
    line = write_graph6_walk(g)
    rows = Graph(n, g.adj)
    assert rows.code == code == g.code
    assert write_graph6(rows) == line == write_graph6(g)
    decoded = from_code(code, n)
    assert decoded.adj == graph_from_code_walk(code, n).adj == g.adj
    assert decoded.code == code
    parsed = parse_graph6(line)
    assert parsed.adj == parse_graph6_walk(line).adj == g.adj
    assert parsed.code == code


def _random_graph(rng, n, p):
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph(n, adj)


def test_codec_matches_the_walks_on_every_graph_up_to_8_vertices():
    graphs = 0
    for n in range(1, 9):
        for code in enumerate_codes(n):
            _check_codec(from_code(code, n))
            graphs += 1
    assert graphs == 13598


def test_codec_matches_the_walks_on_random_and_extreme_graphs():
    rng = random.Random(0)
    for n in (10, 11, 12):
        for _ in range(100):
            _check_codec(_random_graph(rng, n, 0.5))
    for g in (Graph(0, []), complete(512), Graph(512, [0] * 512)):
        _check_codec(g)


def test_from_code_rejects_a_code_longer_than_the_triangle():
    assert from_code(7, 3) == complete(3)
    for code in (8, -1):
        with pytest.raises(ValueError):
            from_code(code, 3)


def test_codes_of_built_and_parsed_graphs_agree():
    # the code does not depend on how the graph was made
    g = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert g.code == parse_graph6(write_graph6(g)).code == 0b1010011001
    assert complete(5).code == parse_graph6("D~{").code == (1 << 10) - 1
    # equal graphs are equal, and hash alike, whichever way they were made
    assert parse_graph6("D~{") == complete(5)
    assert hash(parse_graph6("D~{")) == hash(complete(5))


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


@st.composite
def _dense_graphs(draw):
    # Both header forms' large side, with most pairs adjacent.
    n = draw(st.integers(63, 512))
    p = draw(st.sampled_from((0.5, 0.9, 0.99)))
    return _random_graph(random.Random(draw(st.integers(0, 2**32))), n, p)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(_dense_graphs())
def test_codec_matches_the_walks_on_dense_graphs(g):
    _check_codec(g)


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
        # the same message as the pair-by-pair reference
        with pytest.raises(Graph6Error) as ref:
            parse_graph6_walk(bad)
        assert str(exc.value) == str(ref.value)


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


def test_a_byte_that_is_not_utf8_fails_on_its_own_line(tmp_path):
    # line 1 is K5; line 2 holds 0xff, which no UTF-8 text has, where the
    # UTF-8 bytes of "\u00e9" fail as a non-ASCII character at the same offset
    for tail, what in ((b"\xff", "byte 0xff"),
                       ("\u00e9".encode(), "character '\u00e9'")):
        path = tmp_path / "mixed.g6"
        path.write_bytes(b"D~{\nA" + tail + b"\n")
        graphs = read_graph6_file(path)
        assert next(graphs) == complete(5)
        with pytest.raises(Graph6Error) as exc:
            next(graphs)
        assert str(exc.value) == f"line 2: non-ASCII {what} (byte offset 1)"
