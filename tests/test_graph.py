import pytest

from chibound.graph import (Graph, GraphError, bits, connected_components,
                            from_edges, is_clique, mask_of, neighborhood)
from reference import validate_graph


def test_bits_and_mask_roundtrip():
    assert list(bits(0)) == []
    assert list(bits(0b101101)) == [0, 2, 3, 5]
    assert mask_of([0, 2, 3, 5]) == 0b101101


def test_from_edges_basic():
    g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.num_edges() == 3
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(0, 3)
    assert list(g.edges()) == [(0, 1), (1, 2), (2, 3)]
    assert [g.degree(v) for v in range(4)] == [1, 2, 2, 1]
    validate_graph(g)


def test_from_edges_rejects_bad_input():
    with pytest.raises(GraphError):
        from_edges(3, [(0, 3)])
    with pytest.raises(GraphError):
        from_edges(3, [(1, 1)])
    with pytest.raises(GraphError):
        from_edges(-1, [])


def test_validate_catches_asymmetry_and_loops():
    with pytest.raises(GraphError):
        validate_graph(Graph(2, [0b10, 0b00]))
    with pytest.raises(GraphError):
        validate_graph(Graph(1, [0b1]))
    with pytest.raises(GraphError):
        validate_graph(Graph(2, [0b100, 0]))


def test_equality_and_hash():
    a = from_edges(3, [(0, 1)])
    b = from_edges(3, [(0, 1)])
    c = from_edges(3, [(1, 2)])
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_neighborhood():
    g = from_edges(5, [(0, 1), (0, 2), (3, 4)])
    assert neighborhood(g, 1 << 0) == mask_of([1, 2])
    assert neighborhood(g, mask_of([0, 1])) == mask_of([2])


def test_is_clique():
    g = from_edges(4, [(0, 1), (0, 2), (1, 2)])
    assert is_clique(g, mask_of([0, 1, 2]))
    assert is_clique(g, mask_of([0]))
    assert is_clique(g, 0)
    assert not is_clique(g, mask_of([0, 1, 3]))


def test_connected_components():
    g = from_edges(6, [(0, 1), (1, 2), (3, 4)])
    comps = connected_components(g)
    assert sorted(comps) == sorted([mask_of([0, 1, 2]), mask_of([3, 4]), 1 << 5])
    assert connected_components(g, mask_of([0, 2])) == [1 << 0, 1 << 2]
