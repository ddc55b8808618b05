import networkx as nx
import pytest

from chibound.graph import Graph, GraphError
from chibound.patterns import (PATTERNS, bowtie, complete, diamond, f1,
                               lollipop_star, make_pattern, pineapple)
from reference import PATTERN_COUNTS, to_nx, validate_graph


def _sweep_values(name):
    _, params = PATTERNS[name]
    # constructor-specific minimums
    mins = {"complete": {"t": 1}, "path": {"l": 1}, "cycle": {"l": 3},
            "lollipop_star": {"t": 2}}
    for combo in _combos(params, mins.get(name, {})):
        yield combo


def _combos(params, mins):
    if not params:
        yield {}
        return
    head, *rest = params
    lo = mins.get(head, 1)
    for v in range(lo, 7):
        for tail in _combos(rest, mins):
            yield {head: v, **tail}


@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_count_formulas(name):
    for combo in _sweep_values(name):
        pat = make_pattern(name, **combo)
        validate_graph(pat.graph)
        vn, en = PATTERN_COUNTS[name](**combo)
        assert pat.graph.n == vn, (name, combo)
        assert pat.graph.num_edges() == en, (name, combo)


def test_unknown_parameter_rejected():
    with pytest.raises(GraphError, match=r"takes \[\], not \['t'\]"):
        make_pattern("diamond", t=3)
    with pytest.raises(GraphError, match=r"not \['k'\]"):
        make_pattern("bowtie", s=2, t=2, k=3)


def test_f1_2_is_the_diamond():
    assert nx.is_isomorphic(to_nx(f1(2)), to_nx(diamond()))


def test_labels():
    assert make_pattern("diamond").label() == "diamond"
    assert make_pattern("bowtie", s=2, t=3).label() == "bowtie(s=2,t=3)"


def test_unknown_pattern_and_missing_params():
    with pytest.raises(GraphError):
        make_pattern("nonagon")
    with pytest.raises(GraphError):
        make_pattern("bowtie", s=2)


def test_pineapple_shape():
    g = pineapple(4, 2)
    assert g.n == 6
    # vertex 0 is in the clique and carries both pendants
    assert g.degree(0) == 5
    assert g.degree(4) == g.degree(5) == 1


def test_bowtie_center_dominates():
    g = bowtie(2, 3)
    assert g.degree(5) == 5   # center adjacent to everything
    assert not g.has_edge(0, 2)  # the two cliques stay anticomplete


def test_lollipop_star_conventions():
    text = lollipop_star(3, 4)
    # text convention: star has k vertices total (center + k-1 leaves)
    assert text.n == 4 + 1 + 2
    # figure convention, k leaves: lollipop_star(k + 1, t)
    assert lollipop_star(4, 4).n == 4 + 1 + 3
    with pytest.raises(GraphError):
        lollipop_star(1, 1)


def test_complete_is_complete():
    g = complete(6)
    assert all(g.degree(v) == 5 for v in range(6))


def test_complete_takes_every_size_from_zero():
    # K_0 is the graph on no vertices; only a negative size is refused
    assert complete(0) == Graph(0, [])
    assert complete(1) == Graph(1, [0])
    with pytest.raises(GraphError, match="complete: n must be nonnegative"):
        complete(-1)
