"""Structural graph-coloring toolkit: clique decompositions, exact oracles
(DSATUR, branch and bound, pivoted Bron-Kerbosch) behind GraphOracles,
constructive bounded colorings, and a verification harness for hereditary
classes defined by forbidden induced subgraphs."""

__version__ = "0.1.0"

from .graph import Graph, from_edges
from .graph6 import parse_graph6, write_graph6
from .oracles import (GraphOracles, chi_n, chromatic_number, clique_number,
                      ramsey_upper)

__all__ = [
    "Graph", "from_edges", "parse_graph6", "write_graph6",
    "chromatic_number", "clique_number", "chi_n", "ramsey_upper",
    "GraphOracles", "__version__",
]
