"""The branch-and-bound solver returns the old subset DP's forests exactly.

:mod:`reference_dp` is the exhaustive subset DP the exact solver used to be.
On every built-in graph family at up to 18 vertices (several seeds for the
random ones) and on a few dense ``G(n, p)`` graphs, the branch-and-bound must
return the same parent map, in the same insertion order, hence the same
depth.  Dense graphs are where its pruning is weakest and its capped
re-searches most frequent, so they are the likeliest place for a wrong bound
to surface.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.graphs.generators import GRAPH_FAMILIES
from repro.treedepth.decomposition import _optimal_forest, exact_treedepth

from .reference_dp import reference_optimal_forest

#: family → (sizes, seeds).  Sizes follow GRAPH_FAMILY_SIZE_MEANING (legs
#: for spider, depth for binary-tree and bounded-treedepth, ...); the
#: deterministic families need one seed.
FAMILY_CASES = {
    "star": ((8, 12, 16), (0,)),
    "spider": ((4, 8), (0,)),
    "union-of-cycles": ((3, 5), (0,)),
    "random-tree": ((10, 14, 18), (0, 1, 2)),
    "bounded-treedepth": ((3, 4), (0, 1, 2, 3)),
    "random-connected": ((12, 16), (0, 1, 2)),
    "grid": ((3, 4), (0,)),
    "caterpillar": ((4, 6), (0,)),
    "triangle-chain": ((5, 8), (0,)),
    "binary-tree": ((2, 3), (0,)),
    "clique": ((6, 12), (0,)),
    "cycle": ((9, 18), (0,)),
    "path": ((11, 18), (0,)),
}

FAMILY_GRAPHS = [
    (f"{family}:{size}-seed{seed}", family, size, seed)
    for family, (sizes, seeds) in FAMILY_CASES.items()
    for size in sizes
    for seed in seeds
]

DENSE_GRAPHS = [(n, p, seed) for n in (14, 15) for p in (0.5, 0.7) for seed in (0, 1)]


def _assert_same_forest(graph: nx.Graph) -> None:
    expected = reference_optimal_forest(graph)
    actual = _optimal_forest(graph)
    assert list(actual.parent.items()) == list(expected.parent.items())
    assert actual.depth == expected.depth == exact_treedepth(graph)


def test_every_family_is_covered():
    assert set(FAMILY_CASES) == set(GRAPH_FAMILIES)


@pytest.mark.parametrize("name,family,size,seed", FAMILY_GRAPHS, ids=[c[0] for c in FAMILY_GRAPHS])
def test_family_forest_matches_reference(name, family, size, seed):
    graph = GRAPH_FAMILIES[family](size, random.Random(seed))
    assert 0 < graph.number_of_nodes() <= 18
    _assert_same_forest(graph)


@pytest.mark.parametrize("n,p,seed", DENSE_GRAPHS, ids=[f"gnp{n}-{p}-seed{s}" for n, p, s in DENSE_GRAPHS])
def test_dense_forest_matches_reference(n, p, seed):
    _assert_same_forest(nx.gnp_random_graph(n, p, seed=seed))


def test_disconnected_forest_matches_reference():
    graph = nx.disjoint_union_all([nx.cycle_graph(5), nx.star_graph(4), nx.path_graph(6)])
    _assert_same_forest(graph)
