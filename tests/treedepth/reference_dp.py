"""The exponential subset DP the exact treedepth solver used to be.

Kept verbatim as a test oracle: the branch-and-bound solver in
:mod:`repro.treedepth.decomposition` must return the same parent map (and so
the same depth) on every input.  It memoises the depth of every vertex subset
(bitmask) it reaches, so it is exponential on every graph; use it on small
inputs only.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Hashable, Optional, Tuple

import networkx as nx

from repro.treedepth.elimination_tree import EliminationTree

Vertex = Hashable


def reference_optimal_forest(graph: nx.Graph) -> EliminationTree:
    """A minimum-depth elimination forest of a non-empty graph, by one subset DP.

    ``depth(mask)`` is the treedepth of the subgraph induced by ``mask``: the
    largest depth over its components, and for a connected mask one plus the
    least depth left after removing one vertex.  Every reached mask is
    memoised.  Each connected mask also records its optimal root: the first
    vertex, in ascending bit order, that attains the least depth.  Reading
    those roots back from the full mask builds the forest.
    """
    vertices = tuple(sorted(graph.nodes(), key=repr))
    index = {v: i for i, v in enumerate(vertices)}
    adjacency: Tuple[int, ...] = tuple(
        sum(1 << index[w] for w in graph.neighbors(v)) for v in vertices
    )

    def components(mask: int) -> list[int]:
        """Connected components of the subgraph induced by ``mask`` (bitmask)."""
        result = []
        remaining = mask
        while remaining:
            start = remaining & -remaining
            component = start
            frontier = start
            while frontier:
                low = frontier & -frontier
                i = low.bit_length() - 1
                frontier &= frontier - 1
                new = adjacency[i] & mask & ~component
                component |= new
                frontier |= new
            result.append(component)
            remaining &= ~component
        return result

    root_of: Dict[int, int] = {}

    @lru_cache(maxsize=None)
    def depth(mask: int) -> int:
        if mask & (mask - 1) == 0:
            root_of[mask] = mask
            return 1
        comps = components(mask)
        if len(comps) > 1:
            return max(depth(c) for c in comps)
        best = mask.bit_count() + 1
        remaining = mask
        while remaining:
            low = remaining & -remaining
            remaining &= remaining - 1
            candidate = 1 + depth(mask & ~low)
            if candidate < best:
                best = candidate
                root_of[mask] = low
        return best

    parent: Dict[Vertex, Optional[Vertex]] = {}

    def build(mask: int, parent_vertex: Optional[Vertex]) -> None:
        for component in components(mask):
            root_bit = root_of[component]
            root_vertex = vertices[root_bit.bit_length() - 1]
            parent[root_vertex] = parent_vertex
            rest = component & ~root_bit
            if rest:
                build(rest, root_vertex)

    full_mask = (1 << len(vertices)) - 1
    depth(full_mask)
    build(full_mask, None)
    # The recursive closures form a reference cycle: free the memo now, not
    # at the next garbage collection.
    depth.cache_clear()
    root_of.clear()
    return EliminationTree(parent)
