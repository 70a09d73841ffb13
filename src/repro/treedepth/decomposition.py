"""Computing treedepth and elimination trees.

Convention.  We use the standard vertex-counted convention of Nešetřil and
Ossona de Mendez: the treedepth of a single vertex is 1, and
:math:`td(P_n) = \\lceil \\log_2(n+1) \\rceil`.  (The caption of Figure 1 in
the paper counts the root at depth 0 and therefore reports "depth 2" for
:math:`P_7`; Lemma 7.3, in contrast, uses the vertex-counted value — the
8-cycle-with-apex gadget has treedepth exactly 5 — so we adopt the
vertex-counted convention everywhere and record the discrepancy here.)

Exact treedepth is NP-hard.  One branch-and-bound over vertex subsets
(bitmasks) serves both the ground truth and the provers.  It splits
disconnected subsets into components, searches each child of a connected
subset only for a strictly better depth, and prunes with a forced root (a
vertex adjacent to all others) and with path and minimum-degree lower
bounds, memoising exact depths and lower bounds per subset.  On sparse and
low-depth graphs it touches a tiny fraction of the subsets; on dense graphs
it stays exponential.  The tree it returns is the one the old exhaustive
subset DP returned (same tie-break on roots).  :func:`exact_treedepth` reads
the depth and :func:`optimal_elimination_tree` the tree, from the same
memoised solve.  Both refuse instances above
:data:`EXACT_TREEDEPTH_MAX_VERTICES`.  :func:`treedepth_upper_bound_dfs`
gives the cheap DFS-based upper bound used when we only need *some* valid
model.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

import networkx as nx

from repro.caching import memoize_on_graph
from repro.graphs.utils import ensure_connected
from repro.treedepth.elimination_tree import EliminationTree

Vertex = Hashable

EXACT_TREEDEPTH_MAX_VERTICES = 18
"""The largest instance the exact solver accepts.  The branch-and-bound is
fast on sparse graphs, but its worst case (dense graphs of large depth) still
ranges over every vertex subset.  The treedepth schemes decide ground truth
exactly up to this size."""


def treedepth_of_path(n: int) -> int:
    """Closed form: :math:`td(P_n) = \\lceil \\log_2(n+1) \\rceil`."""
    if n <= 0:
        raise ValueError("n must be positive")
    depth = 0
    capacity = 0
    while capacity < n:
        depth += 1
        capacity = 2**depth - 1
    return depth


def balanced_path_elimination_tree(path: nx.Graph) -> EliminationTree:
    """An optimal (depth ⌈log₂(n+1)⌉) elimination tree of a path graph.

    The midpoint of the path becomes the root and each half is handled
    recursively — the Figure 1 construction, but balanced, so it works for
    paths far larger than the exact solver's limit.  Raises ``ValueError``
    when the input is not a path.
    """
    n = path.number_of_nodes()
    if n == 1:
        return EliminationTree({next(iter(path.nodes())): None})
    endpoints = [v for v, d in path.degree() if d == 1]
    is_path = (
        len(endpoints) == 2
        and nx.is_connected(path)
        and path.number_of_edges() == n - 1
        and all(d <= 2 for _, d in path.degree())
    )
    if not is_path:
        raise ValueError("balanced_path_elimination_tree expects a path graph")
    order = [min(endpoints, key=repr)]
    previous = None
    while len(order) < n:
        current = order[-1]
        nxt = [w for w in path.neighbors(current) if w != previous]
        previous = current
        order.append(nxt[0])
    parent: Dict[Vertex, Optional[Vertex]] = {}

    def build(segment, parent_vertex):
        if not segment:
            return
        middle = len(segment) // 2
        root = segment[middle]
        parent[root] = parent_vertex
        build(segment[:middle], root)
        build(segment[middle + 1 :], root)

    build(order, None)
    return EliminationTree(parent)


def star_elimination_tree(star: nx.Graph) -> EliminationTree:
    """The depth-2 elimination tree of a star: the centre on top, leaves below."""
    centers = [v for v, d in star.degree() if d == star.number_of_nodes() - 1]
    if not centers or star.number_of_edges() != star.number_of_nodes() - 1:
        raise ValueError("star_elimination_tree expects a star graph")
    center = centers[0]
    parent: Dict[Vertex, Optional[Vertex]] = {center: None}
    for vertex in star.nodes():
        if vertex != center:
            parent[vertex] = center
    return EliminationTree(parent)


@memoize_on_graph
def _optimal_forest(graph: nx.Graph) -> EliminationTree:
    """A minimum-depth elimination forest of a non-empty graph, by one
    memoised branch-and-bound over vertex subsets (bitmasks).

    ``solve(mask, cap)`` is ``min(td(mask), cap)``: the largest depth over the
    components of ``mask``, and for a connected mask one plus the least depth
    left after removing one root.  It memoises exact depths and proven lower
    bounds per mask and prunes with three rules: a vertex adjacent to every
    other vertex of a connected mask is a forced root; a connected mask of
    minimum degree δ containing an induced path on p vertices (found by two
    BFS passes) has depth at least ``max(δ + 1, ⌈log₂(p + 1)⌉)``; and the
    root loop stops once its best depth meets that lower bound.  Each child
    is searched with cap ``best − 1``, so only a strictly better root is
    explored to the bottom.

    The forest reads the roots back from the full mask: the root of each
    component is the first vertex, in ascending bit order, whose removal
    leaves depth one less — the old subset DP's tie-break, so trees (and the
    certificates built on them) do not depend on which solver found them.
    Memoised on graph structure; treat the result as read-only.
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

    def farthest(start: int, mask: int) -> Tuple[int, int]:
        """BFS distance from ``start`` to a farthest vertex of the connected
        ``mask``, and that vertex's bit."""
        seen = frontier = start
        distance = 0
        while True:
            reached = 0
            pending = frontier
            while pending:
                low = pending & -pending
                pending ^= low
                reached |= adjacency[low.bit_length() - 1]
            reached &= mask & ~seen
            if not reached:
                return distance, frontier & -frontier
            seen |= reached
            frontier = reached
            distance += 1

    # memo[mask] > 0 is the exact depth of ``mask``; memo[mask] < 0 says the
    # depth is at least -memo[mask].
    memo: Dict[int, int] = {1 << i: 1 for i in range(len(vertices))}

    def solve(mask: int, cap: int) -> int:
        known = memo.get(mask)
        if known is not None and (known > 0 or -known >= cap):
            return min(abs(known), cap)
        comps = components(mask)
        if len(comps) > 1:
            worst = 0
            for component in comps:
                depth = solve(component, cap)
                if depth >= cap:
                    memo[mask] = -cap
                    return cap
                if depth > worst:
                    worst = depth
            memo[mask] = worst
            return worst
        size = mask.bit_count()
        forced = 0
        min_degree = size
        remaining = mask
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            degree = (adjacency[low.bit_length() - 1] & mask).bit_count()
            if degree < min_degree:
                min_degree = degree
            if degree == size - 1 and not forced:
                forced = low
        if known is not None:
            bound = -known
        else:
            # td ≥ treewidth + 1 ≥ δ + 1.  A path on p vertices needs depth
            # ⌈log₂(p + 1)⌉, at most size.bit_length(): skip the BFS passes
            # when δ + 1 already reaches that.
            bound = min_degree + 1
            if bound < size.bit_length():
                _, end = farthest(mask & -mask, mask)
                distance, _ = farthest(end, mask)
                bound = max(bound, (distance + 1).bit_length())
        if bound >= cap:
            memo[mask] = -bound
            return cap
        if forced:
            depth = 1 + solve(mask ^ forced, cap - 1)
            memo[mask] = depth if depth < cap else -cap
            return depth
        best = cap
        remaining = mask
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            child = mask ^ low
            child_cap = best - 1
            # Inline memo hit: most children are already decided.
            child_known = memo.get(child)
            if child_known is not None and (child_known > 0 or -child_known >= child_cap):
                depth = 1 + min(abs(child_known), child_cap)
            else:
                depth = 1 + solve(child, child_cap)
            if depth < best:
                best = depth
                if best <= bound:
                    break
        memo[mask] = best if best < cap else -cap
        return best

    unbounded = len(vertices) + 1
    parent: Dict[Vertex, Optional[Vertex]] = {}

    def build(mask: int, parent_vertex: Optional[Vertex]) -> None:
        for component in components(mask):
            depth = solve(component, unbounded)
            remaining = component
            while True:
                root_bit = remaining & -remaining
                remaining ^= root_bit
                rest = component ^ root_bit
                if not rest or solve(rest, depth) < depth:
                    break
            root_vertex = vertices[root_bit.bit_length() - 1]
            parent[root_vertex] = parent_vertex
            if rest:
                build(rest, root_vertex)

    build((1 << len(vertices)) - 1, None)
    return EliminationTree(parent)


def exact_treedepth(
    graph: nx.Graph, max_vertices: int = EXACT_TREEDEPTH_MAX_VERTICES
) -> int:
    """Exact treedepth of a (small) graph."""
    n = graph.number_of_nodes()
    if n == 0:
        return 0
    if n > max_vertices:
        raise ValueError(
            f"exact treedepth limited to {max_vertices} vertices, got {n}"
        )
    return _optimal_forest(graph).depth


def optimal_elimination_tree(
    graph: nx.Graph, max_vertices: int = EXACT_TREEDEPTH_MAX_VERTICES
) -> EliminationTree:
    """An elimination tree of minimum depth (exact, small connected graphs
    only; memoised on graph structure — treat the result as read-only)."""
    ensure_connected(graph)
    n = graph.number_of_nodes()
    if n > max_vertices:
        raise ValueError(
            f"exact elimination tree limited to {max_vertices} vertices, got {n}"
        )
    return _optimal_forest(graph)


def treedepth_upper_bound_dfs(graph: nx.Graph) -> Tuple[int, EliminationTree]:
    """DFS-based elimination tree.

    Any DFS tree of a connected graph is a valid elimination tree, because
    every non-tree edge of a DFS joins a vertex to one of its ancestors.  The
    resulting depth is an upper bound on treedepth (possibly far from tight).
    """
    ensure_connected(graph)
    root = min(graph.nodes(), key=repr)
    parent: Dict[Vertex, Optional[Vertex]] = {root: None}
    visited = {root}
    # Iterative depth-first search keeping one neighbour iterator per stack
    # frame, so that a vertex's parent is the vertex it was *discovered from*
    # (plain "push all neighbours" would build a BFS-like tree whose non-tree
    # edges are not ancestor–descendant pairs).
    stack = [(root, iter(sorted(graph.neighbors(root), key=repr)))]
    while stack:
        current, neighbors = stack[-1]
        advanced = False
        for neighbor in neighbors:
            if neighbor not in visited:
                visited.add(neighbor)
                parent[neighbor] = current
                stack.append((neighbor, iter(sorted(graph.neighbors(neighbor), key=repr))))
                advanced = True
                break
        if not advanced:
            stack.pop()
    tree = EliminationTree(parent)
    return tree.depth, tree
