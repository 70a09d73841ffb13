"""The benchmark's answer oracle, written without importing ``repro``.

Every certify request the benchmark sends gets an expected answer from the
code here, never from the program under test:

* graphs are rebuilt from their ``family:size`` specifier and request seed
  by re-implementations of the generators (same ``random.Random`` draws), so
  the oracle knows the instance the server built — the vertex and edge
  counts of every answer are checked against it, which catches generator
  drift as a failure instead of a silent mismatch;
* properties are decided with networkx (trees, bipartiteness, domination,
  dominating pairs, triangles) and with a small memoised treedepth
  recursion: ``td(C) <= t`` for a connected ``C`` iff ``t >= 1`` and either
  ``C`` is one vertex or removing some vertex leaves components that all
  have treedepth ``<= t - 1``;
* expected-error lines pass only with their exact wire code.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Any, Dict, List, Mapping, Optional

import networkx as nx

#: The two treedepth-route formulas the workloads send, in concrete syntax.
DOMINATING_VERTEX = "exists x. forall y. (x = y | x ~ y)"
DOMINATING_PAIR = "exists x. exists y. forall z. (z = x | z = y | z ~ x | z ~ y)"


# ---------------------------------------------------------------------------
# Graph families (re-implemented; must draw exactly as the program does)
# ---------------------------------------------------------------------------


def _random_tree(n: int, rng: random.Random) -> nx.Graph:
    graph = nx.Graph()
    graph.add_node(0)
    for v in range(1, n):
        graph.add_edge(v, rng.randrange(v))
    return graph


def _bounded_treedepth(depth: int, rng: random.Random) -> nx.Graph:
    """Random elimination tree of the given depth, branching 1..2, each
    vertex joined to its parent and to every strict ancestor w.p. 1/2."""
    graph = nx.Graph()
    graph.add_node(0)
    ancestors: Dict[int, List[int]] = {0: []}
    frontier = [(0, 1)]
    next_label = 1
    while frontier:
        vertex, level = frontier.pop(0)
        if level >= depth:
            continue
        for _ in range(rng.randint(1, 2)):
            child = next_label
            next_label += 1
            chain = ancestors[vertex] + [vertex]
            ancestors[child] = chain
            graph.add_edge(child, vertex)
            for ancestor in chain[:-1]:
                if rng.random() < 0.5:
                    graph.add_edge(child, ancestor)
            frontier.append((child, level + 1))
    return graph


def _spider(legs: int) -> nx.Graph:
    graph = nx.Graph()
    graph.add_node(0)
    label = 1
    for _ in range(legs):
        graph.add_edge(0, label)
        graph.add_edge(label, label + 1)
        label += 2
    return graph


def _union_of_triangles(cycles: int) -> nx.Graph:
    graph = nx.Graph()
    graph.add_node(0)
    for first in range(1, 3 * cycles + 1, 3):
        graph.add_edges_from([(first, first + 1), (first + 1, first + 2), (first + 2, first)])
        graph.add_edge(0, first)
    return graph


def build_graph(spec: str, seed: int) -> nx.Graph:
    """The graph the program builds for ``spec`` under request seed ``seed``."""
    family, _, raw = spec.partition(":")
    size = int(raw)
    rng = random.Random(seed)
    if family == "path":
        return nx.path_graph(size)
    if family == "cycle":
        return nx.cycle_graph(size)
    if family == "star":
        return nx.star_graph(max(1, size - 1))
    if family == "grid":
        return nx.convert_node_labels_to_integers(nx.grid_2d_graph(size, size))
    if family == "spider":
        return _spider(size)
    if family == "union-of-cycles":
        return _union_of_triangles(size)
    if family == "random-tree":
        return _random_tree(size, rng)
    if family == "bounded-treedepth":
        return _bounded_treedepth(size, rng)
    raise ValueError(f"the oracle has no generator for {spec!r}")


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


def _components(mask: int, adjacency: List[int]) -> List[int]:
    """Connected components of the vertex subset ``mask`` (as bitmasks)."""
    parts = []
    while mask:
        seed = mask & -mask
        part = frontier = seed
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            fresh = adjacency[low.bit_length() - 1] & mask & ~part
            part |= fresh
            frontier |= fresh
        parts.append(part)
        mask &= ~part
    return parts


def treedepth_at_most(graph: nx.Graph, t: int) -> bool:
    """Does ``graph`` have treedepth at most ``t``? (memoised recursion)"""
    nodes = list(graph.nodes())
    index = {v: i for i, v in enumerate(nodes)}
    adjacency = [0] * len(nodes)
    for u, v in graph.edges():
        adjacency[index[u]] |= 1 << index[v]
        adjacency[index[v]] |= 1 << index[u]

    @lru_cache(maxsize=None)
    def fits(component: int, depth: int) -> bool:
        if depth <= 0:
            return False
        if component & (component - 1) == 0:
            return True
        rest = component
        while rest:
            low = rest & -rest
            rest ^= low
            remainder = component & ~low
            if all(fits(part, depth - 1) for part in _components(remainder, adjacency)):
                return True
        return False

    full = (1 << len(nodes)) - 1
    return all(fits(part, t) for part in _components(full, adjacency))


def treedepth(graph: nx.Graph) -> int:
    """Exact treedepth (smallest ``t`` with :func:`treedepth_at_most`)."""
    t = 1
    while not treedepth_at_most(graph, t):
        t += 1
    return t


def has_dominating_vertex(graph: nx.Graph) -> bool:
    n = graph.number_of_nodes()
    return any(degree == n - 1 for _, degree in graph.degree())


def has_dominating_pair(graph: nx.Graph) -> bool:
    nodes = list(graph.nodes())
    return any(
        nx.is_dominating_set(graph, {x, y})
        for i, x in enumerate(nodes)
        for y in nodes[i:]
    )


def triangle_free(graph: nx.Graph) -> bool:
    return not any(nx.triangles(graph).values())


#: Sentences the oracle can decide, keyed by formula text or catalogue name.
SENTENCES = {
    DOMINATING_VERTEX: has_dominating_vertex,
    DOMINATING_PAIR: has_dominating_pair,
    "has-dominating-vertex": has_dominating_vertex,
    "triangle-free": triangle_free,
}


def expected_holds(request: Mapping[str, Any], graph: nx.Graph) -> bool:
    """Ground truth for one certify request, decided independently."""
    params = request.get("params") or {}
    formula = request.get("formula")
    if formula is not None:
        return treedepth_at_most(graph, int(params.get("t", 2))) and SENTENCES[formula](graph)
    scheme = request["scheme"]
    if scheme == "tree":
        return nx.is_tree(graph)
    if scheme == "bipartite":
        return nx.is_bipartite(graph)
    if scheme == "spanning-tree-count":
        return graph.number_of_nodes() == int(params["expected_n"])
    if scheme == "treedepth":
        return treedepth_at_most(graph, int(params["t"]))
    if scheme == "mso-treedepth":
        sentence = SENTENCES[params.get("formula", "has-dominating-vertex")]
        return treedepth_at_most(graph, int(params["t"])) and sentence(graph)
    raise ValueError(f"the oracle cannot decide scheme {scheme!r}")


# ---------------------------------------------------------------------------
# Checking answers
# ---------------------------------------------------------------------------


def expectation(request: Mapping[str, Any], error_code: Optional[str] = None) -> Dict[str, Any]:
    """What a correct answer to ``request`` looks like.

    ``error_code`` marks a deliberately malformed line: the answer must be
    that exact wire error.  Otherwise the expectation carries the rebuilt
    instance's size and the independently decided verdict.
    """
    if error_code is not None:
        return {"error": error_code}
    graph = build_graph(request["graph"], int(request.get("seed", 0)))
    return {
        "vertices": graph.number_of_nodes(),
        "edges": graph.number_of_edges(),
        "holds": expected_holds(request, graph),
    }


def check_answer(
    expected: Mapping[str, Any],
    answer: Mapping[str, Any],
    include_certificates: bool = False,
) -> Optional[str]:
    """``None`` when ``answer`` (a decoded wire line) is right, else why not."""
    if "error" in expected:
        if answer.get("ok") is False and answer.get("code") == expected["error"]:
            return None
        return f"expected error {expected['error']!r}, got {_brief(answer)}"
    if answer.get("ok") is not True:
        return f"unexpected error {_brief(answer)}"
    result = answer.get("result") or {}
    for key in ("vertices", "edges", "holds"):
        if result.get(key) != expected[key]:
            return f"{key}={result.get(key)!r}, expected {expected[key]!r}"
    if expected["holds"]:
        if result.get("accepted") is not True:
            return "honest certificates were rejected on a yes-instance"
    elif result.get("sound") is not True:
        return "an adversarial assignment was accepted on a no-instance"
    certificates = result.get("certificates")
    if include_certificates and expected["holds"]:
        if not isinstance(certificates, dict) or len(certificates) != expected["vertices"]:
            return "include_certificates did not return one certificate per vertex"
    elif certificates is not None:
        return "certificates returned where none were asked for or possible"
    return None


def _brief(answer: Mapping[str, Any]) -> str:
    if answer.get("ok") is False:
        return f"error {answer.get('code')!r}"
    return "a verdict" if answer.get("ok") else repr(answer)[:80]
