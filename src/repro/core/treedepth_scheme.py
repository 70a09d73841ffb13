"""Certification of bounded treedepth via ancestor lists (Theorem 2.4 / Section 5).

The honest prover fixes a coherent elimination tree of depth at most ``t``
and gives every vertex:

* the list of identifiers of its ancestors, from itself up to the root;
* for every non-root ancestor ``x`` of the vertex (including the vertex
  itself), the vertex's fragment of a spanning tree of :math:`G_x` (the
  subgraph induced by the subtree rooted at ``x``) pointing to the *exit
  vertex* of ``x`` — the vertex of :math:`G_x` adjacent to ``x``'s parent.

The local verification reproduces the four checks of Section 5: list length
and root agreement, the suffix condition on neighbouring lists (edges only
join ancestor–descendant pairs), the presence of one spanning-tree fragment
per non-root ancestor, and the consistency of each spanning tree (distances
decrease towards an exit vertex which really is adjacent to the right
ancestor).  Certificates use :math:`O(t \\log n)` bits.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import networkx as nx

from repro.core.encoding import CertificateFormatError, CertificateReader, CertificateWriter
from repro.core.scheme import CertificationScheme, Certificates, NotAYesInstance
from repro.core.spanning_tree import bfs_spanning_tree
from repro.graphs.utils import ensure_connected
from repro.network.ids import IdentifierAssignment
from repro.network.views import LocalView
from repro.treedepth.decomposition import (
    EXACT_TREEDEPTH_MAX_VERTICES,
    exact_treedepth,
    optimal_elimination_tree,
    treedepth_upper_bound_dfs,
)
from repro.treedepth.elimination_tree import (
    EliminationTree,
    exit_vertex,
    is_valid_model,
    make_coherent,
)

Vertex = Hashable
ModelBuilder = Callable[[nx.Graph], EliminationTree]


class TreedepthScheme(CertificationScheme):
    """Certify "the graph has treedepth at most t" with O(t log n) bits."""

    def __init__(self, t: int, model_builder: ModelBuilder | None = None) -> None:
        if t < 1:
            raise ValueError("t must be at least 1")
        self.t = t
        self.model_builder = model_builder
        self.name = f"treedepth<={t}"

    # ------------------------------------------------------------------
    # Ground truth and model construction
    # ------------------------------------------------------------------

    def holds(self, graph: nx.Graph) -> bool:
        if graph.number_of_nodes() <= EXACT_TREEDEPTH_MAX_VERTICES:
            return exact_treedepth(graph) <= self.t
        model = self._build_model(graph)
        if model is not None and model.depth <= self.t:
            return True
        raise ValueError(
            "cannot decide treedepth exactly on a graph this large; "
            "provide a model_builder that produces a depth-bounded model"
        )

    def _build_model(self, graph: nx.Graph) -> Optional[EliminationTree]:
        """A valid model of ``graph``, or None when the builder's is invalid."""
        if self.model_builder is not None:
            model = self.model_builder(graph)
            if is_valid_model(graph, model):
                return model
            return None
        if graph.number_of_nodes() <= EXACT_TREEDEPTH_MAX_VERTICES:
            return optimal_elimination_tree(graph)
        depth, model = treedepth_upper_bound_dfs(graph)
        return model

    def coherent_model(self, graph: nx.Graph) -> Optional[EliminationTree]:
        """The coherent model the prover certifies (its depth unchecked), or
        None when no valid model is available."""
        model = self._build_model(graph)
        return None if model is None else make_coherent(graph, model)

    # ------------------------------------------------------------------
    # Prover
    # ------------------------------------------------------------------

    def prove(self, graph: nx.Graph, ids: IdentifierAssignment) -> Certificates:
        ensure_connected(graph)
        model = self.coherent_model(graph)
        if model is None:
            raise NotAYesInstance("no valid elimination tree available")
        if model.depth > self.t:
            raise NotAYesInstance(
                f"the available elimination tree has depth {model.depth} > {self.t}"
            )
        return self.certificates_for(graph, model, ids)

    def certificates_for(
        self, graph: nx.Graph, model: EliminationTree, ids: IdentifierAssignment
    ) -> Certificates:
        """The Section 5 certificates for a coherent model of depth at most ``t``."""
        # Spanning tree of G_x, rooted at the exit vertex, for every non-root x.
        spanning: Dict[Vertex, Tuple[Dict[Vertex, int], Dict[Vertex, Optional[Vertex]]]] = {}
        for x in model.vertices:
            if model.parent[x] is None:
                continue
            subtree = model.subtree_vertices(x)
            exit_root = exit_vertex(graph, model, x)
            distances, parents, _ = bfs_spanning_tree(graph.subgraph(subtree), exit_root)
            spanning[x] = (distances, parents)
        certificates: Certificates = {}
        for vertex in graph.nodes():
            ancestors = model.ancestors(vertex, include_self=True)  # vertex ... root
            writer = CertificateWriter()
            writer.write_uint_list([ids[a] for a in ancestors])
            # One spanning-tree fragment per non-root ancestor (including the
            # vertex itself when it is not the root).
            for ancestor in ancestors[:-1]:
                distances, parents = spanning[ancestor]
                parent = parents[vertex]
                writer.write_uint(distances[vertex])
                writer.write_uint(ids[parent] if parent is not None else ids[vertex])
            certificates[vertex] = writer.getvalue()
        return certificates

    # ------------------------------------------------------------------
    # Verifier
    # ------------------------------------------------------------------

    def verify(self, view: LocalView) -> bool:
        try:
            my_list, my_fragments = _decode(view.certificate)
            neighbors = {
                info.identifier: _decode(info.certificate) for info in view.neighbors
            }
        except CertificateFormatError:
            return False
        depth = len(my_list)
        # Check 1: length, own identifier first, shared root.
        if depth < 1 or depth > self.t:
            return False
        if my_list[0] != view.identifier:
            return False
        if len(set(my_list)) != len(my_list):
            return False
        for neighbor_list, _ in neighbors.values():
            if not neighbor_list or neighbor_list[-1] != my_list[-1]:
                return False
        # Check 2: neighbouring lists are suffix-comparable with mine.
        for neighbor_list, _ in neighbors.values():
            if not _suffix_comparable(my_list, neighbor_list):
                return False
        # Check 3: one spanning-tree fragment per non-root ancestor.
        if len(my_fragments) != depth - 1:
            return False
        for neighbor_list, neighbor_fragments in neighbors.values():
            if len(neighbor_fragments) != len(neighbor_list) - 1:
                return False
        # Check 4: each spanning tree is locally consistent.
        for position in range(depth - 1):
            suffix = my_list[position:]
            distance, parent_id = my_fragments[position]
            if distance == 0:
                # Exit vertex of the ancestor at `position`: it must witness
                # the edge to that ancestor's parent, i.e. have a neighbour
                # whose list is exactly the suffix starting one level higher.
                expected = my_list[position + 1 :]
                if not any(
                    neighbor_list == expected for neighbor_list, _ in neighbors.values()
                ):
                    return False
            else:
                if parent_id not in neighbors:
                    return False
                parent_list, parent_fragments = neighbors[parent_id]
                parent_position = len(parent_list) - len(suffix)
                if parent_position < 0 or parent_list[parent_position:] != suffix:
                    return False
                if parent_position >= len(parent_fragments):
                    return False
                if parent_fragments[parent_position][0] != distance - 1:
                    return False
        return True


def _decode(certificate: bytes) -> Tuple[List[int], List[Tuple[int, int]]]:
    reader = CertificateReader(certificate)
    ancestor_ids = reader.read_uint_list()
    fragments: List[Tuple[int, int]] = []
    for _ in range(max(0, len(ancestor_ids) - 1)):
        distance = reader.read_uint()
        parent_id = reader.read_uint()
        fragments.append((distance, parent_id))
    reader.expect_end()
    return ancestor_ids, fragments


def _suffix_comparable(list_a: Sequence[int], list_b: Sequence[int]) -> bool:
    """Is one list a suffix of the other?  (Ancestor lists of adjacent vertices
    must be, because edges only join ancestor–descendant pairs.)"""
    shorter, longer = (list_a, list_b) if len(list_a) <= len(list_b) else (list_b, list_a)
    return list(longer[len(longer) - len(shorter) :]) == list(shorter)
