"""MSO/FO certification on bounded-treedepth graphs via kernelization (Theorem 2.6).

The certificate of a vertex is the concatenation of:

* the Theorem 2.4 certificate for a coherent ``t``-model of the graph;
* one boolean per ancestor (the vertex included) saying whether that ancestor
  was *pruned* (is the root of a subtree deleted by the k-reduction);
* one end-type index per ancestor (the vertex included);
* the type table — a children-first list of all end types, whose size depends
  only on the formula (through ``k``) and on ``t``, never on ``n``.

Verification runs the treedepth verifier, checks that everyone agrees on the
type table and on the root's end type, reconstructs the kernel from the
root's end type (a type determines its graph up to isomorphism, see
:mod:`repro.kernel.serialize`), model-checks the formula on that kernel, and
finally performs the local type-consistency checks of Proposition 6.4: the
vertex's adjacency to its ancestors must match its end type's ancestor
vector, its end type's children multiset must match the end types of its
unpruned children (visible through its neighbours thanks to coherence), and
whenever one of its children was pruned it must keep exactly ``k`` unpruned
children of that type.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, NamedTuple, Optional, Tuple

import networkx as nx

from repro.caching import LRUCache, memoize_on_graph, register_cache
from repro.core.encoding import CertificateFormatError, CertificateReader, CertificateWriter
from repro.core.scheme import CertificationScheme, Certificates, NotAYesInstance
from repro.core.treedepth_scheme import TreedepthScheme, ModelBuilder, _decode as _decode_td
from repro.graphs.utils import ensure_connected
from repro.kernel.reduction import KernelizationResult, k_reduced_graph
from repro.kernel.serialize import decode_type_table, encode_type_table, graph_from_type, topological_type_table
from repro.kernel.types import VertexType
from repro.logic.semantics import evaluate
from repro.logic.structure import quantifier_depth
from repro.logic.syntax import Formula
from repro.network.ids import IdentifierAssignment
from repro.network.views import LocalView, NeighborInfo
from repro.treedepth.decomposition import EXACT_TREEDEPTH_MAX_VERTICES, exact_treedepth
from repro.treedepth.elimination_tree import EliminationTree

Vertex = Hashable

_KERNEL_MODEL_CHECK_LIMIT = 22


class MSOTreedepthScheme(CertificationScheme):
    """Certify "treedepth ≤ t and the graph satisfies φ" (Theorem 2.6).

    Ground truth and the prover share one path: coherent model, k-reduction,
    then a ``ValueError`` when the kernel has more than 22 vertices, too many
    to model-check exactly.
    """

    def __init__(
        self,
        formula: Formula,
        t: int,
        k: int | None = None,
        model_builder: ModelBuilder | None = None,
        name: str | None = None,
    ) -> None:
        if t < 1:
            raise ValueError("t must be at least 1")
        self.formula = formula
        self.t = t
        self.k = quantifier_depth(formula) if k is None else k
        if self.k < 1:
            self.k = 1
        self.model_builder = model_builder
        self._td_scheme = TreedepthScheme(t, model_builder=model_builder)
        self.name = f"mso-treedepth(t={t}, {name or formula})"

    # ------------------------------------------------------------------
    # Ground truth
    # ------------------------------------------------------------------

    def holds(self, graph: nx.Graph) -> bool:
        # Exact treedepth decides a no-instance without building a model
        # (which would need a connected graph).
        small = graph.number_of_nodes() <= EXACT_TREEDEPTH_MAX_VERTICES
        if small and exact_treedepth(graph) > self.t:
            return False
        instance = _kernel_instance(graph, self.t, self.k, self.formula, self.model_builder)
        return instance is not None and instance.satisfied

    # ------------------------------------------------------------------
    # Prover
    # ------------------------------------------------------------------

    def prove(self, graph: nx.Graph, ids: IdentifierAssignment) -> Certificates:
        ensure_connected(graph)
        instance = _kernel_instance(graph, self.t, self.k, self.formula, self.model_builder)
        if instance is None:
            raise NotAYesInstance(f"no elimination tree of depth ≤ {self.t} available")
        if not instance.satisfied:
            raise NotAYesInstance("the kernel (hence the graph) does not satisfy the formula")
        model, reduction = instance.model, instance.reduction
        td_certificates = self._td_scheme.certificates_for(graph, model, ids)
        # Type table shared by every vertex.
        table = topological_type_table(sorted(set(reduction.end_types.values()), key=repr))
        table_bytes = encode_type_table(table)
        index = {vertex_type: i for i, vertex_type in enumerate(table)}
        certificates: Certificates = {}
        for vertex in graph.nodes():
            ancestors = model.ancestors(vertex, include_self=True)  # vertex ... root
            pruned_flags = [a in reduction.pruned_roots for a in ancestors]
            type_indices = [index[reduction.end_types[a]] for a in ancestors]
            writer = CertificateWriter()
            writer.write_bytes(td_certificates[vertex])
            writer.write_bool_list(pruned_flags)
            writer.write_uint_list(type_indices)
            writer.write_bytes(table_bytes)
            certificates[vertex] = writer.getvalue()
        return certificates

    # ------------------------------------------------------------------
    # Verifier
    # ------------------------------------------------------------------

    def verify(self, view: LocalView) -> bool:
        try:
            mine = _decode_kernel_certificate(view.certificate)
            neighbor_data = {
                info.identifier: _decode_kernel_certificate(info.certificate)
                for info in view.neighbors
            }
        except CertificateFormatError:
            return False
        td_cert, pruned_flags, type_indices, table_bytes = mine
        # 1. The treedepth layer must verify.
        td_view = LocalView(
            identifier=view.identifier,
            certificate=td_cert,
            neighbors=tuple(
                NeighborInfo(identifier=identifier, certificate=data[0])
                for identifier, data in neighbor_data.items()
            ),
            total_vertices_hint=view.total_vertices_hint,
        )
        if not self._td_scheme.verify(td_view):
            return False
        try:
            my_list, _fragments = _decode_td(td_cert)
        except CertificateFormatError:
            return False
        depth = len(my_list)
        # 2. Shape of the kernel layer.
        if len(pruned_flags) != depth or len(type_indices) != depth:
            return False
        # 3. Everyone agrees on the type table and the root's end type.
        for neighbor_td, neighbor_pruned, neighbor_types, neighbor_table in neighbor_data.values():
            if neighbor_table != table_bytes:
                return False
            try:
                neighbor_list, _ = _decode_td(neighbor_td)
            except CertificateFormatError:
                return False
            if len(neighbor_pruned) != len(neighbor_list) or len(neighbor_types) != len(neighbor_list):
                return False
            if neighbor_types and type_indices and neighbor_types[-1] != type_indices[-1]:
                return False
        # 4. Decode the table, reconstruct the kernel, check the formula.
        table = _checked_type_table(self.formula, table_bytes, type_indices[-1])
        if table is None or any(i >= len(table) for i in type_indices):
            return False
        # 5. My adjacency to my ancestors must match my end type's ancestor vector.
        my_type = table[type_indices[0]]
        strict_ancestors_root_first = list(reversed(my_list[1:]))
        if len(my_type.ancestor_vector) != len(strict_ancestors_root_first):
            return False
        neighbor_ids = set(view.neighbor_identifiers())
        for ancestor_id, bit in zip(strict_ancestors_root_first, my_type.ancestor_vector):
            if bool(bit) != (ancestor_id in neighbor_ids):
                return False
        # 6. Children checks (possible thanks to coherence: every child subtree
        #    contains a neighbour of this vertex, whose ancestor list exposes
        #    the child's end type and pruned flag).
        children = self._collect_children(my_list, neighbor_data)
        if children is None:
            return False
        # 6a. The vertex is the root of the certified elimination tree iff its
        #     list has length 1; in that case it is never pruned.
        if depth == 1 and pruned_flags[0]:
            return False
        # 6b. Pruned children leave exactly k unpruned siblings of their type.
        unpruned_counts: Dict[int, int] = {}
        for _child_id, (child_type_index, child_pruned) in children.items():
            if not child_pruned:
                unpruned_counts[child_type_index] = unpruned_counts.get(child_type_index, 0) + 1
        for _child_id, (child_type_index, child_pruned) in children.items():
            if child_pruned and unpruned_counts.get(child_type_index, 0) != self.k:
                return False
        # 6c. My end type's children multiset equals the end types of my
        #     unpruned children.
        expected: Dict[VertexType, int] = {child: count for child, count in my_type.child_types}
        actual: Dict[VertexType, int] = {}
        for child_type_index, count in unpruned_counts.items():
            actual[table[child_type_index]] = actual.get(table[child_type_index], 0) + count
        if expected != actual:
            return False
        return True

    def _collect_children(
        self,
        my_list: List[int],
        neighbor_data: Dict[int, Tuple[bytes, List[bool], List[int], bytes]],
    ) -> Optional[Dict[int, Tuple[int, bool]]]:
        """Child → (end type index, pruned flag), harvested from neighbours.

        A neighbour is a strict descendant when its ancestor list strictly
        extends mine; the entry just above my own position in its list names
        the child of mine on that branch.  Inconsistent reports for the same
        child make the check fail (return None).
        """
        depth = len(my_list)
        children: Dict[int, Tuple[int, bool]] = {}
        for neighbor_td, neighbor_pruned, neighbor_types, _table in neighbor_data.values():
            try:
                neighbor_list, _ = _decode_td(neighbor_td)
            except CertificateFormatError:
                return None
            if len(neighbor_list) <= depth:
                continue
            if neighbor_list[len(neighbor_list) - depth :] != my_list:
                continue
            child_position = len(neighbor_list) - depth - 1
            child_id = neighbor_list[child_position]
            report = (neighbor_types[child_position], bool(neighbor_pruned[child_position]))
            if child_id in children and children[child_id] != report:
                return None
            children[child_id] = report
        return children


class _KernelInstance(NamedTuple):
    model: EliminationTree
    reduction: KernelizationResult
    satisfied: bool


@memoize_on_graph
def _kernel_instance(
    graph: nx.Graph,
    t: int,
    k: int,
    formula: Formula,
    model_builder: Optional[ModelBuilder],
) -> Optional[_KernelInstance]:
    """Coherent model of depth ≤ ``t``, its ``k``-reduction and whether the
    kernel satisfies ``formula``; None when no such model is available.

    Raises ``ValueError`` when the kernel has more than 22 vertices, too many
    to model-check exactly.  Memoised on graph structure and the arguments,
    so a yes-instance's ``holds`` and ``prove`` build it once.
    """
    model = TreedepthScheme(t, model_builder=model_builder).coherent_model(graph)
    if model is None or model.depth > t:
        return None
    reduction = k_reduced_graph(graph, model, k)
    if reduction.kernel_size > _KERNEL_MODEL_CHECK_LIMIT:
        raise ValueError(
            f"the {k}-reduced kernel has {reduction.kernel_size} vertices, "
            f"too large for exact MSO model checking; "
            "use a formula of smaller quantifier depth or a smaller t"
        )
    return _KernelInstance(model, reduction, evaluate(reduction.kernel_graph, formula, {}))


_KERNEL_CHECKS = register_cache("kernel-checks", LRUCache(maxsize=256))


def _checked_type_table(
    formula: Formula, table_bytes: bytes, root_index: int
) -> Optional[Tuple[VertexType, ...]]:
    """The decoded type table when the kernel its ``root_index`` entry spells
    out satisfies ``formula``, else None (malformed table, bad root type,
    kernel too large to model-check, or the formula fails).

    Every vertex of an honest certificate carries the same table and root
    index, so the verifier memoises this check (cache ``kernel-checks``)
    instead of rebuilding and model-checking the kernel at each vertex.
    """

    def check() -> Optional[Tuple[VertexType, ...]]:
        try:
            table = tuple(decode_type_table(table_bytes))
        except CertificateFormatError:
            return None
        if root_index >= len(table):
            return None
        root_type = table[root_index]
        if len(root_type.ancestor_vector) != 0:
            return None
        try:
            kernel_graph, _kernel_tree = graph_from_type(root_type)
        except ValueError:
            return None
        if kernel_graph.number_of_nodes() > _KERNEL_MODEL_CHECK_LIMIT:
            return None
        return table if evaluate(kernel_graph, formula, {}) else None

    return _KERNEL_CHECKS.get_or_compute((formula, table_bytes, root_index), check)


def _decode_kernel_certificate(
    certificate: bytes,
) -> Tuple[bytes, List[bool], List[int], bytes]:
    reader = CertificateReader(certificate)
    td_cert = reader.read_bytes()
    pruned_flags = reader.read_bool_list()
    type_indices = reader.read_uint_list()
    table_bytes = reader.read_bytes()
    reader.expect_end()
    return td_cert, pruned_flags, type_indices, table_bytes
