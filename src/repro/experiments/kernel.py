"""Declarative kernel-size series (Propositions 6.2 / 6.3).

Section 6 replaces a bounded-treedepth graph by its *k-reduced* kernel —
prune, at the deepest possible vertex, children beyond the ``k``-th of any
one type — and proves the kernel (a) has size bounded by a function of
``(k, t)`` alone and (b) satisfies the same rank-``k`` MSO sentences as the
original graph.  A :class:`KernelSpec` captures one such measurement
declaratively: a graph family, a size grid and a pruning parameter ``k``;
every point builds the instance, computes a coherent elimination-tree model,
runs :func:`repro.kernel.reduction.k_reduced_graph` and records the kernel
size (the series the Proposition 6.2 saturation claim is about), plus

* a **validity check**: the kernel's restricted elimination tree is still a
  valid model of the kernel graph (``ok`` fails otherwise);
* an optional **EF-game check** (``check_ef > 0``): verify
  ``G ≃_k kernel`` by playing the rank-``check_ef`` Ehrenfeucht–Fraïssé
  game on instances small enough to afford it — the Proposition 6.3 claim.

Like every kind, kernel runs shard (``shard=(i, j)`` with global indices and
seeds) and write the same artifact envelope, so ``merge_artifacts``, the
``results`` aggregation and the benchmark regression gate treat the kernel
series exactly like a certificate-size series: a kernel that *grows*
relative to its recorded baseline is a regression.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import ClassVar, Dict, Optional, Tuple

import networkx as nx

from repro.experiments.artifacts import ExperimentResult
from repro.experiments.spec import ExperimentPoint, ExperimentSpec
from repro.graphs.generators import build_graph_spec
from repro.kernel.reduction import k_reduced_graph
from repro.logic.ef_games import ef_equivalent
from repro.registry import RegistryError
from repro.treedepth.decomposition import (
    optimal_elimination_tree,
    star_elimination_tree,
    treedepth_upper_bound_dfs,
)
from repro.treedepth.elimination_tree import is_valid_model, make_coherent

#: How the per-point elimination-tree model is chosen: ``"coherent"`` runs
#: the generic pipeline (exact tree up to 16 vertices, DFS upper bound
#: beyond, then :func:`make_coherent`); ``"star"`` uses the closed-form
#: depth-2 star model (star family only — it matches the E17 ablation).
KERNEL_MODELS = ("coherent", "star")

#: EF-game checks are exponential in the instance; points larger than this
#: are skipped (``ef_ok=None``), not failed.
MAX_EF_VERTICES = 11


def coherent_model(graph: nx.Graph):
    """The generic elimination-tree model of the kernel experiments.

    Exact (minimum-depth) trees are affordable up to 16 vertices; beyond
    that the DFS upper bound stands in.  Either way the tree is made
    coherent first — the valid-pruning process is defined on coherent
    models (Section 6.1).
    """
    if graph.number_of_nodes() <= 16:
        base = optimal_elimination_tree(graph)
    else:
        _, base = treedepth_upper_bound_dfs(graph)
    return make_coherent(graph, base)


@dataclass(frozen=True)
class KernelSpec(ExperimentSpec):
    """One declarative kernel-size series over a graph-family grid.

    ``check_ef`` is the Ehrenfeucht–Fraïssé rank to verify (0 skips the
    check); it is independent of the pruning parameter ``k`` so a spec can
    e.g. prune with ``k=3`` but only afford the rank-2 game.
    """

    kind: ClassVar[str] = "kernel"
    _REQUIRED: ClassVar[Tuple[str, ...]] = ("family", "sizes")
    artifact_prefix: ClassVar[str] = "kernel"

    family: str
    sizes: Tuple[int, ...]
    k: int = 3
    model: str = "coherent"
    check_ef: int = 0
    seed: int = 0
    engine: str = "auto"
    """Reserved routing knob for spec/CLI uniformity: kernel points measure
    pruning and EF games, which no verification engine runs — validated so a
    mis-typed engine fails like everywhere else, but otherwise unused."""
    shard: Optional[Tuple[int, int]] = None
    name: Optional[str] = None

    def validate(self) -> "KernelSpec":
        super().validate()
        if self.k < 1:
            raise RegistryError("the pruning parameter k must be at least 1")
        if self.model not in KERNEL_MODELS:
            raise RegistryError(
                f"unknown kernel model {self.model!r}; choose from {KERNEL_MODELS}"
            )
        if self.model == "star" and self.family != "star":
            raise RegistryError("the star model only applies to the star family")
        if self.check_ef < 0:
            raise RegistryError("check_ef must be non-negative (0 = skip)")
        return self

    def run_point(self, index: int) -> "KernelPoint":
        size = self.sizes[index]
        point_seed = self.point_seed(index)
        graph_spec = self.graph_spec(index)
        graph = build_graph_spec(graph_spec, seed=point_seed)
        started = time.perf_counter()
        if self.model == "star":
            tree = star_elimination_tree(graph)
        else:
            tree = coherent_model(graph)
        reduction = k_reduced_graph(graph, tree, self.k)
        valid = is_valid_model(reduction.kernel_graph, reduction.kernel_tree)
        ef_ok: Optional[bool] = None
        if self.check_ef > 0 and graph.number_of_nodes() <= MAX_EF_VERTICES:
            ef_ok = bool(ef_equivalent(graph, reduction.kernel_graph, self.check_ef))
        return KernelPoint(
            index=index,
            size=size,
            graph=graph_spec,
            vertices=graph.number_of_nodes(),
            depth=tree.depth,
            kernel_size=reduction.kernel_size,
            pruned=len(reduction.deleted_vertices),
            seed=point_seed,
            valid_model=valid,
            ef_ok=ef_ok,
            ok=bool(valid and ef_ok is not False),
            elapsed_s=time.perf_counter() - started,
        )

    def _default_label(self) -> str:
        return f"kernel-k{self.k}-{self.family}"


@dataclass(frozen=True)
class KernelPoint(ExperimentPoint):
    """The outcome of one kernelization instance."""

    index: int
    size: int
    graph: str
    vertices: int
    depth: int
    """Depth of the elimination-tree model the pruning ran against."""
    kernel_size: int
    pruned: int
    """Vertices removed by the valid-pruning process (= vertices - kernel_size)."""
    seed: int
    valid_model: bool
    """The kernel's restricted tree is still a valid model of the kernel graph."""
    ef_ok: Optional[bool]
    """``G ≃_k kernel`` at rank ``check_ef`` (None when skipped or too large)."""
    ok: bool
    """No enabled check failed on this point."""
    elapsed_s: float

    def describe(self) -> str:
        checks = [f"valid={self.valid_model}"]
        if self.ef_ok is not None:
            checks.append(f"ef={self.ef_ok}")
        return (f"{self.graph:<22} n={self.vertices:<6} depth={self.depth:<4} "
                f"kernel {self.kernel_size:>5} vertices ({self.pruned} pruned)  "
                f"{' '.join(checks)}  ({self.elapsed_s:.3f}s)")


class KernelResult(ExperimentResult):
    """Everything a :class:`KernelSpec` run produces."""

    kind: ClassVar[str] = "kernel"
    point_class: ClassVar[type] = KernelPoint

    @property
    def series(self) -> Dict[int, int]:
        """``size → kernel size`` — the Proposition 6.2 saturation series."""
        return {point.size: point.kernel_size for point in self.points}

    @property
    def all_ok(self) -> bool:
        return all(point.ok for point in self.points)
