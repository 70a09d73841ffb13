"""Declarative radius-r verification series (the Appendix A.1 ablation).

The paper fixes the verification radius at 1; Appendix A.1 justifies that
choice with "diameter ≤ 3": at radius ``bound + 1`` a node sees far enough
to decide the property with **zero** certificate bits, whereas at radius 1
it needs the universal scheme's Θ(n²) bits.  A :class:`RadiusSpec` captures
the radius-r half of that comparison declaratively: a graph family, a size
grid, a diameter bound and a verification radius; every point runs the
certificate-free radius-r verifier of
:func:`repro.network.radius.diameter_at_most_verifier` and records whether
its accept/reject decision matches the instance's actual diameter.

(The radius-1 half of the comparison is an ordinary ``universal``-scheme
:class:`~repro.experiments.spec.SweepSpec`.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import ClassVar, Dict, Optional, Tuple

import networkx as nx

from repro.experiments.artifacts import ExperimentResult
from repro.experiments.spec import ExperimentPoint, ExperimentSpec
from repro.graphs.generators import build_graph_spec
from repro.network.radius import RadiusSimulator, diameter_at_most_verifier
from repro.registry import RegistryError


@dataclass(frozen=True)
class RadiusSpec(ExperimentSpec):
    """A certificate-free radius-r "diameter ≤ bound" verification series.

    ``radius`` defaults to ``bound + 1`` (the smallest radius at which the
    verifier needs no certificates, per Appendix A.1) when left at 0.
    """

    kind: ClassVar[str] = "radius"
    _REQUIRED: ClassVar[Tuple[str, ...]] = ("family", "sizes")
    artifact_prefix: ClassVar[str] = "radius"

    family: str
    sizes: Tuple[int, ...]
    bound: int = 3
    radius: int = 0
    seed: int = 0
    shard: Optional[Tuple[int, int]] = None
    name: Optional[str] = None

    @property
    def effective_radius(self) -> int:
        return self.radius if self.radius > 0 else self.bound + 1

    def validate(self) -> "RadiusSpec":
        super().validate()
        if self.bound < 1:
            raise RegistryError("the diameter bound must be at least 1")
        if self.radius < 0:
            raise RegistryError("radius must be non-negative (0 = bound + 1)")
        return self

    def run_point(self, index: int) -> "RadiusPoint":
        size = self.sizes[index]
        point_seed = self.point_seed(index)
        graph_spec = self.graph_spec(index)
        graph = build_graph_spec(graph_spec, seed=point_seed)
        started = time.perf_counter()
        diameter = nx.diameter(graph)
        expected = diameter <= self.bound
        simulator = RadiusSimulator(graph, radius=self.effective_radius, seed=point_seed)
        outcome = simulator.run(
            diameter_at_most_verifier(self.bound), {v: b"" for v in graph.nodes()}
        )
        return RadiusPoint(
            index=index,
            size=size,
            graph=graph_spec,
            vertices=graph.number_of_nodes(),
            diameter=diameter,
            seed=point_seed,
            expected=expected,
            accepted=outcome.accepted,
            ok=outcome.accepted == expected,
            max_certificate_bits=outcome.max_certificate_bits,
            elapsed_s=time.perf_counter() - started,
        )

    def _default_label(self) -> str:
        return f"radius{self.effective_radius}-diameter{self.bound}-{self.family}"


@dataclass(frozen=True)
class RadiusPoint(ExperimentPoint):
    """The outcome of one radius-r verification instance."""

    index: int
    size: int
    graph: str
    vertices: int
    diameter: int
    seed: int
    expected: bool
    """Ground truth: does the instance have diameter ≤ bound?"""
    accepted: bool
    """Did every vertex of the radius-r verifier accept (with 0-bit certificates)?"""
    ok: bool
    """``accepted == expected`` — the verifier decided correctly."""
    max_certificate_bits: int
    elapsed_s: float


class RadiusResult(ExperimentResult):
    """Everything a :class:`RadiusSpec` run produces."""

    kind: ClassVar[str] = "radius"
    point_class: ClassVar[type] = RadiusPoint

    @property
    def series(self) -> Dict[int, int]:
        """``size → certificate bits`` — identically 0 by construction."""
        return {point.size: point.max_certificate_bits for point in self.points}

    @property
    def all_ok(self) -> bool:
        return all(point.ok for point in self.points)
