"""Declarative lower-bound searches: the Ω(·) side of the pipeline.

A :class:`LowerBoundSpec` is to the Section 7 reduction framework what
:class:`~repro.experiments.spec.SweepSpec` is to the scheme registry: it
names a construction from
:data:`repro.lower_bounds.catalog.LOWER_BOUND_CONSTRUCTIONS`, a grid of
construction sizes, and which checks to run per point —

* the **bound series**: the Ω(ℓ/r) certificate-size bound Proposition 7.2
  implies at each grid size (always computed; checked against the
  construction's expected asymptotic shape and fitted, exactly like a
  sweep's measured series);
* the **dichotomy check**: build the gadget ``G(s_A, s_B)`` for an equal and
  a one-bit-different string pair (drawn from the point's derived seed) and
  verify that the certified property holds exactly on the equal pair — the
  heart of the reduction;
* the **protocol simulation**: run the Alice/Bob simulation of
  :meth:`~repro.lower_bounds.framework.ReductionFramework.simulate_protocol`
  on the gadget with the completeness/soundness probe schemes (tiny
  instances only — the simulation is doubly exponential by design).

Like every kind, lower-bound runs shard (``shard=(i, k)`` with global
indices and seeds) and write the same artifact envelope, so
``merge_artifacts`` and the ``results`` aggregation treat all kinds
uniformly.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, Optional, Tuple

from repro.engines import resolve_engine
from repro.experiments.artifacts import ExperimentResult
from repro.experiments.spec import ExperimentPoint, ExperimentSpec
from repro.planner import Workload
from repro.lower_bounds.catalog import (
    LowerBoundConstruction,
    NeverAcceptScheme,
    ProtocolProbeScheme,
    get_construction,
)
from repro.network.ids import assign_identifiers
from repro.registry import RegistryError, SizeBound


@dataclass(frozen=True)
class LowerBoundSpec(ExperimentSpec):
    """One declarative lower-bound search over a construction-size grid.

    ``sizes`` is the construction's own grid coordinate (string length ℓ for
    ``automorphism``, matching size n for ``treedepth``).  The per-point
    derived seed drives the drawn string pairs, so any sub-range of the grid
    reproduces the full run's instances — the same contract as sweeps.
    """

    kind: ClassVar[str] = "lower-bound"
    _REQUIRED: ClassVar[Tuple[str, ...]] = ("construction", "sizes")
    artifact_prefix: ClassVar[str] = "lb"
    ENGINES: ClassVar[Tuple[str, ...]] = ("compiled", "delta", "vector", "auto")

    construction: str
    sizes: Tuple[int, ...]
    check_dichotomy: bool = True
    simulate: bool = False
    simulate_bits: int = 1
    max_side_bits: int = 12
    engine: str = "auto"
    """How the protocol-simulation probes sweep assignments: ``"compiled"``
    reloads full assignments, ``"delta"`` streams Gray-coded single-vertex
    changes through a persistent session, ``"vector"`` sweeps bit-parallel
    lane blocks (same verdicts, less work).  ``"auto"`` (the default) lets
    the planner pick per point from the simulation's enumeration shape."""
    check_bound: bool = True
    seed: int = 0
    shard: Optional[Tuple[int, int]] = None
    name: Optional[str] = None

    @property
    def info(self) -> LowerBoundConstruction:
        return get_construction(self.construction)

    def validate(self) -> "LowerBoundSpec":
        info = self.info  # raises UnknownKeyError on unknown constructions
        super().validate()
        if self.simulate_bits < 1:
            raise RegistryError("simulate_bits must be at least 1")
        if self.max_side_bits < 1:
            raise RegistryError("max_side_bits must be at least 1")
        needs_instances = self.check_dichotomy or self.simulate
        if needs_instances and not info.checkable:
            raise RegistryError(
                f"construction {self.construction!r} is closed-form only; "
                "run it with check_dichotomy=False and simulate=False"
            )
        if self.simulate and info.framework is None:
            raise RegistryError(
                f"construction {self.construction!r} has no framework to simulate"
            )
        if needs_instances:
            for n in self.sizes:
                if info.capacity(n) < 1:
                    raise RegistryError(
                        f"construction {self.construction!r} cannot encode a single "
                        f"bit at size {n}; start the grid higher"
                    )
        return self

    def run_point(self, index: int) -> "LowerBoundPoint":
        info = self.info
        size = self.sizes[index]
        point_seed = self.point_seed(index)
        rng = random.Random(point_seed)
        started = time.perf_counter()

        ell = info.capacity(size)
        r = info.spread(size)
        vertices: Optional[int] = None
        dichotomy_ok: Optional[bool] = None
        protocol_ok: Optional[bool] = None
        engine_resolved: Optional[str] = None

        needs_pairs = self.check_dichotomy or self.simulate
        if needs_pairs and info.checkable:
            equal_pair = info.string_pair(size, rng, True)
            different_pair = info.string_pair(size, rng, False)
            if self.check_dichotomy:
                yes_instance = info.build_instance(size, *equal_pair)
                no_instance = info.build_instance(size, *different_pair)
                vertices = yes_instance.number_of_nodes()
                dichotomy_ok = bool(
                    info.has_property(yes_instance) and not info.has_property(no_instance)
                )
            if self.simulate:
                framework = info.framework(size)
                # The framework graph's vertex set is string-independent (the
                # injections only toggle edges inside the fixed private parts),
                # so one identifier assignment serves both probes.
                graph = framework.build_graph(*equal_pair)
                ids = assign_identifiers(graph, sequential=True)
                # Resolve "auto" once per point from the simulation's shape (the
                # same descriptor simulate_protocol would build internally) and
                # pin both probes to the outcome so the point records exactly
                # the engine that ran.
                present = {v for v in graph.nodes() if graph.degree(v) > 0}
                bits = self.simulate_bits
                middle = sum(
                    1
                    for v in list(framework.v_alpha) + list(framework.v_beta)
                    if v in present
                )
                side_a = sum(1 for v in framework.v_a if v in present)
                side_b = sum(1 for v in framework.v_b if v in present)
                engine_resolved = resolve_engine(
                    self.engine,
                    Workload.enumeration(
                        (1 << (bits * middle))
                        * ((1 << (bits * side_a)) + (1 << (bits * side_b))),
                        len(present),
                        max((d for _, d in graph.degree()), default=0),
                        max_bits=bits,
                    ),
                    allowed=("compiled", "delta", "vector"),
                )
                try:
                    probe_accepted = framework.simulate_protocol(
                        ProtocolProbeScheme(),
                        *equal_pair,
                        certificate_bits_per_vertex=self.simulate_bits,
                        ids=ids,
                        max_side_bits=self.max_side_bits,
                        engine=engine_resolved,
                    )
                    control_rejected = not framework.simulate_protocol(
                        NeverAcceptScheme(),
                        *equal_pair,
                        certificate_bits_per_vertex=self.simulate_bits,
                        ids=ids,
                        max_side_bits=self.max_side_bits,
                        engine=engine_resolved,
                    )
                    protocol_ok = bool(probe_accepted and control_rejected)
                except ValueError:
                    # The simulation is doubly exponential by design; grid
                    # points beyond max_side_bits are skipped (None), not failed
                    # — the bound series and dichotomy still cover them.
                    protocol_ok = None
                    engine_resolved = None

        return LowerBoundPoint(
            index=index,
            size=size,
            ell=ell,
            r=r,
            bound_bits=float(info.bound_bits(size)),
            vertices=vertices,
            seed=point_seed,
            dichotomy_ok=dichotomy_ok,
            protocol_ok=protocol_ok,
            elapsed_s=time.perf_counter() - started,
            engine_resolved=engine_resolved,
        )

    def envelope(self) -> Optional[Tuple[SizeBound, Dict[str, Any]]]:
        """The construction's expected Ω(f) shape: a lower-bound series that
        flattens out (or blows up) relative to it fails the band test."""
        return (self.info.bound, {}) if self.check_bound else None

    def _default_label(self) -> str:
        # Bare construction key: the CLI's default filename already carries
        # the lb_ prefix, and the results table has a kind column.
        return self.construction


@dataclass(frozen=True)
class LowerBoundPoint(ExperimentPoint):
    """The measured outcome of one grid point of a lower-bound search."""

    index: int
    size: int
    """The construction's grid coordinate (ℓ or matching size)."""
    ell: int
    """Bits the injections encode at this size."""
    r: int
    """|V_α ∪ V_β| — certificates the Alice/Bob protocol reads."""
    bound_bits: float
    """The Ω(ℓ/r) bound of Proposition 7.2, in bits."""
    vertices: Optional[int]
    """Vertex count of the built yes-instance (None when not built)."""
    seed: int
    dichotomy_ok: Optional[bool]
    """Property holds on the equal pair and fails on the different pair."""
    protocol_ok: Optional[bool]
    """Alice/Bob simulation accepted the probe and rejected its control."""
    elapsed_s: float
    engine_resolved: Optional[str] = None
    """Concrete engine the protocol simulation ran on (None when the point
    did not simulate)."""

    def describe(self) -> str:
        checks = []
        if self.dichotomy_ok is not None:
            checks.append(f"dichotomy={self.dichotomy_ok}")
        if self.protocol_ok is not None:
            checks.append(f"protocol={self.protocol_ok}")
        extra = f"  {' '.join(checks)}" if checks else ""
        return (f"size={self.size:<6} ell={self.ell:<6} r={self.r:<6} "
                f"bound {self.bound_bits:>8.2f} bits{extra}  ({self.elapsed_s:.3f}s)")


class LowerBoundResult(ExperimentResult):
    """Everything a :class:`LowerBoundSpec` run produces."""

    kind: ClassVar[str] = "lower-bound"
    point_class: ClassVar[type] = LowerBoundPoint

    @property
    def series(self) -> Dict[int, float]:
        """The ``size → Ω-bound bits`` series of the search."""
        return {point.size: point.bound_bits for point in self.points}

    @property
    def all_ok(self) -> bool:
        """No dichotomy or protocol check failed (vacuously true if skipped)."""
        return all(
            point.dichotomy_ok is not False and point.protocol_ok is not False
            for point in self.points
        )
