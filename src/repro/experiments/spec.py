"""Declarative experiment descriptions: the spec layer of the pipeline.

An *experiment* is a reproducible measurement over a grid of sizes.  Every
kind of experiment shares the same backbone — a ``sizes`` grid, a sweep
``seed`` from which every grid point derives an independent per-point seed,
an optional ``shard`` selecting a subset of the grid, a JSON round-trippable
description and a :meth:`ExperimentSpec.run_point` that measures one grid
point — and :class:`ExperimentSpec` is that backbone.  Concrete kinds
register themselves under a ``kind`` string so artifacts and wire requests
can be re-hydrated without knowing in advance what they hold:

* :class:`SweepSpec` (``kind="sweep"``) — a certificate-size sweep of one
  registered scheme over one graph family (the upper-bound series);
* :class:`~repro.experiments.formula.FormulaSpec` (``kind="formula"``) — the
  same series for an ad-hoc MSO formula (the Thm 2.6 meta-theorem);
* :class:`~repro.experiments.lower_bound.LowerBoundSpec`
  (``kind="lower-bound"``) — a Section 7.1 reduction-framework search (the
  matching Ω(·) series);
* :class:`~repro.experiments.radius.RadiusSpec` (``kind="radius"``) — a
  radius-r verification series (the Appendix A.1 radius ablation);
* :class:`~repro.experiments.kernel.KernelSpec` (``kind="kernel"``) — a
  Section 6 k-reduced kernel-size series.

One loop runs them all: :func:`repro.experiments.runner.run_experiment`.

Sharding: ``shard=(i, k)`` restricts execution to grid points
``i, i+k, i+2k, ...`` *without* changing their global indices or derived
seeds, so ``k`` machines each running one shard produce partial artifacts
that :func:`repro.experiments.artifacts.merge_artifacts` stitches into the
exact artifact of the unsharded run (modulo wall-clock timings).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field, replace
from typing import Any, ClassVar, Dict, Mapping, Optional, Sequence, Tuple

from repro.core.scheme import (
    CertificationScheme,
    NotAYesInstance,
    derive_trial_seed,
    evaluate_scheme,
)
from repro.engines import VALID_ENGINES, validate_engine
from repro.graphs.generators import GRAPH_FAMILIES, build_graph_spec
from repro.network.ids import assign_identifiers
from repro.registry import REGISTRY, RegistryError, SchemeInfo, SizeBound

_MEASURES = ("full", "size")

#: Parameter values of this form are substituted per grid point: ``"$n"``
#: becomes the point's size, so e.g. ``spanning-tree-count`` can certify
#: "exactly n vertices" across a whole grid with one spec.
SIZE_TEMPLATE = "$n"


class ExperimentCancelled(RuntimeError):
    """A cooperative stop-check interrupted an experiment run.

    ``reason`` is machine-readable — ``"cancelled"`` or ``"timeout"`` — and
    maps one-to-one onto the service's wire error codes, so a cancelled
    sweep surfaces as structured data, not a traceback.
    """

    def __init__(self, reason: str = "cancelled") -> None:
        super().__init__(reason)
        self.reason = reason


def raise_if_stopped(should_stop: Optional[Any]) -> None:
    """Run a cooperative stop-check between units of experiment work.

    ``should_stop`` is a zero-argument callable returning a stop *reason*
    (a string) when the run should abort, or a falsy value to continue —
    the contract of :meth:`repro.service.core.CancelScope.check`.  A bare
    ``True`` is accepted and normalised to ``"cancelled"``.
    """
    if should_stop is None:
        return
    reason = should_stop()
    if reason:
        raise ExperimentCancelled(reason if isinstance(reason, str) else "cancelled")


class ExperimentPoint:
    """Shared JSON round-trip of the per-point dataclasses of every kind."""

    def to_dict(self) -> Dict[str, Any]:
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentPoint":
        return cls(**dict(data))


class ExperimentSpec:
    """Shared backbone of all experiment kinds (grid, seeds, shard, JSON).

    Subclasses are frozen dataclasses that set a class-level ``kind`` string,
    a ``_REQUIRED`` tuple of field names, the ``artifact_prefix`` of their
    artifact files and a :meth:`run_point`; everything else — per-point seed
    derivation, shard index arithmetic, the checks every kind shares,
    ``to_dict``/``from_dict`` with kind dispatch — is inherited.  Each
    subclass must declare at least the fields ``sizes``, ``seed``, ``shard``
    and ``name``; ``family``, ``trials`` and ``engine`` are checked by
    :meth:`validate` whenever a kind has them.
    """

    kind: ClassVar[str] = ""
    _REQUIRED: ClassVar[Tuple[str, ...]] = ()
    _KINDS: ClassVar[Dict[str, type]] = {}
    #: Filename prefix of this kind's artifacts (``sweep_<label>.json``, ...):
    #: the CLI's default output names and the ``results`` aggregation's
    #: glob patterns both derive from it.
    artifact_prefix: ClassVar[str] = ""
    #: Engines an ``engine`` field of this kind may name.
    ENGINES: ClassVar[Tuple[str, ...]] = VALID_ENGINES

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        kind = cls.__dict__.get("kind", "")
        if kind:
            existing = ExperimentSpec._KINDS.get(kind)
            if existing is not None and existing is not cls:
                raise RegistryError(f"experiment kind {kind!r} is already registered")
            ExperimentSpec._KINDS[kind] = cls

    def __post_init__(self) -> None:
        object.__setattr__(self, "sizes", tuple(int(n) for n in self.sizes))
        if self.shard is not None:
            try:
                index, count = self.shard
                object.__setattr__(self, "shard", (int(index), int(count)))
            except (TypeError, ValueError):
                raise ValueError(f"shard must be an (i, k) pair, got {self.shard!r}") from None
        if hasattr(self, "params"):
            object.__setattr__(self, "params", dict(self.params))

    # -- per-point derivation ----------------------------------------------

    def point_seed(self, index: int) -> int:
        """An independent seed for grid point ``index``.

        Derived arithmetically from the experiment seed (same mixing as the
        per-trial adversarial seeds), so any sub-range of the grid — a
        shard, a resumed run — reproduces the full run's instances without
        executing the preceding points.
        """
        return derive_trial_seed(self.seed, index)

    def graph_spec(self, index: int) -> str:
        """The ``family:size`` specifier of grid point ``index``."""
        return f"{self.family}:{self.sizes[index]}"

    def run_point(self, index: int) -> ExperimentPoint:
        """Measure grid point ``index`` (reproducible in isolation)."""
        raise NotImplementedError

    def envelope(self) -> Optional[Tuple[SizeBound, Dict[str, Any]]]:
        """The asymptotic envelope the series is judged against, with the
        parameters to evaluate it at — or None when the kind (or this spec)
        checks no bound."""
        return None

    # -- sharding -----------------------------------------------------------

    def shard_indices(self) -> Tuple[int, ...]:
        """The *global* grid indices this spec executes.

        Without a shard that is the whole grid; shard ``(i, k)`` selects the
        strided subset ``i, i+k, i+2k, ...`` (striding balances work across
        shards when the grid is sorted by size).  Indices stay global so
        per-point seeds are identical to the unsharded run's.

        The *offset* form with ``i >= k`` is deliberately legal: splitting
        the remainder of shard ``(s, d)`` after ``m`` completed points into
        ``p`` pieces yields the shards ``(s + (m + j)*d, d*p)`` for
        ``j < p`` — each again a plain ``(i, k)`` pair, so sub-shards ride
        the same wire shape and merge rules as first-class shards.
        """
        total = len(self.sizes)
        if self.shard is None:
            return tuple(range(total))
        index, count = self.shard
        return tuple(range(index, total, count))

    def unsharded(self) -> "ExperimentSpec":
        """The same experiment with the shard restriction removed."""
        return replace(self, shard=None) if self.shard is not None else self

    def artifact_name(self) -> str:
        """The default artifact filename, ``<prefix>_<label>.json`` (with a
        ``.shardIofK`` infix for a partial artifact)."""
        shard = "" if self.shard is None else f".shard{self.shard[0]}of{self.shard[1]}"
        return f"{self.artifact_prefix}_{self.label}{shard}.json"

    # -- validation ---------------------------------------------------------

    def validate(self) -> "ExperimentSpec":
        """Check the fields every kind shares; returns self.

        Kinds extend this with their own checks.  Every problem raises
        :class:`~repro.registry.RegistryError`.
        """
        family = getattr(self, "family", None)
        if family is not None and family not in GRAPH_FAMILIES:
            raise RegistryError(
                f"unknown graph family {family!r}; choose from {sorted(GRAPH_FAMILIES)}"
            )
        if not self.sizes:
            raise RegistryError("an experiment needs at least one size")
        if any(n <= 0 for n in self.sizes):
            raise RegistryError(f"sizes must be positive, got {self.sizes}")
        if self.shard is not None:
            index, count = self.shard
            if count < 1 or index < 0:
                raise RegistryError(
                    f"shard must be (i, k) with i >= 0 and k >= 1, got {self.shard}"
                )
        if getattr(self, "trials", 0) < 0:
            raise RegistryError("trials must be non-negative")
        if hasattr(self, "engine"):
            try:
                validate_engine(self.engine, allowed=self.ENGINES, context=f"{self.kind} specs")
            except ValueError as exc:
                raise RegistryError(str(exc)) from None
        return self

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"kind": self.kind}
        for spec_field in dataclasses.fields(self):
            value = getattr(self, spec_field.name)
            if isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, Mapping):
                value = dict(value)
            data[spec_field.name] = value
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Re-hydrate a spec; on the base class, dispatch by ``kind``.

        Dicts without a ``kind`` entry (schema-1 artifacts) default to
        ``"sweep"``.
        """
        payload = dict(data)
        kind = payload.pop("kind", None)
        if cls is ExperimentSpec:
            target = cls._KINDS.get(kind or "sweep")
            if target is None:
                raise RegistryError(
                    f"unknown experiment kind {kind!r}; known kinds: {sorted(cls._KINDS)}"
                )
            return target.from_dict({**payload, "kind": target.kind})
        if kind is not None and kind != cls.kind:
            raise RegistryError(f"expected a {cls.kind!r} spec, got kind {kind!r}")
        known = {spec_field.name for spec_field in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise RegistryError(f"unknown {cls.__name__} field(s) {unknown}")
        missing = sorted(name for name in cls._REQUIRED if name not in payload)
        if missing:
            raise RegistryError(
                f"a {cls.__name__} needs at least {', '.join(cls._REQUIRED)}"
            )
        return cls(**payload)

    @property
    def label(self) -> str:
        return self.name or self._default_label()

    def _default_label(self) -> str:  # pragma: no cover - subclasses override
        return self.kind


@dataclass(frozen=True)
class SweepPoint(ExperimentPoint):
    """The measured outcome of one grid point of a certificate-size series
    (a :class:`SweepSpec` or a :class:`~repro.experiments.formula.FormulaSpec`)."""

    index: int
    n: int
    """The requested family size (the grid coordinate)."""
    graph: str
    """The resolved ``family:size`` specifier."""
    vertices: int
    edges: int
    seed: int
    """The derived per-point seed (identifiers + adversarial schedule)."""
    holds: bool
    completeness_ok: Optional[bool]
    soundness_ok: Optional[bool]
    max_certificate_bits: int
    elapsed_s: float
    engine_resolved: Optional[str] = None
    """Concrete engine the point's evaluation actually ran on (None for
    honest-prover-only points and pre-planner artifacts)."""

    def describe(self) -> str:
        status = (
            f"accepted={self.completeness_ok}"
            if self.holds
            else f"holds=False sound={self.soundness_ok}"
        )
        return (f"{self.graph:<22} n={self.vertices:<6} "
                f"{self.max_certificate_bits:>6} bits  {status}  ({self.elapsed_s:.3f}s)")


def harness_point(
    spec: ExperimentSpec,
    index: int,
    scheme: CertificationScheme,
    measure: str = "full",
    id_exponent: Optional[int] = None,
) -> SweepPoint:
    """Measure one certificate-size grid point of ``scheme``.

    ``measure="full"`` runs the complete harness (honest proof plus
    distributed verification on yes-instances, scheduled adversarial trials
    on no-instances); ``"size"`` only runs the honest prover.
    """
    n = spec.sizes[index]
    point_seed = spec.point_seed(index)
    graph_spec = spec.graph_spec(index)
    graph = build_graph_spec(graph_spec, seed=point_seed)
    started = time.perf_counter()
    engine_resolved = None
    if measure == "size":
        # Honest prover only: ``holds`` records whether a proof exists.
        ids = None
        if id_exponent is not None:
            ids = assign_identifiers(graph, exponent=id_exponent, seed=point_seed)
        try:
            bits = scheme.max_certificate_bits(graph, seed=point_seed, ids=ids)
            holds, completeness, soundness = True, None, None
        except NotAYesInstance:
            bits, holds, completeness, soundness = 0, False, None, None
    else:
        report = evaluate_scheme(
            scheme,
            graph,
            seed=point_seed,
            adversarial_trials=spec.trials,
            engine=spec.engine,
            id_exponent=id_exponent,
        )
        bits = report.max_certificate_bits
        holds = report.holds
        completeness = report.completeness_ok
        soundness = report.soundness_ok
        engine_resolved = report.engine_resolved
    return SweepPoint(
        index=index,
        n=n,
        graph=graph_spec,
        vertices=graph.number_of_nodes(),
        edges=graph.number_of_edges(),
        seed=point_seed,
        holds=holds,
        completeness_ok=completeness,
        soundness_ok=soundness,
        max_certificate_bits=bits,
        elapsed_s=time.perf_counter() - started,
        engine_resolved=engine_resolved,
    )


@dataclass(frozen=True)
class SweepSpec(ExperimentSpec):
    """One sweep: a scheme, a graph-family grid, and how to run it.

    ``sizes`` is the grid of family sizes (one instance per entry; repeats
    are allowed — each grid point draws its own derived seed, so repeated
    sizes give independent trials of a random family).  ``params`` values
    may be the literal string ``"$n"``, replaced by the point's size before
    validation against the registry's parameter spec.

    ``measure`` selects what each point runs: ``"full"`` (default) is the
    complete harness — honest proof plus distributed verification on
    yes-instances, scheduled adversarial trials on no-instances — while
    ``"size"`` only runs the honest prover and measures certificate bits
    (the paper's size series; usable on instances too large for the exact
    ``holds`` decision procedures, since a point counts as a yes-instance
    exactly when the prover succeeds).

    ``id_exponent`` overrides the identifier range ``[1, n^exponent]`` the
    evaluation draws from (the paper's default is 3) — the knob of the E15
    identifier ablation.  ``shard`` restricts execution to a strided subset
    of the grid (see :meth:`ExperimentSpec.shard_indices`).
    """

    kind: ClassVar[str] = "sweep"
    _REQUIRED: ClassVar[Tuple[str, ...]] = ("scheme", "family", "sizes")
    artifact_prefix: ClassVar[str] = "sweep"

    scheme: str
    family: str
    sizes: Tuple[int, ...]
    params: Mapping[str, Any] = field(default_factory=dict)
    trials: int = 20
    seed: int = 0
    engine: str = "auto"
    processes: int = 1
    check_bound: bool = True
    measure: str = "full"
    id_exponent: Optional[int] = None
    shard: Optional[Tuple[int, int]] = None
    name: Optional[str] = None

    @property
    def info(self) -> SchemeInfo:
        return REGISTRY.get(self.scheme)

    def validate(self) -> "SweepSpec":
        """Check the whole spec against the registry; returns self."""
        info = self.info  # raises UnknownKeyError on unknown schemes
        super().validate()
        if self.measure not in _MEASURES:
            raise RegistryError(f"unknown measure {self.measure!r}; use one of {_MEASURES}")
        if self.processes < 1:
            raise RegistryError("processes must be at least 1")
        if self.id_exponent is not None and self.id_exponent < 1:
            raise RegistryError("id_exponent must be at least 1")
        for n in self.sizes:
            info.resolve_params(self._substituted(n))  # raises on bad params
        return self

    def _substituted(self, n: int) -> Dict[str, Any]:
        return {
            key: (n if value == SIZE_TEMPLATE else value)
            for key, value in self.params.items()
        }

    def resolved_params(self, n: int) -> Dict[str, Any]:
        """The validated, typed scheme parameters of the point at size ``n``."""
        return self.info.resolve_params(self._substituted(n))

    def subset(self, indices: Sequence[int]) -> "SweepSpec":
        """The sub-sweep covering only the given grid points.

        Note the subset's points get new *local* indices; to reproduce a
        single point of the full grid bit-for-bit use :meth:`run_point`
        with the original spec, or a ``shard`` (which keeps global indices).
        """
        return replace(self, sizes=tuple(self.sizes[i] for i in indices), shard=None)

    def run_point(self, index: int) -> SweepPoint:
        scheme = self.info.create(self.resolved_params(self.sizes[index]))
        return harness_point(self, index, scheme, self.measure, self.id_exponent)

    def envelope(self) -> Optional[Tuple[SizeBound, Dict[str, Any]]]:
        """The registered bound, its parameters taken at the largest grid
        size — with ``$n``-templated parameters the envelope is then
        conservative for smaller points, which only widens the band."""
        if not self.check_bound:
            return None
        return self.info.bound, self.resolved_params(max(self.sizes))

    def _default_label(self) -> str:
        return f"{self.scheme}-{self.family}"
