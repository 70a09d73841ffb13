"""Experiment results as structured, JSON-serialisable artifacts.

Every experiment kind (sweep, formula, lower-bound, radius, kernel)
produces a result object deriving from :class:`ExperimentResult`; the
artifact on disk is its ``to_dict`` plus a schema version and a ``kind``
tag, so :func:`load_artifact` can re-hydrate any artifact without being told
what it holds.  All results carry the same two bound judgements:

* ``bound`` — the closed-form :class:`BoundCheck` verdict against the
  spec's :meth:`~repro.experiments.spec.ExperimentSpec.envelope`, and
* ``fit`` — the measured :class:`~repro.experiments.bounds.FittedBound`
  regression exponent of the series,

which is what lets the ``results`` aggregation print upper- and lower-bound
series in one uniform table, and the same :attr:`ExperimentResult.clean`
verdict decides every command's exit status.

Sharded runs write partial artifacts (their spec records the shard);
:func:`merge_artifacts` stitches the shards of one experiment back into the
artifact of the unsharded run — identical modulo wall-clock timings, because
every grid point keeps its global index and derived seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, ClassVar, Dict, Iterable, Mapping, Optional, Tuple, Union

from repro.experiments.bounds import FittedBound, fit_series
from repro.experiments.spec import ExperimentPoint, ExperimentSpec, SweepPoint

#: Bumped whenever the artifact layout changes incompatibly.  Schema 2 added
#: the ``kind`` tag and the fitted-bound record; schema-1 artifacts (sweeps
#: only, no fit) still load.
ARTIFACT_SCHEMA = 2

_READABLE_SCHEMAS = (1, 2)


@dataclass(frozen=True)
class BoundCheck:
    """The measured series checked against the registered asymptotic bound."""

    label: str
    ok: bool
    spread: Optional[float]
    slack: float
    ratios: Dict[int, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "ok": self.ok,
            "spread": self.spread,
            "slack": self.slack,
            # JSON object keys are strings; parse back in from_dict.
            "ratios": {str(n): ratio for n, ratio in self.ratios.items()},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BoundCheck":
        return cls(
            label=data["label"],
            ok=bool(data["ok"]),
            spread=data.get("spread"),
            slack=float(data.get("slack", 0.0)),
            ratios={int(n): float(r) for n, r in dict(data.get("ratios", {})).items()},
        )

    @classmethod
    def from_check(cls, ok: bool, detail: Mapping[str, Any]) -> "BoundCheck":
        """Build a verdict from ``SizeBound.check_series``'s return pair."""
        return cls(
            label=detail["label"],
            ok=ok,
            spread=detail.get("spread"),
            slack=detail["slack"],
            ratios=detail.get("ratios", {}),
        )


@dataclass(frozen=True)
class ExperimentResult:
    """A finished experiment (or shard of one): its spec, points and verdicts.

    Kinds subclass this, registering under their ``kind`` with the
    ``point_class`` their points re-hydrate into, and define ``series``
    (grid size → measured quantity) and ``all_ok`` (every per-point check
    passed); serialisation, merging and the clean verdict are shared.
    """

    kind: ClassVar[str] = ""
    point_class: ClassVar[type] = ExperimentPoint
    _KINDS: ClassVar[Dict[str, type]] = {}

    spec: ExperimentSpec
    points: Tuple[Any, ...]
    bound: Optional[BoundCheck] = None
    fit: Optional[FittedBound] = None

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        kind = cls.__dict__.get("kind", "")
        if kind:
            existing = ExperimentResult._KINDS.get(kind)
            if existing is not None and existing is not cls:
                raise ValueError(f"result kind {kind!r} is already registered")
            ExperimentResult._KINDS[kind] = cls

    @classmethod
    def result_class(cls, kind: str) -> type:
        try:
            return cls._KINDS[kind]
        except KeyError:
            raise ValueError(
                f"unknown artifact kind {kind!r}; known kinds: {sorted(cls._KINDS)}"
            ) from None

    @property
    def series(self) -> Dict[int, float]:  # pragma: no cover - kinds override
        raise NotImplementedError

    @property
    def all_ok(self) -> bool:  # pragma: no cover - kinds override
        raise NotImplementedError

    @property
    def clean(self) -> bool:
        """The exit verdict of every experiment command: every per-point
        check passed and the series stayed inside its asymptotic band."""
        return self.all_ok and (self.bound is None or self.bound.ok)

    def _flags(self) -> Dict[str, bool]:
        """The per-point verdict flags the artifact records."""
        return {"all_ok": self.all_ok}

    @classmethod
    def merged_from_points(
        cls, spec: ExperimentSpec, points: Tuple[Any, ...]
    ) -> "ExperimentResult":
        """Finalise a point set: bound check against the spec's envelope, fit."""
        result = cls(spec=spec, points=points)
        envelope = spec.envelope()
        bound = None
        if envelope is not None:
            size_bound, params = envelope
            bound = BoundCheck.from_check(*size_bound.check_series(result.series, params))
        return replace(result, bound=bound, fit=fit_series(result.series))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": ARTIFACT_SCHEMA,
            "kind": self.kind,
            "spec": self.spec.to_dict(),
            "points": [point.to_dict() for point in self.points],
            "series": {str(n): value for n, value in sorted(self.series.items())},
            **self._flags(),
            "bound": self.bound.to_dict() if self.bound is not None else None,
            "fit": self.fit.to_dict() if self.fit is not None else None,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentResult":
        bound = data.get("bound")
        fit = data.get("fit")
        return cls(
            spec=ExperimentSpec._KINDS[cls.kind].from_dict(data["spec"]),
            points=tuple(cls.point_class.from_dict(p) for p in data["points"]),
            bound=BoundCheck.from_dict(bound) if bound is not None else None,
            fit=FittedBound.from_dict(fit) if fit is not None else None,
        )


class SweepResult(ExperimentResult):
    """Everything a :class:`~repro.experiments.spec.SweepSpec` run produces."""

    kind: ClassVar[str] = "sweep"
    point_class: ClassVar[type] = SweepPoint

    @property
    def series(self) -> Dict[int, int]:
        """Measured honest-certificate bits per size, yes-instances only.

        With repeated sizes the *largest* measurement per size is kept (the
        quantity the paper bounds is the maximum certificate size).
        """
        series: Dict[int, int] = {}
        for point in self.points:
            if point.holds:
                series[point.n] = max(series.get(point.n, 0), point.max_certificate_bits)
        return series

    @property
    def all_accepted(self) -> bool:
        """No yes-instance's honest proof was rejected.

        Vacuously true for ``measure="size"`` sweeps, which never run the
        distributed verifier (``completeness_ok`` is None).
        """
        return all(point.completeness_ok is not False for point in self.points if point.holds)

    @property
    def all_sound(self) -> bool:
        """No no-instance's sampled adversarial assignment was accepted.

        Vacuously true for ``measure="size"`` sweeps, which run no
        adversarial trials (``soundness_ok`` is None).
        """
        return all(point.soundness_ok is not False for point in self.points if not point.holds)

    @property
    def all_ok(self) -> bool:
        return self.all_accepted and self.all_sound

    def _flags(self) -> Dict[str, bool]:
        return {"all_accepted": self.all_accepted, "all_sound": self.all_sound}


def canonical_payload(data: Mapping[str, Any]) -> Dict[str, Any]:
    """An artifact payload with its wall-clock timings normalised away.

    Per-point ``elapsed_s`` is the only field of an artifact that differs
    between two runs of the same experiment (sharded or not, driven or
    not); zeroing it makes artifacts *byte-comparable* — the check the
    shard driver's exactness guarantee and the chaos CI job rest on.
    """
    out = dict(data)
    out["points"] = [
        {**dict(point), "elapsed_s": 0.0} for point in data.get("points", [])
    ]
    return out


def write_artifact(
    result: ExperimentResult, path: str | os.PathLike, canonical: bool = False
) -> Path:
    """Write an experiment result as a JSON artifact; returns the path written.

    ``canonical`` routes the payload through :func:`canonical_payload`, so
    two writes of the same experiment are byte-identical regardless of how
    (or where) the points were executed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = result.to_dict()
    if canonical:
        payload = canonical_payload(payload)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def result_from_payload(data: Mapping[str, Any]) -> ExperimentResult:
    """Re-hydrate an experiment result from its artifact payload.

    The payload is exactly what :meth:`ExperimentResult.to_dict` produced —
    whether it came from a file, an experiment wire response
    (the shard driver's path), or an in-memory round-trip.
    """
    schema = data.get("schema")
    if schema not in _READABLE_SCHEMAS:
        raise ValueError(
            f"artifact payload has schema {schema!r}, expected one of {_READABLE_SCHEMAS}"
        )
    cls = ExperimentResult.result_class(data.get("kind", "sweep"))
    return cls.from_dict(data)


def load_artifact(path: str | os.PathLike) -> ExperimentResult:
    """Load an experiment result previously written by :func:`write_artifact`."""
    try:
        return result_from_payload(json.loads(Path(path).read_text()))
    except ValueError as error:
        raise ValueError(f"artifact {path}: {error}") from None


def _merge_identity(spec: ExperimentSpec) -> ExperimentSpec:
    """A spec reduced to what identifies the *experiment*, not its execution.

    Shards of one experiment may legitimately run with different worker
    counts on different machines (``processes`` does not affect any measured
    value), so it is normalised away alongside the shard itself; the merged
    artifact's spec carries the normalised form.
    """
    spec = spec.unsharded()
    if hasattr(spec, "processes"):
        spec = replace(spec, processes=1)
    return spec


def merge_artifacts(
    parts: Iterable[Union[ExperimentResult, str, os.PathLike]],
) -> ExperimentResult:
    """Stitch the partial artifacts of one sharded experiment back together.

    ``parts`` are results (or paths to artifacts) of runs of the *same*
    experiment under different shards.  The shards must tile the grid
    exactly — every global index covered once — and the merged result is
    re-finalised (bound check, fit) from the union of points, so it equals
    the unsharded run's artifact modulo per-point wall-clock timings.
    """
    results = [
        part if isinstance(part, ExperimentResult) else load_artifact(part)
        for part in parts
    ]
    if not results:
        raise ValueError("merge_artifacts needs at least one partial result")
    kinds = {type(result) for result in results}
    if len(kinds) > 1:
        raise ValueError(
            f"cannot merge artifacts of different kinds: {sorted(c.kind for c in kinds)}"
        )
    spec = _merge_identity(results[0].spec)
    if any(_merge_identity(result.spec) != spec for result in results[1:]):
        raise ValueError("cannot merge artifacts of different experiments")

    by_index: Dict[int, Any] = {}
    for result in results:
        for point in result.points:
            if point.index in by_index:
                raise ValueError(f"grid point {point.index} is covered by two shards")
            by_index[point.index] = point
    expected = set(range(len(spec.sizes)))
    missing = sorted(expected - set(by_index))
    if missing:
        raise ValueError(f"merged shards do not cover grid point(s) {missing}")
    extra = sorted(set(by_index) - expected)
    if extra:
        raise ValueError(f"merged shards cover out-of-grid point(s) {extra}")

    points = tuple(by_index[index] for index in sorted(by_index))
    return type(results[0]).merged_from_points(spec, points)
