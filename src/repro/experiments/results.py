"""Artifact aggregation: EXPERIMENTS.md tables and the regression gate.

Every experiment leaves a JSON artifact behind (``sweep_*.json``,
``lb_*.json``, ``radius_*.json``, ``kernel_*.json``, ``formula_*.json``).
This module is the read side of the pipeline:

* :func:`collect_artifacts` loads every artifact under a directory;
* :func:`render_experiments_md` turns them into one uniform markdown table
  — label, kind, measured series, closed-form bound verdict and fitted
  exponent side by side (the repo-level ``EXPERIMENTS.md``);
* :func:`compare_to_baseline` diffs the measured series against a committed
  baseline file and reports **regressions**: an upper-bound (sweep) series
  that *grew* at any size, or a lower-bound series that *shrank* — either
  means a code change silently weakened a result the repo used to have.

The baseline is a small committed JSON file (see ``benchmarks/baselines/``)
mapping artifact labels to their expected series; update it deliberately
with ``python -m repro.cli results --write-baseline`` when a change in
measured sizes is intended, and let CI fail when it is not.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.experiments.artifacts import ExperimentResult, load_artifact
from repro.experiments.spec import ExperimentSpec


def artifact_patterns() -> Tuple[str, ...]:
    """Artifact filename patterns the aggregation picks up, in rendering
    order: one ``<prefix>_*.json`` per registered experiment kind."""
    return tuple(f"{cls.artifact_prefix}_*.json" for cls in ExperimentSpec._KINDS.values())


#: Version tag of the committed baseline file layout.
BASELINE_SCHEMA = 1

#: Default baseline filename (inside ``--check``/``--write-baseline`` dirs).
BASELINE_FILENAME = "baselines.json"

#: Absolute slack (bits) granted to lower-bound series before a shrink
#: counts as a regression — their entries are floats and may move by
#: rounding; measured sweep series are integers and get no slack.
LOWER_BOUND_TOLERANCE = 1e-6


def collect_artifacts(directory: str | os.PathLike) -> List[Tuple[Path, ExperimentResult]]:
    """Load every experiment artifact under ``directory`` (sorted by name).

    Files matching :func:`artifact_patterns` that are not loadable artifacts
    (e.g. a foreign ``sweep_…json``) raise — a corrupt artifact should stop
    the gate, not silently vanish from it.  Partial (sharded) artifacts are
    skipped: they are inputs to ``merge_artifacts``, not results.
    """
    directory = Path(directory)
    found: List[Tuple[Path, ExperimentResult]] = []
    for pattern in artifact_patterns():
        for path in sorted(directory.glob(pattern)):
            result = load_artifact(path)
            if result.spec.shard is not None:
                continue
            found.append((path, result))
    return found


# ---------------------------------------------------------------------------
# EXPERIMENTS.md rendering
# ---------------------------------------------------------------------------


def _series_cell(result: ExperimentResult) -> str:
    series = result.series
    if not series:
        return "(no yes-instances)"
    parts = []
    for size in sorted(series):
        value = series[size]
        rendered = str(value) if isinstance(value, int) else f"{value:.1f}"
        parts.append(f"{size}→{rendered}")
    return ", ".join(parts)


def _bound_cell(result: ExperimentResult) -> str:
    if result.bound is None:
        return "—"
    verdict = "ok" if result.bound.ok else "**VIOLATED**"
    return f"{result.bound.label} ({verdict})"


def _fit_cell(result: ExperimentResult) -> str:
    if result.fit is None:
        return "—"
    return f"{result.fit.label} (a={result.fit.exponent:.2f}, R²={result.fit.r_squared:.2f})"


def _clean_cell(result: ExperimentResult) -> str:
    return "yes" if result.all_ok else "**NO**"


def render_experiments_md(
    artifacts: Sequence[Tuple[Path, ExperimentResult]],
    title: str = "Experiments",
    routing_drift: Sequence[str] = (),
) -> str:
    """One markdown table over all artifacts: the repo's results catalogue."""
    lines = [
        f"# {title}",
        "",
        "Generated by `python -m repro.cli results` from the experiment",
        "artifacts in this directory.  *Series* maps grid size to measured",
        "certificate bits (sweeps) or to the implied Ω-bound bits",
        "(lower-bound searches); *bound* is the closed-form verdict against",
        "the registered asymptotic envelope; *fit* is the regression",
        "exponent actually measured.",
        "",
        "| label | kind | clean | series | bound | fit |",
        "|---|---|---|---|---|---|",
    ]
    for _, result in artifacts:
        lines.append(
            "| {label} | {kind} | {clean} | {series} | {bound} | {fit} |".format(
                label=result.spec.label,
                kind=result.kind,
                clean=_clean_cell(result),
                series=_series_cell(result),
                bound=_bound_cell(result),
                fit=_fit_cell(result),
            )
        )
    lines.append("")
    if routing_drift:
        lines.extend(
            [
                "## Routing drift",
                "",
                "Points whose resolved engine differs from the routing the",
                "committed baseline recorded.  Informational: engines are",
                "verdict-equivalent, so drift cannot change a result — it",
                "usually means a recalibration or a planner change.",
                "",
            ]
        )
        lines.extend(f"- {entry}" for entry in routing_drift)
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Baselines and the regression gate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Regression:
    """One series entry that moved the wrong way relative to the baseline."""

    label: str
    kind: str
    size: int
    baseline: float
    measured: float

    def describe(self) -> str:
        direction = "grew" if self.measured > self.baseline else "shrank"
        return (
            f"{self.label} ({self.kind}) at size {self.size}: "
            f"{direction} from {self.baseline:g} to {self.measured:g} bits"
        )


@dataclass
class BaselineReport:
    """Outcome of diffing measured artifacts against a committed baseline."""

    regressions: List[Regression] = field(default_factory=list)
    improvements: List[Regression] = field(default_factory=list)
    missing_labels: List[str] = field(default_factory=list)
    """Baseline entries with no measured artifact this run."""
    new_labels: List[str] = field(default_factory=list)
    """Measured artifacts the baseline does not know yet."""
    kind_mismatches: List[str] = field(default_factory=list)
    """Labels whose measured kind disagrees with the baseline's record —
    the comparison direction would be meaningless, so the gate fails."""
    routing_drift: List[str] = field(default_factory=list)
    """Points whose resolved engine differs from the baseline's recorded
    routing — informational (engines are verdict-equivalent by contract;
    drift usually means a recalibration or a planner change), never a
    gate failure."""

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.kind_mismatches


def baseline_path(path: str | os.PathLike) -> Path:
    """Resolve a baseline argument: a ``.json`` file, or a directory holding
    the default :data:`BASELINE_FILENAME` (the directory need not exist yet
    when writing)."""
    path = Path(path)
    if path.is_dir() or path.suffix != ".json":
        return path / BASELINE_FILENAME
    return path


def write_baseline(
    artifacts: Sequence[Tuple[Path, ExperimentResult]], path: str | os.PathLike
) -> Path:
    """Record the measured series of every artifact as the new baseline."""
    path = baseline_path(path)
    entries = {}
    for _, result in artifacts:
        entry = {
            "kind": result.kind,
            "series": {str(size): value for size, value in sorted(result.series.items())},
        }
        routing = _routing_of(result)
        if routing:
            entry["routing"] = routing
        entries[result.spec.label] = entry
    payload = {"schema": BASELINE_SCHEMA, "experiments": entries}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _routing_of(result: ExperimentResult) -> Dict[str, str]:
    """``size → engine_resolved`` over the points that record one."""
    routing: Dict[str, str] = {}
    for point in getattr(result, "points", ()):
        engine = getattr(point, "engine_resolved", None)
        if engine is not None:
            # Sweep points call the grid coordinate ``n``, lower-bound
            # points call it ``size``.
            size = getattr(point, "n", None)
            if size is None:
                size = point.size
            routing[str(size)] = engine
    return routing


def load_baseline(path: str | os.PathLike) -> Dict[str, Dict]:
    path = baseline_path(path)
    data = json.loads(Path(path).read_text())
    if data.get("schema") != BASELINE_SCHEMA:
        raise ValueError(
            f"baseline {path} has schema {data.get('schema')!r}, expected {BASELINE_SCHEMA}"
        )
    return dict(data["experiments"])


def compare_to_baseline(
    artifacts: Sequence[Tuple[Path, ExperimentResult]],
    baseline: Union[str, os.PathLike, Dict[str, Dict]],
) -> BaselineReport:
    """Diff measured series against the baseline; regressions by kind.

    A **sweep** series regresses when any measured size exceeds its baseline
    (certificates got bigger); a **lower-bound** series regresses when any
    entry drops below its baseline (the implied bound got weaker).  Sizes
    present on only one side are ignored — grids may legitimately grow or
    shrink; changing them alongside an intended size change is what
    ``--write-baseline`` is for.
    """
    if not isinstance(baseline, dict):
        baseline = load_baseline(baseline)
    measured_labels = {result.spec.label for _, result in artifacts}
    report = BaselineReport()
    report.missing_labels = sorted(set(baseline) - measured_labels)
    report.new_labels = sorted(measured_labels - set(baseline))
    # Diff every artifact, not a label-keyed dict: if two artifacts share a
    # label, both are checked against the same baseline entry — a regression
    # in either must fail the gate.
    for _, result in artifacts:
        label = result.spec.label
        if label not in baseline:
            continue
        expected_kind = baseline[label].get("kind")
        if expected_kind is not None and expected_kind != result.kind:
            report.kind_mismatches.append(
                f"{label!r} is a {result.kind} artifact but the baseline "
                f"records a {expected_kind} series"
            )
            continue
        expected = {int(size): float(v) for size, v in baseline[label]["series"].items()}
        actual = {int(size): float(v) for size, v in result.series.items()}
        lower_is_worse = result.kind == "lower-bound"
        for size in sorted(set(expected) & set(actual)):
            delta = actual[size] - expected[size]
            if lower_is_worse:
                worse = delta < -LOWER_BOUND_TOLERANCE
                better = delta > LOWER_BOUND_TOLERANCE
            else:
                worse = delta > 0
                better = delta < 0
            if worse or better:
                entry = Regression(
                    label=label,
                    kind=result.kind,
                    size=size,
                    baseline=expected[size],
                    measured=actual[size],
                )
                (report.regressions if worse else report.improvements).append(entry)
        expected_routing = baseline[label].get("routing") or {}
        actual_routing = _routing_of(result)
        for size in sorted(
            set(map(int, expected_routing)) & set(map(int, actual_routing))
        ):
            recorded = expected_routing[str(size)]
            resolved = actual_routing[str(size)]
            if recorded != resolved:
                report.routing_drift.append(
                    f"{label} ({result.kind}) at size {size}: routed to "
                    f"{resolved} (baseline recorded {recorded})"
                )
    return report
