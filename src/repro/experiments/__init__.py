"""Declarative experiment orchestration: the repo's measurement pipeline.

Every number the repo reports — an upper-bound certificate-size series, a
lower-bound Ω(·) series, a radius-ablation check — is produced by running a
declarative *spec* and lands in the same JSON artifact shape:

* :class:`~repro.experiments.spec.ExperimentSpec` is the shared backbone
  (size grid, per-point derived seeds, ``shard=(i, k)`` execution, JSON
  round-trip with kind dispatch);
* :class:`~repro.experiments.spec.SweepSpec` measures a certificate-size
  series of one registered scheme over one graph family;
* :class:`~repro.experiments.formula.FormulaSpec` measures the same series
  for an ad-hoc MSO formula compiled on the fly;
* :class:`~repro.experiments.lower_bound.LowerBoundSpec` runs a Section 7.1
  reduction-framework search (bound series, gadget dichotomy, Alice/Bob
  protocol simulation);
* :class:`~repro.experiments.radius.RadiusSpec` runs the Appendix A.1
  radius-r verification series;
* :class:`~repro.experiments.kernel.KernelSpec` runs a Section 6 kernel-size
  series (Proposition 6.2 saturation, optional EF-game equivalence);
* :func:`~repro.experiments.runner.run_experiment` runs any of them — one
  loop with validation, cooperative stop-checks, progress reporting and
  ``multiprocessing`` fan-out for every kind;
* :mod:`~repro.experiments.artifacts` serialises results (with both the
  closed-form :class:`BoundCheck` verdict and the fitted regression
  exponent of :mod:`~repro.experiments.bounds`) and merges sharded partial
  artifacts (:func:`merge_artifacts`);
* :mod:`~repro.experiments.results` aggregates artifacts into
  ``EXPERIMENTS.md`` tables and gates them against a committed baseline.

Example::

    from repro.experiments import SweepSpec, run_experiment, write_artifact

    spec = SweepSpec(scheme="treedepth", params={"t": 3},
                     family="bounded-treedepth", sizes=(3, 3, 3), trials=10)
    result = run_experiment(spec)
    print(result.series, result.bound.ok, result.fit)
    write_artifact(result, spec.artifact_name())

Sharded execution (e.g. across two machines)::

    part0 = run_experiment(spec, shard=(0, 2))
    part1 = run_experiment(spec, shard=(1, 2))
    assert merge_artifacts([part0, part1]).series == result.series
"""

from repro.experiments.artifacts import (
    BoundCheck,
    ExperimentResult,
    SweepResult,
    canonical_payload,
    load_artifact,
    merge_artifacts,
    result_from_payload,
    write_artifact,
)
from repro.experiments.bounds import FittedBound, fit_series

# Kinds register on import (the sweep kind with ``spec``), so this order is
# the row order of the ``results`` aggregation.
from repro.experiments.lower_bound import LowerBoundPoint, LowerBoundResult, LowerBoundSpec
from repro.experiments.radius import RadiusPoint, RadiusResult, RadiusSpec
from repro.experiments.kernel import KernelPoint, KernelResult, KernelSpec
from repro.experiments.formula import FormulaResult, FormulaSpec
from repro.experiments.results import (
    BaselineReport,
    Regression,
    collect_artifacts,
    compare_to_baseline,
    render_experiments_md,
    write_baseline,
)
from repro.experiments.runner import run_experiment
from repro.experiments.spec import (
    ExperimentCancelled,
    ExperimentSpec,
    SweepPoint,
    SweepSpec,
    raise_if_stopped,
)

__all__ = [
    "BaselineReport",
    "BoundCheck",
    "ExperimentCancelled",
    "ExperimentResult",
    "ExperimentSpec",
    "FittedBound",
    "FormulaResult",
    "FormulaSpec",
    "KernelPoint",
    "KernelResult",
    "KernelSpec",
    "LowerBoundPoint",
    "LowerBoundResult",
    "LowerBoundSpec",
    "RadiusPoint",
    "RadiusResult",
    "RadiusSpec",
    "Regression",
    "SweepPoint",
    "SweepResult",
    "SweepSpec",
    "canonical_payload",
    "collect_artifacts",
    "compare_to_baseline",
    "fit_series",
    "load_artifact",
    "merge_artifacts",
    "raise_if_stopped",
    "render_experiments_md",
    "result_from_payload",
    "run_experiment",
    "write_artifact",
    "write_baseline",
]
