"""Execute any :class:`~repro.experiments.spec.ExperimentSpec`: the one run loop.

One grid point = one :meth:`~repro.experiments.spec.ExperimentSpec.run_point`
call.  Points are independent by construction — each derives its own seed
from ``(experiment seed, index)`` — which is what makes the
``multiprocessing`` fan-out below trivial and any sub-range shardable: a
worker (or a whole machine running ``shard=(i, k)``) needs nothing but the
spec and a global point index.  Every kind therefore gets validation,
cooperative cancellation, progress reporting, process fan-out and the
merge into a finalised result from this one loop.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import replace
from typing import Any, Callable, Optional, Tuple

from repro.experiments.artifacts import ExperimentResult
from repro.experiments.spec import ExperimentSpec, raise_if_stopped


def _run_point_task(task: Tuple[dict, int]) -> Any:
    """Worker entry point: rebuild the spec from its dict and run one point.

    Only plain data crosses the process boundary — schemes are re-created
    from the registry inside the worker, so nothing unpicklable (automata,
    closures, caches) ever has to be serialised.
    """
    spec_dict, index = task
    return ExperimentSpec.from_dict(spec_dict).run_point(index)


def run_experiment(
    spec: ExperimentSpec,
    *,
    shard: Optional[Tuple[int, int]] = None,
    processes: Optional[int] = None,
    should_stop: Optional[Callable[[], Optional[str]]] = None,
    on_point: Optional[Callable[[Any], None]] = None,
) -> ExperimentResult:
    """Execute an experiment (or one shard of it) and judge the measured series.

    ``shard`` overrides ``spec.shard``: shard ``(i, k)`` runs only the grid
    points with global index ≡ i (mod k), keeping their global indices and
    derived seeds, and records the shard in the result's spec.  Partial
    results from a complete set of shards merge back into the unsharded
    artifact via :func:`repro.experiments.artifacts.merge_artifacts`.

    ``processes`` overrides the spec's own ``processes`` field (kinds
    without one default to 1); with more than one process the grid points
    fan out across a ``multiprocessing`` pool.  The result is identical
    either way — workers derive the same per-point seeds.

    ``should_stop`` is a cooperative stop-check (see
    :func:`~repro.experiments.spec.raise_if_stopped`) polled between grid
    points; when it fires the run raises
    :class:`~repro.experiments.spec.ExperimentCancelled` instead of
    grinding through the rest of the grid.

    ``on_point`` is an optional progress sink invoked with each completed
    point as it lands (in grid order).  A run interrupted by ``should_stop``
    has therefore already reported every finished point, which is what lets
    the service salvage partial shard progress into a structured timeout
    answer.

    The finalised result carries both bound judgements: the closed-form
    :class:`~repro.experiments.artifacts.BoundCheck` verdict against the
    spec's envelope and the :class:`~repro.experiments.bounds.FittedBound`
    regression exponent of the series.
    """
    if shard is not None:
        spec = replace(spec, shard=shard)
    spec.validate()
    raise_if_stopped(should_stop)
    if processes is None:
        processes = getattr(spec, "processes", 1)
    indices = spec.shard_indices()
    points = []

    def land(point: Any) -> None:
        points.append(point)
        if on_point is not None:
            on_point(point)

    if processes > 1 and len(indices) > 1:
        tasks = [(spec.to_dict(), index) for index in indices]
        with multiprocessing.Pool(processes=min(processes, len(tasks))) as pool:
            # imap keeps grid order and lets the stop-check run between
            # arrivals; leaving the ``with`` block on cancellation terminates
            # the pool, so orphaned points stop with the run.
            for point in pool.imap(_run_point_task, tasks):
                land(point)
                raise_if_stopped(should_stop)
    else:
        for index in indices:
            raise_if_stopped(should_stop)
            land(spec.run_point(index))
    result_class = ExperimentResult.result_class(spec.kind)
    return result_class.merged_from_points(spec, tuple(points))
