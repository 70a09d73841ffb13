"""Shared helpers for the benchmark suite.

Every benchmark module reproduces one experiment from DESIGN.md §3 (one
theorem, figure or construction of the paper).  Since the paper is a theory
paper, "reproducing a figure" means: instantiate the construction, measure
real certificate sizes (bits per vertex) across a range of ``n``, check
completeness/soundness on the instances, and print the resulting series so it
can be compared against the claimed asymptotic shape.  The printed lines are
collected into EXPERIMENTS.md.

Benchmarks whose experiment is a straight sweep — one registered scheme, one
graph family, a grid of sizes — declare a
:class:`~repro.experiments.SweepSpec` and run it through
:func:`sweep_series`/:func:`sweep_result` below instead of hand-rolling the
measurement loop; only experiments over bespoke instances (planted gadgets,
kernel internals, lower-bound constructions) still build graphs by hand.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Sequence, Tuple

import networkx as nx

from repro import api
from repro.core.cache import cached_identifiers
from repro.core.scheme import CertificationScheme, evaluate_scheme
from repro.experiments import (
    KernelResult,
    KernelSpec,
    LowerBoundResult,
    LowerBoundSpec,
    RadiusResult,
    RadiusSpec,
    SweepResult,
    SweepSpec,
    result_from_payload,
    run_experiment,
)
from repro.service.messages import ErrorResponse, ExperimentRequest


def measure_scheme_sizes(
    scheme: CertificationScheme,
    instances: Dict[int, nx.Graph],
    seed: int = 0,
) -> Dict[int, int]:
    """Max certificate bits of the honest proof for each instance, keyed by n."""
    sizes: Dict[int, int] = {}
    for key, graph in sorted(instances.items()):
        sizes[key] = scheme.max_certificate_bits(graph, ids=cached_identifiers(graph, seed))
    return sizes


def check_instances(
    scheme: CertificationScheme,
    yes_instances: Iterable[nx.Graph] = (),
    no_instances: Iterable[nx.Graph] = (),
    seed: int = 0,
    engine: str = "compiled",
) -> None:
    """Assert completeness on yes-instances and sampled soundness on no-instances.

    Runs on the compile-once engine by default so repeated sweeps over the
    same instances reuse topology, identifier and ground-truth caches.
    """
    for graph in yes_instances:
        report = evaluate_scheme(scheme, graph, seed=seed, engine=engine)
        assert report.holds and report.completeness_ok, scheme.name
    for graph in no_instances:
        report = evaluate_scheme(scheme, graph, seed=seed, engine=engine)
        assert not report.holds and report.soundness_ok, scheme.name


def print_series(title: str, series: Dict[int, float], unit: str = "bits") -> None:
    """Print one reproduced series in a stable, grep-friendly format."""
    print(f"\n[{title}]")
    for key in sorted(series):
        print(f"  n={key:>6}  {series[key]:>10.1f} {unit}")


def log2(n: int) -> float:
    return math.log2(max(2, n))


def prove_and_verify_once(
    scheme: CertificationScheme, graph: nx.Graph, seed: int = 0, engine: str = "compiled"
) -> bool:
    """One full prove + distributed-verify round; used as the timed kernel."""
    report = evaluate_scheme(scheme, graph, seed=seed, engine=engine)
    return bool(report.completeness_ok)


# ---------------------------------------------------------------------------
# Declarative sweeps (the SweepSpec-based benchmark path)
# ---------------------------------------------------------------------------


def sweep_result(spec: SweepSpec) -> SweepResult:
    """Run a sweep and assert it is clean.

    Clean means: honest proofs accepted on every yes-instance, sampled
    adversaries rejected on every no-instance, and — when the spec checks it
    — the measured series within the registered asymptotic bound.

    Sweeps route through the process-wide certification service (the
    :mod:`repro.api` facade), so every benchmark in a session shares one set
    of warm topology/ground-truth caches and shows up in ``api.stats()``.
    """
    response = api.respond(ExperimentRequest(spec=spec))
    if isinstance(response, ErrorResponse):
        raise RuntimeError(f"{spec.label}: [{response.code}] {response.message}")
    result = result_from_payload(response.result)
    assert result.all_accepted, f"{spec.label}: an honest proof was rejected"
    assert result.all_sound, f"{spec.label}: an adversarial assignment was accepted"
    if result.bound is not None:
        assert result.bound.ok, (
            f"{spec.label}: series {result.series} violates {result.bound.label} "
            f"(spread {result.bound.spread:.2f} > slack {result.bound.slack})"
        )
    return result


def sweep_series(spec: SweepSpec) -> Dict[int, int]:
    """The measured yes-instance size series of a clean sweep (n → bits)."""
    return sweep_result(spec).series


def sweep_series_by_vertices(spec: SweepSpec) -> Dict[int, int]:
    """Like :func:`sweep_series`, but keyed by actual vertex count.

    Useful for families whose grid coordinate is not the vertex count
    (``binary-tree`` depth, ``triangle-chain`` length, random families).
    """
    series: Dict[int, int] = {}
    for point in sweep_result(spec).points:
        if point.holds:
            series[point.vertices] = max(
                series.get(point.vertices, 0), point.max_certificate_bits
            )
    return series


def merged_sweep_series(specs: Iterable[SweepSpec]) -> Dict[int, int]:
    """Union of single-family sweep series — for grids whose scheme
    parameters vary with ``n`` beyond what ``$n`` templating expresses
    (e.g. treedepth t = ⌈log₂(n+1)⌉ on paths)."""
    series: Dict[int, int] = {}
    for spec in specs:
        series.update(sweep_series(spec))
    return series


def lower_bound_result(spec: LowerBoundSpec) -> LowerBoundResult:
    """Run a declarative lower-bound search and assert it is clean.

    Clean means: every dichotomy/protocol check that ran passed, and — when
    the spec checks it — the Ω-bound series tracks the construction's
    expected asymptotic shape.
    """
    result = run_experiment(spec)
    assert result.all_ok, f"{spec.label}: a dichotomy or protocol check failed"
    if result.bound is not None:
        assert result.bound.ok, (
            f"{spec.label}: bound series {result.series} violates "
            f"{result.bound.label} (spread {result.bound.spread:.2f} > "
            f"slack {result.bound.slack})"
        )
    return result


def lower_bound_series(spec: LowerBoundSpec) -> Dict[int, float]:
    """The ``size → Ω-bound bits`` series of a clean lower-bound search."""
    return lower_bound_result(spec).series


def radius_result(spec: RadiusSpec) -> RadiusResult:
    """Run a declarative radius-r verification series; every decision must
    match the instance's actual diameter."""
    result = run_experiment(spec)
    assert result.all_ok, (
        f"{spec.label}: the radius-{spec.effective_radius} verifier decided "
        f"some instance incorrectly"
    )
    return result


def kernel_result(spec: KernelSpec) -> KernelResult:
    """Run a declarative kernel-size series and assert it is clean.

    Clean means: the pruned kernel's restricted elimination tree is still a
    valid model, and every EF-game equivalence check that ran passed.
    """
    result = run_experiment(spec)
    assert result.all_ok, (
        f"{spec.label}: a kernel validity or EF-equivalence check failed"
    )
    return result


def kernel_series(spec: KernelSpec) -> Dict[int, int]:
    """The ``size → kernel size`` series of a clean kernel run."""
    return kernel_result(spec).series


def sweep_check(
    scheme: str,
    params: Dict[str, object],
    cases: Sequence[Tuple[str, int, bool]],
    trials: int = 20,
    seed: int = 0,
) -> None:
    """Check expected yes/no classification across families, via sweeps.

    ``cases`` is a sequence of ``(family, size, expect_holds)`` triples; each
    runs as a one-point sweep (bound checks off — single points carry no
    shape information) and must come back clean with the expected
    classification.
    """
    for family, size, expect_holds in cases:
        spec = SweepSpec(
            scheme=scheme,
            params=params,
            family=family,
            sizes=(size,),
            trials=trials,
            seed=seed,
            check_bound=False,
        )
        result = sweep_result(spec)
        point = result.points[0]
        assert point.holds == expect_holds, (
            f"{scheme} on {family}:{size}: holds={point.holds}, "
            f"expected {expect_holds}"
        )
