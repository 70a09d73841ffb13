"""Command-line interface: certify properties of a graph from the shell.

Every scheme known to the :mod:`repro.registry` catalogue is available here
— ``list`` prints the catalogue (name, parameters, certificate-size bound,
paper reference), ``certify`` runs one scheme on one graph, and ``sweep``
runs a declarative size sweep through :mod:`repro.experiments`.

Usage examples::

    python -m repro.cli list
    python -m repro.cli certify --scheme treedepth --param t=3 --graph path:15
    python -m repro.cli certify --scheme mso-trees --param automaton=perfect-matching \\
        --graph path:8 --json
    python -m repro.cli certify --scheme bipartite --graph file:edges.txt --seed 7

Graphs are described by ``family:size`` specifiers (see ``list`` for the
full family catalogue) or by ``file:PATH`` pointing at an edge list (one
``u v`` pair per line).  ``certify`` prints whether the property holds,
whether the honest proof was accepted by the radius-1 verifier, and the
maximum certificate size in bits — the quantity the paper is about; with
``--json`` the same result is printed machine-readable.

``certify`` is a thin shell over the long-lived certification service of
:mod:`repro.service`: the request becomes a typed
:class:`~repro.service.messages.CertifyRequest`, the verdict is the typed
response's canonical JSON payload, and expected failures (unknown scheme,
bad parameter, unresolvable graph, an undecidable ground truth) exit with a
structured message instead of a traceback.  The experiment commands
(``sweep``, ``formula``, ``lower-bound``, ``kernel``) take the same front
door: each builds a spec and sends it as one
:class:`~repro.service.messages.ExperimentRequest`.

Serving certification
---------------------

``serve`` keeps that service resident and speaks its JSON-lines wire
protocol — one request object per line in, one response per line out, with
compiled topologies, ground-truth decisions and scheme instances cached
across requests::

    printf '%s\\n' \\
      '{"op":"certify","scheme":"treedepth","params":{"t":3},"graph":"path:7"}' \\
      '{"op":"stats"}' '{"op":"shutdown"}' | python -m repro.cli serve

    python -m repro.cli serve --tcp 127.0.0.1:8765   # localhost TCP mode

The ``certify`` subcommand and the ``serve`` protocol share one code path,
so ``certify --json`` and a wire ``certify`` request produce byte-identical
verdicts.  Talk to a server programmatically with
:class:`repro.service.ServiceClient` (see ``examples/service_quickstart.py``).

Running sweeps
--------------

``sweep`` measures a whole certificate-size series in one invocation: pick a
scheme, a graph family and a grid of sizes, and the runner evaluates every
instance on the compile-once engine (fanning out across processes with
``--processes``), checks the measured series against the scheme's registered
asymptotic bound, and writes a JSON artifact::

    python -m repro.cli sweep --scheme tree --family random-tree \\
        --sizes 8,32,128 --trials 10 --output sweep_tree.json
    python -m repro.cli sweep --scheme spanning-tree-count --param expected_n='$n' \\
        --family random-connected --sizes 8,16,32,64

Parameter values may use the literal ``$n`` template, substituted with each
grid point's size.  Every grid point derives an independent seed from
``(--seed, index)``, so sweeps are reproducible point-by-point and shardable
across machines.  The exit status is non-zero when a yes-instance's honest
proof is rejected, a no-instance's sampled adversary is accepted, or the
measured series violates the registered bound.

Sharding, lower bounds and the regression gate
----------------------------------------------

``sweep --shard 0/2`` runs only grid points ``0, 2, 4, ...`` (global indices
and per-point seeds unchanged) and writes a partial artifact; ``merge``
stitches the partial artifacts of a complete shard set back into the
unsharded run's artifact::

    python -m repro.cli sweep --scheme tree --family random-tree \\
        --sizes 8,16,32,64 --shard 0/2 --output part0.json
    python -m repro.cli sweep --scheme tree --family random-tree \\
        --sizes 8,16,32,64 --shard 1/2 --output part1.json
    python -m repro.cli merge --output sweep_tree.json part0.json part1.json

``lower-bound`` runs the matching Ω(·) side — a Section 7 reduction-framework
search — through the same artifact pipeline::

    python -m repro.cli lower-bound --construction treedepth \\
        --sizes 8,32,128,512 --no-dichotomy --output lb_treedepth.json

``results`` aggregates every artifact in a directory into an EXPERIMENTS.md
table and, with ``--check``, diffs the measured series against a committed
baseline — exiting non-zero when an upper-bound series grew or a lower-bound
series shrank (the regression gate CI runs)::

    python -m repro.cli results --dir . --output EXPERIMENTS.md \\
        --check benchmarks/baselines
    python -m repro.cli results --dir . --write-baseline benchmarks/baselines
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

import networkx as nx

from repro import api
from repro.experiments import (
    ExperimentResult,
    ExperimentSpec,
    FormulaSpec,
    KernelSpec,
    LowerBoundSpec,
    SweepSpec,
    collect_artifacts,
    compare_to_baseline,
    load_artifact,
    merge_artifacts,
    render_experiments_md,
    result_from_payload,
    write_artifact,
    write_baseline,
)
from repro.experiments.results import artifact_patterns
from repro.formulas import FormulaError, resolve_formula_params
from repro.engines import VALID_ENGINES
from repro.lower_bounds.catalog import LOWER_BOUND_CONSTRUCTIONS
from repro.graphs.generators import (
    GRAPH_FAMILIES,
    GRAPH_FAMILY_SIZE_MEANING,
    GraphSpecError,
    build_graph_spec,
)
from repro.registry import REGISTRY, RegistryError
from repro.service.core import CertificationService
from repro.service.driver import DriverError, LocalFleet, ShardDriver
from repro.service.faults import FaultInjector, FaultSpecError
from repro.service.supervisor import FleetSupervisor
from repro.service.messages import CertifyRequest, ErrorResponse, ExperimentRequest
from repro.service.protocol import DEFAULT_MAX_REQUEST_BYTES, serve_stdio, serve_tcp


def build_graph(spec: str, seed: int = 0) -> nx.Graph:
    """Resolve a graph specifier, turning resolution errors into clean exits."""
    try:
        return build_graph_spec(spec, seed=seed)
    except GraphSpecError as error:
        raise SystemExit(f"error: {error}") from error


def parse_raw_params(entries: Optional[List[str]]) -> Dict[str, str]:
    """Parse repeated ``--param`` flags without a registry scheme to lean on.

    Formula requests have no registered parameter catalogue, so every entry
    must be explicit ``key=value`` (the compilation knobs: t, k, route,
    model).
    """
    params: Dict[str, str] = {}
    for entry in entries or []:
        key, eq, value = entry.partition("=")
        key = key.strip()
        if not eq or not key:
            raise SystemExit(
                f"malformed --param {entry!r}; formula parameters must be "
                "key=value (t, k, route, model)"
            )
        params[key] = value
    return params


def parse_params(entries: Optional[List[str]], scheme: str) -> Dict[str, str]:
    """Parse repeated ``--param`` flags into a raw parameter mapping.

    Each entry is ``key=value``; a bare ``value`` is shorthand for the
    scheme's single required parameter (so ``--scheme treedepth --param 3``
    keeps working alongside the explicit ``--param t=3``).
    """
    info = REGISTRY.get(scheme)
    params: Dict[str, str] = {}
    required = [spec.name for spec in info.params if spec.required]
    for entry in entries or []:
        if "=" in entry:
            key, _, value = entry.partition("=")
            key = key.strip()
            if not key:
                raise SystemExit(f"malformed --param {entry!r}; use key=value")
            params[key] = value
        elif len(required) == 1:
            params[required[0]] = entry
        else:
            raise SystemExit(
                f"scheme {scheme!r} has no single required parameter; "
                f"use --param key=value (parameters: "
                f"{', '.join(spec.name for spec in info.params) or 'none'})"
            )
    return params


def cmd_list(_: argparse.Namespace) -> int:
    print(f"available schemes (--scheme), {len(REGISTRY)} registered:")
    for info in REGISTRY:
        params = " ".join(
            f"{spec.name}{'*' if spec.required else ''}" for spec in info.params
        )
        params = f"  params: {params}" if params else ""
        print(f"  {info.key:<20} {info.bound.label:<12} {info.summary}")
        print(f"  {'':<20} {'':<12} [{info.paper}]{params}")
    print("\ngraph families (--graph / --family):")
    print(
        "  "
        + " ".join(
            f"{family}:{GRAPH_FAMILY_SIZE_MEANING.get(family, 'N')}"
            for family in sorted(GRAPH_FAMILIES)
        )
    )
    print("  file:PATH (edge list, one 'u v' pair per line)")
    print("\nlower-bound constructions (lower-bound --construction):")
    for key in sorted(LOWER_BOUND_CONSTRUCTIONS):
        construction = LOWER_BOUND_CONSTRUCTIONS[key]
        print(f"  {key:<20} {construction.bound.label:<12} {construction.summary}")
        print(f"  {'':<20} {'':<12} [{construction.paper}]")
    print("\nparameters marked * are required; pass them as --param key=value")
    return 0


def certify_request(args: argparse.Namespace) -> CertifyRequest:
    """The typed service request a ``certify`` invocation describes.

    Parameter-shorthand errors and unknown schemes exit here with a clean
    message (the registry's close-match suggestions included).  With
    ``--formula`` the ``--param`` entries are the compilation knobs and
    never touch the registry.
    """
    try:
        if args.scheme is not None:
            params = parse_params(args.param, args.scheme)
        else:
            # Formula knobs (or the neither-set case, which the request's
            # own validation rejects with the canonical message below).
            params = parse_raw_params(args.param)
    except RegistryError as error:
        raise SystemExit(f"error: {error}") from error
    try:
        return CertifyRequest(
            scheme=args.scheme,
            formula=args.formula,
            graph=args.graph,
            params=params,
            seed=args.seed,
            trials=args.trials,
            engine=args.engine,
            include_certificates=args.verbose,
        )
    except ValueError as error:
        # --scheme and --formula are mutually exclusive (and one is
        # required); the request's own validation words the message.
        raise SystemExit(f"error: {error}") from error


def cmd_certify(args: argparse.Namespace) -> int:
    """One service call: the same request/verdict path ``serve`` speaks.

    Expected failures (bad parameter, unresolvable graph, an undecidable
    ground truth) arrive as structured error responses and exit non-zero
    with their message — never a traceback.
    """
    response = api.respond(certify_request(args))
    if isinstance(response, ErrorResponse):
        raise SystemExit(f"error: {response.message}")
    failed = not response.verdict_ok
    if args.json:
        print(response.to_json(indent=2))
        return 1 if failed else 0
    print(f"scheme:     {response.scheme}")
    print(f"graph:      {response.graph} ({response.vertices} vertices, "
          f"{response.edges} edges)")
    if response.engine_resolved is not None and response.engine_resolved != response.engine:
        print(f"engine:     {response.engine} (ran on {response.engine_resolved})")
    print(f"holds:      {response.holds}")
    if response.holds:
        print(f"accepted:   {response.accepted}")
        print(f"size:       {response.max_certificate_bits} bits per vertex (max)")
    else:
        print(f"sound (sampled adversaries all rejected): {response.sound}")
    if response.certificates is not None:
        print("\nper-vertex certificates:")
        for vertex_repr in sorted(response.certificates):
            entry = response.certificates[vertex_repr]
            print(f"  {vertex_repr:>10} id={entry['id']:<8} {entry['hex'] or '(empty)'}")
    return 1 if failed else 0


def parse_tcp_address(raw: str) -> tuple:
    """Parse ``--tcp [HOST:]PORT`` (host defaults to localhost)."""
    host, colon, port = raw.rpartition(":")
    if not colon:
        host, port = "127.0.0.1", raw
    try:
        return host or "127.0.0.1", int(port)
    except ValueError:
        raise SystemExit(f"--tcp must look like PORT or HOST:PORT, got {raw!r}")


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived certification service on the wire protocol.

    stdio mode (default) answers JSON-lines requests on stdin until EOF or
    a ``{"op": "shutdown"}`` request; ``--tcp [HOST:]PORT`` serves the same
    protocol on a localhost socket (port 0 picks a free port, announced on
    stderr) until a client sends shutdown.
    """
    if args.workers < 1:
        raise SystemExit("error: --workers must be at least 1")
    if args.max_request_bytes < 1:
        raise SystemExit("error: --max-request-bytes must be at least 1")
    if args.deadline is not None and args.deadline <= 0:
        raise SystemExit("error: --deadline must be positive")
    try:
        injector = FaultInjector.parse(args.fault) if args.fault else None
    except FaultSpecError as error:
        raise SystemExit(f"error: {error}") from error
    with CertificationService(
        workers=args.workers, default_deadline_s=args.deadline
    ) as service:
        service.fault_injector = injector
        if args.tcp is not None:
            host, port = parse_tcp_address(args.tcp)
            serve_tcp(
                service,
                host=host,
                port=port,
                announce=sys.stderr,
                max_request_bytes=args.max_request_bytes,
            )
        else:
            serve_stdio(
                service, sys.stdin, sys.stdout,
                max_request_bytes=args.max_request_bytes,
            )
    return 0


def parse_sizes(raw: str) -> tuple:
    try:
        return tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise SystemExit(f"--sizes must be a comma-separated list of integers, got {raw!r}")


def parse_shard(raw: Optional[str]) -> Optional[tuple]:
    """Parse ``--shard I/K`` into the (index, count) pair of the spec."""
    if raw is None:
        return None
    index, slash, count = raw.partition("/")
    try:
        shard = (int(index), int(count))
    except ValueError:
        raise SystemExit(f"--shard must look like I/K (e.g. 0/2), got {raw!r}")
    if not slash:
        raise SystemExit(f"--shard must look like I/K (e.g. 0/2), got {raw!r}")
    # The spec layer accepts any (start, stride) pair — the driver's shard
    # splitting dispatches strided sub-shards whose start exceeds the
    # stride — but a hand-typed I/K with I >= K is always a mistake.
    index, count = shard
    if count < 1 or index < 0 or index >= count:
        raise SystemExit(
            f"--shard index must satisfy 0 <= I < K, got {raw!r}"
        )
    return shard


def _print_fit(result) -> None:
    if result.fit is not None:
        print(f"fit:        {result.fit.label} "
              f"(exponent {result.fit.exponent:.2f}, R² {result.fit.r_squared:.2f})")


def _print_bound(result) -> None:
    if result.bound is not None:
        spread = "n/a" if result.bound.spread is None else f"{result.bound.spread:.2f}"
        print(f"bound:      {result.bound.label}  "
              f"ok={result.bound.ok} (spread {spread} <= slack {result.bound.slack})")


def _print_result(result: ExperimentResult, path: Path) -> None:
    _print_bound(result)
    _print_fit(result)
    print(f"artifact:   {path}")


def run_spec(args: argparse.Namespace, spec: ExperimentSpec) -> int:
    """The one body of the experiment commands.

    The spec goes through the service's front door in-process (the path
    ``certify`` takes), so a failure exits with the service's structured
    message instead of a traceback; the artifact is written from the
    response payload, and the exit status is the result's clean verdict.
    """
    response = api.respond(ExperimentRequest(spec=spec))
    if isinstance(response, ErrorResponse):
        raise SystemExit(f"error: {response.message}")
    result = result_from_payload(response.result)
    path = write_artifact(
        result, args.output or spec.artifact_name(), canonical=args.canonical
    )
    shard_note = (
        f", shard {spec.shard[0]}/{spec.shard[1]}" if spec.shard is not None else ""
    )
    print(f"{spec.kind + ':':<11} {spec.label} ({len(result.points)} points{shard_note})")
    for point in result.points:
        print(f"  {point.describe()}")
    _print_result(result, path)
    return 0 if result.clean else 1


def _formula_spec(args: argparse.Namespace, knobs: Dict[str, str]) -> FormulaSpec:
    """A :class:`FormulaSpec` from CLI arguments plus compilation knobs."""
    try:
        return FormulaSpec(
            formula=args.formula,
            family=args.family,
            sizes=parse_sizes(args.sizes),
            **resolve_formula_params(knobs),
            trials=args.trials,
            seed=args.seed,
            engine=args.engine,
            check_bound=not args.no_bound_check,
            shard=parse_shard(args.shard),
            name=args.name,
        )
    except (FormulaError, ValueError) as error:
        raise SystemExit(f"error: {error}") from error


def cmd_formula(args: argparse.Namespace) -> int:
    """Compile an MSO sentence and measure its certificate-size series."""
    knobs = {"t": args.t, "k": args.k, "route": args.route, "model": args.model}
    return run_spec(args, _formula_spec(args, knobs))


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.formula is not None:
        if args.scheme is not None:
            raise SystemExit(
                "error: --scheme and --formula are mutually exclusive; set one"
            )
        if args.measure != "full":
            raise SystemExit("error: formula sweeps only support --measure full")
        if args.id_exponent is not None:
            raise SystemExit("error: formula sweeps do not support --id-exponent")
        return run_spec(args, _formula_spec(args, parse_raw_params(args.param)))
    if args.scheme is None:
        raise SystemExit("error: one of --scheme or --formula is required")
    try:
        params = parse_params(args.param, args.scheme)
    except RegistryError as error:
        raise SystemExit(f"error: {error}") from error
    spec = SweepSpec(
        scheme=args.scheme,
        family=args.family,
        sizes=parse_sizes(args.sizes),
        params=params,
        trials=args.trials,
        seed=args.seed,
        engine=args.engine,
        processes=args.processes,
        check_bound=not args.no_bound_check,
        measure=args.measure,
        id_exponent=args.id_exponent,
        shard=parse_shard(args.shard),
        name=args.name,
    )
    return run_spec(args, spec)


def cmd_lower_bound(args: argparse.Namespace) -> int:
    spec = LowerBoundSpec(
        construction=args.construction,
        sizes=parse_sizes(args.sizes),
        check_dichotomy=not args.no_dichotomy,
        simulate=args.simulate,
        engine=args.engine,
        check_bound=not args.no_bound_check,
        seed=args.seed,
        shard=parse_shard(args.shard),
        name=args.name,
    )
    return run_spec(args, spec)


def parse_fleet_fault(raw: str) -> tuple:
    """Parse a ``shard-drive --fault`` entry: ``[MEMBER:]SPEC``.

    A leading integer selects the fleet member the fault spec is installed
    on (default member 0); the rest is a :mod:`repro.service.faults` spec.
    Unambiguous because fault actions never start with a digit.
    """
    head, colon, rest = raw.partition(":")
    if colon and head.isdigit():
        return int(head), rest
    return 0, raw


def cmd_kernel(args: argparse.Namespace) -> int:
    spec = KernelSpec(
        family=args.family,
        sizes=parse_sizes(args.sizes),
        k=args.k,
        model=args.model,
        check_ef=args.check_ef,
        seed=args.seed,
        engine=args.engine,
        shard=parse_shard(args.shard),
        name=args.name,
    )
    return run_spec(args, spec)


def cmd_shard_drive(args: argparse.Namespace) -> int:
    """Drive one experiment sharded across a fleet of serve processes.

    The experiment comes from a JSON spec file (the ``to_dict`` form of a
    spec of any experiment kind, ``kind`` included).  Workers are either an
    explicit ``--worker HOST:PORT`` list of already-running serve processes
    or a ``--fleet N`` of freshly spawned local ones; the driver survives
    worker deaths as long as one worker remains, and the merged artifact is
    identical to the unsharded run's (byte-identical with ``--canonical``).
    """
    try:
        spec = ExperimentSpec.from_dict(json.loads(Path(args.spec).read_text()))
        spec.validate()
    except (OSError, json.JSONDecodeError) as error:
        raise SystemExit(f"error: cannot read spec {args.spec!r}: {error}") from error
    except RegistryError as error:
        raise SystemExit(f"error: {error}") from error

    faults: Dict[int, List[str]] = {}
    for raw in args.fault or []:
        member, fault_spec = parse_fleet_fault(raw)
        faults.setdefault(member, []).append(fault_spec)
    try:
        if faults:
            # Validate the specs up front (the fleet members would otherwise
            # die on startup with a less helpful message).
            FaultInjector.parse(spec for specs in faults.values() for spec in specs)
    except FaultSpecError as error:
        raise SystemExit(f"error: {error}") from error

    if args.min_workers < 1:
        raise SystemExit("error: --min-workers must be at least 1")
    if args.max_workers is not None and args.max_workers < args.min_workers:
        raise SystemExit("error: --max-workers must be >= --min-workers")

    driver_kwargs = dict(
        deadline_s=args.deadline,
        max_attempts=args.max_attempts,
        split=args.split,
    )
    if args.read_grace is not None:
        if args.read_grace <= 0:
            raise SystemExit("error: --read-grace must be positive")
        driver_kwargs["read_grace_s"] = args.read_grace
    driver = ShardDriver(**driver_kwargs)
    try:
        if args.worker:
            if faults:
                raise SystemExit(
                    "error: --fault requires a spawned fleet (drop --worker)"
                )
            if args.elastic:
                raise SystemExit(
                    "error: --elastic requires a spawned fleet (drop --worker)"
                )
            workers = [parse_tcp_address(raw) for raw in args.worker]
            report = driver.drive(spec, workers, shards=args.shards)
        else:
            fleet = LocalFleet(
                args.fleet,
                serve_workers=args.serve_workers,
                faults=faults,
            )
            supervisor = None
            if args.elastic:
                supervisor = FleetSupervisor(
                    fleet,
                    min_workers=args.min_workers,
                    max_workers=(
                        args.max_workers
                        if args.max_workers is not None
                        else args.fleet
                    ),
                    respawn_budget=args.respawn_budget,
                )
            with fleet as workers:
                report = driver.drive(
                    spec, workers, shards=args.shards, supervisor=supervisor
                )
    except DriverError as error:
        raise SystemExit(f"error: {error}") from error

    merged = report.result
    path = write_artifact(
        merged, args.output or spec.artifact_name(), canonical=args.canonical
    )

    print(f"drive:      {spec.label} ({spec.kind}), {report.shards} shard(s) "
          f"across {len(set(report.assignments.values()))} worker(s)")
    for index in sorted(report.assignments):
        note = f" ({report.attempts[index]} attempts)" if report.attempts[index] > 1 else ""
        print(f"  shard {index}: {report.assignments[index]}{note}")
    for worker in report.workers_lost:
        print(f"  LOST: {worker}")
    for worker in report.workers_spawned:
        print(f"  SPAWNED: {worker}")
    for worker in report.workers_retired:
        print(f"  RETIRED: {worker}")
    if report.redispatched:
        print(f"re-dispatched: shard(s) {', '.join(map(str, report.redispatched))}")
    if report.shards_split:
        print(
            f"split:      {report.shards_split} shard(s) split mid-drive; "
            f"{report.points_salvaged} point(s) salvaged, "
            f"{report.points_redispatched} re-dispatched"
        )
    _print_result(merged, path)
    return 0 if merged.clean else 1


def cmd_merge(args: argparse.Namespace) -> int:
    try:
        parts = [load_artifact(path) for path in args.artifacts]
        merged = merge_artifacts(parts)
    except (OSError, ValueError) as error:
        raise SystemExit(f"error: {error}") from error
    path = write_artifact(merged, args.output, canonical=args.canonical)
    print(f"merged:     {len(parts)} partial artifact(s), "
          f"{len(merged.points)} grid points")
    print(f"experiment: {merged.spec.label} ({merged.kind})")
    _print_result(merged, path)
    # Same exit contract as the commands that produced the shards: a merged
    # run that is unclean or out of its registered band fails.
    return 0 if merged.clean else 1


def cmd_results(args: argparse.Namespace) -> int:
    try:
        artifacts = collect_artifacts(args.dir)
    except ValueError as error:
        raise SystemExit(f"error: {error}") from error
    if not artifacts:
        raise SystemExit(f"error: no experiment artifacts found under {args.dir!r} "
                         f"(looked for {', '.join(artifact_patterns())})")

    labels = [result.spec.label for _, result in artifacts]
    for label in sorted({l for l in labels if labels.count(l) > 1}):
        print(f"warning: {labels.count(label)} artifacts share the label {label!r}; "
              "the baseline keeps only the last one — give runs distinct --name s")

    # --check runs BEFORE --write-baseline: with both flags on the same path
    # the gate must diff against the previous baseline, not the file that is
    # about to be (re)written from this very run.  It is also computed before
    # rendering so routing drift lands in the EXPERIMENTS.md output.
    report = None
    if args.check:
        try:
            report = compare_to_baseline(artifacts, args.check)
        except (OSError, ValueError) as error:
            raise SystemExit(f"error: {error}") from error

    table = render_experiments_md(
        artifacts, routing_drift=report.routing_drift if report is not None else ()
    )
    if args.output:
        Path(args.output).write_text(table)
        print(f"wrote {args.output} ({len(artifacts)} artifact(s))")
    else:
        print(table)

    status = 0
    unclean = [result.spec.label for _, result in artifacts if not result.all_ok]
    for label in unclean:
        print(f"UNCLEAN: {label} has a failed completeness/soundness/dichotomy check")
    violated = [
        result.spec.label
        for _, result in artifacts
        if result.bound is not None and not result.bound.ok
    ]
    for label in violated:
        print(f"BOUND VIOLATED: {label} left its registered asymptotic band")
    if unclean or violated:
        status = 1

    if report is not None:
        for regression in report.regressions:
            print(f"REGRESSION: {regression.describe()}")
        for improvement in report.improvements:
            print(f"improved:   {improvement.describe()}")
        for mismatch in report.kind_mismatches:
            print(f"KIND MISMATCH: {mismatch}")
        for label in report.missing_labels:
            print(f"missing:    baseline entry {label!r} has no artifact this run")
        for label in report.new_labels:
            print(f"new:        {label!r} is not in the baseline yet")
        for drift in report.routing_drift:
            # Informational: engines are verdict-equivalent, so a routing
            # change cannot regress results — but it should be visible.
            print(f"routing drift: {drift}")
        if report.ok:
            print("regression gate: OK")
        else:
            print(f"regression gate: FAILED ({len(report.regressions)} regression(s), "
                  f"{len(report.kind_mismatches)} kind mismatch(es))")
            status = 1

    if args.write_baseline:
        if unclean or violated:
            print("baseline:   NOT written — fix the unclean/violated artifacts "
                  "above first (a baseline must record a clean run)")
        else:
            path = write_baseline(artifacts, args.write_baseline)
            print(f"baseline:   wrote {path}")
    return status


def cmd_calibrate(args: argparse.Namespace) -> int:
    """Measure this machine's engine cost units and write a calibration file.

    The planner loads its units from ``$REPRO_CALIBRATION`` (or the packaged
    default) — point that variable at the written file to route ``auto``
    requests with the measured units instead of the shipped ones.
    """
    from repro.planner import run_calibration, write_calibration

    calibration = run_calibration(quick=args.quick)
    path = write_calibration(calibration, args.output)
    print(f"calibration: wrote {path}{' (quick probes)' if args.quick else ''}")
    units = calibration["units"]
    for name in sorted(units):
        print(f"  {name:<18} {units[name]:.4f}")
    cutoffs = calibration["max_table_bits"]
    print(f"  max_table_bits   python={cutoffs['python']} numpy={cutoffs['numpy']}")
    print(f"route with it:   REPRO_CALIBRATION={path} python -m repro.cli ...")
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Local certification from the command line "
        "(reproduction of 'What can be certified compactly?', PODC 2022).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list registered schemes and graph families")

    certify = subparsers.add_parser("certify", help="run a scheme on a graph")
    certify.add_argument("--scheme", default=None, help="registry key (see 'list')")
    certify.add_argument(
        "--formula",
        default=None,
        metavar="SENTENCE",
        help="compile this MSO sentence into an ephemeral scheme instead of "
        "naming a registered one (mutually exclusive with --scheme); "
        "--param entries then carry the compilation knobs t, k, route, model",
    )
    certify.add_argument(
        "--param",
        action="append",
        default=None,
        help="scheme parameter as key=value (repeatable); a bare value binds "
        "the single required parameter",
    )
    certify.add_argument("--graph", required=True, help="graph specifier, e.g. path:15 or file:edges.txt")
    certify.add_argument("--seed", type=int, default=0, help="seed for identifiers and generators")
    certify.add_argument(
        "--trials",
        type=int,
        default=20,
        help="adversarial certificate assignments tried on no-instances (default 20)",
    )
    certify.add_argument(
        "--engine",
        choices=VALID_ENGINES,
        default="auto",
        help="verification engine: per-assignment reference simulator "
        "(legacy), compile-once topology (compiled), incremental "
        "single-vertex deltas (delta), bit-parallel assignment blocks "
        "(vector), or the workload-aware planner (auto, default)",
    )
    certify.add_argument("--verbose", action="store_true", help="print the raw certificates")
    certify.add_argument(
        "--json",
        action="store_true",
        help="print the result as machine-readable JSON",
    )

    sweep = subparsers.add_parser(
        "sweep", help="run a declarative certificate-size sweep, write a JSON artifact"
    )
    sweep.add_argument("--scheme", default=None, help="registry key (see 'list')")
    sweep.add_argument(
        "--formula",
        default=None,
        metavar="SENTENCE",
        help="sweep an ephemeral MSO-compiled scheme instead of a registered "
        "one (mutually exclusive with --scheme); --param entries then carry "
        "the compilation knobs t, k, route, model",
    )
    sweep.add_argument(
        "--param",
        action="append",
        default=None,
        help="scheme parameter as key=value (repeatable); values may use the "
        "$n size template",
    )
    sweep.add_argument("--family", required=True, help="graph family (see 'list')")
    sweep.add_argument("--sizes", required=True, help="comma-separated size grid, e.g. 8,32,128")
    sweep.add_argument("--trials", type=int, default=20, help="adversarial trials per no-instance")
    sweep.add_argument("--seed", type=int, default=0, help="sweep seed (per-point seeds derive from it)")
    sweep.add_argument("--engine", choices=VALID_ENGINES, default="auto")
    sweep.add_argument("--processes", type=int, default=1, help="worker processes for the fan-out")
    sweep.add_argument("--output", default=None,
                     help=f"artifact path (default {SweepSpec.artifact_prefix}_<label>.json)")
    sweep.add_argument("--name", default=None, help="label stored in the artifact")
    sweep.add_argument(
        "--no-bound-check",
        action="store_true",
        help="skip checking the series against the registered asymptotic bound",
    )
    sweep.add_argument(
        "--measure",
        choices=("full", "size"),
        default="full",
        help="'full' runs the complete harness; 'size' only measures the "
        "honest prover's certificate bits (usable on instances too large "
        "for the exact holds decision)",
    )
    sweep.add_argument(
        "--shard",
        default=None,
        metavar="I/K",
        help="run only grid points with index ≡ I (mod K); merge the partial "
        "artifacts of all K shards with the 'merge' command",
    )
    sweep.add_argument(
        "--id-exponent",
        type=int,
        default=None,
        help="draw identifiers from [1, n^EXP] instead of the default n^3 "
        "(the identifier-range ablation)",
    )
    sweep.add_argument(
        "--canonical",
        action="store_true",
        help="zero per-point wall-clock timings in the artifact, making "
        "artifacts of identical runs byte-comparable",
    )

    lower_bound = subparsers.add_parser(
        "lower-bound",
        help="run a declarative Section-7 lower-bound search, write a JSON artifact",
    )
    lower_bound.add_argument(
        "--construction",
        required=True,
        help=f"one of: {', '.join(sorted(LOWER_BOUND_CONSTRUCTIONS))}",
    )
    lower_bound.add_argument(
        "--sizes", required=True, help="comma-separated construction-size grid"
    )
    lower_bound.add_argument("--seed", type=int, default=0, help="search seed (per-point seeds derive from it)")
    lower_bound.add_argument(
        "--no-dichotomy",
        action="store_true",
        help="skip building gadgets and checking the property dichotomy "
        "(required for closed-form constructions / large grids)",
    )
    lower_bound.add_argument(
        "--simulate",
        action="store_true",
        help="run the Alice/Bob protocol simulation probes (tiny sizes only)",
    )
    lower_bound.add_argument(
        "--engine",
        choices=("compiled", "delta", "vector", "auto"),
        default="auto",
        help="how the simulation probes sweep assignments: reload each full "
        "assignment (compiled), stream Gray-coded single-vertex deltas "
        "through a persistent session (delta), sweep bit-parallel "
        "lane blocks per prover message (vector), or let the planner "
        "pick per point (auto, default)",
    )
    lower_bound.add_argument("--output", default=None,
                           help=f"artifact path (default {LowerBoundSpec.artifact_prefix}_<label>.json)")
    lower_bound.add_argument("--name", default=None, help="label stored in the artifact")
    lower_bound.add_argument(
        "--no-bound-check",
        action="store_true",
        help="skip checking the Ω series against the expected asymptotic shape",
    )
    lower_bound.add_argument("--shard", default=None, metavar="I/K", help="as for sweep")
    lower_bound.add_argument(
        "--canonical", action="store_true", help="as for sweep"
    )

    kernel = subparsers.add_parser(
        "kernel",
        help="run a declarative Section-6 kernel-size series, write a JSON artifact",
    )
    kernel.add_argument(
        "--family",
        required=True,
        help=f"one of: {', '.join(sorted(GRAPH_FAMILIES))}",
    )
    kernel.add_argument("--sizes", required=True, help="comma-separated size grid")
    kernel.add_argument(
        "--k", type=int, default=3, help="pruning parameter (keep at most k children per type)"
    )
    kernel.add_argument(
        "--model",
        choices=("coherent", "star"),
        default="coherent",
        help="elimination-tree model: generic coherent pipeline, or the "
        "closed-form star model (star family only)",
    )
    kernel.add_argument(
        "--check-ef",
        type=int,
        default=0,
        metavar="RANK",
        help="verify G ≃ kernel by the rank-RANK EF game on small instances "
        "(0 = skip; exponential, only runs on instances of ≤ 11 vertices)",
    )
    kernel.add_argument("--seed", type=int, default=0, help="series seed (per-point seeds derive from it)")
    kernel.add_argument(
        "--engine",
        choices=VALID_ENGINES,
        default="auto",
        help="accepted for spec/CLI uniformity (kernel points run no "
        "verification engine); a mis-typed engine still fails fast",
    )
    kernel.add_argument("--output", default=None,
                      help=f"artifact path (default {KernelSpec.artifact_prefix}_<label>.json)")
    kernel.add_argument("--name", default=None, help="label stored in the artifact")
    kernel.add_argument("--shard", default=None, metavar="I/K", help="as for sweep")
    kernel.add_argument("--canonical", action="store_true", help="as for sweep")

    formula = subparsers.add_parser(
        "formula",
        help="compile an MSO sentence and measure its certificate-size "
        "series, write a JSON artifact",
    )
    formula.add_argument(
        "--formula",
        required=True,
        metavar="SENTENCE",
        help="the MSO sentence in the concrete syntax of repro.logic.parser, "
        "e.g. 'exists x. forall y. (x = y | x ~ y)'",
    )
    formula.add_argument(
        "--family",
        required=True,
        help=f"one of: {', '.join(sorted(GRAPH_FAMILIES))}",
    )
    formula.add_argument("--sizes", required=True, help="comma-separated size grid")
    formula.add_argument(
        "--t", type=int, default=2, help="treedepth bound of the compiled scheme (default 2)"
    )
    formula.add_argument(
        "--k",
        type=int,
        default=None,
        help="quantifier-depth hint (default: derived from the formula)",
    )
    formula.add_argument(
        "--route",
        choices=("treedepth", "trees"),
        default="treedepth",
        help="'treedepth' (Theorem 2.6, full MSO, O(t log n) bits) or "
        "'trees' (Theorem 2.2, first-order on trees, O(1) bits)",
    )
    formula.add_argument(
        "--model",
        choices=("auto", "balanced-path", "star"),
        default="auto",
        help="elimination-tree model builder for the treedepth route",
    )
    formula.add_argument("--trials", type=int, default=20, help="adversarial trials per no-instance")
    formula.add_argument("--seed", type=int, default=0, help="series seed (per-point seeds derive from it)")
    formula.add_argument("--engine", choices=VALID_ENGINES, default="auto")
    formula.add_argument("--output", default=None,
                       help=f"artifact path (default {FormulaSpec.artifact_prefix}_<label>.json)")
    formula.add_argument("--name", default=None, help="label stored in the artifact")
    formula.add_argument(
        "--no-bound-check",
        action="store_true",
        help="skip checking the series against the route's asymptotic bound",
    )
    formula.add_argument("--shard", default=None, metavar="I/K", help="as for sweep")
    formula.add_argument("--canonical", action="store_true", help="as for sweep")

    serve = subparsers.add_parser(
        "serve",
        help="run the long-lived certification service (JSON-lines protocol)",
    )
    serve.add_argument(
        "--tcp",
        default=None,
        metavar="[HOST:]PORT",
        help="serve on a localhost TCP socket instead of stdio "
        "(port 0 picks a free port, announced on stderr)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=4,
        help="width of the bounded worker pool behind batched submission",
    )
    serve.add_argument(
        "--max-request-bytes",
        type=int,
        default=DEFAULT_MAX_REQUEST_BYTES,
        help="cap on one request line; oversized lines are answered with a "
        "structured invalid-request error and the connection keeps serving "
        f"(default {DEFAULT_MAX_REQUEST_BYTES})",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-request deadline; requests without their own "
        "deadline_s are answered with a structured timeout error past it",
    )
    serve.add_argument(
        "--fault",
        action="append",
        default=None,
        metavar="SPEC",
        help="install a deterministic fault rule (repeatable), e.g. "
        "kill:after=3, freeze:op=sweep,seconds=0, drop:nth=2 — the chaos "
        "harness behind the fault-tolerance tests",
    )

    shard_drive = subparsers.add_parser(
        "shard-drive",
        help="fan one experiment's shards out over a fleet of serve "
        "processes, survive worker deaths, merge the partial artifacts",
    )
    shard_drive.add_argument(
        "--spec",
        required=True,
        metavar="FILE",
        help="JSON experiment spec (the to_dict form of a sweep or "
        "lower-bound spec, kind included)",
    )
    shard_drive.add_argument(
        "--fleet",
        type=int,
        default=3,
        metavar="N",
        help="spawn N local serve processes as the fleet (default 3); "
        "ignored when --worker is given",
    )
    shard_drive.add_argument(
        "--worker",
        action="append",
        default=None,
        metavar="HOST:PORT",
        help="use an already-running serve process (repeatable) instead of "
        "spawning a fleet",
    )
    shard_drive.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="K",
        help="split the grid into K shards (default: one per worker)",
    )
    shard_drive.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-shard deadline; an expired shard is answered with a "
        "structured timeout error and re-dispatched to a survivor",
    )
    shard_drive.add_argument(
        "--max-attempts",
        type=int,
        default=None,
        metavar="N",
        help="dispatch cap per shard (default: max(3, fleet size + 1))",
    )
    shard_drive.add_argument(
        "--serve-workers",
        type=int,
        default=2,
        metavar="N",
        help="worker-pool width of each spawned fleet member (default 2)",
    )
    shard_drive.add_argument(
        "--fault",
        action="append",
        default=None,
        metavar="[MEMBER:]SPEC",
        help="install a fault rule on fleet member MEMBER (default 0), "
        "e.g. 1:kill:op=sweep,nth=1 — requires a spawned fleet",
    )
    shard_drive.add_argument(
        "--split",
        action="store_true",
        help="straggler mitigation: keep the salvaged prefix of a timed-out "
        "or orphaned shard and re-dispatch only the remainder, split across "
        "the surviving workers as sub-shards",
    )
    shard_drive.add_argument(
        "--elastic",
        action="store_true",
        help="supervise the spawned fleet: respawn dead members (within "
        "--respawn-budget) and scale the member count to the queue depth "
        "inside the --min-workers/--max-workers band",
    )
    shard_drive.add_argument(
        "--min-workers",
        type=int,
        default=1,
        metavar="N",
        help="elastic floor: never retire below N active members (default 1)",
    )
    shard_drive.add_argument(
        "--max-workers",
        type=int,
        default=None,
        metavar="N",
        help="elastic ceiling: never grow beyond N active members "
        "(default: the --fleet size)",
    )
    shard_drive.add_argument(
        "--respawn-budget",
        type=int,
        default=3,
        metavar="N",
        help="total member spawns the elastic supervisor may attempt "
        "(default 3); exhaustion with no survivors fails the drive",
    )
    shard_drive.add_argument(
        "--read-grace",
        type=float,
        default=None,
        metavar="SECONDS",
        help="grace past the deadline before a client read is declared a "
        "transport failure (default 10); lower it to detect partitions and "
        "wedged workers faster",
    )
    shard_drive.add_argument(
        "--output", default=None, help="merged artifact path (default by kind/label)"
    )
    shard_drive.add_argument(
        "--canonical", action="store_true", help="as for sweep"
    )

    merge = subparsers.add_parser(
        "merge", help="stitch the partial artifacts of a sharded run back together"
    )
    merge.add_argument("artifacts", nargs="+", help="partial artifact paths")
    merge.add_argument("--output", required=True, help="merged artifact path")
    merge.add_argument("--canonical", action="store_true", help="as for sweep")

    results = subparsers.add_parser(
        "results",
        help="aggregate experiment artifacts into EXPERIMENTS.md and run the "
        "baseline regression gate",
    )
    results.add_argument("--dir", default=".", help="directory holding the artifacts (default .)")
    results.add_argument(
        "--output",
        default=None,
        metavar="EXPERIMENTS.md",
        help="write the aggregated markdown table here (default: print it)",
    )
    results.add_argument(
        "--check",
        default=None,
        metavar="BASELINE",
        help="diff measured series against this baseline file/dir; exit "
        "non-zero on regressions",
    )
    results.add_argument(
        "--write-baseline",
        default=None,
        metavar="BASELINE",
        help="record the measured series as the new baseline file/dir",
    )

    calibrate = subparsers.add_parser(
        "calibrate",
        help="measure this machine's engine cost units for the auto planner "
        "and write a calibration file",
    )
    calibrate.add_argument(
        "--output",
        default="calibration.json",
        metavar="FILE",
        help="where to write the calibration (default ./calibration.json); "
        "export REPRO_CALIBRATION=FILE to route with it",
    )
    calibrate.add_argument(
        "--quick",
        action="store_true",
        help="fewer probe repetitions (faster, noisier units — CI smoke)",
    )

    args = parser.parse_args(argv)
    if args.command == "list":
        return cmd_list(args)
    if args.command == "sweep":
        return cmd_sweep(args)
    if args.command == "lower-bound":
        return cmd_lower_bound(args)
    if args.command == "kernel":
        return cmd_kernel(args)
    if args.command == "formula":
        return cmd_formula(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "shard-drive":
        return cmd_shard_drive(args)
    if args.command == "merge":
        return cmd_merge(args)
    if args.command == "results":
        return cmd_results(args)
    if args.command == "calibrate":
        return cmd_calibrate(args)
    return cmd_certify(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    sys.exit(main())
