"""End-to-end benchmark: certify over the wire and sharded experiment drives.

Run from the repository root::

    python3 perfbench/run.py --workload certify-cold --seed 1 --seconds 20 --trace 0

Workloads (``perfbench/README.md`` says why each exists):

* ``certify-cold``     — a fresh ``serve --tcp`` child; no (graph,
  scheme/formula) pair repeats;
* ``certify-warm``     — a fresh ``serve --tcp`` child prefilled with the
  warm mix, then seeded draws from it;
* ``experiment-drive`` — campaigns of ``drive(spec, addresses, shards=2)``,
  each over a fresh 2-member ``LocalFleet``.

One client, closed loop: the next request goes out when the previous
answer is in.  Every certify answer is checked against ``oracle.py``, which
does not use the program; every drive is checked against the in-process
unsharded run of the same spec.  ``--trace 0`` prints the end-to-end
metrics.  ``--trace 1`` replays the same inputs in-process, in pairs of
passes plain and with the layer wrappers of ``spans.py`` installed, and
prints the per-layer metrics.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import socket
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from oracle import check_answer, expectation
from workloads import WARM_MIX, WORKLOADS, Item, certify_rounds, drive_campaign

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Timed set-ups per run that serve no traffic, half before and half after
#: the measured window, so that a slow stretch of the host moves few of
#: them.  ``setup_s`` is the median of these plus the set-ups that do serve
#: traffic.  An untimed warm-up spawn goes first: a process's first spawn
#: runs slower than the rest.
SETUPS = 10

#: Least number of drive campaigns (each on a fresh fleet) per run.
MIN_CAMPAIGNS = 3

#: Transport timeout for one certify answer.
ANSWER_TIMEOUT_S = 120.0

#: Where traced runs write their spans.
TRACE_DIR = ROOT / ".perfbench"

#: Cache names whose hit ratio the traced run reports (from ``stats``).
CACHES = ("holds", "identifiers", "networks", "graph_functions", "delta-verdicts")

#: Envelope layers around whole requests and evaluations; their self time
#: (pool handoff, replay cache, harness loops) is not a named layer.
CATCH_ALL = ("core.dispatch", "harness.evaluate")


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def environment() -> Dict[str, Any]:
    """What a result depends on beyond the code: cores, interpreter, the
    vector lane backend (numpy when importable) and the planner calibration."""
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    calibration = SRC / "repro" / "calibration.json"
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "vector_backend": "numpy" if numpy_version else "python",
        "calibration": "src/repro/calibration.json sha256:"
        + hashlib.sha256(calibration.read_bytes()).hexdigest()[:16],
    }


def percentile(values: Sequence[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


#: Share of a warm run's rounds, the fastest by wall time, that its time
#: metrics are taken over.  A shared host slows stretches of a run down by
#: 10-40%, for anything from a fraction of a second to minutes, and never
#: speeds one up.  A metric over all rounds moves with how much of the run
#: such stretches cover; one over the fastest rounds moves only when they
#: cover nearly all of it.  That needs many rounds of the same work, which
#: only the warm workload has (~300 blocks of the same work per run).  Cold blocks
#: differ up to 3x in cost, so picking the fastest picks content; a run of
#: four or five drive campaigns is too few to pick from.  Those workloads
#: use all their rounds.
FAST_SHARE = 0.2


@dataclass
class Round:
    """One round of like work: a block of certify lines or a drive campaign,
    with the latency of each user request in it."""

    points: int
    wall: float
    latencies: List[float]


def peak_rss_mb(fleet) -> float:
    """Largest peak resident set (``VmHWM``) among a live fleet's members.

    Read from the kernel before the fleet stops: a reaped child's
    ``ru_maxrss`` would also count pages it shared with this process
    before its exec.
    """
    peaks = []
    for process in fleet.processes:
        with open(f"/proc/{process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    peaks.append(int(line.split()[1]) / 1024.0)
    return max(peaks)


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Wire:
    """One TCP conversation with a serve process: a line out, a line in."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=10.0)
        self.sock.settimeout(ANSWER_TIMEOUT_S)
        self.stream = self.sock.makefile("rwb")

    def ask(self, line: str) -> bytes:
        self.stream.write(line.encode("utf-8"))
        self.stream.flush()
        return self.stream.readline()

    def close(self) -> None:
        self.stream.close()
        self.sock.close()


class Checker:
    """Counts attempts and failures; certify answers go through the oracle."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self._expected: Dict[str, Dict[str, Any]] = {}

    def check(self, item: Item, raw: Any) -> None:
        self.attempted += 1
        if not raw:
            self.failures.append(f"no answer to {item.line.strip()}")
            return
        expected = self._expected.get(item.line)
        if expected is None:
            expected = self._expected[item.line] = expectation(item.request, item.error_code)
        problem = check_answer(
            expected, json.loads(raw), bool(item.request.get("include_certificates"))
        )
        if problem is not None:
            self.failures.append(f"{problem}: {item.line.strip()}")

    def verdict(self, ok: bool, why: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(why)

    def result(self, metrics: Dict[str, Any]) -> Dict[str, Any]:
        for failure in self.failures[:5]:
            log(f"FAILED: {failure}")
        log(f"failed_share: {len(self.failures)}/{self.attempted}")
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": metrics,
        }


def end_to_end(setups: Sequence[float], rounds: Sequence[Round], peak_mb: float,
               fastest_only: bool = False) -> Dict[str, Any]:
    """The end-to-end metrics, defined the same way on every workload.

    A request is one certify line or one shard-drive.  Every time and rate
    is taken over the run's rounds with their requests pooled: all of
    them, or with ``fastest_only`` the fastest :data:`FAST_SHARE` of them.
    ``setup_s`` is the median set-up.
    """
    fast = rounds
    if fastest_only:
        fast = sorted(rounds, key=lambda r: r.wall)[:max(1, round(FAST_SHARE * len(rounds)))]
    latencies = [latency for r in fast for latency in r.latencies]
    wall = sum(r.wall for r in fast)
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "p50_ms": metric(1000 * statistics.median(latencies), "ms"),
        "p90_ms": metric(1000 * percentile(latencies, 0.9), "ms"),
        "requests_per_s": metric(len(latencies) / wall, "1/s"),
        "drive_s": metric(wall / len(fast), "s"),
        "points_per_s": metric(sum(r.points for r in fast) / wall, "1/s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }


def clear_program_caches() -> None:
    from repro.caching import clear_caches

    clear_caches()


# ---------------------------------------------------------------------------
# certify-cold / certify-warm
# ---------------------------------------------------------------------------


def start_serve(workload: str, checker: Checker):
    """Spawn a fresh serve child, connect, and prefill it when warm.

    Returns ``(fleet, wire, seconds)``; set-up runs from the spawn to the
    health answer, or to the last prefill answer on the warm workload.
    """
    from repro.service.driver import LocalFleet

    started = time.perf_counter()
    fleet = LocalFleet(1)
    (host, port), = fleet.start()
    wire = Wire(host, port)
    if not wire.ask('{"op":"health"}\n'):
        raise ConnectionError("the serve child did not answer its health probe")
    if workload == "certify-warm":
        for item in WARM_MIX:
            checker.check(item, wire.ask(item.line))
    return fleet, wire, time.perf_counter() - started


def spare_setups(count: int, spawn) -> List[float]:
    """Seconds of ``count`` set-ups that serve no traffic; ``spawn()``
    returns ``(fleet, seconds)`` and the fleet is stopped at once."""
    timed = []
    for _ in range(count):
        fleet, elapsed = spawn()
        fleet.stop()
        timed.append(elapsed)
    return timed


def certify_untraced(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    checker = Checker()

    def spare():
        fleet, wire, elapsed = start_serve(workload, checker)
        wire.close()
        return fleet, elapsed

    spare_setups(1, spare)
    setups = spare_setups(SETUPS // 2, spare)
    fleet, wire, elapsed = start_serve(workload, checker)
    setups.append(elapsed)
    stream = certify_rounds(workload, seed)
    rounds: List[Round] = []
    answered: List[Tuple[Item, bytes]] = []
    try:
        # Time on the wire only, not the client drawing rounds.
        while sum(r.wall for r in rounds) < seconds:
            batch = next(stream)
            latencies: List[float] = []
            round_started = time.perf_counter()
            for item in batch:
                sent = time.perf_counter()
                raw = wire.ask(item.line)
                latencies.append(time.perf_counter() - sent)
                answered.append((item, raw))
                if not raw:
                    raise ConnectionError("the serve child closed the connection")
            rounds.append(Round(len(batch), time.perf_counter() - round_started, latencies))
    except OSError as error:
        checker.verdict(False, f"transport failed: {error}")
    finally:
        wire.close()
        peak_mb = peak_rss_mb(fleet)
        fleet.stop()
    setups += spare_setups(SETUPS - SETUPS // 2, spare)
    for item, raw in answered:
        checker.check(item, raw)
    wall = sum(r.wall for r in rounds)
    log(f"{workload}: {len(answered)} requests, {len(rounds)} rounds in {wall:.2f}s; "
        f"set-ups {[round(s, 3) for s in setups]}s")
    return checker.result(
        end_to_end(setups, rounds, peak_mb, fastest_only=workload == "certify-warm")
    )


@dataclass
class Replay:
    """One in-process pass over a workload's inputs."""

    items: List[Any] = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0
    caches: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.end - self.start


def cache_deltas(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Dict[str, int]]:
    return {
        name: {
            key: counters[key] - before.get(name, {}).get(key, 0)
            for key in ("hits", "misses")
        }
        for name, counters in after.items()
    }


def replay_certify(
    workload: str,
    batches: Iterable[List[Item]],
    checker: Checker,
    tracer=None,
    seconds: Optional[float] = None,
) -> Replay:
    """Answer ``batches`` in-process through the protocol's line handler.

    Fresh caches and a fresh service every time; the warm workload's
    prefill pass runs before the measured window.  With ``seconds`` the
    replay stops after the round that spends the budget.
    """
    from repro.service.core import CertificationService
    from repro.service.protocol import handle_line

    clear_program_caches()
    replay = Replay()
    answers: List[str] = []
    with CertificationService() as service:
        if workload == "certify-warm":
            for item in WARM_MIX:
                handle_line(service, item.line)
        before = service.stats()["caches"]
        if tracer is not None:
            import spans

            spans.install(tracer)
        replay.start = time.perf_counter()
        try:
            for batch in batches:
                for item in batch:
                    answers.append(handle_line(service, item.line)[0])
                replay.items.extend(batch)
                if seconds is not None and time.perf_counter() - replay.start >= seconds:
                    break
        finally:
            replay.end = time.perf_counter()
            if tracer is not None:
                tracer.restore()
        replay.caches = cache_deltas(before, service.stats()["caches"])
    for item, answer in zip(replay.items, answers):
        checker.check(item, answer)
    return replay


def overhead_share(plain: Sequence[Replay], traced: Sequence[Replay]) -> float:
    """Traced wall over untraced wall, minus one: the median over adjacent
    pairs of passes over the same inputs, so slow drift in the host's speed
    cancels within each pair."""
    return statistics.median(t.wall / p.wall for p, t in zip(plain, traced)) - 1


#: Paired plain/traced chunks a certify trace run is split into.
TRACE_CHUNKS = 8

#: Paired plain/traced in-process campaigns of a drive trace run.
TRACE_PAIRS = 3


def pair_order(index: int) -> Tuple[bool, bool]:
    """Whether each pass of pair ``index`` is traced: plain first on even
    pairs, traced first on odd ones, so an effect of order cancels."""
    return (False, True) if index % 2 == 0 else (True, False)


def certify_traced(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    import spans

    checker = Checker()
    # Warm the interpreter (imports, lazy tables) so no pass pays for it.
    replay_certify("certify-warm", [list(WARM_MIX)], Checker())
    # Half the budget picks the requests (a first pass in a process runs
    # slower, so it is not compared); then each chunk of them is answered
    # plain and traced, back to back, with fresh caches each time.
    items = replay_certify(workload, certify_rounds(workload, seed), checker,
                           seconds=seconds / 2).items
    size = -(-len(items) // TRACE_CHUNKS)
    tracer = spans.Tracer()
    plain, traced = [], []
    for index, start in enumerate(range(0, len(items), size)):
        chunk = [items[start:start + size]]
        for with_trace in pair_order(index):
            replay = replay_certify(workload, chunk, checker,
                                    tracer=tracer if with_trace else None)
            (traced if with_trace else plain).append(replay)
    caches: Dict[str, Dict[str, int]] = {}
    for replay in traced:
        for name, counters in replay.caches.items():
            total = caches.setdefault(name, {"hits": 0, "misses": 0})
            for key in total:
                total[key] += counters[key]
    layers, selfs = layer_metrics(tracer, caches, [(r.start, r.end) for r in traced])
    layers["trace.overhead_share"] = metric(overhead_share(plain, traced), "share")
    write_trace(workload, seed, tracer, layers, selfs)
    log(f"{workload}: {len(items)} requests in {len(plain)} chunks; plain "
        f"{[round(r.wall, 2) for r in plain]}s, traced {[round(r.wall, 2) for r in traced]}s")
    return checker.result(layers)


# ---------------------------------------------------------------------------
# experiment-drive
# ---------------------------------------------------------------------------


def experiment_request(spec: Dict[str, Any]):
    """The unsharded wire request of an experiment spec dict."""
    from repro.service.messages import request_from_dict

    payload = dict(spec)
    op = payload.pop("kind")
    return request_from_dict({"op": op, **payload})


def clean(payload: Dict[str, Any]) -> bool:
    """Every point passed: verdicts, bound check, and (for searches) every
    protocol simulation actually ran."""
    bound = payload.get("bound")
    if bound is not None and not bound.get("ok"):
        return False
    if payload.get("kind") == "lower-bound":
        return bool(payload.get("all_ok")) and all(
            point.get("protocol_ok") is True for point in payload["points"]
        )
    return bool(payload.get("all_accepted")) and bool(payload.get("all_sound"))


def run_in_process(service, specs: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Each spec unsharded through ``CertificationService.handle``; returns
    the normalised payloads (per-point wall-clock zeroed)."""
    from repro.experiments import canonical_payload
    from repro.service.messages import ErrorResponse

    payloads = []
    for spec in specs:
        response = service.handle(experiment_request(spec))
        if isinstance(response, ErrorResponse):
            raise RuntimeError(f"in-process {spec['name']} failed: {response.code}")
        payloads.append(canonical_payload(response.result))
    return payloads


def plan_campaign(seed: int) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """The run's campaign and the in-process reference payload of each spec.

    Logs where the planner sent each automorphism search's size-6
    simulation; no particular route is required.
    """
    from repro.service.core import CertificationService

    specs = drive_campaign(seed)
    clear_program_caches()
    with CertificationService() as service:
        references = run_in_process(service, specs)
    for spec, reference in zip(specs, references):
        if spec["kind"] == "lower-bound":
            last = reference["points"][-1]
            log(f"automorphism seed {spec['seed']}: size {last['size']} has "
                f"{last['vertices']} vertices, routed to {last['engine_resolved']}")
    return specs, references


def start_fleet():
    """Spawn a 2-member fleet; returns ``(fleet, seconds)`` until both
    members announce."""
    from repro.service.driver import LocalFleet

    started = time.perf_counter()
    fleet = LocalFleet(2)
    fleet.start()
    return fleet, time.perf_counter() - started


def drive_round(specs, references, checker: Checker, latencies: List[float]):
    """Spawn a fresh fleet and drive every spec over it; returns
    ``(setup seconds, campaign seconds, points, peak MB, reports)``."""
    from repro.experiments import ExperimentSpec, canonical_payload
    from repro.service.driver import DriverError, drive

    fleet, setup = start_fleet()
    addresses = fleet.addresses
    reports: List[Any] = []
    try:
        campaign_started = time.perf_counter()
        for spec in specs:
            sent = time.perf_counter()
            try:
                reports.append(drive(ExperimentSpec.from_dict(spec), addresses, shards=2))
            except DriverError as error:
                reports.append(error)
            latencies.append(time.perf_counter() - sent)
        campaign = time.perf_counter() - campaign_started
        peak_mb = peak_rss_mb(fleet)
    finally:
        fleet.stop()
    points = 0
    for spec, reference, report in zip(specs, references, reports):
        if isinstance(report, DriverError):
            checker.verdict(False, f"{spec['name']} drive failed: {report}")
            continue
        payload = canonical_payload(report.result.to_dict())
        points += len(payload["points"])
        checker.verdict(
            payload == reference and clean(payload),
            f"{spec['name']} (seed {spec['seed']}): merged artifact differs "
            "from the unsharded in-process run or is not clean",
        )
    return setup, campaign, points, peak_mb, [r for r in reports if not isinstance(r, DriverError)]


def drive_untraced(seed: int, seconds: float) -> Dict[str, Any]:
    checker = Checker()
    specs, references = plan_campaign(seed)
    spare_setups(1, start_fleet)
    setups = spare_setups(SETUPS // 2, start_fleet)
    rounds: List[Round] = []
    peaks: List[float] = []
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or len(rounds) < MIN_CAMPAIGNS:
        latencies: List[float] = []
        setup, campaign, points, peak_mb, _ = drive_round(specs, references, checker, latencies)
        setups.append(setup)
        rounds.append(Round(points, campaign, latencies))
        peaks.append(peak_mb)
    setups += spare_setups(SETUPS - SETUPS // 2, start_fleet)
    per_spec = [statistics.median(r.latencies[i] for r in rounds) for i in range(len(specs))]
    log(f"experiment-drive: {len(rounds)} campaigns, campaign walls "
        f"{[round(r.wall, 2) for r in rounds]}s; median drive per spec "
        + ", ".join(f"{spec['name']}@{spec['seed']} {t:.3f}s"
                    for spec, t in zip(specs, per_spec))
        + f"; set-ups {[round(s, 3) for s in setups]}s")
    return checker.result(end_to_end(setups, rounds, max(peaks)))


def drive_traced(seed: int, seconds: float) -> Dict[str, Any]:
    import spans

    checker = Checker()
    specs, references = plan_campaign(seed)
    tracer = spans.Tracer()
    # Driver-side spans come from a real drive over a fresh fleet ...
    spans.install(tracer)
    try:
        drive_started = time.perf_counter()
        *_, reports = drive_round(specs, references, checker, [])
        drive_ended = time.perf_counter()
    finally:
        tracer.restore()
    imbalance = shard_imbalance(tracer.spans, reports)
    attempts = sum(sum(report.attempts.values()) for report in reports)
    # ... and the layers inside a member from the same specs in-process,
    # in pairs of plain and traced passes.
    plain: List[Replay] = []
    traced: List[Replay] = []
    for index in range(TRACE_PAIRS):
        for with_trace in pair_order(index):
            replay = campaign_in_process(specs, references, checker,
                                         tracer if with_trace else None)
            (traced if with_trace else plain).append(replay)
    last = traced[-1]
    layers, selfs = layer_metrics(tracer, last.caches, [(last.start, last.end)],
                                  drive=(drive_started, drive_ended))
    layers["driver.shard_imbalance"] = metric(imbalance, "ratio")
    layers["driver.attempts"] = metric(attempts, "count")
    layers["trace.overhead_share"] = metric(overhead_share(plain, traced), "share")
    write_trace("experiment-drive", seed, tracer, layers, selfs)
    log(f"experiment-drive: in-process campaign plain {[round(r.wall, 2) for r in plain]}s, "
        f"traced {[round(r.wall, 2) for r in traced]}s")
    return checker.result(layers)


def campaign_in_process(specs, references, checker: Checker, tracer=None) -> Replay:
    """One campaign through ``CertificationService.handle``, fresh caches."""
    from repro.service.core import CertificationService

    import spans

    clear_program_caches()
    replay = Replay(items=list(specs))
    with CertificationService() as service:
        before = service.stats()["caches"]
        if tracer is not None:
            spans.install(tracer)
        replay.start = time.perf_counter()
        try:
            payloads = run_in_process(service, specs)
        finally:
            replay.end = time.perf_counter()
            if tracer is not None:
                tracer.restore()
        replay.caches = cache_deltas(before, service.stats()["caches"])
    for spec, payload, reference in zip(specs, payloads, references):
        checker.verdict(payload == reference, f"in-process {spec['name']} changed")
    return replay


def shard_imbalance(recorded, reports) -> float:
    """Mean over drives of slowest shard dispatch / mean shard dispatch."""
    dispatches = sorted(
        (span for span in recorded if span.layer == "driver.dispatch" and span.counted),
        key=lambda span: span.start,
    )
    ratios = []
    for report in reports:
        count = sum(report.attempts.values())
        group, dispatches = dispatches[:count], dispatches[count:]
        durations = [span.duration for span in group]
        if durations:
            ratios.append(max(durations) / statistics.mean(durations))
    return statistics.mean(ratios) if ratios else 0.0


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(tracer, caches, windows, drive: Optional[Tuple[float, float]] = None):
    """The per-layer metrics of one traced run, plus self time per layer.

    Times are self times (a span minus its child spans), summed over the
    run; ``windows`` are the in-process measured intervals, whose share
    inside named layers (not the :data:`CATCH_ALL` envelopes' self time) is
    ``trace.covered_share``.
    """
    import spans

    measured = list(windows) + ([drive] if drive else [])

    def inside_window(moment: float) -> bool:
        return any(lo <= moment <= hi for lo, hi in measured)

    recorded = [span for span in tracer.spans if inside_window(span.start)]
    routed = Counter(key for moment, key in tracer.events if inside_window(moment))
    selfs = spans.self_times(recorded)
    calls = spans.calls(recorded)

    def seconds(*layers: str) -> float:
        return sum(selfs.get(layer, 0.0) for layer in layers)

    compiles = calls.get("formulas.compile", 0)
    wall = sum(hi - lo for lo, hi in windows)
    # Time inside a catch-all envelope but in none of its children is not
    # explained by a named layer, so it counts as uncovered.
    in_windows = [s for s in recorded if any(lo <= s.start <= hi for lo, hi in windows)]
    window_selfs = spans.self_times(in_windows)
    inside = sum(spans.covered(recorded, lo, hi) for lo, hi in windows) - sum(
        window_selfs.get(layer, 0.0) for layer in CATCH_ALL
    )
    layers = {
        "protocol.decode_s": metric(seconds("protocol.decode"), "s"),
        "protocol.encode_s": metric(seconds("protocol.encode"), "s"),
        "core.dispatch_self_s": metric(seconds("core.dispatch"), "s"),
        "graphs.build_s": metric(seconds("graphs.build"), "s"),
        "graphs.builds": metric(calls.get("graphs.build", 0), "count"),
        "formulas.compile_s": metric(seconds("formulas.compile", "formulas.build"), "s"),
        "formulas.compile_hit_ratio": metric(
            1 - calls.get("formulas.build", 0) / compiles if compiles else 0.0, "ratio"
        ),
        "cache.fingerprint_s": metric(seconds("cache.fingerprint"), "s"),
        "cache.ids_s": metric(seconds("cache.ids"), "s"),
    }
    for name in CACHES:
        counters = caches.get(name, {"hits": 0, "misses": 0})
        lookups = counters["hits"] + counters["misses"]
        layers[f"cache.{name}.hit_ratio"] = metric(
            counters["hits"] / lookups if lookups else 0.0, "ratio"
        )
    layers.update({
        "holds.s": metric(seconds("holds"), "s"),
        "holds.calls": metric(calls.get("holds", 0), "count"),
        "prove.s": metric(seconds("prove"), "s"),
        "prove.calls": metric(calls.get("prove", 0), "count"),
        "network.compile_s": metric(seconds("network.compile"), "s"),
        "planner.plan_s": metric(seconds("planner.plan"), "s"),
    })
    for engine in ("compiled", "delta", "vector"):
        layers[f"planner.routed.{engine}"] = metric(
            routed.get(f"planner.routed.{engine}", 0), "count"
        )
    layers.update({
        "engine.s": metric(seconds("engine"), "s"),
        "engine.calls": metric(calls.get("engine", 0), "count"),
        "trials.schedule_s": metric(seconds("trials.schedule"), "s"),
        "trials.draw_s": metric(seconds("trials.draw"), "s"),
        "trials.count": metric(calls.get("trials.draw", 0), "count"),
        "lower_bounds.simulate_s": metric(seconds("lower_bounds.simulate"), "s"),
        "driver.dispatch_s": metric(
            sum(s.duration for s in recorded if s.layer == "driver.dispatch" and s.counted), "s"
        ),
        "driver.shard_imbalance": metric(0.0, "ratio"),
        "driver.merge_s": metric(seconds("driver.merge"), "s"),
        "driver.attempts": metric(0, "count"),
        "trace.overhead_share": metric(0.0, "share"),
        "trace.covered_share": metric(inside / wall if wall else 0.0, "share"),
    })
    return layers, selfs


def write_trace(workload: str, seed: int, tracer, layers: Dict[str, Any],
                selfs: Dict[str, float]) -> None:
    """Log the layer self times and dump the spans under ``.perfbench/``."""
    import spans

    TRACE_DIR.mkdir(exist_ok=True)
    ordered = sorted(selfs.items(), key=lambda kv: -kv[1])
    total = sum(selfs.values()) or 1.0
    log("layer self time (traced run):")
    for layer, seconds in ordered:
        log(f"  {layer:24s} {seconds:9.4f}s {100 * seconds / total:6.1f}%")
    covered_share = layers["trace.covered_share"]["value"]
    if covered_share < 0.9:
        log(f"{workload}: trace.covered_share {covered_share:.3f} is under the 0.9 bar")
    leftovers = spans.leftover_wrappers()
    if leftovers:
        raise RuntimeError(f"wrappers left installed after the traced run: {leftovers}")
    dump = {
        "workload": workload,
        "seed": seed,
        "environment": environment(),
        "metrics": layers,
        "self_times": dict(ordered),
        "spans": [
            [s.id, s.layer, s.parent, s.start, s.end]
            for s in tracer.spans
        ],
    }
    path = TRACE_DIR / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps(dump))
    log(f"wrote {path.relative_to(ROOT)} ({len(tracer.spans)} spans)")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"error: no program sources under {SRC}; run from a full checkout")
        return 2
    # Children import the checkout's sources and route with the committed
    # calibration, whatever the calling environment says.
    os.environ.pop("REPRO_CALIBRATION", None)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    print(json.dumps({"environment": environment(), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace}), flush=True)
    if args.workload == "experiment-drive":
        runner = drive_traced if args.trace else drive_untraced
        result = runner(args.seed, args.seconds)
    else:
        runner = certify_traced if args.trace else certify_untraced
        result = runner(args.workload, args.seed, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
