"""Certification as a service: the long-lived, batched, wire-speaking side.

Run with::

    python examples/service_quickstart.py

The paper's model already is a service: the prover assigns certificates
once, and every node re-checks its neighbourhood forever after.  This tour
shows the three ways to hold that service in your hands:

1. **in-process** — a :class:`~repro.service.CertificationService` answering
   typed requests, with cache-hit counters proving that the second request
   for the same (graph, seed) reuses the compiled topology and the decided
   ground truth;
2. **batched** — ``submit_many`` on the bounded worker pool, including the
   early-exit mode that cancels a batch's tail after the first failure;
3. **over the wire** — a ``python -m repro.cli serve`` child process spoken
   to through :class:`~repro.service.ServiceClient` (the same JSON-lines
   protocol a TCP deployment serves), structured errors included;
4. **fault-tolerant** — deadlines that answer a structured ``timeout``,
   the ``health`` and ``cancel`` control ops, and the shard driver
   dispatching a sweep across a :class:`~repro.service.LocalFleet` while
   one member is rigged to crash mid-shard.
"""

from __future__ import annotations

import json

from repro.experiments import canonical_payload, run_experiment
from repro.experiments.spec import SweepSpec
from repro.service import (
    CertificationService,
    CertifyRequest,
    FaultInjector,
    HealthRequest,
    LocalFleet,
    ServiceClient,
    drive,
)


def in_process_tour() -> None:
    print("== 1. in-process service ==")
    with CertificationService(workers=2) as service:
        request = CertifyRequest(scheme="treedepth", graph="union-of-cycles:4",
                                 params={"t": 4})
        first = service.certify(request)
        print(f"first request:  holds={first.holds} accepted={first.accepted} "
              f"({first.max_certificate_bits} bits)")
        second = service.certify(request)
        print(f"second request: identical verdict: {second == first}")
        counters = service.stats()["caches_since_start"]
        for name in ("holds", "networks", "identifiers"):
            print(f"  cache {name:<12} hits={counters[name]['hits']} "
                  f"misses={counters[name]['misses']}")
        print("  (the expensive ground-truth decision ran once, not twice)")


def batched_tour() -> None:
    print("\n== 2. batched submission ==")
    with CertificationService(workers=2) as service:
        batch = [CertifyRequest(scheme="tree", graph=f"random-tree:{n}", seed=n)
                 for n in (8, 16, 32, 64)]
        responses = service.submit_many(batch)
        for request, response in zip(batch, responses):
            print(f"  {request.graph:<16} accepted={response.accepted} "
                  f"{response.max_certificate_bits} bits")

    # Early exit: a failing request cancels whatever is still queued behind
    # it (best-effort — requests a worker already started still finish).
    with CertificationService(workers=2) as service:
        poisoned = [CertifyRequest(scheme="tree", graph="path:12")]
        poisoned += [CertifyRequest(scheme="no-such-scheme", graph="path:4")]
        poisoned += [CertifyRequest(scheme="tree", graph=f"random-tree:{100 + n}",
                                    seed=n) for n in range(20)]
        responses = service.submit_many(poisoned, stop_on_failure=True)
        codes = [r.code for r in responses if not r.ok]
        print(f"  poisoned batch: {codes.count('skipped')} of {len(poisoned)} "
              f"requests skipped after the '{codes[0]}' failure")


def wire_tour() -> None:
    print("\n== 3. over the wire (a serve child process) ==")
    # ServiceClient.stdio() spawns `python -m repro.cli serve` and talks
    # JSON-lines over its pipes; .connect(host, port) does the same against
    # `python -m repro.cli serve --tcp HOST:PORT`.
    with ServiceClient.stdio() as client:
        verdict = client.certify(scheme="mso-trees",
                                 params={"automaton": "perfect-matching"},
                                 graph="path:8")
        print(f"  mso-trees on path:8: accepted={verdict.accepted} "
              f"({verdict.max_certificate_bits} bits, bound {verdict.bound})")

        error = client.certify(scheme="treedepth", params={"t": 0}, graph="path:7")
        print(f"  invalid parameter -> code={error.code!r}")
        error = client.certify(scheme="treedepth", params={"t": 7}, graph="path:64")
        print(f"  undecidable ground truth -> code={error.code!r}")

        stats = client.stats()
        print(f"  server counters: {stats.result['service']['requests']}")
    print("  (leaving the context sent a shutdown request; the child exited)")


def fault_tolerance_tour() -> None:
    print("\n== 4. fault tolerance: deadlines, health, and the shard driver ==")
    with CertificationService(workers=2) as service:
        # A freeze fault stands in for a genuinely slow request; the
        # per-request deadline turns it into a structured timeout instead
        # of a wedged connection.
        service.fault_injector = FaultInjector.parse(["freeze:op=certify,seconds=0"])
        stuck = service.respond(
            CertifyRequest(scheme="tree", graph="path:4", deadline_s=0.3)
        )
        print(f"  frozen request under a 0.3s deadline -> code={stuck.code!r}")
        service.fault_injector = None

        health = service.respond(HealthRequest()).result
        print(f"  health: ok={health['ok']} workers={health['workers']} "
              f"inflight={health['inflight']} "
              f"timeouts so far={health['requests']['timeouts']}")

    # The shard driver: the same sweep artifact, produced three ways —
    # in-process, driven over a healthy fleet, and driven over a fleet
    # whose first member dies on its first shard.
    spec = SweepSpec(scheme="tree", family="random-tree", sizes=(6, 8, 10, 12),
                     trials=2, seed=7)
    inline = json.dumps(canonical_payload(run_experiment(spec).to_dict()),
                        sort_keys=True)
    with LocalFleet(2, faults={0: ["kill:op=sweep,nth=1"]}) as addresses:
        report = drive(spec, addresses, deadline_s=60.0)
    driven = json.dumps(canonical_payload(report.result.to_dict()),
                        sort_keys=True)
    print(f"  chaos drive: {report.shards} shard(s), "
          f"{len(report.workers_lost)} worker(s) lost, "
          f"{len(report.redispatched)} shard(s) re-dispatched")
    print(f"  driven artifact byte-identical to the in-process run: "
          f"{driven == inline}")


def main() -> None:
    in_process_tour()
    batched_tour()
    wire_tour()
    fault_tolerance_tour()


if __name__ == "__main__":
    main()
