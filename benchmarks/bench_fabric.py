"""Fabric benchmark: the fault-tolerant shard driver vs an in-process run.

The shard driver buys fault tolerance — deadlines, retries, dead-worker
re-dispatch — by moving shards over the wire to a fleet of serve
processes.  That indirection has a price, and this benchmark tracks it:

* ``inline``  — ``run_experiment(spec)`` in this process, no sharding, the
  cheapest possible execution of the workload;
* ``fleet``   — the same spec driven over a :class:`LocalFleet` of serve
  subprocesses (one shard per member), with the fleet's startup cost
  reported separately from the drive itself;
* ``chaos``   — the same drive again, but one fleet member is armed with a
  ``kill:op=sweep,nth=1`` fault so it dies on its first shard; the
  difference against the clean drive is the price of detecting the dead
  worker and re-dispatching its shard;
* ``elastic`` — a supervised drive (``FleetSupervisor``) where a member is
  killed mid-run and a replacement is spawned; the difference against the
  same fleet shape without the kill is the recovery time of the
  self-healing path (detection + respawn + catch-up);
* ``split``   — a shard that stalls past its deadline, re-driven twice:
  once with whole-shard rerun (``split=False``) and once with straggler
  splitting (``split=True``), where the salvaged prefix skips
  re-verification; the difference is what splitting saves.

Every driven result is checked byte-identical (canonical form) to the
inline run — a drive that "wins" by computing something else is a bug, not
a speedup.  Timings are a **trajectory**, not a gate: fleet startup and
wire overhead legitimately dominate small workloads, so the run always
exits zero unless a measurement itself fails.  Results go to
``BENCH_fabric.json``.

Usage::

    python benchmarks/bench_fabric.py           # full measurement
    python benchmarks/bench_fabric.py --quick   # CI smoke variant
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.caching import clear_caches  # noqa: E402
from repro.experiments import canonical_payload, run_experiment  # noqa: E402
from repro.experiments.spec import SweepSpec  # noqa: E402
from repro.service.driver import LocalFleet, drive  # noqa: E402
from repro.service.supervisor import FleetSupervisor  # noqa: E402

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_fabric.json"


def sweep_workload(quick: bool) -> SweepSpec:
    """A sweep large enough that a shard is real work, small enough for CI."""
    if quick:
        return SweepSpec(
            scheme="tree", family="random-tree", sizes=(6, 8, 10, 12),
            trials=2, seed=7,
        )
    return SweepSpec(
        scheme="tree", family="random-tree", sizes=(24, 48, 96, 144, 192),
        trials=25, seed=7,
    )


def canonical_bytes(result) -> str:
    return json.dumps(canonical_payload(result.to_dict()), sort_keys=True)


def bench_inline(spec: SweepSpec) -> tuple:
    clear_caches()
    started = time.perf_counter()
    result = run_experiment(spec)
    return time.perf_counter() - started, canonical_bytes(result)


def bench_fleet(spec: SweepSpec, members: int, baseline: str,
                faults=None) -> dict:
    """Start a fleet, drive the spec across it, check byte-identity."""
    started = time.perf_counter()
    fleet = LocalFleet(members, faults=faults)
    with fleet as addresses:
        startup_s = time.perf_counter() - started
        drive_started = time.perf_counter()
        report = drive(spec, addresses, shards=members, deadline_s=120.0)
        drive_s = time.perf_counter() - drive_started
    if canonical_bytes(report.result) != baseline:
        raise AssertionError("driven artifact diverged from the inline run")
    return {
        "members": members,
        "startup_s": startup_s,
        "drive_s": drive_s,
        "shards": report.shards,
        "workers_lost": len(report.workers_lost),
        "redispatched_shards": len(report.redispatched),
        "attempts": sum(report.attempts.values()),
    }


def bench_elastic(spec: SweepSpec, baseline: str) -> dict:
    """Recovery time of the self-healing path.

    Two drives over the same fleet shape (one fast member, one deliberate
    straggler so the queue stays non-empty long enough for supervision to
    matter): a clean one, and one where the fast member is killed on its
    first answer and a :class:`FleetSupervisor` spawns a replacement.  The
    wall-clock difference is detection + respawn + catch-up.
    """
    straggler = {1: ["straggle:op=sweep,seconds=0.3"]}

    def run(faults, supervise):
        fleet = LocalFleet(2, faults=faults)
        supervisor = None
        if supervise:
            supervisor = FleetSupervisor(
                fleet, min_workers=2, max_workers=2, respawn_budget=2,
                backoff_s=0.05, poll_interval_s=0.02,
            )
        with fleet as addresses:
            started = time.perf_counter()
            report = drive(
                spec, addresses, shards=4, deadline_s=120.0, split=True,
                supervisor=supervisor,
            )
            elapsed = time.perf_counter() - started
        if canonical_bytes(report.result) != baseline:
            raise AssertionError("elastic artifact diverged from the inline run")
        return elapsed, report

    clean_s, _ = run(dict(straggler), supervise=False)
    healed_s, report = run(
        {0: ["kill:op=sweep,nth=1"], **straggler}, supervise=True
    )
    if not report.workers_spawned:
        raise AssertionError("elastic drive spawned no replacement")
    return {
        "clean_drive_s": clean_s,
        "healed_drive_s": healed_s,
        "recovery_s": healed_s - clean_s,
        "workers_lost": len(report.workers_lost),
        "workers_spawned": len(report.workers_spawned),
    }


def bench_split(spec: SweepSpec, baseline: str) -> dict:
    """Straggler splitting vs whole-shard rerun.

    A single member stalls on one mid-grid point until the shard deadline
    (``straggle`` with an ``nth`` counter, so the rerun is clean).  With
    ``split=False`` the retry re-verifies the whole grid; with
    ``split=True`` the finished prefix is salvaged and only the remainder
    is re-dispatched.  Same fault, same deadline — the delta is the cost
    of re-verifying work that was already done.
    """
    deadline_s = 0.75
    nth = max(2, len(spec.sizes) - 2)
    fault = {0: [f"straggle:op=sweep,nth={nth},seconds=5"]}

    def run(split):
        fleet = LocalFleet(1, faults=dict(fault))
        with fleet as addresses:
            started = time.perf_counter()
            report = drive(
                spec, addresses, shards=1, deadline_s=deadline_s, split=split
            )
            elapsed = time.perf_counter() - started
        if canonical_bytes(report.result) != baseline:
            raise AssertionError("split artifact diverged from the inline run")
        return elapsed, report

    whole_s, whole = run(split=False)
    if sum(whole.attempts.values()) < 2:
        raise AssertionError("whole-shard rerun never timed out — no retry measured")
    split_s, splitted = run(split=True)
    if not splitted.shards_split or not splitted.points_salvaged:
        raise AssertionError("split drive salvaged nothing — the straggle never fired")
    return {
        "deadline_s": deadline_s,
        "whole_rerun_s": whole_s,
        "split_rerun_s": split_s,
        "split_saving_s": whole_s - split_s,
        "points_salvaged": splitted.points_salvaged,
        "points_redispatched": splitted.points_redispatched,
        "grid_points": len(spec.sizes),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small sizes for CI smoke runs")
    parser.add_argument(
        "--output",
        type=Path,
        default=RESULTS_PATH,
        help=f"where to write the JSON report (default: {RESULTS_PATH})",
    )
    args = parser.parse_args(argv)

    spec = sweep_workload(args.quick)
    members = 2 if args.quick else 3
    inline_s, baseline = bench_inline(spec)
    clean = bench_fleet(spec, members, baseline)
    chaos = bench_fleet(
        spec, members, baseline, faults={0: ["kill:op=sweep,nth=1"]}
    )
    if not chaos["workers_lost"]:
        raise AssertionError("chaos drive lost no worker — the kill fault never fired")
    elastic = bench_elastic(spec, baseline)
    split = bench_split(spec, baseline)

    report = {
        "benchmark": "fabric_overhead",
        "quick": args.quick,
        "python": sys.version.split()[0],
        "spec": spec.to_dict(),
        "inline_s": inline_s,
        "fleet": clean,
        "chaos": chaos,
        "elastic": elastic,
        "split": split,
        "drive_overhead_vs_inline": (
            clean["drive_s"] / inline_s if inline_s else float("inf")
        ),
        "chaos_recovery_overhead_s": chaos["drive_s"] - clean["drive_s"],
        "byte_identical": True,
    }

    print("\n[fabric: fault-tolerant shard driver vs in-process run]")
    print(f"  workload    {spec.label} sizes={list(spec.sizes)} trials={spec.trials}")
    print(f"  inline      {inline_s:8.3f}s")
    print(f"  fleet       {clean['drive_s']:8.3f}s drive"
          f"  (+{clean['startup_s']:.3f}s startup, {members} member(s),"
          f" {clean['shards']} shard(s))")
    print(f"  chaos       {chaos['drive_s']:8.3f}s drive"
          f"  ({chaos['workers_lost']} worker(s) killed,"
          f" {chaos['redispatched_shards']} shard(s) re-dispatched)")
    print(f"  elastic     {elastic['healed_drive_s']:8.3f}s drive"
          f"  ({elastic['workers_lost']} killed,"
          f" {elastic['workers_spawned']} replacement(s) spawned,"
          f" recovery {elastic['recovery_s']:+.3f}s)")
    print(f"  split       {split['split_rerun_s']:8.3f}s drive"
          f"  vs {split['whole_rerun_s']:.3f}s whole-shard rerun"
          f"  ({split['points_salvaged']}/{split['grid_points']} point(s)"
          f" salvaged, {split['points_redispatched']} re-verified)")
    print(f"  drive overhead vs inline   {report['drive_overhead_vs_inline']:6.2f}x")
    print(f"  chaos recovery overhead    {report['chaos_recovery_overhead_s']:+.3f}s")
    print(f"  split saving vs whole rerun {report['split']['split_saving_s']:+.3f}s")
    print("  driven artifacts byte-identical to the inline run: yes")

    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    # Trajectory only: wire + startup overhead is expected to dominate small
    # workloads, so there is no pass/fail bar — identity checks above are
    # the correctness gate.
    return 0


if __name__ == "__main__":
    sys.exit(main())
