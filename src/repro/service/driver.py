"""The self-healing shard driver: one experiment, an elastic fleet of workers.

``sweep --shard i/k`` (PR 3) made experiments shardable by hand: run the
``k`` shards yourself, keep every process alive yourself, ``merge`` the
partial artifacts yourself.  This module automates the whole loop and makes
it survive failures:

* :class:`LocalFleet` spawns ``python -m repro.cli serve --tcp 127.0.0.1:0``
  child processes and collects the addresses they announce (optionally with
  fault-injection flags — the chaos harness).  Each member's stderr is
  drained by a background thread into a bounded tail, so a member that dies
  on startup surfaces *its own* diagnostics, and members can be spawned and
  stopped individually mid-drive (the supervisor's levers);
* :class:`ShardDriver` dispatches the shards ``(0,k) .. (k-1,k)`` of one
  :class:`~repro.experiments.spec.ExperimentSpec` of any kind to the fleet
  as wire ``run`` requests, detects dead or wedged workers,
  re-dispatches lost shards to the survivors, and degrades gracefully all
  the way down to a single worker;
* the partial payloads are stitched back through
  :func:`~repro.experiments.artifacts.merge_artifacts`, so the driven
  result equals the unsharded run's artifact *exactly* (byte-identical
  under :func:`~repro.experiments.artifacts.canonical_payload`, which
  normalises only wall-clock timings).

Three self-healing mechanisms sit on top of the PR-6 retry loop:

**Straggler splitting** (``split=True``).  A shard ``(s, d)`` is the strided
index set ``s, s+d, s+2d, ...`` — so after its first ``m`` points the
*remainder* is still a plain arithmetic progression, and splitting it ``p``
ways yields the ordinary shards ``(s + (m+j)·d, d·p)``.  When a shard times
out or its worker dies, the driver does not re-run it whole: any finished
prefix carried by the structured ``timeout`` answer (the server's partial
salvage) is kept as a completed pseudo-shard, and only the remainder is
re-dispatched — split across the survivors so the slowest shard stops
gating the drive.  Because sub-shards are just ``(i, k)`` pairs with global
indices and derived per-point seeds, they ride the existing wire requests
and :func:`merge_artifacts` stitches them byte-identically.

**Partition-aware supervision.**  A transport failure no longer means
"dead": a fresh-connection probe classifies the worker as *alive* (answer
arrived — retry here), *confirmed dead* (connection refused — the process
is gone), or *suspect* (reachable but silent — a partition or a wedge).  A
suspect's shard is redistributed immediately, then the driver probes with
backoff: a recovered suspect rejoins the fleet, an exhausted one is
declared dead.  Every dispatch carries a monotonically fencing ``attempt``
number, so when a partition heals and the presumed-dead worker's late
answer finally lands, the stale completion is *discarded* (logged as
``superseded``), never merged twice.

**Elastic fleets.**  :meth:`ShardDriver.drive` accepts a supervisor (see
:class:`repro.service.supervisor.FleetSupervisor`) that watches the drive's
ledger, spawns replacement members when the fleet shrinks below the demand
band, and retires idle members when the queue drains — all within a
bounded respawn budget, so a crash-looping fleet converges to a clean
failure instead of spawning forever.

Failure taxonomy: transport errors and ``timeout`` / ``cancelled`` /
``internal-error`` responses are *transient* (the shard is retried, up to
``max_attempts`` dispatches); every other error code — ``unknown-scheme``,
``invalid-param``, ... — is *permanent* (retrying a bad spec on another
worker cannot help) and aborts the drive with a :class:`DriverError`.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.experiments.artifacts import (
    ARTIFACT_SCHEMA,
    ExperimentResult,
    merge_artifacts,
    result_from_payload,
)
from repro.experiments.spec import ExperimentSpec
from repro.service.client import (
    ServiceClient,
    ServiceConnectTimeout,
    ServiceTransportError,
)
from repro.service.messages import (
    ErrorResponse,
    ExperimentRequest,
    ExperimentResponse,
    HealthResponse,
)

#: Error codes worth retrying on another worker (or the same one later).
#: Everything else is the request's own fault and aborts the drive.
TRANSIENT_CODES = ("timeout", "cancelled", "connect-timeout", "internal-error")

#: Default grace added to a shard's deadline to obtain the client read
#: timeout: the server answers a structured ``timeout`` *within* the
#: deadline, so a read exceeding deadline + grace means the worker itself
#: is gone, wedged, or on the wrong side of a partition.
_READ_GRACE_S = 10.0


class DriverError(RuntimeError):
    """The drive could not complete: a permanent error, an exhausted shard,
    or the whole fleet lost while work remained."""


@dataclass(frozen=True)
class DriveReport:
    """What one :meth:`ShardDriver.drive` run did, worker by worker.

    ``result`` is the merged experiment result; ``assignments`` maps each
    *original* shard index to the worker that first landed work for it;
    ``attempts`` counts dispatches per original shard (1 = no retry was
    needed; a split shard reports the deepest attempt among its pieces);
    ``workers_lost`` lists the workers that died or wedged mid-drive;
    ``events`` is the ordered fault log — ``(event, worker, item, detail)``
    tuples.  The healing counters: ``shards_split`` work items replaced by
    sub-shards, ``points_salvaged`` grid points rescued from partial
    (timed-out) answers, ``points_redispatched`` grid points that had to be
    re-run elsewhere — the drive's "re-verified work", strictly less than
    whole-shard reruns whenever salvage succeeded.
    """

    result: ExperimentResult
    shards: int
    assignments: Dict[int, str] = field(default_factory=dict)
    attempts: Dict[int, int] = field(default_factory=dict)
    workers_lost: Tuple[str, ...] = ()
    events: Tuple[Tuple[str, str, Optional[int], str], ...] = ()
    shards_split: int = 0
    points_salvaged: int = 0
    points_redispatched: int = 0
    workers_spawned: Tuple[str, ...] = ()
    workers_retired: Tuple[str, ...] = ()

    @property
    def redispatched(self) -> Tuple[int, ...]:
        """Shards that needed more than one dispatch to complete."""
        return tuple(sorted(i for i, n in self.attempts.items() if n > 1))


@dataclass
class _WorkItem:
    """One dispatchable unit of the drive: a strided slice of the grid.

    The initial items are the shards ``(0,k) .. (k-1,k)``; splitting mints
    new items (ids from ``k`` upward) whose ``origin`` still names the
    original shard, so reporting stays in the user's shard vocabulary.
    ``indices`` is the item's global grid coverage — ``None`` when the
    state was built without a grid size (splitting disabled).
    """

    id: int
    start: int
    stride: int
    origin: int
    indices: Optional[Tuple[int, ...]] = None


class _DriveState:
    """The shared ledger of one drive: queue, attempts, payloads, fatalities.

    All mutation happens under one condition variable; worker threads block
    in :meth:`next_shard` when the queue is momentarily empty (another
    worker may still die and requeue its item) and wake on every change.
    Completions and give-backs are *fenced* by the dispatch attempt number:
    an answer for a superseded dispatch — e.g. from a partitioned worker
    whose shard was split and finished elsewhere — is discarded, not merged
    twice.
    """

    def __init__(
        self,
        shard_count: int,
        max_attempts: int,
        workers: Sequence[str],
        grid_size: Optional[int] = None,
        split: bool = False,
    ):
        self.count = shard_count
        self.max_attempts = max_attempts
        self.split = split
        self.cond = threading.Condition()
        self.items: Dict[int, _WorkItem] = {}
        for index in range(shard_count):
            indices = (
                tuple(range(index, grid_size, shard_count))
                if grid_size is not None
                else None
            )
            self.items[index] = _WorkItem(index, index, shard_count, index, indices)
        self._next_id = shard_count
        self.queue: deque = deque(range(shard_count))
        self.outstanding = set(range(shard_count))
        self.attempts: Dict[int, int] = {i: 0 for i in range(shard_count)}
        self.payloads: Dict[int, Dict[str, Any]] = {}
        self.assignments: Dict[int, str] = {}
        self.inflight: Dict[str, int] = {}
        self.alive = set(workers)
        self.retiring: set = set()
        self.retired: List[str] = []
        self._retired_unstopped: List[str] = []
        self.spawned: List[str] = []
        self.lost: List[str] = []
        self.fatal: Optional[str] = None
        self.events: List[Tuple[str, str, Optional[int], str]] = []
        self.shards_split = 0
        self.points_salvaged = 0
        self.points_redispatched = 0
        #: Hook consulted before "all workers lost" turns fatal: a
        #: supervisor with respawn budget left returns True and the drive
        #: stays open for the replacement it is about to spawn.
        self.recovery_possible: Optional[Callable[[], bool]] = None

    # Every public method below expects to be called WITHOUT the lock held.

    def log(self, event: str, worker: str, shard: Optional[int], detail: str) -> None:
        with self.cond:
            self.events.append((event, worker, shard, detail))

    def finished(self) -> bool:
        with self.cond:
            return self.fatal is not None or not self.outstanding

    def work_left(self) -> int:
        with self.cond:
            return len(self.outstanding)

    def active_workers(self) -> List[str]:
        with self.cond:
            return sorted(self.alive - self.retiring)

    def item(self, index: int) -> Optional[_WorkItem]:
        with self.cond:
            return self.items.get(index)

    def ticket(self, index: int) -> Tuple[int, int, int]:
        """The claimed item's ``(start, stride, attempt)`` dispatch ticket."""
        with self.cond:
            item = self.items[index]
            return item.start, item.stride, self.attempts[index]

    def next_shard(self, worker: str) -> Optional[int]:
        """Claim the next work item to run, or None when the drive is over.

        A worker marked for retirement confirms it here — between requests,
        never under an in-flight dispatch — unless it has meanwhile become
        the last active worker, in which case the retirement is cancelled.
        """
        with self.cond:
            while True:
                if self.fatal is not None or not self.outstanding:
                    self.inflight.pop(worker, None)
                    return None
                if worker in self.retiring:
                    others = [w for w in self.alive if w not in self.retiring and w != worker]
                    if others:
                        self.retiring.discard(worker)
                        self.alive.discard(worker)
                        self.retired.append(worker)
                        self._retired_unstopped.append(worker)
                        self.inflight.pop(worker, None)
                        self.events.append(
                            ("retired", worker, None, "scale-down confirmed")
                        )
                        self.cond.notify_all()
                        return None
                    self.retiring.discard(worker)
                    self.events.append(
                        ("retire-cancelled", worker, None, "last active worker; staying")
                    )
                if self.queue:
                    index = self.queue.popleft()
                    self.attempts[index] += 1
                    self.inflight[worker] = index
                    return index
                # Queue drained but items are still in flight elsewhere; if
                # one of those workers dies its item comes back here.
                self.cond.wait(0.05)

    def complete(
        self,
        index: int,
        worker: str,
        payload: Dict[str, Any],
        attempt: Optional[int] = None,
    ) -> None:
        with self.cond:
            if self.inflight.get(worker) == index:
                del self.inflight[worker]
            stale = index not in self.outstanding or (
                attempt is not None and attempt != self.attempts.get(index)
            )
            if stale:
                # The fencing discard: a re-dispatched (or split) item may
                # race its presumed-dead first worker.  First answer wins;
                # a late one — however it got here — must not merge twice.
                self.events.append(
                    (
                        "superseded",
                        worker,
                        index,
                        f"late answer for item {index} "
                        f"(attempt {attempt}, current {self.attempts.get(index)}) discarded",
                    )
                )
                self.cond.notify_all()
                return
            item = self.items.get(index)
            origin = item.origin if item is not None else index
            self.payloads[index] = payload
            self.outstanding.discard(index)
            self.assignments.setdefault(origin, worker)
            self.cond.notify_all()

    def requeue(
        self, index: int, worker: str, detail: str, attempt: Optional[int] = None
    ) -> None:
        """Put an item back after a transient failure (attempt-capped)."""
        self._give_back(index, worker, detail, attempt=attempt, allow_split=False)

    def redistribute(
        self,
        index: int,
        worker: str,
        detail: str,
        attempt: Optional[int] = None,
        salvaged: Optional[Tuple[int, Dict[str, Any]]] = None,
        exclude: Optional[str] = None,
    ) -> None:
        """Give an item back, splitting its remainder across survivors.

        ``salvaged`` is the ``(prefix_length, payload)`` of any finished
        prefix rescued from a partial answer; the prefix is recorded as a
        completed pseudo-item and only the remainder is re-dispatched.
        ``exclude`` names a worker (typically the suspect the item was
        taken from) that must not count as a survivor when sizing pieces.
        Falls back to a plain requeue when splitting is off or the item's
        grid coverage is unknown.
        """
        self._give_back(
            index,
            worker,
            detail,
            attempt=attempt,
            salvaged=salvaged,
            exclude=exclude,
            allow_split=True,
        )

    def _give_back(
        self,
        index: int,
        worker: str,
        detail: str,
        attempt: Optional[int] = None,
        salvaged: Optional[Tuple[int, Dict[str, Any]]] = None,
        exclude: Optional[str] = None,
        allow_split: bool = True,
    ) -> None:
        with self.cond:
            if self.inflight.get(worker) == index:
                del self.inflight[worker]
            if index not in self.outstanding:
                # A re-dispatch already completed (or a split consumed) this
                # item; the late failure of the first dispatch is moot.
                self.events.append(("retry", worker, index, detail))
                self.cond.notify_all()
                return
            if attempt is not None and attempt != self.attempts.get(index):
                self.events.append(
                    (
                        "superseded",
                        worker,
                        index,
                        f"stale give-back of item {index} "
                        f"(attempt {attempt}, current {self.attempts.get(index)}): {detail}",
                    )
                )
                self.cond.notify_all()
                return
            if self.attempts[index] >= self.max_attempts:
                self.events.append(("retry", worker, index, detail))
                self.fatal = (
                    f"shard {index} failed {self.attempts[index]} time(s), "
                    f"giving up (last: {detail})"
                )
                self.cond.notify_all()
                return
            item = self.items.get(index)
            if (
                allow_split
                and self.split
                and item is not None
                and item.indices is not None
            ):
                self._split_locked(item, worker, detail, salvaged, exclude)
            else:
                self.events.append(("retry", worker, index, detail))
                self.queue.append(index)
            self.cond.notify_all()

    def _split_locked(
        self,
        item: _WorkItem,
        worker: str,
        detail: str,
        salvaged: Optional[Tuple[int, Dict[str, Any]]],
        exclude: Optional[str],
    ) -> None:
        """Replace a live item with salvage + sub-shards (lock held).

        The item covers the strided indices ``start, start+stride, ...``;
        its first ``m`` points may be salvaged from a partial answer, and
        the remainder — still an arithmetic progression — splits ``p`` ways
        into the ordinary shards ``(start + (m+j)·stride, stride·p)``.
        """
        index = item.id
        prefix = 0
        if salvaged is not None:
            prefix, payload = salvaged
            pseudo = _WorkItem(
                self._next_id,
                item.start,
                item.stride,
                item.origin,
                item.indices[:prefix],
            )
            self._next_id += 1
            self.items[pseudo.id] = pseudo
            self.attempts[pseudo.id] = self.attempts[index]
            self.payloads[pseudo.id] = payload
            self.assignments.setdefault(item.origin, worker)
            self.points_salvaged += prefix
        remaining = item.indices[prefix:]
        self.outstanding.discard(index)
        if not remaining:
            self.events.append(
                (
                    "salvage",
                    worker,
                    index,
                    f"all {prefix} remaining point(s) salvaged from the "
                    f"partial answer: {detail}",
                )
            )
            return
        survivors = sum(
            1
            for candidate in self.alive
            if candidate not in self.retiring and candidate != exclude
        )
        pieces = max(1, min(survivors, len(remaining)))
        if prefix == 0 and pieces == 1:
            # Nothing salvaged and nobody to share with: a "split" would
            # re-dispatch the identical index set under a new id — requeue.
            self.outstanding.add(index)
            self.events.append(("retry", worker, index, detail))
            self.queue.append(index)
            return
        stride = item.stride * pieces
        children = []
        for piece in range(pieces):
            child = _WorkItem(
                self._next_id,
                remaining[piece],
                stride,
                item.origin,
                tuple(remaining[piece::pieces]),
            )
            self._next_id += 1
            self.items[child.id] = child
            self.attempts[child.id] = self.attempts[index]
            self.outstanding.add(child.id)
            self.queue.append(child.id)
            children.append(child.id)
        self.shards_split += 1
        self.points_redispatched += len(remaining)
        self.events.append(
            (
                "split",
                worker,
                index,
                f"{prefix} point(s) salvaged, {len(remaining)} remaining "
                f"point(s) split {pieces} way(s) as item(s) {children}: {detail}",
            )
        )

    def fail(self, worker: str, index: Optional[int], detail: str) -> None:
        """A permanent failure: abort the whole drive."""
        with self.cond:
            self.events.append(("fatal", worker, index, detail))
            if self.fatal is None:
                self.fatal = detail
            self.cond.notify_all()

    def suspect(
        self, worker: str, index: int, detail: str, attempt: Optional[int] = None
    ) -> None:
        """Mark a worker suspect and take its held item away *now*.

        The worker stays in the fleet (it may recover and rejoin); its item
        is redistributed immediately so survivors make progress while the
        probe-retry loop decides the suspect's fate.
        """
        self.log("suspect", worker, index, detail)
        self._give_back(
            index, worker, detail, attempt=attempt, exclude=worker, allow_split=True
        )

    def worker_lost(self, worker: str, index: Optional[int], detail: str) -> None:
        """Drop a worker from the fleet, redistributing the item it held."""
        with self.cond:
            self.events.append(("worker-lost", worker, index, detail))
            self.alive.discard(worker)
            self.retiring.discard(worker)
            self.inflight.pop(worker, None)
            self.lost.append(worker)
            if index is not None and index in self.outstanding:
                item = self.items.get(index)
                if self.attempts[index] >= self.max_attempts:
                    self.fatal = (
                        f"shard {index} lost with worker {worker} after "
                        f"{self.attempts[index]} attempt(s): {detail}"
                    )
                elif self.split and item is not None and item.indices is not None:
                    self._split_locked(item, worker, detail, None, None)
                else:
                    self.queue.append(index)
            if not self.alive and self.outstanding and self.fatal is None:
                recoverable = (
                    self.recovery_possible is not None and self.recovery_possible()
                )
                if not recoverable:
                    self.fatal = (
                        f"all {len(self.lost)} worker(s) lost with "
                        f"{len(self.outstanding)} shard(s) unfinished"
                    )
            self.cond.notify_all()

    # -- the supervisor's levers ---------------------------------------------

    def add_worker(self, worker: str) -> None:
        """Register a freshly spawned replacement member."""
        with self.cond:
            self.alive.add(worker)
            self.spawned.append(worker)
            self.events.append(
                ("worker-spawned", worker, None, "replacement joined the fleet")
            )
            self.cond.notify_all()

    def request_retire(self) -> Optional[str]:
        """Pick a member for scale-down; idle preferred, never the last.

        The retirement is a *request*: the worker confirms it in
        :meth:`next_shard` once idle, so an in-flight dispatch always lands
        before its worker leaves — the scale-down race is resolved in the
        completion's favour.
        """
        with self.cond:
            candidates = [w for w in self.alive if w not in self.retiring]
            if len(candidates) <= 1:
                return None
            idle = sorted(w for w in candidates if w not in self.inflight)
            busy = sorted(w for w in candidates if w in self.inflight)
            target = (idle or busy)[-1]
            self.retiring.add(target)
            self.events.append(("retire", target, None, "scale-down requested"))
            self.cond.notify_all()
            return target

    def drain_retired(self) -> List[str]:
        """Confirmed retirements whose processes still need stopping."""
        with self.cond:
            drained = self._retired_unstopped
            self._retired_unstopped = []
            return drained

    def report_attempts(self) -> Dict[int, int]:
        """Dispatch counts folded back onto the original shard indices.

        A split shard's pieces inherit the parent's count, so the deepest
        piece tells how many times *some* part of the shard was dispatched.
        """
        with self.cond:
            out: Dict[int, int] = {}
            for item_id, count in self.attempts.items():
                item = self.items.get(item_id)
                origin = item.origin if item is not None else item_id
                out[origin] = max(out.get(origin, 0), count)
            return out


class ShardDriver:
    """Dispatch one experiment's shards to a fleet of serve processes.

    Parameters
    ----------
    deadline_s:
        Per-shard request deadline.  The server answers an expired shard
        with a structured ``timeout`` error (retried elsewhere); the client
        read additionally times out at deadline + grace, so even a worker
        frozen solid cannot wedge the drive.  ``None`` trusts the workers.
    max_attempts:
        Dispatch cap per shard; default ``max(3, fleet size + 1)`` so a
        cascade of dying workers cannot exhaust a shard that a survivor
        would complete.
    request_retries:
        Same-worker transport retries per dispatch (idempotent via
        ``request_id`` replay) before the failure is escalated to the
        health probe / re-dispatch machinery.
    health_timeout_s:
        Budget for the fresh-connection health probe that classifies a
        worker after a transport error (alive / suspect / dead).
    connect_deadline_s:
        Budget for each worker's initial connection (with the client's
        jittered exponential backoff inside).
    split:
        Enable straggler mitigation: a timed-out or orphaned shard keeps
        its salvaged prefix and re-dispatches only the remainder, split
        across the survivors as sub-shards.
    read_grace_s:
        Grace past the deadline before a client read is declared a
        transport failure (default 10 s; lower it to detect partitions
        faster in tests and chaos drives).
    suspect_probes:
        Probe rounds granted to a suspect (reachable-but-silent) worker
        before it is declared dead; ``0`` declares on first suspicion.
    suspect_backoff_s:
        Initial delay between suspect probes, doubled each round.
    """

    def __init__(
        self,
        deadline_s: Optional[float] = None,
        max_attempts: Optional[int] = None,
        request_retries: int = 1,
        health_timeout_s: float = 5.0,
        connect_deadline_s: float = 10.0,
        split: bool = False,
        read_grace_s: float = _READ_GRACE_S,
        suspect_probes: int = 3,
        suspect_backoff_s: float = 0.5,
    ) -> None:
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        if max_attempts is not None and max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if read_grace_s <= 0:
            raise ValueError("read_grace_s must be positive")
        if suspect_probes < 0:
            raise ValueError("suspect_probes must be >= 0")
        if suspect_backoff_s < 0:
            raise ValueError("suspect_backoff_s must be >= 0")
        self.deadline_s = deadline_s
        self.max_attempts = max_attempts
        self.request_retries = request_retries
        self.health_timeout_s = health_timeout_s
        self.connect_deadline_s = connect_deadline_s
        self.split = split
        self.read_grace_s = read_grace_s
        self.suspect_probes = suspect_probes
        self.suspect_backoff_s = suspect_backoff_s

    # -- fleet plumbing ------------------------------------------------------

    def _read_timeout(self) -> Optional[float]:
        if self.deadline_s is None:
            return None
        return self.deadline_s + self.read_grace_s

    def _connect(self, worker: Tuple[str, int]) -> ServiceClient:
        host, port = worker
        return ServiceClient.connect(
            host,
            port,
            read_timeout=self._read_timeout(),
            connect_deadline_s=self.connect_deadline_s,
            # Mid-conversation reconnects fail fast: if the port refuses
            # after a broken exchange the worker is almost certainly dead,
            # and _probe makes the actual liveness call — burning the full
            # initial-connect budget here just delays recovery.
            reconnect_deadline_s=1.0,
        )

    def _probe(self, worker: Tuple[str, int]) -> str:
        """Classify a worker on a fresh, short-timeout connection.

        Returns ``"alive"`` (the health probe answered), ``"dead"`` (the
        connection was refused or reset — the process is confirmed gone),
        or ``"suspect"`` (reachable but silent: connects are accepted yet
        nothing answers — what a network partition or a wedged process
        looks like from outside).  The distinction is what keeps a
        partitioned-but-alive worker from being buried prematurely *and*
        keeps the drive from waiting on it.
        """
        host, port = worker
        try:
            probe = ServiceClient.connect(
                host,
                port,
                retries=3,
                retry_delay=0.05,
                read_timeout=self.health_timeout_s,
                connect_deadline_s=self.health_timeout_s,
            )
        except ServiceConnectTimeout as error:
            return "dead" if error.refused else "suspect"
        except ServiceTransportError:
            return "dead"
        try:
            response = probe.health()
            ok = isinstance(response, HealthResponse) and bool(
                response.result.get("ok")
            )
            return "alive" if ok else "dead"
        except ServiceTransportError as error:
            return "suspect" if error.timed_out else "dead"
        finally:
            probe.close()

    def _healthy(self, worker: Tuple[str, int]) -> bool:
        """The binary view of :meth:`_probe` (dead-or-busy discriminator)."""
        return self._probe(worker) == "alive"

    # -- requests ------------------------------------------------------------

    def shard_request(
        self,
        spec: ExperimentSpec,
        index: int,
        count: int,
        attempt: Optional[int] = None,
    ) -> ExperimentRequest:
        """The wire request for shard ``(index, count)`` of ``spec``."""
        suffix = f"-a{attempt}" if attempt is not None else ""
        return ExperimentRequest(
            spec=replace(spec, shard=(index, count)),
            deadline_s=self.deadline_s,
            request_id=f"drive-{uuid.uuid4().hex[:8]}-shard{index}of{count}{suffix}",
            attempt=attempt,
        )

    def _salvage(
        self,
        state: _DriveState,
        spec: ExperimentSpec,
        index: int,
        response: ErrorResponse,
    ) -> Optional[Tuple[int, Dict[str, Any]]]:
        """Extract the finished prefix of a timed-out item's partial answer.

        The server's structured ``timeout`` / ``cancelled`` errors carry the
        grid points that *did* finish before the scope fired.  Only the
        maximal in-order prefix of the item's index progression is kept —
        that is what keeps the remainder an arithmetic progression the
        split can express as ordinary ``(i, k)`` shards.  Returns
        ``(prefix_length, artifact_payload)`` or ``None``.
        """
        if not self.split or response.code not in ("timeout", "cancelled"):
            return None
        item = state.item(index)
        if item is None or item.indices is None:
            return None
        partial = response.partial or {}
        points = partial.get("points") or []
        by_index: Dict[int, Dict[str, Any]] = {}
        for point in points:
            if isinstance(point, Mapping) and isinstance(point.get("index"), int):
                by_index[point["index"]] = dict(point)
        prefix: List[Dict[str, Any]] = []
        for global_index in item.indices:
            found = by_index.get(global_index)
            if found is None:
                break
            prefix.append(found)
        if not prefix:
            return None
        sharded = replace(spec, shard=(item.start, item.stride))
        payload = {
            "schema": ARTIFACT_SCHEMA,
            "kind": type(spec).kind,
            "spec": sharded.to_dict(),
            "points": prefix,
            "bound": None,
            "fit": None,
        }
        return len(prefix), payload

    # -- the drive -----------------------------------------------------------

    def drive(
        self,
        spec: ExperimentSpec,
        workers: Sequence[Tuple[str, int]],
        shards: Optional[int] = None,
        supervisor: Optional[Any] = None,
    ) -> DriveReport:
        """Run ``spec`` sharded across ``workers``; returns the merged result.

        ``shards`` defaults to the fleet size.  The drive completes as long
        as at least one worker survives (or, with a ``supervisor``, as long
        as the respawn budget can keep producing one); a permanent error
        response, an attempt-exhausted shard, or the unrecoverable loss of
        the whole fleet raises :class:`DriverError`.
        """
        if not workers:
            raise DriverError("the drive needs at least one worker")
        spec = spec.unsharded()
        spec.validate()
        count = shards if shards is not None else len(workers)
        if count < 1:
            raise DriverError("shards must be at least 1")
        labels = [f"{host}:{port}" for host, port in workers]
        max_attempts = (
            self.max_attempts
            if self.max_attempts is not None
            else max(3, len(workers) + 1)
        )
        state = _DriveState(
            count,
            max_attempts,
            labels,
            grid_size=len(spec.sizes),
            split=self.split,
        )

        threads: List[threading.Thread] = []
        threads_lock = threading.Lock()

        def launch(worker: Tuple[str, int], label: str) -> None:
            thread = threading.Thread(
                target=self._worker_loop,
                args=(state, worker, label, spec),
                name=f"shard-drive-{label}",
                daemon=True,
            )
            with threads_lock:
                threads.append(thread)
            thread.start()

        sup_thread: Optional[threading.Thread] = None
        if supervisor is not None:
            state.recovery_possible = supervisor.can_spawn

            def enlist(address: Tuple[str, int]) -> str:
                label = f"{address[0]}:{address[1]}"
                state.add_worker(label)
                launch(address, label)
                return label

            sup_thread = threading.Thread(
                target=supervisor.run,
                args=(state, enlist),
                name="fleet-supervisor",
                daemon=True,
            )

        for worker, label in zip(workers, labels):
            launch(worker, label)
        if sup_thread is not None:
            sup_thread.start()

        while True:
            with threads_lock:
                current = list(threads)
            for thread in current:
                thread.join(timeout=0.2)
            with threads_lock:
                drained = all(not thread.is_alive() for thread in threads)
            if drained:
                if supervisor is None or state.finished():
                    break
                # Workers are all gone but the supervisor may still spawn a
                # replacement (or declare the drive unrecoverable).
                time.sleep(0.05)
        if sup_thread is not None:
            sup_thread.join(timeout=30)

        if state.fatal is not None:
            raise DriverError(state.fatal)
        parts = [
            result_from_payload(state.payloads[index])
            for index in sorted(state.payloads)
        ]
        return DriveReport(
            result=merge_artifacts(parts),
            shards=count,
            assignments=dict(state.assignments),
            attempts=state.report_attempts(),
            workers_lost=tuple(state.lost),
            events=tuple(state.events),
            shards_split=state.shards_split,
            points_salvaged=state.points_salvaged,
            points_redispatched=state.points_redispatched,
            workers_spawned=tuple(state.spawned),
            workers_retired=tuple(state.retired),
        )

    def _worker_loop(
        self,
        state: _DriveState,
        worker: Tuple[str, int],
        label: str,
        spec: ExperimentSpec,
    ) -> None:
        try:
            client = self._connect(worker)
        except (ServiceConnectTimeout, ServiceTransportError) as error:
            state.worker_lost(label, None, f"connect failed: {error}")
            return
        try:
            while True:
                index = state.next_shard(label)
                if index is None:
                    return
                start, stride, attempt = state.ticket(index)
                request = self.shard_request(spec, start, stride, attempt=attempt)
                try:
                    response = client.request(request, retries=self.request_retries)
                except ServiceTransportError as error:
                    # The conversation broke mid-item.  A probe on a fresh
                    # connection classifies the worker: alive means retry
                    # here, dead means the item goes to the survivors,
                    # suspect enters the probe-retry limbo below.
                    client.close()
                    verdict = self._probe(worker)
                    if verdict == "alive":
                        state.requeue(
                            index, label, f"transport: {error}", attempt=attempt
                        )
                        try:
                            client = self._connect(worker)
                        except (ServiceConnectTimeout, ServiceTransportError) as err:
                            state.worker_lost(label, None, f"reconnect failed: {err}")
                            return
                        continue
                    if verdict == "suspect":
                        replacement = self._ride_out_suspicion(
                            state, worker, label, index, attempt, error
                        )
                        if replacement is None:
                            return
                        client = replacement
                        continue
                    state.worker_lost(label, index, f"transport: {error}")
                    return
                if isinstance(response, ExperimentResponse):
                    state.complete(index, label, response.result, attempt=attempt)
                elif isinstance(response, ErrorResponse):
                    if response.code in TRANSIENT_CODES:
                        salvaged = self._salvage(state, spec, index, response)
                        state.redistribute(
                            index,
                            label,
                            f"{response.code}: {response.message}",
                            attempt=attempt,
                            salvaged=salvaged,
                        )
                    else:
                        state.fail(
                            label,
                            index,
                            f"permanent {response.code!r} error on shard {index}: "
                            f"{response.message}",
                        )
                        return
                else:
                    state.fail(
                        label,
                        index,
                        f"unexpected {type(response).__name__} answer to shard {index}",
                    )
                    return
        finally:
            client.close()

    def _ride_out_suspicion(
        self,
        state: _DriveState,
        worker: Tuple[str, int],
        label: str,
        index: int,
        attempt: int,
        error: Exception,
    ) -> Optional[ServiceClient]:
        """Suspect limbo: give the item away now, probe with backoff.

        Returns a fresh client when the worker recovers (it rejoins the
        fleet), or ``None`` after declaring it dead — either way the held
        item was already redistributed, so survivors never waited on the
        verdict.  A late answer the suspect still produces is fenced off by
        the attempt number it carries.
        """
        state.suspect(label, index, f"unreachable but possibly alive: {error}", attempt=attempt)
        backoff = self.suspect_backoff_s
        for round_number in range(self.suspect_probes):
            if state.finished():
                # The drive is over; nobody needs this worker's verdict.
                state.worker_lost(
                    label, None, "suspect abandoned: the drive finished without it"
                )
                return None
            time.sleep(backoff)
            backoff *= 2
            verdict = self._probe(worker)
            if verdict == "alive":
                try:
                    client = self._connect(worker)
                except (ServiceConnectTimeout, ServiceTransportError) as err:
                    state.worker_lost(label, None, f"reconnect failed: {err}")
                    return None
                state.log(
                    "recovered",
                    label,
                    None,
                    f"probe answered on round {round_number + 1}; rejoining the fleet",
                )
                return client
            if verdict == "dead":
                break
        state.worker_lost(
            label,
            None,
            f"declared dead after {self.suspect_probes} suspect probe(s): {error}",
        )
        return None


class _Member:
    """One fleet member: its process, announced address and stderr tail.

    A background thread drains the child's stderr for the member's whole
    lifetime: the first ``serving on HOST:PORT`` line becomes the address,
    everything else lands in a bounded tail — which is what turns "member 1
    failed to start (exit code 2)" into a message that *shows* the child's
    actual complaint.
    """

    _ANNOUNCE = "serving on "

    def __init__(self, index: int, process: subprocess.Popen) -> None:
        self.index = index
        self.process = process
        self.address: Optional[Tuple[str, int]] = None
        self.announced = threading.Event()
        self.stderr_tail: deque = deque(maxlen=40)
        self.reaped = False
        self._drain_thread = threading.Thread(
            target=self._drain, name=f"fleet-member-{index}-stderr", daemon=True
        )
        self._drain_thread.start()

    @property
    def label(self) -> str:
        if self.address is not None:
            return f"{self.address[0]}:{self.address[1]}"
        return f"member-{self.index}"

    def _drain(self) -> None:
        stream = self.process.stderr
        if stream is None:
            self.announced.set()
            return
        try:
            for line in stream:
                text = line.rstrip("\n")
                if self.address is None and text.startswith(self._ANNOUNCE):
                    host, _, port = text[len(self._ANNOUNCE):].strip().rpartition(":")
                    try:
                        self.address = (host, int(port))
                    except ValueError:
                        self.stderr_tail.append(text)
                    self.announced.set()
                    continue
                self.stderr_tail.append(text)
        except ValueError:
            # The stream was closed under us during fleet shutdown.
            pass
        finally:
            # EOF (or closure) must wake a startup waiter: the member died
            # without announcing and the tail now holds its last words.
            self.announced.set()

    def tail_suffix(self, lines: int = 10) -> str:
        tail = [line for line in self.stderr_tail if line.strip()]
        if not tail:
            return ""
        joined = "\n  ".join(tail[-lines:])
        return f"; stderr tail:\n  {joined}"

    def shutdown(self, timeout_s: float = 10.0) -> None:
        if self.process.poll() is None:
            self.process.terminate()
        try:
            self.process.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:  # pragma: no cover - safety net
            self.process.kill()
            self.process.wait()
        self._drain_thread.join(timeout=5)
        if self.process.stderr is not None:
            self.process.stderr.close()


class LocalFleet:
    """A disposable fleet of local serve processes for the shard driver.

    Spawns ``count`` children running ``python -m repro.cli serve --tcp
    127.0.0.1:0`` and collects the ``serving on HOST:PORT`` address each
    announces on stderr.  ``faults`` maps a member index to the
    fault-injection specs (see :mod:`repro.service.faults`) passed to that
    member's ``--fault`` flags — the chaos harness: spawn three workers,
    give one a ``kill`` rule, and watch the driver route around the corpse.
    Members spawned later (the supervisor's replacements) keep counting
    indices upward, so chaos tests can pre-install faults on replacements
    too.

    Beyond the initial ``start()``, the fleet is *elastic*:
    :meth:`spawn_member` adds one member mid-drive, :meth:`stop_member`
    retires one by its ``host:port`` label, and :meth:`reap_dead` notices
    members whose process exited.  Use as a context manager; exit
    terminates whatever is still running.
    """

    def __init__(
        self,
        count: int,
        serve_workers: int = 2,
        deadline_s: Optional[float] = None,
        faults: Optional[Dict[int, Sequence[str]]] = None,
        python: Optional[str] = None,
        startup_timeout_s: float = 30.0,
    ) -> None:
        if count < 1:
            raise ValueError("a fleet needs at least one member")
        self.count = count
        self.serve_workers = serve_workers
        self.deadline_s = deadline_s
        self.faults = dict(faults or {})
        self.python = python or sys.executable
        self.startup_timeout_s = startup_timeout_s
        self.members: List[_Member] = []

    @property
    def processes(self) -> List[subprocess.Popen]:
        return [member.process for member in self.members]

    @property
    def addresses(self) -> List[Tuple[str, int]]:
        return [
            member.address for member in self.members if member.address is not None
        ]

    def _command(self, index: int) -> List[str]:
        command = [
            self.python, "-m", "repro.cli", "serve",
            "--tcp", "127.0.0.1:0",
            "--workers", str(self.serve_workers),
        ]
        if self.deadline_s is not None:
            command += ["--deadline", str(self.deadline_s)]
        for fault in self.faults.get(index, ()):
            command += ["--fault", fault]
        return command

    def _child_env(self) -> Dict[str, str]:
        # Members must import ``repro`` regardless of how the parent found
        # it (installed, or run with PYTHONPATH=src from the checkout).
        env = dict(os.environ)
        package_root = str(Path(__file__).resolve().parents[2])
        paths = env.get("PYTHONPATH", "")
        if package_root not in paths.split(os.pathsep):
            env["PYTHONPATH"] = (
                package_root + (os.pathsep + paths if paths else "")
            )
        return env

    def _launch(self) -> _Member:
        index = len(self.members)
        process = subprocess.Popen(
            self._command(index),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            env=self._child_env(),
        )
        member = _Member(index, process)
        self.members.append(member)
        return member

    def _await_announce(self, member: _Member, budget_s: float) -> None:
        if not member.announced.wait(max(budget_s, 0)):
            raise DriverError(
                f"fleet member {member.index} did not announce within "
                f"{self.startup_timeout_s}s{member.tail_suffix()}"
            )
        if member.address is None:
            raise DriverError(
                f"fleet member {member.index} failed to start "
                f"(exit code {member.process.poll()}){member.tail_suffix()}"
            )

    def start(self) -> List[Tuple[str, int]]:
        """Spawn the fleet; returns the announced ``(host, port)`` list."""
        deadline_at = time.monotonic() + self.startup_timeout_s
        try:
            for _ in range(self.count):
                self._launch()
            for member in self.members:
                self._await_announce(member, deadline_at - time.monotonic())
        except DriverError:
            self.stop()
            raise
        return list(self.addresses)

    def spawn_member(self) -> Tuple[Tuple[str, int], str]:
        """Spawn one additional member; returns its ``(address, label)``.

        On startup failure the stillborn member is shut down and a
        :class:`DriverError` carrying its stderr tail is raised — the
        supervisor charges its respawn budget either way.
        """
        member = self._launch()
        try:
            self._await_announce(member, self.startup_timeout_s)
        except DriverError:
            member.shutdown()
            raise
        return member.address, member.label

    def stop_member(self, label: str) -> bool:
        """Terminate the member announced at ``label``; False if unknown."""
        for member in self.members:
            if member.address is not None and member.label == label:
                if member.process.poll() is None:
                    member.shutdown()
                return True
        return False

    def reap_dead(self) -> List[str]:
        """Labels of announced members whose process has exited (once each)."""
        dead = []
        for member in self.members:
            if (
                not member.reaped
                and member.address is not None
                and member.process.poll() is not None
            ):
                member.reaped = True
                dead.append(member.label)
        return dead

    def stop(self) -> None:
        """Terminate every member still running and reap them all."""
        for member in self.members:
            if member.process.poll() is None:
                member.process.terminate()
        for member in self.members:
            member.shutdown()

    def __enter__(self) -> List[Tuple[str, int]]:
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def drive(
    spec: ExperimentSpec,
    workers: Sequence[Tuple[str, int]],
    shards: Optional[int] = None,
    supervisor: Optional[Any] = None,
    **driver_kwargs: Any,
) -> DriveReport:
    """One-call drive: ``ShardDriver(**driver_kwargs).drive(spec, workers)``."""
    return ShardDriver(**driver_kwargs).drive(
        spec, workers, shards=shards, supervisor=supervisor
    )
