"""Outside-in layer tracing for the benchmark's traced runs.

The program is not modified: :func:`install` wraps public functions and
methods at each layer boundary, from here, and :meth:`Tracer.restore` puts
every original back.  A wrapped call records one span — layer, start, end,
parent — in memory.  Spans nest per thread; a span opened on a thread with
nothing open (a service worker-pool thread) takes the in-flight request as
its parent, which is unambiguous because the benchmark's client is a
single closed loop.

Only traced runs import this module; untraced runs never do.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

#: Marker attribute carried by every wrapper (and checked after restore).
MARK = "__perfbench_original__"

#: Modules imported before wrapping, so no module binds a wrapper afterwards.
MODULES = (
    "repro.service.protocol",
    "repro.service.client",
    "repro.service.core",
    "repro.service.driver",
    "repro.graphs.generators",
    "repro.formulas.compiler",
    "repro.core.cache",
    "repro.core.scheme",
    "repro.caching",
    "repro.registry",
    "repro.planner",
    "repro.engines",
    "repro.network.compiled",
    "repro.network.vector",
    "repro.network.adversary",
    "repro.lower_bounds.framework",
    "repro.experiments",
    "repro.experiments.artifacts",
    "repro.experiments.runner",
    "repro.experiments.lower_bound",
    "repro.experiments.formula",
)


class Span(NamedTuple):
    """One finished call at a layer boundary.

    A flat tuple of atoms (the parent is an id), so the cyclic garbage
    collector stops tracking it: a long traced run does not make every
    later collection slower, which would pass for tracing overhead.
    """

    id: int
    layer: str
    parent: Optional[int]
    start: float
    end: float
    counted: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """In-memory span store plus the patches that feed it."""

    spans: List[Span] = field(default_factory=list)
    events: List[Tuple[float, str]] = field(default_factory=list)
    #: ``(id, layer)`` of the open request envelope, if any.
    ambient: Optional[Tuple[int, str]] = None
    _local: threading.local = field(default_factory=threading.local)
    _ids: Any = field(default_factory=itertools.count)
    _patches: List[Tuple[Any, str, Any]] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    # -- recording -----------------------------------------------------------

    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, layer: str,
             on_result: Optional[Callable[[tuple, dict, Any], None]] = None,
             ambient: bool = False) -> Callable:
        """``fn`` recording one ``layer`` span per call.

        ``ambient`` marks the request envelope: spans opened on other
        threads while it is open become its children.  A call nested
        directly inside a span of the same layer is not counted as a call
        of its own (an MSO prover calling the treedepth prover is one
        ``prove``).
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self.ambient
            me = (next(self._ids), layer)
            stack.append(me)
            if ambient:
                self.ambient = me
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if ambient:
                    self.ambient = None
                span = Span(me[0], layer, parent[0] if parent else None, start, end,
                            parent is None or parent[1] != layer)
                with self._lock:
                    self.spans.append(span)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        setattr(traced, MARK, fn)
        return traced

    def count(self, key: str) -> None:
        """Record a timestamped event (e.g. one planner routing decision)."""
        with self._lock:
            self.events.append((time.perf_counter(), key))

    # -- patching ------------------------------------------------------------

    def patch_function(self, module: str, name: str, layer: str, **options) -> None:
        """Replace ``module.name`` in every ``repro`` module that bound it."""
        original = getattr(importlib.import_module(module), name)
        wrapper = self.wrap(original, layer, **options)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    self._patches.append((loaded, attr, original))
                    setattr(loaded, attr, wrapper)

    def patch_method(self, cls: type, name: str, layer: str, **options) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, staticmethod):
            replacement = staticmethod(self.wrap(raw.__func__, layer, **options))
        else:
            replacement = self.wrap(raw, layer, **options)
        self._patches.append((cls, name, raw))
        setattr(cls, name, replacement)

    def restore(self) -> None:
        """Put every original back (latest patch first)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


def _subclasses(cls: type) -> List[type]:
    found, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary the benchmark reports on."""
    for module in MODULES:
        importlib.import_module(module)
    from repro.core.scheme import CertificationScheme
    from repro.lower_bounds.framework import ReductionFramework
    from repro.network.compiled import CompiledNetwork
    from repro.network.vector import VectorNetwork
    from repro.service.client import ServiceClient
    from repro.service.core import CertificationService

    def routed(args, kwargs, result) -> None:
        requested = args[0] if args else kwargs.get("engine")
        if requested == "auto":
            tracer.count(f"planner.routed.{result}")

    fn = tracer.patch_function
    fn("repro.service.messages", "request_from_dict", "protocol.decode")
    fn("repro.service.messages", "response_from_dict", "protocol.decode")
    fn("repro.service.protocol", "encode_line", "protocol.encode")
    fn("repro.graphs.generators", "build_graph_spec", "graphs.build")
    fn("repro.formulas.compiler", "compile_formula", "formulas.compile")
    fn("repro.formulas.compiler", "_build", "formulas.build")
    fn("repro.caching", "graph_fingerprint", "cache.fingerprint")
    fn("repro.core.cache", "cached_evaluation_identifiers", "cache.ids")
    fn("repro.core.cache", "cached_holds", "holds")
    fn("repro.core.cache", "cached_compiled_network", "network.compile")
    fn("repro.engines", "resolve_engine", "planner.plan", on_result=routed)
    fn("repro.core.scheme", "adversarial_schedule", "trials.schedule")
    fn("repro.network.adversary", "random_assignment", "trials.draw")
    fn("repro.core.scheme", "evaluate_scheme", "harness.evaluate")
    fn("repro.experiments.artifacts", "merge_artifacts", "driver.merge")

    method = tracer.patch_method
    method(CertificationService, "respond", "core.dispatch", ambient=True)
    method(CertificationService, "handle", "core.dispatch")
    method(ServiceClient, "request", "driver.dispatch")
    for cls in [CertificationScheme] + _subclasses(CertificationScheme):
        if "prove" in cls.__dict__ and not getattr(cls.__dict__["prove"], "__isabstractmethod__", False):
            method(cls, "prove", "prove")
    for name in ("run", "accepts", "accepts_at", "run_many", "any_accepted"):
        if name in CompiledNetwork.__dict__:
            method(CompiledNetwork, name, "engine")
    for name in ("run_block", "any_accepted_block", "any_accepted_exhaustive"):
        if name in VectorNetwork.__dict__:
            method(VectorNetwork, name, "engine")
    method(ReductionFramework, "_simulate_protocol_delta", "engine")
    method(ReductionFramework, "simulate_protocol", "lower_bounds.simulate")
    return tracer


def leftover_wrappers() -> List[str]:
    """Names still bound to a wrapper anywhere in ``repro`` (should be none)."""
    found = []
    for loaded in list(sys.modules.values()):
        name = getattr(loaded, "__name__", "")
        if not name.startswith("repro"):
            continue
        for attr, value in list(vars(loaded).items()):
            if hasattr(value, MARK):
                found.append(f"{name}.{attr}")
            if isinstance(value, type) and value.__module__ == name:
                for member, raw in vars(value).items():
                    inner = raw.__func__ if isinstance(raw, staticmethod) else raw
                    if hasattr(inner, MARK):
                        found.append(f"{name}.{attr}.{member}")
    return found


# ---------------------------------------------------------------------------
# Reading the spans
# ---------------------------------------------------------------------------


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-layer self time: each span's duration minus its children's."""
    children: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            children[span.parent] += span.duration
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.layer] += span.duration - children[span.id]
    return dict(totals)


def calls(spans: Sequence[Span]) -> Counter:
    return Counter(span.layer for span in spans if span.counted)


def covered(spans: Sequence[Span], start: float, end: float) -> float:
    """Seconds of ``[start, end]`` inside at least one span."""
    intervals = sorted(
        (max(span.start, start), min(span.end, end))
        for span in spans
        if span.end > start and span.start < end
    )
    total, cursor = 0.0, start
    for lo, hi in intervals:
        lo = max(lo, cursor)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total
