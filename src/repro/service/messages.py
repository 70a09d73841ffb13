"""Typed request/response messages of the certification service.

Every interaction with :class:`~repro.service.core.CertificationService` —
in-process through :mod:`repro.api`, or over the JSON-lines wire protocol of
:mod:`repro.service.protocol` — is one of the dataclasses here.  Every
experiment kind rides one request, :class:`ExperimentRequest` (wire op
``run``, carrying a spec's ``to_dict``), answered by one
:class:`ExperimentResponse` whose ``op`` is the result's kind; the older
per-kind ops ``sweep``, ``formula``, ``lower-bound`` and ``radius`` are
decoded as aliases of it, because ops may be added but never renamed.  They are
plain data: JSON round-trippable (``to_dict``/``from_dict``), with no
references to schemes, graphs or caches, so the same message works across a
process or socket boundary.

Failures are data too.  Instead of letting ``NotAYesInstance``, registry
``RegistryError`` s, ``GraphSpecError`` s or the exact-decision
``ValueError`` of ``holds()`` escape as tracebacks, the service maps each to
an :class:`ErrorResponse` carrying a machine-readable ``code`` from
:data:`ERROR_CODES` plus the human-readable message — callers switch on the
code, humans read the message.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any, ClassVar, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.engines import VALID_ENGINES, validate_engine
from repro.experiments import ExperimentSpec, result_from_payload
from repro.formulas import FormulaError, resolve_formula_params

#: Machine-readable error codes an :class:`ErrorResponse` may carry.
ERROR_CODES: Tuple[str, ...] = (
    "unknown-scheme",      # registry key not found (message lists suggestions)
    "invalid-param",       # parameter validation failed (type/range/unknown key)
    "invalid-graph",       # graph specifier did not resolve to a graph
    "invalid-request",     # malformed wire message / unknown op / bad field
    "invalid-formula",     # a --formula failed to parse or compile (message
                           # carries the offending token position)
    "not-a-yes-instance",  # the honest prover was asked to prove a no-instance
    "undecidable",         # ground truth raised (e.g. exact treedepth too large)
    "skipped",             # batch member not run because the batch exited early
    "timeout",             # the request's deadline expired before it finished
    "cancelled",           # cancelled by a cancel op / dead connection / batch stop
    "connect-timeout",     # client: could not connect within the retry budget
    "internal-error",      # anything else; the message carries the repr
    "superseded",          # driver-side: a late answer for a dispatch that was
                           # re-assigned (fencing discarded it, never merged)
)


class ProtocolError(ValueError):
    """A wire message that does not decode into a known request.

    Answered with ``code`` (``invalid-request`` unless a decode-time check
    knows better — the legacy formula ``sweep`` alias rejects its knobs
    with the codes its handler used to answer) and ``request_op``.
    """

    def __init__(
        self,
        message: str,
        code: str = "invalid-request",
        request_op: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.request_op = request_op


def _dataclass_dict(message: Any) -> Dict[str, Any]:
    data: Dict[str, Any] = {"op": message.op}
    for spec in fields(message):
        value = getattr(message, spec.name)
        if isinstance(value, tuple):
            value = list(value)
        elif isinstance(value, Mapping):
            value = dict(value)
        data[spec.name] = value
    return data


def _validate_fault_tolerance_fields(message: Any) -> None:
    """Validate the ``deadline_s`` / ``request_id`` / ``attempt`` trio every
    work-carrying request shares (bad values raise ValueError, which the wire
    path turns into a ``ProtocolError`` — the sender's fault, never a
    traceback).  ``attempt`` is the shard driver's fencing counter: it rides
    along so a response can be correlated with the dispatch attempt that
    produced it, and a late answer for a superseded attempt can be
    discarded instead of merged twice."""
    deadline = getattr(message, "deadline_s", None)
    if deadline is not None:
        if isinstance(deadline, bool) or not isinstance(deadline, (int, float)):
            raise ValueError(f"deadline_s must be a number of seconds, got {deadline!r}")
        if deadline <= 0:
            raise ValueError(f"deadline_s must be positive, got {deadline!r}")
        object.__setattr__(message, "deadline_s", float(deadline))
    request_id = getattr(message, "request_id", None)
    if request_id is not None and not isinstance(request_id, str):
        raise ValueError(f"request_id must be a string, got {request_id!r}")
    attempt = getattr(message, "attempt", None)
    if attempt is not None:
        if isinstance(attempt, bool) or not isinstance(attempt, int):
            raise ValueError(f"attempt must be an integer, got {attempt!r}")
        if attempt < 1:
            raise ValueError(f"attempt must be at least 1, got {attempt!r}")


def _validate_engine(
    engine: Any, op: str, allowed: Sequence[str] = VALID_ENGINES
) -> None:
    """Validate an ``engine`` field at the message boundary.

    Raises ValueError (→ ``ProtocolError`` on the wire path) listing the
    valid engines from the one shared place, so a bad engine never travels
    further than decoding.
    """
    if not isinstance(engine, str):
        raise ValueError(f"engine must be a string, got {engine!r}")
    validate_engine(engine, allowed=allowed, context=f"{op!r} requests")


def _validate_scheme_or_formula(scheme: Any, formula: Any) -> None:
    """Enforce the scheme/formula exclusivity shared by certify and sweep.

    Exactly one of ``scheme`` (a registry key) and ``formula`` (MSO concrete
    syntax, compiled on the fly) must be set.  Raises ValueError — which the
    wire path turns into a ``ProtocolError`` per the one-error-shape
    convention — so a request carrying both or neither never reaches a
    handler.
    """
    if scheme is not None and formula is not None:
        raise ValueError("'scheme' and 'formula' are mutually exclusive; set one")
    if scheme is None and formula is None:
        raise ValueError("one of 'scheme' or 'formula' is required")
    if formula is not None and not isinstance(formula, str):
        raise ValueError(f"formula must be a string, got {formula!r}")
    if scheme is not None and not isinstance(scheme, str):
        raise ValueError(f"scheme must be a string, got {scheme!r}")


def _from_dict(cls, data: Mapping[str, Any], *, kind: str):
    payload = dict(data)
    op = payload.pop("op", cls.op)
    if op != cls.op:
        raise ProtocolError(f"expected a {cls.op!r} {kind}, got op {op!r}")
    known = {spec.name for spec in fields(cls)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ProtocolError(f"unknown {cls.op!r} field(s) {unknown}")
    try:
        # TypeError: missing/duplicate fields; ValueError/TypeError from
        # __post_init__: field values that do not coerce (sizes=["a"],
        # params="abc").  All are the sender's fault, so all are protocol
        # errors — never tracebacks.
        return cls(**payload)
    except (TypeError, ValueError) as error:
        raise ProtocolError(f"bad {cls.op!r} {kind}: {error}") from None


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertifyRequest:
    """One certification question: run ``scheme`` on ``graph``, full harness.

    ``graph`` is a ``family:size`` / ``file:PATH`` specifier (the shared
    language of :func:`repro.graphs.generators.build_graph_spec`); in-process
    callers may hand the service an already-built graph alongside the
    request, in which case ``graph`` is just the label reported back.
    ``include_certificates`` asks for the raw per-vertex certificates of a
    yes-instance in the response.

    ``deadline_s`` bounds the whole request: past the deadline the service
    answers a structured ``timeout`` error instead of blocking the
    connection.  ``request_id`` makes the request idempotently resubmittable
    — the service remembers the response per id, so a retry after a broken
    transport replays the answer instead of recomputing it (and the id is
    the handle a ``cancel`` op targets).

    ``formula`` (mutually exclusive with ``scheme``) asks for an *ephemeral*
    scheme compiled from MSO concrete syntax instead of a catalogue lookup;
    ``params`` then carries the compilation knobs (``t``, ``k``, ``route``,
    ``model``) and parse/compile failures answer with the
    ``invalid-formula`` code.
    """

    op = "certify"

    graph: str
    scheme: Optional[str] = None
    formula: Optional[str] = None
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0
    trials: int = 20
    engine: str = "auto"
    include_certificates: bool = False
    deadline_s: Optional[float] = None
    request_id: Optional[str] = None
    attempt: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))
        _validate_scheme_or_formula(self.scheme, self.formula)
        _validate_engine(self.engine, self.op)
        _validate_fault_tolerance_fields(self)

    def to_dict(self) -> Dict[str, Any]:
        return _dataclass_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CertifyRequest":
        return _from_dict(cls, data, kind="request")


#: Spec fields that describe how one process executes a run, not the
#: experiment: they never cross the wire (each serve process parallelises
#: itself) and ``merge_artifacts`` normalises them away.
_LOCAL_SPEC_FIELDS = ("processes",)

#: The per-kind experiment ops that predate ``run``.  Each is decoded as an
#: alias: the op names the spec kind and the spec fields ride at the top
#: level of the line (a ``sweep`` may carry ``formula`` + knob ``params``
#: instead of ``scheme``, which makes it a ``formula`` spec).
LEGACY_EXPERIMENT_OPS = ("sweep", "formula", "lower-bound", "radius")

_ENVELOPE_FIELDS = ("deadline_s", "request_id", "attempt")


@dataclass(frozen=True)
class ExperimentRequest:
    """Run one experiment — any kind, or one shard of it — as one request.

    The wire form is ``{"op": "run", "spec": {...}}`` where the spec is the
    kind-tagged :meth:`~repro.experiments.spec.ExperimentSpec.to_dict` minus
    its local execution knobs (``processes``), plus the ``deadline_s`` /
    ``request_id`` / ``attempt`` envelope every work-carrying request
    shares.  The service runs the spec through the one experiment loop and
    answers with the artifact payload, bound verdict included; a sharded
    spec is what lets the shard driver fan one experiment out over a fleet
    of serve processes and merge the partial payloads back.

    ``op`` is the spec's kind: it is what error answers report as their
    ``request_op`` and what ``op=`` fault rules match on.
    """

    WIRE_OP: ClassVar[str] = "run"

    spec: ExperimentSpec
    deadline_s: Optional[float] = None
    request_id: Optional[str] = None
    attempt: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.spec, ExperimentSpec):
            raise ValueError(f"spec must be an ExperimentSpec, got {self.spec!r}")
        if hasattr(self.spec, "engine"):
            _validate_engine(self.spec.engine, self.op, allowed=type(self.spec).ENGINES)
        _validate_fault_tolerance_fields(self)

    @property
    def op(self) -> str:
        return self.spec.kind

    def to_dict(self) -> Dict[str, Any]:
        spec = self.spec.to_dict()
        for name in _LOCAL_SPEC_FIELDS:
            spec.pop(name, None)
        return {
            "op": self.WIRE_OP,
            "spec": spec,
            **{name: getattr(self, name) for name in _ENVELOPE_FIELDS},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentRequest":
        """Decode a ``run`` line or one of the legacy per-kind lines."""
        payload = dict(data)
        op = payload.pop("op", cls.WIRE_OP)
        envelope = {name: payload.pop(name) for name in _ENVELOPE_FIELDS if name in payload}
        if op == cls.WIRE_OP:
            spec = payload.pop("spec", None)
            if payload:
                raise ProtocolError(f"unknown 'run' field(s) {sorted(payload)}")
            if not isinstance(spec, Mapping) or "kind" not in spec:
                raise ProtocolError("a 'run' request needs a 'spec' object with a 'kind'")
            local = sorted(set(spec) & set(_LOCAL_SPEC_FIELDS))
            if local:
                raise ProtocolError(f"unknown 'run' spec field(s) {local}")
        else:
            spec = _legacy_spec(op, payload)
        try:
            return cls(spec=ExperimentSpec.from_dict(spec), **envelope)
        except (TypeError, ValueError) as error:
            raise ProtocolError(f"bad {op!r} request: {error}") from None


def _legacy_spec(op: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    """The kind-tagged spec dict a legacy per-kind experiment line describes."""
    known = {spec.name for spec in fields(ExperimentSpec._KINDS[op])}
    known.difference_update(_LOCAL_SPEC_FIELDS)
    if op == "sweep":
        known.add("formula")
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ProtocolError(f"unknown {op!r} field(s) {unknown}")
    if op != "sweep":
        return {"kind": op, **payload}
    try:
        _validate_scheme_or_formula(payload.get("scheme"), payload.get("formula"))
    except ValueError as error:
        raise ProtocolError(f"bad 'sweep' request: {error}") from None
    formula = payload.pop("formula", None)
    if formula is None:
        return {"kind": "sweep", **payload}
    # A formula sweep is a formula series whose knobs ride in ``params``.
    payload.pop("scheme", None)
    if payload.pop("measure", "full") != "full":
        raise ProtocolError(
            "formula sweeps only support measure='full'", "invalid-param", "sweep"
        )
    if payload.pop("id_exponent", None) is not None:
        raise ProtocolError(
            "formula sweeps do not support id_exponent", "invalid-param", "sweep"
        )
    try:
        knobs = resolve_formula_params(payload.pop("params", None))
    except FormulaError as error:
        raise ProtocolError(str(error), "invalid-formula", "sweep") from None
    except (TypeError, ValueError) as error:
        raise ProtocolError(f"bad 'sweep' request: {error}") from None
    return {"kind": "formula", "formula": formula, **payload, **knobs}


@dataclass(frozen=True)
class StatsRequest:
    """Ask the service for its request counters and cache statistics."""

    op = "stats"

    def to_dict(self) -> Dict[str, Any]:
        return _dataclass_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StatsRequest":
        return _from_dict(cls, data, kind="request")


@dataclass(frozen=True)
class HealthRequest:
    """Ask a serve process whether it is alive, and how loaded it is.

    The answer (worker liveness, queue depth, in-flight gauge, uptime) is
    what the shard driver uses to tell a dead or wedged worker from a busy
    one — and what a supervisor polls between requests.
    """

    op = "health"

    def to_dict(self) -> Dict[str, Any]:
        return _dataclass_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "HealthRequest":
        return _from_dict(cls, data, kind="request")


@dataclass(frozen=True)
class CancelRequest:
    """Cooperatively cancel the request known under ``request_id``.

    Queued work is cancelled outright (its submitter gets a ``cancelled``
    error); in-flight work has its cancel scope signalled, so handlers that
    check it (sweep grid loops, scope-aware waits) stop early.  Cancelling
    an unknown or already-finished id is not an error — the response data
    says what state the id was found in.
    """

    op = "cancel"

    request_id: str

    def __post_init__(self) -> None:
        if not isinstance(self.request_id, str) or not self.request_id:
            raise ValueError(
                f"request_id must be a non-empty string, got {self.request_id!r}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return _dataclass_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CancelRequest":
        return _from_dict(cls, data, kind="request")


_REQUEST_TYPES: Dict[str, type] = {
    **{cls.op: cls for cls in (CertifyRequest, StatsRequest, HealthRequest, CancelRequest)},
    **{op: ExperimentRequest for op in LEGACY_EXPERIMENT_OPS},
}


def request_from_dict(data: Mapping[str, Any]) -> "Request":
    """Re-hydrate any request by its ``op`` discriminator."""
    op = data.get("op")
    cls = ExperimentRequest if op == ExperimentRequest.WIRE_OP else _REQUEST_TYPES.get(op)
    if cls is None:
        # The listing is part of the frozen legacy-line transcript, so it
        # names the ops that predate ``run`` (documented with the protocol).
        raise ProtocolError(
            f"unknown request op {op!r}; known ops: "
            f"{', '.join(sorted(_REQUEST_TYPES))}, shutdown"
        )
    return cls.from_dict(data)


@dataclass(frozen=True)
class BatchRequest:
    """Many requests as one wire message, answered through the worker pool.

    The batch rides :meth:`~repro.service.core.CertificationService.
    submit_many`, so ``stop_on_failure=True`` gives wire callers the same
    batch-level early exit as in-process ones: after the first error or
    failed verdict, still-queued members are answered with ``skipped``
    errors instead of running.  Batches cannot nest, and ``shutdown`` cannot
    ride in one (a batch member never terminates the session).

    ``deadline_s`` bounds the *whole* batch: members still queued when the
    deadline expires are tail-cancelled and answered with ``timeout``
    errors, so a batch can never hold a connection hostage.
    """

    op = "batch"

    requests: Tuple["Request", ...]
    stop_on_failure: bool = False
    deadline_s: Optional[float] = None
    request_id: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "requests", tuple(self.requests))
        _validate_fault_tolerance_fields(self)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "op": self.op,
            "requests": [request.to_dict() for request in self.requests],
            "stop_on_failure": self.stop_on_failure,
            "deadline_s": self.deadline_s,
            "request_id": self.request_id,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BatchRequest":
        payload = dict(data)
        op = payload.pop("op", cls.op)
        if op != cls.op:
            raise ProtocolError(f"expected a 'batch' request, got op {op!r}")
        raw_requests = payload.pop("requests", None)
        stop_on_failure = payload.pop("stop_on_failure", False)
        deadline_s = payload.pop("deadline_s", None)
        request_id = payload.pop("request_id", None)
        unknown = sorted(payload)
        if unknown:
            raise ProtocolError(f"unknown 'batch' field(s) {unknown}")
        if not isinstance(raw_requests, (list, tuple)):
            raise ProtocolError("a 'batch' request needs a 'requests' list")
        if not isinstance(stop_on_failure, bool):
            raise ProtocolError("stop_on_failure must be a boolean")
        requests = []
        for position, entry in enumerate(raw_requests):
            if not isinstance(entry, Mapping):
                raise ProtocolError(f"batch request #{position} must be a JSON object")
            entry_op = entry.get("op")
            if entry_op == cls.op:
                raise ProtocolError("batch requests cannot nest")
            if entry_op == "shutdown":
                raise ProtocolError("shutdown cannot ride in a batch")
            try:
                requests.append(request_from_dict(entry))
            except ProtocolError as error:
                raise ProtocolError(f"batch request #{position}: {error}") from None
        try:
            return cls(
                requests=tuple(requests),
                stop_on_failure=stop_on_failure,
                deadline_s=deadline_s,
                request_id=request_id,
            )
        except ValueError as error:
            raise ProtocolError(f"bad 'batch' request: {error}") from None


Request = Union[
    CertifyRequest,
    ExperimentRequest,
    StatsRequest,
    HealthRequest,
    CancelRequest,
    BatchRequest,
]

_REQUEST_TYPES[BatchRequest.op] = BatchRequest


# ---------------------------------------------------------------------------
# Responses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertifyResponse:
    """The verdict on one :class:`CertifyRequest`.

    ``to_payload`` is *the* JSON verdict — ``repro.cli certify --json`` and
    the ``serve`` wire protocol both print exactly this dictionary, so the
    two surfaces cannot drift apart.
    """

    op = "certify"
    ok = True

    scheme: str
    registry_key: str
    graph: str
    vertices: int
    edges: int
    holds: bool
    accepted: Optional[bool]
    sound: Optional[bool]
    max_certificate_bits: int
    bound: str
    engine: str
    seed: int
    certificates: Optional[Dict[str, Dict[str, Any]]] = None
    engine_resolved: Optional[str] = None
    """Concrete engine the evaluation ran on — differs from ``engine``
    exactly when the request asked for ``"auto"``."""

    @property
    def verdict_ok(self) -> bool:
        """False exactly when a yes-instance's honest proof was rejected —
        the condition the CLI turns into a non-zero exit status."""
        return not (self.holds and self.accepted is False)

    def to_payload(self) -> Dict[str, Any]:
        """The canonical verdict dictionary (certificates only if requested)."""
        payload = {
            "scheme": self.scheme,
            "registry_key": self.registry_key,
            "graph": self.graph,
            "vertices": self.vertices,
            "edges": self.edges,
            "holds": self.holds,
            "accepted": self.accepted,
            "sound": self.sound,
            "max_certificate_bits": self.max_certificate_bits,
            "bound": self.bound,
            "engine": self.engine,
            "engine_resolved": self.engine_resolved,
            "seed": self.seed,
        }
        if self.certificates is not None:
            payload["certificates"] = dict(self.certificates)
        return payload

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_payload(), indent=indent, sort_keys=True)

    def to_dict(self) -> Dict[str, Any]:
        return {"op": self.op, "ok": True, "result": self.to_payload()}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CertifyResponse":
        result = dict(data.get("result") or {})
        known = {spec.name for spec in fields(cls)}
        unknown = sorted(set(result) - known)
        if unknown:
            raise ProtocolError(f"unknown certify result field(s) {unknown}")
        try:
            return cls(**result)
        except TypeError as error:
            raise ProtocolError(f"bad certify response: {error}") from None


@dataclass(frozen=True)
class ExperimentResponse:
    """The artifact payload of one :class:`ExperimentRequest`.

    ``result`` is exactly what :func:`repro.experiments.write_artifact`
    would have written (spec, points, series, bound verdict, fitted
    exponent), so wire consumers — and the shard driver's merge — read the
    same schema as artifact files.  ``op`` is the result's kind.
    """

    ok = True

    result: Dict[str, Any]

    @property
    def op(self) -> str:
        return self.result.get("kind", "sweep")

    @property
    def clean(self) -> bool:
        """The result's :attr:`~repro.experiments.ExperimentResult.clean` verdict."""
        return result_from_payload(self.result).clean

    @property
    def series(self) -> Dict[int, Any]:
        return {int(n): value for n, value in (self.result.get("series") or {}).items()}

    def to_dict(self) -> Dict[str, Any]:
        return {"op": self.op, "ok": True, "result": dict(self.result)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentResponse":
        return cls(result=dict(data.get("result") or {}))


@dataclass(frozen=True)
class StatsResponse:
    """Service counters: requests served, errors, per-cache hit/miss/size."""

    op = "stats"
    ok = True

    result: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return {"op": self.op, "ok": True, "result": dict(self.result)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StatsResponse":
        return cls(result=dict(data.get("result") or {}))


@dataclass(frozen=True)
class HealthResponse:
    """Liveness and load: workers, queue depth, in-flight gauge, uptime."""

    op = "health"
    ok = True

    result: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return {"op": self.op, "ok": True, "result": dict(self.result)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "HealthResponse":
        return cls(result=dict(data.get("result") or {}))


@dataclass(frozen=True)
class CancelResponse:
    """What a ``cancel`` op found: the id's state and whether it was hit.

    ``result`` carries ``request_id``, ``cancelled`` (did the cancel change
    anything) and ``state`` — ``"queued"`` (cancelled before it ran),
    ``"running"`` (scope signalled; cooperative handlers stop early),
    ``"finished"`` (already answered; response cached for replay) or
    ``"unknown"`` (never seen).
    """

    op = "cancel"
    ok = True

    result: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return {"op": self.op, "ok": True, "result": dict(self.result)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CancelResponse":
        return cls(result=dict(data.get("result") or {}))


@dataclass(frozen=True)
class ErrorResponse:
    """A failure, as data: a machine-readable code plus the message.

    ``request_op`` names the request kind that failed (when known), so a
    batched caller can correlate errors with submissions.

    ``partial`` carries salvageable progress, when there is any: a
    ``timeout``/``cancelled`` answer for a sharded experiment includes the
    grid points that *did* finish (``{"points": [...]}``), so the shard
    driver can keep the completed prefix and re-dispatch only the remainder.
    The field is omitted from the wire form when empty, keeping existing
    error payloads byte-identical.
    """

    op = "error"
    ok = False

    code: str
    message: str
    request_op: Optional[str] = None
    partial: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if self.code not in ERROR_CODES:
            raise ValueError(
                f"unknown error code {self.code!r}; use one of {ERROR_CODES}"
            )
        if self.partial is not None and not isinstance(self.partial, Mapping):
            raise ValueError(f"partial must be a mapping, got {self.partial!r}")

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "op": self.op,
            "ok": False,
            "code": self.code,
            "message": self.message,
            "request_op": self.request_op,
        }
        if self.partial is not None:
            data["partial"] = dict(self.partial)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ErrorResponse":
        try:
            return cls(
                code=data["code"],
                message=data.get("message", ""),
                request_op=data.get("request_op"),
                partial=data.get("partial"),
            )
        except (KeyError, ValueError) as error:
            raise ProtocolError(f"bad error response: {error}") from None


_RESPONSE_TYPES: Dict[str, type] = {
    **{
        cls.op: cls
        for cls in (
            CertifyResponse,
            StatsResponse,
            HealthResponse,
            CancelResponse,
            ErrorResponse,
        )
    },
    **{kind: ExperimentResponse for kind in ExperimentSpec._KINDS},
}


def response_from_dict(data: Mapping[str, Any]) -> "Response":
    """Re-hydrate any response by its ``op`` discriminator."""
    op = data.get("op")
    cls = _RESPONSE_TYPES.get(op)
    if cls is None:
        raise ProtocolError(
            f"unknown response op {op!r}; known ops: {', '.join(sorted(_RESPONSE_TYPES))}"
        )
    return cls.from_dict(data)


@dataclass(frozen=True)
class BatchResponse:
    """The per-member responses of one :class:`BatchRequest`, in order.

    The batch envelope itself is always ``ok``; failures live in the member
    responses (``skipped`` errors mark members cancelled by
    ``stop_on_failure``).
    """

    op = "batch"
    ok = True

    responses: Tuple["Response", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "responses", tuple(self.responses))

    @property
    def all_ok(self) -> bool:
        return all(response.ok for response in self.responses)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "op": self.op,
            "ok": True,
            "responses": [response.to_dict() for response in self.responses],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BatchResponse":
        raw = data.get("responses")
        if not isinstance(raw, (list, tuple)):
            raise ProtocolError("bad batch response: 'responses' must be a list")
        return cls(responses=tuple(response_from_dict(entry) for entry in raw))


Response = Union[
    CertifyResponse,
    ExperimentResponse,
    StatsResponse,
    HealthResponse,
    CancelResponse,
    ErrorResponse,
    BatchResponse,
]

_RESPONSE_TYPES[BatchResponse.op] = BatchResponse
