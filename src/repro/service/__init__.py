"""Certification as a service: the long-lived batched service layer.

The paper's model — a prover assigns certificates once, verifiers re-check
locally forever — maps onto a service that compiles a topology once and then
answers many verification requests against it.  This package is that
service:

* :mod:`repro.service.messages` — typed request/response dataclasses
  (:class:`CertifyRequest`, :class:`ExperimentRequest` for every experiment
  kind, the ``health``/``cancel`` control ops and their responses) and the
  structured :class:`ErrorResponse` that maps ``NotAYesInstance`` /
  ``ValueError`` / parameter-validation failures — and now deadline expiry
  and cancellation — to machine-readable error codes instead of tracebacks;
* :mod:`repro.service.core` — :class:`CertificationService`, the long-lived
  object that owns the LRU caches (compiled topologies, ``holds()`` ground
  truth, identifier assignments, decompositions, scheme instances) so they
  are reused *across* requests, with a bounded worker pool, batched
  submission (:meth:`CertificationService.submit_many`), and the
  fault-tolerance entry point :meth:`CertificationService.respond`
  (per-request deadlines, cooperative cancellation, idempotent replay);
* :mod:`repro.service.protocol` — the JSON-lines wire protocol behind
  ``python -m repro.cli serve`` (stdio and localhost TCP modes);
* :mod:`repro.service.client` — :class:`ServiceClient`, a thin client for
  both transports with backoff-and-jitter connect and idempotent retry;
* :mod:`repro.service.driver` — the fault-tolerant shard driver behind
  ``python -m repro.cli shard-drive``: fan any experiment out over a
  fleet of serve processes, survive dead workers, merge the partial
  artifacts back into the exact unsharded result;
* :mod:`repro.service.faults` — deterministic fault injection (drop /
  delay / garble / hangup / kill / freeze) that makes all of the above
  testable.

Callers that just want a verdict should go through the :mod:`repro.api`
facade instead of instantiating these pieces directly.
"""

from repro.service.core import CancelScope, CertificationService
from repro.service.client import (
    ServiceClient,
    ServiceConnectTimeout,
    ServiceTransportError,
)
from repro.service.driver import (
    DriveReport,
    DriverError,
    LocalFleet,
    ShardDriver,
    drive,
)
from repro.service.faults import FaultInjector, FaultRule, FaultSpecError
from repro.service.messages import (
    ERROR_CODES,
    BatchRequest,
    BatchResponse,
    CancelRequest,
    CancelResponse,
    CertifyRequest,
    CertifyResponse,
    ErrorResponse,
    ExperimentRequest,
    ExperimentResponse,
    HealthRequest,
    HealthResponse,
    Request,
    Response,
    StatsRequest,
    StatsResponse,
    request_from_dict,
    response_from_dict,
)

__all__ = [
    "ERROR_CODES",
    "BatchRequest",
    "BatchResponse",
    "CancelRequest",
    "CancelResponse",
    "CancelScope",
    "CertificationService",
    "CertifyRequest",
    "CertifyResponse",
    "DriveReport",
    "DriverError",
    "ErrorResponse",
    "ExperimentRequest",
    "ExperimentResponse",
    "FaultInjector",
    "FaultRule",
    "FaultSpecError",
    "HealthRequest",
    "HealthResponse",
    "LocalFleet",
    "Request",
    "ShardDriver",
    "Response",
    "ServiceClient",
    "ServiceConnectTimeout",
    "ServiceTransportError",
    "StatsRequest",
    "StatsResponse",
    "drive",
    "request_from_dict",
    "response_from_dict",
]
