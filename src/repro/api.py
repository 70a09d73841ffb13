"""``repro.api`` — the stable public facade of the repository.

One module, a handful of functions, no internals: callers never touch
``CompiledNetwork``, registry entries, cache modules or scheme classes.
The facade routes everything through one process-wide
:class:`~repro.service.core.CertificationService` (lazily constructed), so
repeated calls share compiled topologies, ground-truth decisions and scheme
instances exactly like a long-running server would — the CLI's ``certify``
and ``serve`` commands are thin shells over the same calls.

Synchronous use::

    from repro import api

    verdict = api.certify("treedepth", "path:7", params={"t": 3})
    print(verdict.holds, verdict.accepted, verdict.max_certificate_bits)

Structured errors instead of tracebacks: expected failures raise
:class:`ServiceError`, which carries the machine-readable
:class:`~repro.service.messages.ErrorResponse`::

    try:
        api.certify("treedepht", "path:7")
    except api.ServiceError as error:
        print(error.response.code)      # "unknown-scheme"
        print(error.response.message)   # ... did you mean 'treedepth'? ...

Batched use (``respond`` / ``submit_many`` never raise; they return typed
responses with an ``ok`` discriminator)::

    requests = [api.CertifyRequest(scheme="tree", graph=f"random-tree:{n}")
                for n in (8, 16, 32)]
    responses = api.submit_many(requests, stop_on_failure=True)
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import networkx as nx

from repro.service.core import CertificationService
from repro.service.messages import (
    CertifyRequest,
    CertifyResponse,
    ErrorResponse,
    ExperimentRequest,
    ExperimentResponse,
    Request,
    Response,
    request_from_dict,
)

__all__ = [
    "CertifyRequest",
    "CertifyResponse",
    "ErrorResponse",
    "ExperimentRequest",
    "ExperimentResponse",
    "ServiceError",
    "certify",
    "default_service",
    "formula",
    "reset_default_service",
    "respond",
    "service",
    "stats",
    "submit_many",
    "sweep",
]


class ServiceError(RuntimeError):
    """An expected failure, surfaced as data: ``.response`` holds the
    machine-readable :class:`ErrorResponse` (code + message)."""

    def __init__(self, response: ErrorResponse) -> None:
        super().__init__(f"[{response.code}] {response.message}")
        self.response = response


_default: Optional[CertificationService] = None
_default_lock = threading.Lock()


def default_service() -> CertificationService:
    """The process-wide service every facade call routes through."""
    global _default
    with _default_lock:
        if _default is None:
            _default = CertificationService()
        return _default


def reset_default_service() -> None:
    """Drop the process-wide service (tests; long-lived embedders)."""
    global _default
    with _default_lock:
        service, _default = _default, None
    if service is not None:
        service.close()


def service(workers: int = 4) -> CertificationService:
    """A fresh, independently-owned service (callers manage its lifetime)."""
    return CertificationService(workers=workers)


def _raise_on_error(response: Response) -> Response:
    if isinstance(response, ErrorResponse):
        raise ServiceError(response)
    return response


def certify(
    scheme: Optional[str] = None,
    graph: Union[str, nx.Graph] = "",
    params: Optional[Mapping[str, Any]] = None,
    seed: int = 0,
    trials: int = 20,
    engine: str = "auto",
    include_certificates: bool = False,
    formula: Optional[str] = None,
) -> CertifyResponse:
    """Run one certification: honest prover + radius-1 verification.

    ``graph`` is a ``family:size`` / ``file:PATH`` specifier or an
    already-built :class:`networkx.Graph`.  Instead of a registered
    ``scheme``, an MSO ``formula`` may be given (mutually exclusive);
    ``params`` then carries the compilation knobs (``t``, ``k``,
    ``route``, ``model``).  Returns the typed verdict; raises
    :class:`ServiceError` on any expected failure.
    """
    if isinstance(graph, nx.Graph):
        graph_obj: Optional[nx.Graph] = graph
        label = f"<graph n={graph.number_of_nodes()}>"
    else:
        graph_obj, label = None, graph
    request = CertifyRequest(
        scheme=scheme,
        formula=formula,
        graph=label,
        params=dict(params or {}),
        seed=seed,
        trials=trials,
        engine=engine,
        include_certificates=include_certificates,
    )
    response = default_service().certify(request, graph=graph_obj)
    return _raise_on_error(response)


def sweep(
    scheme: Optional[str] = None,
    family: str = "",
    sizes: Sequence[int] = (),
    params: Optional[Mapping[str, Any]] = None,
    trials: int = 20,
    seed: int = 0,
    formula: Optional[str] = None,
    **kwargs: Any,
) -> ExperimentResponse:
    """Measure a whole certificate-size series through the service.

    Takes the fields of a wire ``sweep`` line: ``formula`` instead of
    ``scheme`` measures an ad-hoc formula, with ``params`` carrying its
    compilation knobs.  Malformed arguments raise
    :class:`~repro.service.messages.ProtocolError` (a ``ValueError``).
    """
    return _run_line(
        "sweep",
        scheme=scheme,
        formula=formula,
        family=family,
        sizes=list(sizes),
        params=dict(params or {}),
        trials=trials,
        seed=seed,
        **kwargs,
    )


def formula(
    formula: str,
    family: str,
    sizes: Sequence[int],
    **kwargs: Any,
) -> ExperimentResponse:
    """Run a certificate-size series for an ad-hoc MSO formula.

    ``kwargs`` are further :class:`~repro.experiments.FormulaSpec` fields —
    notably the compilation knobs ``t``, ``k``, ``route`` and ``model``.
    """
    return _run_line("formula", formula=formula, family=family, sizes=list(sizes), **kwargs)


def _run_line(op: str, **fields: Any) -> ExperimentResponse:
    """Decode a legacy experiment line and answer it through the service."""
    request = request_from_dict({"op": op, **fields})
    return _raise_on_error(default_service().handle(request))


def respond(request: Request) -> Response:
    """Answer one typed request without raising (errors come back as data)."""
    return default_service().handle(request)


def submit_many(
    requests: Iterable[Request], stop_on_failure: bool = False
) -> List[Response]:
    """Run a batch on the service's bounded worker pool, preserving order."""
    return default_service().submit_many(requests, stop_on_failure=stop_on_failure)


def stats() -> dict:
    """Request counters and cache statistics of the process-wide service."""
    return default_service().stats()
