"""A thin client for the certification service's wire protocol.

:class:`ServiceClient` speaks the JSON-lines protocol of
:mod:`repro.service.protocol` over either transport:

* :meth:`ServiceClient.connect` — a localhost TCP connection to a running
  ``python -m repro.cli serve --tcp HOST:PORT`` process (retries briefly so
  "start the server in the background, then connect" needs no sleep);
* :meth:`ServiceClient.stdio` — spawn ``python -m repro.cli serve`` as a
  child process and talk over its pipes (no network at all).

Methods mirror the request types and return the typed responses of
:mod:`repro.service.messages`; an error from the server comes back as an
:class:`ErrorResponse` value, never an exception — only transport failures
(connection refused, server died, protocol garbage) raise.

Fault tolerance: :meth:`ServiceClient.connect` retries with exponential
backoff plus jitter under a total deadline (a thundering herd of shard
workers reconnecting to a restarted server spreads out instead of
stampeding), and :meth:`ServiceClient.request` can retry a broken
conversation — it stamps the request with a ``request_id`` so the server's
idempotent replay makes the retry exactly-once even when the failure hit
after the work was done.

Example::

    with ServiceClient.stdio() as client:
        verdict = client.certify(scheme="treedepth", params={"t": 3}, graph="path:7")
        assert verdict.ok and verdict.accepted
        print(client.stats().result["caches_since_start"])
"""

from __future__ import annotations

import dataclasses
import json
import random
import socket
import subprocess
import sys
import time
import uuid
from typing import IO, Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.experiments import ExperimentSpec
from repro.service.messages import (
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
    response_from_dict,
)
from repro.service.protocol import SHUTDOWN_OP, connect, encode_line

#: Ceiling on one backoff sleep; growth past this only adds jitter spread.
_MAX_BACKOFF_S = 1.0


def _backoff_delay(base: float, attempt: int) -> float:
    """Exponential backoff with full jitter: ``U(0.5, 1) * base * 2^attempt``.

    The random factor decorrelates a fleet of clients retrying against the
    same restarted server; the cap keeps late attempts responsive.
    """
    delay = min(base * (2.0 ** attempt), _MAX_BACKOFF_S)
    return delay * (0.5 + random.random() / 2.0)


class ServiceTransportError(ConnectionError):
    """The conversation itself broke: no connection, EOF mid-request, garbage.

    ``timed_out`` distinguishes *silence* (a read that hit its timeout —
    the server is reachable but not answering, which is what a partition
    or a wedged handler looks like) from a positive failure (reset, EOF,
    refused).  Partition-aware supervision keys off this: a timed-out
    conversation makes a worker a *suspect*, not a confirmed corpse.
    """

    def __init__(self, message: str, *, timed_out: bool = False) -> None:
        super().__init__(message)
        self.timed_out = timed_out


class ServiceConnectTimeout(ServiceTransportError):
    """The connect retry budget (attempts or deadline) ran out.

    Carries the machine-readable ``connect-timeout`` code — callers that
    report errors as data (the shard driver) convert it via :meth:`error`
    instead of reparsing the message.  ``refused`` records whether the last
    attempt was actively refused (nothing listening: a confirmed-dead
    signal) rather than merely timing out (possibly partitioned).
    """

    code = "connect-timeout"

    def __init__(self, message: str, *, refused: bool = False) -> None:
        super().__init__(message, timed_out=not refused)
        self.refused = refused

    def error(self) -> ErrorResponse:
        """This failure as the wire's structured error value."""
        return ErrorResponse(code=self.code, message=str(self))


class ServiceClient:
    """One conversation with a serve process, over pipes or a socket."""

    def __init__(
        self,
        reader: IO[str],
        writer: IO[str],
        process: Optional[subprocess.Popen] = None,
        endpoint: Optional[Tuple[str, int, Optional[float], Optional[float]]] = None,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._process = process
        self._endpoint = endpoint
        self._closed = False

    # -- constructors --------------------------------------------------------

    @classmethod
    def connect(
        cls, host: str = "127.0.0.1", port: int = 8765, retries: int = 50,
        retry_delay: float = 0.1, read_timeout: Optional[float] = None,
        connect_deadline_s: Optional[float] = 15.0,
        reconnect_deadline_s: Optional[float] = None,
    ) -> "ServiceClient":
        """Connect to a TCP serve process, retrying while it starts up.

        Failed attempts back off exponentially from ``retry_delay`` with
        full jitter (see :func:`_backoff_delay`) under two caps: at most
        ``retries`` attempts and at most ``connect_deadline_s`` seconds in
        total.  Exhausting either raises :class:`ServiceConnectTimeout`,
        whose ``connect-timeout`` code is the structured form of the
        failure (the last ``OSError`` stays chained for humans).

        ``read_timeout`` optionally bounds each response wait; by default
        reads block indefinitely, matching the stdio transport (requests
        may legitimately take minutes of server-side compute).

        ``reconnect_deadline_s`` bounds the *mid-conversation* reconnect a
        retried :meth:`request` performs.  The generous initial deadline
        exists for servers still starting up; once a conversation has been
        established, a refused port usually means the process died, so
        callers that probe liveness themselves (the shard driver) pass a
        small budget here to detect death quickly.  ``None`` inherits
        ``connect_deadline_s``.
        """
        deadline_at = (
            time.monotonic() + connect_deadline_s
            if connect_deadline_s is not None
            else None
        )
        attempts = max(1, retries)
        last_error: Optional[Exception] = None
        sock = None
        for attempt in range(attempts):
            try:
                sock = connect(host, port, read_timeout=read_timeout)
                break
            except OSError as error:
                last_error = error
            if attempt + 1 >= attempts:
                break
            delay = _backoff_delay(retry_delay, attempt)
            if deadline_at is not None:
                budget = deadline_at - time.monotonic()
                if budget <= 0:
                    break
                delay = min(delay, budget)
            time.sleep(delay)
        if sock is None:
            raise ServiceConnectTimeout(
                f"could not connect to {host}:{port} "
                f"within the retry budget: {last_error}",
                refused=isinstance(last_error, ConnectionRefusedError),
            ) from last_error
        stream = sock.makefile("rw", encoding="utf-8", newline="\n")
        reconnect_budget = (
            reconnect_deadline_s
            if reconnect_deadline_s is not None
            else connect_deadline_s
        )
        return cls(
            reader=stream,
            writer=stream,
            endpoint=(host, port, read_timeout, reconnect_budget),
        )

    @classmethod
    def stdio(cls, command: Optional[Sequence[str]] = None) -> "ServiceClient":
        """Spawn a serve child process and talk over its stdin/stdout."""
        command = list(command or (sys.executable, "-m", "repro.cli", "serve"))
        process = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,  # line-buffered: one request line, one response line
        )
        assert process.stdin is not None and process.stdout is not None
        return cls(reader=process.stdout, writer=process.stdin, process=process)

    # -- the conversation ----------------------------------------------------

    def _roundtrip(self, data: Dict[str, Any]) -> Dict[str, Any]:
        if self._closed:
            raise ServiceTransportError("the client is closed")
        try:
            self._writer.write(encode_line(data))
            self._writer.flush()
            line = self._reader.readline()
        except (OSError, ValueError) as error:
            raise ServiceTransportError(
                f"transport failed: {error}",
                timed_out=isinstance(error, socket.timeout),
            ) from error
        if not line:
            raise ServiceTransportError("the server closed the connection")
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as error:
            raise ServiceTransportError(f"unparseable response line: {line!r}") from error
        return payload

    def _reconnect(self) -> None:
        """Re-establish a broken TCP transport (stdio cannot reconnect)."""
        if self._endpoint is None:
            raise ServiceTransportError(
                "this transport cannot reconnect (no TCP endpoint)"
            )
        host, port, read_timeout, reconnect_budget = self._endpoint
        for stream in {self._writer, self._reader}:
            try:
                stream.close()
            except OSError:
                pass
        fresh = ServiceClient.connect(
            host, port, read_timeout=read_timeout,
            connect_deadline_s=reconnect_budget,
        )
        self._reader = fresh._reader
        self._writer = fresh._writer
        self._closed = False

    def request(
        self, request: Request, retries: int = 0, retry_delay: float = 0.2
    ) -> Response:
        """Send any typed request and return the typed response.

        With ``retries > 0`` a broken conversation (connection reset, EOF,
        an unparseable response line) is retried up to that many extra
        times, reconnecting the TCP transport and backing off with jitter
        between attempts.  The request is stamped with a ``request_id``
        first (when its type carries one), so a resend of work the server
        already finished replays the cached response instead of running it
        twice — retries are idempotent, not at-least-once.
        """
        if (
            retries > 0
            and hasattr(request, "request_id")
            and request.request_id is None
        ):
            request = dataclasses.replace(request, request_id=uuid.uuid4().hex)
        data = request.to_dict()
        attempt = 0
        while True:
            try:
                return response_from_dict(self._roundtrip(data))
            except ServiceTransportError:
                if attempt >= retries:
                    raise
                time.sleep(_backoff_delay(retry_delay, attempt))
                attempt += 1
                if self._endpoint is not None:
                    try:
                        self._reconnect()
                    except ServiceTransportError:
                        # The server may still be coming back; the next
                        # roundtrip fails fast and consumes an attempt.
                        pass

    def certify(
        self,
        scheme: Optional[str] = None,
        graph: str = "",
        params: Optional[Mapping[str, Any]] = None,
        seed: int = 0,
        trials: int = 20,
        engine: str = "auto",
        include_certificates: bool = False,
        formula: Optional[str] = None,
        **kwargs: Any,
    ) -> Union[CertifyResponse, ErrorResponse]:
        """One certification question; ``kwargs`` pass through to the
        request (``deadline_s``, ``request_id``) and to :meth:`request`
        (``retries``, ``retry_delay``).  ``formula`` (mutually exclusive
        with ``scheme``) compiles an ephemeral MSO scheme server-side, with
        ``params`` carrying the compilation knobs."""
        retry_kwargs = {
            key: kwargs.pop(key) for key in ("retries", "retry_delay") if key in kwargs
        }
        return self.request(
            CertifyRequest(
                scheme=scheme,
                formula=formula,
                graph=graph,
                params=dict(params or {}),
                seed=seed,
                trials=trials,
                engine=engine,
                include_certificates=include_certificates,
                **kwargs,
            ),
            **retry_kwargs,
        )

    def run(
        self, spec: ExperimentSpec, **kwargs: Any
    ) -> Union[ExperimentResponse, ErrorResponse]:
        """Run one experiment of any kind (or one shard of it) as one request.

        ``kwargs`` pass through to the :class:`ExperimentRequest`
        (``deadline_s``, ``request_id``, ``attempt``) and to :meth:`request`
        (``retries``, ``retry_delay``).
        """
        retry_kwargs = {
            key: kwargs.pop(key) for key in ("retries", "retry_delay") if key in kwargs
        }
        return self.request(ExperimentRequest(spec=spec, **kwargs), **retry_kwargs)

    def submit_many(
        self,
        requests: Sequence[Request],
        stop_on_failure: bool = False,
        **kwargs: Any,
    ) -> Union[List[Response], ErrorResponse]:
        """Send a whole batch as one ``batch`` wire request.

        Returns the per-request responses in order — the remote counterpart
        of :meth:`CertificationService.submit_many`, including the
        ``stop_on_failure`` early exit (cancelled members come back as
        ``skipped`` errors).  A failure of the batch envelope itself (e.g. a
        member that does not decode) comes back as a single
        :class:`ErrorResponse` value.  ``kwargs`` pass through to the
        :class:`BatchRequest` (``deadline_s``, ``request_id``).
        """
        retry_kwargs = {
            key: kwargs.pop(key) for key in ("retries", "retry_delay") if key in kwargs
        }
        response = self.request(
            BatchRequest(
                requests=tuple(requests), stop_on_failure=stop_on_failure, **kwargs
            ),
            **retry_kwargs,
        )
        if isinstance(response, BatchResponse):
            return list(response.responses)
        return response

    def stats(self) -> Union[StatsResponse, ErrorResponse]:
        return self.request(StatsRequest())

    def health(self) -> Union[HealthResponse, ErrorResponse]:
        """The server's liveness/load snapshot (never queued behind work)."""
        return self.request(HealthRequest())

    def cancel(self, request_id: str) -> Union[CancelResponse, ErrorResponse]:
        """Cancel the in-flight or queued request known under ``request_id``.

        Issue it from a *second* connection: the one waiting on the work is
        blocked until the cancelled request answers (with a ``cancelled``
        error).
        """
        return self.request(CancelRequest(request_id=request_id))

    def shutdown(self) -> bool:
        """Ask the server to stop; True when it acknowledged."""
        payload = self._roundtrip({"op": SHUTDOWN_OP})
        return bool(payload.get("ok")) and payload.get("op") == SHUTDOWN_OP

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Close the transport (and reap the child process, if we spawned one)."""
        if self._closed:
            return
        self._closed = True
        for stream in {self._writer, self._reader}:
            try:
                stream.close()
            except OSError:
                pass
        if self._process is not None:
            try:
                self._process.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover - safety net
                self._process.kill()
                self._process.wait()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        # End a piped session politely so the child exits by itself; a TCP
        # session just disconnects (shutting the shared server down is the
        # owner's call, not every client's).
        if self._process is not None and not self._closed:
            try:
                self.shutdown()
            except ServiceTransportError:
                pass
        self.close()
