"""The JSON-lines wire protocol of ``python -m repro.cli serve``.

One request per line in, one response per line out; every line is a single
JSON object whose ``op`` field names the message type
(:mod:`repro.service.messages`).  Two transports serve the same protocol:

* **stdio** — the server reads stdin and writes stdout, so a caller can
  pipe a batch of requests through one process (or keep the process alive
  behind a pair of pipes, which is what
  :meth:`repro.service.client.ServiceClient.stdio` does);
* **localhost TCP** — a threading server on ``127.0.0.1``; each connection
  speaks the same line protocol, and concurrent connections share the one
  service (and therefore its warm caches).

Four rules keep the protocol robust:

1. a malformed line is answered with an ``invalid-request`` error response,
   never a dropped connection;
2. the special request ``{"op": "shutdown"}`` is acknowledged with
   ``{"op": "shutdown", "ok": true}`` and then stops the server — the clean
   way to end a session (EOF / disconnect merely ends the connection);
3. responses are exactly one line of compact JSON with sorted keys, so
   byte-level comparisons (and the CLI-parity test) are meaningful;
4. request lines are read at most ``max_request_bytes`` at a time, so an
   oversized (or unterminated) line can never balloon server memory: the
   excess is drained without buffering, the sender gets a structured
   ``invalid-request`` error, and the connection keeps serving.
"""

from __future__ import annotations

import json
import os
import select
import socket
import socketserver
import threading
from typing import IO, Any, Callable, Dict, Optional, Tuple

from repro.service.core import CertificationService
from repro.service.faults import KILL_EXIT_CODE, FaultInjector, garble_line
from repro.service.messages import (
    ErrorResponse,
    ExperimentRequest,
    ProtocolError,
    request_from_dict,
)

#: ``op`` of the session-terminating request and of its acknowledgement.
SHUTDOWN_OP = "shutdown"

#: Default cap on one request line (newline included).  Generous for every
#: real request shape — a thousand-member batch fits comfortably — while
#: keeping a hostile or broken sender from buffering unbounded memory.
DEFAULT_MAX_REQUEST_BYTES = 1 << 20

#: Read size used while discarding the tail of an oversized line.
_DRAIN_CHUNK = 1 << 16


def _oversized_line(max_request_bytes: int) -> str:
    """The structured answer to a request line that blew the size limit."""
    response = ErrorResponse(
        code="invalid-request",
        message=f"request line exceeds the {max_request_bytes}-byte limit",
    )
    return encode_line(response.to_dict())


def _read_limited_line(stream, max_request_bytes: int):
    """Read one line from a text or binary stream, capped at the limit.

    Returns ``(line, oversized)``; ``line`` is falsy at EOF.  An oversized
    line is consumed (drained in bounded chunks, never buffered whole) up to
    its newline so the stream stays synchronised on the next request.
    """
    line = stream.readline(max_request_bytes + 1)
    if not line:
        return line, False
    if isinstance(line, str):
        # Text streams cap readline by characters; enforce the advertised
        # *byte* limit too (encoding only non-ASCII lines — the protocol is
        # ASCII JSON, so the common case stays a C-speed scan).
        newline = "\n"
        oversized = len(line) > max_request_bytes or (
            not line.isascii() and len(line.encode("utf-8")) > max_request_bytes
        )
    else:
        newline = b"\n"
        oversized = len(line) > max_request_bytes
    if not oversized:
        return line, False
    chunk = line
    while chunk and not chunk.endswith(newline):
        chunk = stream.readline(_DRAIN_CHUNK)
    return line, True


def encode_line(data: Dict[str, Any]) -> str:
    """One protocol line: compact JSON, sorted keys, newline-terminated."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def handle_line(
    service: CertificationService,
    line: str,
    is_alive: Optional[Callable[[], bool]] = None,
) -> Tuple[str, bool]:
    """Answer one request line; returns ``(response line, keep going)``.

    ``is_alive`` is the transport's connection-death probe, threaded into
    :meth:`CertificationService.respond` so queued/in-flight work (a batch
    tail, a sweep) is cancelled when the asking client disappears.
    """
    try:
        data = json.loads(line)
        if not isinstance(data, dict):
            raise ProtocolError("a request must be a JSON object")
    except (json.JSONDecodeError, ProtocolError) as error:
        response = ErrorResponse(code="invalid-request", message=str(error))
        return encode_line(response.to_dict()), True
    if data.get("op") == SHUTDOWN_OP:
        return encode_line({"op": SHUTDOWN_OP, "ok": True}), False
    try:
        request = request_from_dict(data)
    except ProtocolError as error:
        response = ErrorResponse(
            code=error.code, message=str(error), request_op=error.request_op
        )
        return encode_line(response.to_dict()), True
    try:
        response = service.respond(request, is_alive=is_alive)
    except Exception as error:  # noqa: BLE001 - rule 1: answer, never die
        response = ErrorResponse(
            code="internal-error",
            message=f"{type(error).__name__}: {error}",
            request_op=getattr(request, "op", None),
        )
    return encode_line(response.to_dict()), True


def _line_op(line: str) -> Optional[str]:
    """The ``op`` of a request line, for fault matching (None if unparsable).

    A ``run`` line matches as its spec's kind, so ``op=sweep`` rules fire on
    sweeps whichever op carried them.
    """
    try:
        data = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(data, dict):
        return None
    spec = data.get("spec")
    if data.get("op") == ExperimentRequest.WIRE_OP and isinstance(spec, dict):
        return spec.get("kind")
    return data.get("op")


#: Disposition of a response line after wire-fault application.
_SEND, _SWALLOW, _HANGUP = "send", "swallow", "hangup"


def _apply_wire_fault(
    injector: Optional[FaultInjector], request_line: str, response_line: str
) -> Tuple[str, str]:
    """Run one response through the fault injector (if any).

    Returns ``(disposition, line)``: ``send`` the (possibly garbled,
    possibly delayed) line, ``swallow`` it silently, or ``hangup`` the
    connection.  A ``kill`` rule never returns — the process exits, which
    is the point.  A ``partition`` rule opens the injector's partition
    window and holds *this* response (and, via the loops' own
    ``partition_wait`` calls, every other connection's traffic) until the
    window heals — the held line then goes out late, exercising the
    driver's fencing of superseded answers.
    """
    if injector is None:
        return _SEND, response_line
    rule = injector.wire_fault(_line_op(request_line))
    if rule is None:
        return _SEND, response_line
    if rule.action == "kill":
        os._exit(KILL_EXIT_CODE)
    if rule.action == "delay":
        injector.apply_delay(rule)
        return _SEND, response_line
    if rule.action == "garble":
        return _SEND, garble_line(response_line)
    if rule.action == "drop":
        return _SWALLOW, response_line
    if rule.action == "partition":
        injector.begin_partition(rule.seconds)
        injector.partition_wait()
        return _SEND, response_line
    return _HANGUP, response_line


def serve_stdio(
    service: CertificationService,
    stdin: IO[str],
    stdout: IO[str],
    max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
) -> int:
    """Serve the line protocol over a stream pair until EOF or shutdown.

    Returns the number of lines answered.  Blank lines are ignored, so a
    trailing newline in a piped batch is harmless.  A line longer than
    ``max_request_bytes`` is drained and answered with an
    ``invalid-request`` error — the session keeps serving.
    """
    answered = 0
    injector = getattr(service, "fault_injector", None)
    while True:
        line, oversized = _read_limited_line(stdin, max_request_bytes)
        if not line:
            break
        if oversized:
            stdout.write(_oversized_line(max_request_bytes))
            stdout.flush()
            answered += 1
            continue
        if not line.strip():
            continue
        if injector is not None:
            # An open partition stalls new requests too: the line has been
            # read off the pipe (the network's buffers do that much), but
            # nothing is handled or answered until the window heals.
            injector.partition_wait()
        response_line, keep_going = handle_line(service, line)
        disposition, response_line = _apply_wire_fault(injector, line, response_line)
        if disposition == _HANGUP:
            break
        if disposition == _SEND:
            stdout.write(response_line)
            stdout.flush()
        answered += 1
        if not keep_going:
            break
    return answered


def _socket_alive(sock: socket.socket) -> bool:
    """Is the peer of this connection still there?

    A zero-timeout ``select`` plus a ``MSG_PEEK`` read distinguishes the
    three states without consuming protocol bytes: nothing readable means
    the peer is simply quiet (alive), readable-with-data means a pipelined
    request is waiting (alive), and readable-with-EOF — or any socket
    error — means the client is gone.
    """
    try:
        readable, _, _ = select.select([sock], [], [], 0)
        if not readable:
            return True
        return bool(sock.recv(1, socket.MSG_PEEK))
    except (BlockingIOError, InterruptedError):
        return True
    except (OSError, ValueError):
        return False


class _LineHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:  # pragma: no cover - exercised via TCP tests
        limit = self.server.max_request_bytes
        injector = getattr(self.server.service, "fault_injector", None)

        def is_alive() -> bool:
            return _socket_alive(self.connection)

        while True:
            raw, oversized = _read_limited_line(self.rfile, limit)
            if not raw:
                return
            if oversized:
                self.wfile.write(_oversized_line(limit).encode("utf-8"))
                self.wfile.flush()
                continue
            line = raw.decode("utf-8", errors="replace")
            if not line.strip():
                continue
            if injector is not None:
                # Partitioned: the connection was accepted and the request
                # read, but handling stalls until the window heals — from
                # the client's side, reachable but silent.
                injector.partition_wait()
            response_line, keep_going = handle_line(
                self.server.service, line, is_alive=is_alive
            )
            disposition, response_line = _apply_wire_fault(injector, line, response_line)
            if disposition == _HANGUP:
                return
            if disposition == _SEND:
                try:
                    self.wfile.write(response_line.encode("utf-8"))
                    self.wfile.flush()
                except (BrokenPipeError, ConnectionResetError):
                    # The client vanished between computing the answer and
                    # sending it; nothing left to serve on this connection.
                    return
            if not keep_going:
                self.server.request_shutdown()
                return


class TCPProtocolServer(socketserver.ThreadingTCPServer):
    """A localhost line-protocol server; connections share one service."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        service: CertificationService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
    ):
        self.service = service
        self.max_request_bytes = max_request_bytes
        self._shutdown_requested = threading.Event()
        super().__init__((host, port), _LineHandler)

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self.server_address[:2]
        return (host, port)

    def request_shutdown(self) -> None:
        """Ask the serve loop to stop (callable from handler threads)."""
        if not self._shutdown_requested.is_set():
            self._shutdown_requested.set()
            # shutdown() must come from outside the serve_forever thread.
            threading.Thread(target=self.shutdown, daemon=True).start()

    def serve_until_shutdown(self) -> None:
        try:
            self.serve_forever(poll_interval=0.1)
        finally:
            self.server_close()


def serve_tcp(
    service: CertificationService,
    host: str = "127.0.0.1",
    port: int = 0,
    ready: Optional[threading.Event] = None,
    announce: Optional[IO[str]] = None,
    max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
) -> Tuple[str, int]:
    """Serve the line protocol on localhost TCP until a shutdown request.

    Binds (``port=0`` picks a free port), optionally announces the bound
    address on ``announce`` and sets ``ready`` once listening — the hooks a
    supervisor or a test needs to know when to connect — then blocks until
    a client sends ``{"op": "shutdown"}``.  Returns the address it served.
    """
    server = TCPProtocolServer(
        service, host=host, port=port, max_request_bytes=max_request_bytes
    )
    bound = server.address
    if announce is not None:
        announce.write(f"serving on {bound[0]}:{bound[1]}\n")
        announce.flush()
    if ready is not None:
        ready.set()
    server.serve_until_shutdown()
    return bound


def connect(
    host: str,
    port: int,
    connect_timeout: float = 10.0,
    read_timeout: Optional[float] = None,
) -> socket.socket:
    """A connected TCP socket to a protocol server (used by the client).

    ``connect_timeout`` bounds connection establishment only; once
    connected the socket blocks for ``read_timeout`` (default: forever —
    certification requests legitimately run for minutes, and an expired
    read deadline would desynchronise the request/response stream).
    """
    sock = socket.create_connection((host, port), timeout=connect_timeout)
    sock.settimeout(read_timeout)
    return sock
