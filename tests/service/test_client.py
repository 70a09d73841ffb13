"""ServiceClient over both transports: in-thread TCP and a stdio child."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.experiments import FormulaSpec, SweepSpec
from repro.service.client import (
    ServiceClient,
    ServiceConnectTimeout,
    ServiceTransportError,
)
from repro.service.core import CertificationService
from repro.service.faults import FaultInjector
from repro.service.messages import CertifyRequest, CertifyResponse, ErrorResponse
from repro.service.protocol import TCPProtocolServer, encode_line


@pytest.fixture()
def tcp_server():
    """A protocol server on an ephemeral localhost port, in a thread."""
    with CertificationService(workers=2) as service:
        server = TCPProtocolServer(service, port=0)
        thread = threading.Thread(target=server.serve_until_shutdown, daemon=True)
        thread.start()
        try:
            yield server
        finally:
            server.request_shutdown()
            thread.join(timeout=10)


class TestTCP:
    def test_certify_roundtrip(self, tcp_server):
        host, port = tcp_server.address
        with ServiceClient.connect(host, port) as client:
            response = client.certify(scheme="treedepth", params={"t": 3}, graph="path:7")
            assert isinstance(response, CertifyResponse)
            assert response.holds and response.accepted

    def test_formula_certify_and_series_roundtrip(self, tcp_server):
        host, port = tcp_server.address
        dominating = "exists x. forall y. (x = y | x ~ y)"
        with ServiceClient.connect(host, port) as client:
            certified = client.certify(
                formula=dominating, graph="star:8", params={"t": 2}
            )
            assert isinstance(certified, CertifyResponse)
            assert certified.holds and certified.registry_key == "formula"
            series = client.run(
                FormulaSpec(formula=dominating, family="star", sizes=(4, 6), trials=5)
            )
            assert series.series == {4: 160, 6: 184}
            malformed = client.certify(formula="exists x. ((x = y)", graph="star:8")
            assert isinstance(malformed, ErrorResponse)
            assert malformed.code == "invalid-formula"

    def test_errors_come_back_as_values(self, tcp_server):
        host, port = tcp_server.address
        with ServiceClient.connect(host, port) as client:
            response = client.certify(scheme="treedepht", graph="path:7")
            assert isinstance(response, ErrorResponse)
            assert response.code == "unknown-scheme"

    def test_connections_share_one_service(self, tcp_server):
        host, port = tcp_server.address
        with ServiceClient.connect(host, port) as first:
            first.certify(scheme="tree", graph="path:4")
        with ServiceClient.connect(host, port) as second:
            stats = second.stats()
            assert stats.result["service"]["requests"]["certify"] == 1

    def test_shutdown_stops_the_server(self, tcp_server):
        host, port = tcp_server.address
        client = ServiceClient.connect(host, port)
        assert client.shutdown() is True
        client.close()
        # The serve loop notices the shutdown on its next poll tick, so the
        # listener can linger briefly; poll until connects are refused.
        deadline = time.monotonic() + 5.0
        while True:
            try:
                with ServiceClient.connect(
                    host, port, retries=1, retry_delay=0.01
                ) as probe:
                    probe.certify(scheme="tree", graph="path:4")
            except ServiceTransportError:
                break
            assert time.monotonic() < deadline, "server still accepting connects"
            time.sleep(0.05)

    def test_connect_refused_raises_transport_error(self):
        with pytest.raises(ServiceTransportError, match="could not connect"):
            # A port from the ephemeral range nothing listens on.
            ServiceClient.connect("127.0.0.1", 1, retries=2, retry_delay=0.01)

    def test_submit_many_roundtrips_a_batch(self, tcp_server):
        host, port = tcp_server.address
        with ServiceClient.connect(host, port) as client:
            responses = client.submit_many([
                CertifyRequest(scheme="tree", graph="path:4"),
                CertifyRequest(scheme="nope", graph="path:4"),
                CertifyRequest(scheme="bipartite", graph="cycle:5"),
            ])
            assert isinstance(responses, list) and len(responses) == 3
            assert isinstance(responses[0], CertifyResponse)
            assert responses[0].vertices == 4
            assert isinstance(responses[1], ErrorResponse)
            assert responses[1].code == "unknown-scheme"
            assert responses[2].holds is False and responses[2].sound is True

    def test_submit_many_stop_on_failure_marks_skips(self, tcp_server):
        host, port = tcp_server.address
        # Freeze every handler after the failing head so the tail is still
        # queued when the early exit sweeps it — without the stall, fast
        # cached certifies can all finish before the first failure lands.
        tcp_server.service.fault_injector = FaultInjector.parse(
            ["freeze:after=1,seconds=0.2"]
        )
        requests = [CertifyRequest(scheme="nope", graph="path:4")]
        requests += [
            CertifyRequest(scheme="tree", graph=f"random-tree:{8 + i}")
            for i in range(30)
        ]
        with ServiceClient.connect(host, port) as client:
            responses = client.submit_many(requests, stop_on_failure=True)
            assert len(responses) == len(requests)
            assert responses[0].code == "unknown-scheme"
            assert any(
                isinstance(r, ErrorResponse) and r.code == "skipped"
                for r in responses[1:]
            )

    def test_oversized_line_keeps_the_connection_alive(self):
        """An over-limit request line is answered with a structured error
        and the same connection still serves the next request."""
        with CertificationService(workers=1) as service:
            server = TCPProtocolServer(service, port=0, max_request_bytes=2048)
            thread = threading.Thread(target=server.serve_until_shutdown, daemon=True)
            thread.start()
            try:
                host, port = server.address
                with ServiceClient.connect(host, port) as client:
                    client._writer.write("z" * 10_000 + "\n")
                    client._writer.flush()
                    line = client._reader.readline()
                    payload = json.loads(line)
                    assert payload["code"] == "invalid-request"
                    assert "2048" in payload["message"]
                    verdict = client.certify(scheme="tree", graph="path:4")
                    assert isinstance(verdict, CertifyResponse) and verdict.accepted
            finally:
                server.request_shutdown()
                thread.join(timeout=10)


class TestConnectBackoff:
    def test_connect_deadline_caps_the_retry_budget(self):
        # retries=50 would take seconds of backoff; the deadline wins.
        started = time.monotonic()
        with pytest.raises(ServiceConnectTimeout) as excinfo:
            ServiceClient.connect(
                "127.0.0.1", 1, retries=50, retry_delay=0.05,
                connect_deadline_s=0.3,
            )
        assert time.monotonic() - started < 3.0
        # The failure doubles as the wire's structured error value.
        error = excinfo.value.error()
        assert error.code == "connect-timeout" and not error.ok

    def test_connect_timeout_is_still_a_transport_error(self):
        # Callers that only catch the broad class keep working.
        assert issubclass(ServiceConnectTimeout, ServiceTransportError)


class TestRetryIdempotency:
    def test_garbled_response_is_retried_and_replayed_not_rerun(self):
        """A corrupted response line triggers the client's reconnect-and-
        resend; the stamped request_id makes the resend a cache replay, so
        the work ran exactly once."""
        with CertificationService(workers=1) as service:
            service.fault_injector = FaultInjector.parse(["garble:nth=1"])
            server = TCPProtocolServer(service, port=0)
            thread = threading.Thread(target=server.serve_until_shutdown, daemon=True)
            thread.start()
            try:
                host, port = server.address
                with ServiceClient.connect(host, port) as client:
                    response = client.request(
                        CertifyRequest(scheme="tree", graph="path:4"),
                        retries=2, retry_delay=0.01,
                    )
                assert isinstance(response, CertifyResponse) and response.accepted
                counters = service.stats()["service"]["requests"]
                assert counters["certify"] == 1
                assert counters["replayed"] == 1
            finally:
                server.request_shutdown()
                thread.join(timeout=10)

    def test_no_retries_means_the_transport_error_surfaces(self):
        with CertificationService(workers=1) as service:
            service.fault_injector = FaultInjector.parse(["garble:nth=1"])
            server = TCPProtocolServer(service, port=0)
            thread = threading.Thread(target=server.serve_until_shutdown, daemon=True)
            thread.start()
            try:
                host, port = server.address
                with ServiceClient.connect(host, port) as client:
                    with pytest.raises(ServiceTransportError, match="unparseable"):
                        client.request(CertifyRequest(scheme="tree", graph="path:4"))
            finally:
                server.request_shutdown()
                thread.join(timeout=10)


class TestWireDeadlines:
    def test_deadline_rides_the_wire_and_the_connection_survives(self, tcp_server):
        tcp_server.service.fault_injector = FaultInjector.parse(
            ["freeze:op=sweep,seconds=0"]
        )
        host, port = tcp_server.address
        with ServiceClient.connect(host, port) as client:
            response = client.run(
                SweepSpec(scheme="tree", family="path", sizes=(4,), trials=2),
                deadline_s=0.3,
            )
            assert isinstance(response, ErrorResponse)
            assert response.code == "timeout" and response.request_op == "sweep"
            # Same connection, next request: still serviceable.
            verdict = client.certify(scheme="tree", graph="path:4")
            assert isinstance(verdict, CertifyResponse) and verdict.accepted


class TestDeadConnectionCancelsBatchTail:
    def test_vanishing_mid_batch_cancels_the_queued_tail(self):
        with CertificationService(workers=2) as service:
            # Certifications answer in milliseconds — too fast for the scope
            # poll to ever fire.  A scope-aware 0.2 s freeze per member
            # makes the batch realistically long without burning CPU.
            service.fault_injector = FaultInjector.parse(
                ["freeze:op=certify,seconds=0.2"]
            )
            server = TCPProtocolServer(service, port=0)
            thread = threading.Thread(target=server.serve_until_shutdown, daemon=True)
            thread.start()
            try:
                host, port = server.address
                client = ServiceClient.connect(host, port)
                batch = {
                    "op": "batch",
                    "requests": [
                        {"op": "certify", "scheme": "tree", "graph": "path:4"}
                        for _ in range(40)
                    ],
                }
                client._writer.write(encode_line(batch))
                client._writer.flush()
                # Vanish without reading the answer: the server's is_alive
                # probe must notice and cancel the queued tail instead of
                # grinding through sixty certifications for nobody.
                client.close()
                deadline_at = time.monotonic() + 30
                cancelled = 0
                while time.monotonic() < deadline_at:
                    cancelled = service.stats()["service"]["requests"]["cancelled"]
                    if cancelled:
                        break
                    time.sleep(0.05)
                assert cancelled >= 1
            finally:
                server.request_shutdown()
                thread.join(timeout=10)


class TestStdioChild:
    def test_full_conversation_with_a_child_process(self):
        with ServiceClient.stdio() as client:
            verdict = client.certify(scheme="treedepth", params={"t": 3}, graph="path:7")
            assert verdict.ok and verdict.accepted
            again = client.certify(scheme="treedepth", params={"t": 3}, graph="path:7")
            assert again == verdict
            stats = client.stats()
            assert stats.result["service"]["requests"]["certify"] == 2
            # The second request hit the caches the child keeps warm.
            assert stats.result["caches_since_start"]["networks"]["hits"] >= 1
            error = client.certify(scheme="tree", graph="nebula:4")
            assert error.code == "invalid-graph"
        # Leaving the context sent shutdown and reaped the child: a further
        # request must fail on the closed transport.
        with pytest.raises(ServiceTransportError):
            client.certify(scheme="tree", graph="path:4")
