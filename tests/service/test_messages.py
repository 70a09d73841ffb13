"""Round-trips and validation of the typed service messages."""

from __future__ import annotations

import json

import pytest

from repro.experiments import BoundCheck, LowerBoundSpec, SweepPoint, SweepResult, SweepSpec
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
    ProtocolError,
    StatsRequest,
    request_from_dict,
    response_from_dict,
)


class TestRequests:
    def test_certify_round_trip(self):
        request = CertifyRequest(
            scheme="treedepth", graph="path:7", params={"t": 3}, seed=5, trials=7
        )
        data = request.to_dict()
        assert data["op"] == "certify"
        assert request_from_dict(json.loads(json.dumps(data))) == request

    def test_sweep_round_trip_normalises_sizes(self):
        request = ExperimentRequest(spec=SweepSpec(scheme="tree", family="path", sizes=[4, 8]))
        assert request.spec.sizes == (4, 8)
        assert request_from_dict(request.to_dict()) == request

    def test_stats_round_trip(self):
        assert request_from_dict(StatsRequest().to_dict()) == StatsRequest()

    def test_unknown_op_rejected(self):
        with pytest.raises(ProtocolError, match="unknown request op"):
            request_from_dict({"op": "teleport"})

    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolError, match="unknown 'certify' field"):
            request_from_dict({"op": "certify", "scheme": "tree", "graph": "path:4",
                               "warp": 9})

    def test_missing_required_field_rejected(self):
        with pytest.raises(ProtocolError, match="bad 'certify' request"):
            request_from_dict({"op": "certify", "scheme": "tree"})

    def test_batch_round_trip(self):
        request = BatchRequest(
            requests=(
                CertifyRequest(scheme="tree", graph="path:4"),
                StatsRequest(),
            ),
            stop_on_failure=True,
        )
        data = request.to_dict()
        assert data["op"] == "batch" and data["stop_on_failure"] is True
        assert request_from_dict(json.loads(json.dumps(data))) == request

    def test_batch_rejects_nesting_shutdown_and_bad_members(self):
        with pytest.raises(ProtocolError, match="nest"):
            request_from_dict({"op": "batch", "requests": [{"op": "batch", "requests": []}]})
        with pytest.raises(ProtocolError, match="shutdown"):
            request_from_dict({"op": "batch", "requests": [{"op": "shutdown"}]})
        with pytest.raises(ProtocolError, match="#1"):
            request_from_dict({"op": "batch", "requests": [{"op": "stats"}, {"op": "warp"}]})
        with pytest.raises(ProtocolError, match="requests"):
            request_from_dict({"op": "batch"})


class TestResponses:
    def _verdict(self, **overrides):
        payload = dict(
            scheme="tree", registry_key="tree", graph="path:4", vertices=4,
            edges=3, holds=True, accepted=True, sound=None,
            max_certificate_bits=16, bound="O(log n)", engine="compiled", seed=0,
        )
        payload.update(overrides)
        return CertifyResponse(**payload)

    def test_certify_round_trip(self):
        response = self._verdict()
        assert response.ok is True
        assert response_from_dict(json.loads(json.dumps(response.to_dict()))) == response

    def test_payload_omits_certificates_unless_present(self):
        assert "certificates" not in self._verdict().to_payload()
        full = self._verdict(certificates={"0": {"id": 3, "hex": "ff"}})
        assert full.to_payload()["certificates"] == {"0": {"id": 3, "hex": "ff"}}

    def test_verdict_ok_flags_rejected_honest_proof(self):
        assert self._verdict().verdict_ok
        assert self._verdict(holds=False, accepted=None).verdict_ok
        assert not self._verdict(accepted=False).verdict_ok

    def test_error_round_trip_and_code_validation(self):
        response = ErrorResponse(code="invalid-param", message="t must be >= 1",
                                 request_op="certify")
        back = response_from_dict(response.to_dict())
        assert back == response and back.ok is False
        with pytest.raises(ValueError, match="unknown error code"):
            ErrorResponse(code="exploded", message="boom")

    def test_error_codes_are_stable(self):
        # The wire contract: codes may be added, but these must keep existing.
        for code in ("unknown-scheme", "invalid-param", "invalid-graph",
                     "invalid-request", "not-a-yes-instance", "undecidable",
                     "skipped", "internal-error"):
            assert code in ERROR_CODES

    def test_batch_response_round_trip_and_all_ok(self):
        clean = BatchResponse(responses=(self._verdict(),))
        assert clean.all_ok
        assert response_from_dict(json.loads(json.dumps(clean.to_dict()))) == clean
        mixed = BatchResponse(
            responses=(
                self._verdict(),
                ErrorResponse(code="skipped", message="batch stopped early"),
            )
        )
        assert not mixed.all_ok
        assert response_from_dict(mixed.to_dict()) == mixed

    def test_sweep_response_clean_property(self):
        spec = SweepSpec(scheme="tree", family="path", sizes=(4, 4))
        accepted = SweepPoint(index=0, n=4, graph="path:4", vertices=4, edges=3, seed=0,
                              holds=True, completeness_ok=True, soundness_ok=None,
                              max_certificate_bits=16, elapsed_s=0.0)
        unsound = SweepPoint(index=1, n=4, graph="path:4", vertices=4, edges=3, seed=1,
                             holds=False, completeness_ok=None, soundness_ok=False,
                             max_certificate_bits=0, elapsed_s=0.0)
        bound = BoundCheck(label="O(log n)", ok=True, spread=None, slack=8.0)
        clean = ExperimentResponse(
            result=SweepResult(spec=spec, points=(accepted,), bound=bound).to_dict()
        )
        assert clean.clean and clean.series == {4: 16}
        assert not ExperimentResponse(
            result=SweepResult(spec=spec, points=(accepted, unsound)).to_dict()
        ).clean

class TestEngineField:
    """The shared engine vocabulary on the wire surface."""

    def test_every_engine_round_trips(self):
        for engine in ("legacy", "compiled", "delta", "vector"):
            certify = CertifyRequest(scheme="tree", graph="path:4", engine=engine)
            assert request_from_dict(certify.to_dict()) == certify
            sweep = ExperimentRequest(
                spec=SweepSpec(scheme="tree", family="path", sizes=(4,), engine=engine)
            )
            assert request_from_dict(sweep.to_dict()) == sweep

    def test_unknown_engine_rejected_at_construction(self):
        with pytest.raises(ValueError, match="quantum") as excinfo:
            CertifyRequest(scheme="tree", graph="path:4", engine="quantum")
        message = str(excinfo.value)
        for engine in ("legacy", "compiled", "delta", "vector"):
            assert repr(engine) in message
        with pytest.raises(ValueError, match="engine"):
            ExperimentRequest(spec=SweepSpec(scheme="tree", family="path", sizes=(4,), engine=7))

    def test_unknown_engine_on_the_wire_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="quantum"):
            request_from_dict(
                {"op": "certify", "scheme": "tree", "graph": "path:4",
                 "engine": "quantum"}
            )

    def test_lower_bound_engine_subset(self):
        # No legacy path in the protocol simulation: the request type only
        # accepts the engines the simulation can actually run on.
        request = ExperimentRequest(
            spec=LowerBoundSpec(construction="automorphism", sizes=(3,), engine="vector")
        )
        assert request_from_dict(request.to_dict()) == request
        with pytest.raises(ValueError, match="legacy"):
            ExperimentRequest(
                spec=LowerBoundSpec(construction="automorphism", sizes=(3,), engine="legacy")
            )


class TestFaultToleranceMessages:
    """The deadline/cancel/health wire surface added with the shard driver."""

    def test_deadline_validation(self):
        request = CertifyRequest(scheme="tree", graph="path:4", deadline_s=2)
        assert request.deadline_s == 2.0  # normalised to float
        for bad in (0, -1.5, True, "soon"):
            with pytest.raises(ValueError, match="deadline_s"):
                CertifyRequest(scheme="tree", graph="path:4", deadline_s=bad)

    def test_request_id_validation(self):
        assert CertifyRequest(
            scheme="tree", graph="path:4", request_id="rq-1"
        ).request_id == "rq-1"
        with pytest.raises(ValueError, match="request_id"):
            CertifyRequest(scheme="tree", graph="path:4", request_id=7)

    def test_deadline_and_request_id_round_trip(self):
        request = ExperimentRequest(
            spec=SweepSpec(scheme="tree", family="path", sizes=(4, 8), shard=(1, 3)),
            deadline_s=1.5, request_id="rq-2",
        )
        assert request_from_dict(request.to_dict()) == request

    def test_health_round_trip(self):
        assert request_from_dict({"op": "health"}) == HealthRequest()
        response = HealthResponse(result={"ok": True, "workers": 2})
        back = response_from_dict(response.to_dict())
        assert back == response and back.ok is True

    def test_cancel_round_trip_and_validation(self):
        request = CancelRequest(request_id="rq-3")
        assert request_from_dict(request.to_dict()) == request
        for bad in ("", None, 7):
            with pytest.raises(ValueError, match="request_id"):
                CancelRequest(request_id=bad)
        response = CancelResponse(
            result={"request_id": "rq-3", "cancelled": True, "state": "running"}
        )
        assert response_from_dict(response.to_dict()) == response

    def test_lower_bound_request_round_trip_with_shard(self):
        request = ExperimentRequest(
            spec=LowerBoundSpec(construction="automorphism", sizes=(3, 5), shard=(0, 2)),
            deadline_s=5.0, request_id="lb-1",
        )
        back = request_from_dict(request.to_dict())
        assert back == request and back.spec.shard == (0, 2)

    def test_fault_tolerance_error_codes_are_stable(self):
        # The retry/backoff contract keys on these; renaming one would
        # silently turn transient failures permanent in the shard driver.
        for code in ("timeout", "cancelled", "connect-timeout"):
            assert code in ERROR_CODES

    def test_batch_request_carries_deadline_and_id(self):
        batch = BatchRequest(
            requests=(CertifyRequest(scheme="tree", graph="path:4"),),
            deadline_s=2.0, request_id="batch-1",
        )
        back = request_from_dict(json.loads(json.dumps(batch.to_dict())))
        assert back == batch
        assert back.deadline_s == 2.0 and back.request_id == "batch-1"


class TestSelfHealingMessages:
    """The attempt-fencing and partial-salvage wire surface (PR 10)."""

    def test_attempt_validation(self):
        spec = SweepSpec(scheme="tree", family="path", sizes=(4,))
        request = ExperimentRequest(spec=spec, attempt=2)
        assert request.attempt == 2
        for bad in (0, -1, True, 1.5, "two"):
            with pytest.raises(ValueError, match="attempt"):
                ExperimentRequest(spec=spec, attempt=bad)

    def test_attempt_round_trips_on_every_driveable_request(self):
        sweep = ExperimentRequest(
            spec=SweepSpec(scheme="tree", family="path", sizes=(4,)), attempt=3
        )
        assert request_from_dict(sweep.to_dict()) == sweep
        lower = ExperimentRequest(
            spec=LowerBoundSpec(construction="automorphism", sizes=(3,)), attempt=1
        )
        assert request_from_dict(lower.to_dict()) == lower
        certify = CertifyRequest(scheme="tree", graph="path:4", attempt=2)
        assert request_from_dict(certify.to_dict()) == certify

    def test_superseded_is_a_stable_error_code(self):
        # The fencing discard of a late answer for a superseded dispatch
        # keys on this code; codes may be added but never renamed.
        assert "superseded" in ERROR_CODES

    def test_error_partial_round_trips(self):
        partial = {"points": [{"index": 0, "n": 4, "holds": True}]}
        response = ErrorResponse(
            code="timeout", message="deadline", request_op="sweep", partial=partial
        )
        back = response_from_dict(json.loads(json.dumps(response.to_dict())))
        assert back == response
        assert back.partial == partial

    def test_error_without_partial_keeps_the_old_wire_shape(self):
        # Byte-stability: an error that salvaged nothing must serialise
        # exactly as it did before the field existed.
        response = ErrorResponse(code="timeout", message="deadline")
        assert "partial" not in response.to_dict()

    def test_partial_must_be_a_mapping(self):
        with pytest.raises(ValueError, match="partial"):
            ErrorResponse(code="timeout", message="deadline", partial=[1, 2])
