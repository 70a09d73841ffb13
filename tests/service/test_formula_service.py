"""Service-layer tests for formula-as-a-request: wire shape, handlers, stats."""

from __future__ import annotations

import json

import pytest

from repro.caching import clear_caches
from repro.experiments import FormulaSpec
from repro.service.core import CertificationService
from repro.service.driver import ShardDriver
from repro.service.messages import (
    ERROR_CODES,
    CertifyRequest,
    CertifyResponse,
    ErrorResponse,
    ExperimentRequest,
    ExperimentResponse,
    ProtocolError,
    request_from_dict,
    response_from_dict,
)
from repro.service.protocol import encode_line, handle_line

DOMINATING = "exists x. forall y. (x = y | x ~ y)"


def legacy_sweep(**fields):
    """Decode a legacy ``sweep`` wire line (the alias of ``run``)."""
    return request_from_dict({"op": "sweep", **fields})


def answer(service, fields):
    """The typed answer to one wire line."""
    line, _ = handle_line(service, encode_line(fields))
    return response_from_dict(json.loads(line))


@pytest.fixture()
def service():
    clear_caches()
    with CertificationService(workers=1) as svc:
        yield svc
    clear_caches()


class TestFormulaMessages:
    def test_invalid_formula_is_a_stable_error_code(self):
        assert "invalid-formula" in ERROR_CODES

    @pytest.mark.parametrize("request_type", [CertifyRequest, legacy_sweep])
    def test_scheme_and_formula_are_mutually_exclusive(self, request_type):
        kwargs = (
            {"graph": "path:4"}
            if request_type is CertifyRequest
            else {"family": "star", "sizes": (4,)}
        )
        with pytest.raises(ValueError, match="mutually exclusive"):
            request_type(scheme="tree", formula=DOMINATING, **kwargs)
        with pytest.raises(ValueError, match="one of 'scheme' or 'formula'"):
            request_type(**kwargs)
        with pytest.raises(ValueError, match="must be a string"):
            request_type(formula=7, **kwargs)

    def test_wire_shape_errors_are_protocol_errors(self):
        with pytest.raises(ProtocolError):
            request_from_dict(
                {"op": "certify", "scheme": "tree", "formula": DOMINATING,
                 "graph": "path:4"}
            )

    def test_certify_request_with_formula_round_trips(self):
        request = CertifyRequest(formula=DOMINATING, graph="star:8",
                                 params={"t": 2})
        assert request_from_dict(json.loads(json.dumps(request.to_dict()))) == request

    def test_formula_request_round_trips_with_shard(self):
        request = ExperimentRequest(
            spec=FormulaSpec(formula=DOMINATING, family="star", sizes=(4, 8), t=3,
                             shard=(1, 2)),
            deadline_s=5.0, request_id="f-1",
        )
        assert request_from_dict(json.loads(json.dumps(request.to_dict()))) == request

    def test_formula_request_requires_a_formula(self):
        with pytest.raises(ValueError, match="formula"):
            FormulaSpec(formula="", family="star", sizes=(4,))

    def test_formula_response_round_trips_and_clean(self, service):
        response = service.experiment(
            ExperimentRequest(
                spec=FormulaSpec(formula=DOMINATING, family="star", sizes=(4, 6), trials=5)
            )
        )
        assert isinstance(response, ExperimentResponse)
        assert response.clean
        assert response.series == {4: 160, 6: 184}
        assert response_from_dict(json.loads(json.dumps(response.to_dict()))) == response


class TestFormulaCertify:
    def test_formula_certify_verdict(self, service):
        response = service.certify(
            CertifyRequest(formula=DOMINATING, graph="star:8", params={"t": 2})
        )
        assert isinstance(response, CertifyResponse)
        assert response.holds and response.accepted
        assert response.registry_key == "formula"
        assert response.bound == "O(t log n)"

    def test_malformed_formula_is_invalid_formula_with_position(self, service):
        response = service.certify(
            CertifyRequest(formula="exists x. ((x = y)", graph="star:8")
        )
        assert isinstance(response, ErrorResponse)
        assert response.code == "invalid-formula"
        assert "at position 18" in response.message

    def test_bad_compile_knobs_are_invalid_formula(self, service):
        response = service.certify(
            CertifyRequest(formula=DOMINATING, graph="star:8", params={"t": 0})
        )
        assert isinstance(response, ErrorResponse)
        assert response.code == "invalid-formula"

    def test_unknown_knob_names_are_invalid_formula(self, service):
        response = service.certify(
            CertifyRequest(formula=DOMINATING, graph="star:8", params={"depth": 3})
        )
        assert isinstance(response, ErrorResponse)
        assert response.code == "invalid-formula"

    def test_runs_on_every_engine_with_identical_verdicts(self, service):
        verdicts = {}
        for engine in ("legacy", "compiled", "delta", "vector", "auto"):
            response = service.certify(
                CertifyRequest(formula=DOMINATING, graph="star:8",
                               params={"t": 2}, engine=engine)
            )
            assert isinstance(response, CertifyResponse), response
            verdicts[engine] = (response.holds, response.accepted,
                                response.max_certificate_bits)
        assert len(set(verdicts.values())) == 1
        # Pinned engines really ran where they were pinned.
        assert service.stats()["service"]["routing"]["vector"] >= 1


class TestFormulaHandler:
    def test_sweep_with_formula_delegates_to_the_formula_handler(self, service):
        response = service.handle(
            legacy_sweep(formula=DOMINATING, family="star", sizes=(4, 6),
                         params={"t": 2}, trials=5)
        )
        assert isinstance(response, ExperimentResponse) and response.op == "formula"
        assert response.clean

    def test_formula_sweep_rejects_size_measure_and_id_exponent(self, service):
        base = dict(op="sweep", formula=DOMINATING, family="star", sizes=[4], trials=5)
        response = answer(service, dict(measure="size", **base))
        assert isinstance(response, ErrorResponse)
        assert response.code == "invalid-param"
        response = answer(service, dict(id_exponent=2, **base))
        assert isinstance(response, ErrorResponse)
        assert response.code == "invalid-param"

    def test_unknown_family_is_invalid_graph(self, service):
        response = service.experiment(
            ExperimentRequest(spec=FormulaSpec(formula=DOMINATING, family="nebula", sizes=(4,)))
        )
        assert isinstance(response, ErrorResponse)
        assert response.code in ("invalid-graph", "invalid-param")

    def test_wire_formula_request(self, service):
        line, keep_going = handle_line(
            service,
            encode_line({"op": "formula", "formula": DOMINATING,
                         "family": "star", "sizes": [4, 6], "trials": 5}),
        )
        assert keep_going
        payload = json.loads(line)
        assert payload["ok"] is True and payload["op"] == "formula"
        assert payload["result"]["series"] == {"4": 160, "6": 184}

    def test_wire_malformed_formula_error(self, service):
        line, _ = handle_line(
            service,
            encode_line({"op": "certify", "formula": "exists x. ((x = y)",
                         "graph": "star:8"}),
        )
        payload = json.loads(line)
        assert payload["ok"] is False
        assert payload["code"] == "invalid-formula"
        assert "at position 18" in payload["message"]


class TestFormulaStatsAndHealth:
    def test_stats_expose_compile_cache_counters(self, service):
        for _ in range(3):
            service.certify(
                CertifyRequest(formula=DOMINATING, graph="star:8", params={"t": 2})
            )
        stats = service.stats()["service"]
        assert stats["formula_compile_misses"] == 1
        assert stats["formula_compile_hits"] == 2
        assert stats["requests"]["certify"] == 3

    def test_formula_requests_are_counted(self, service):
        service.experiment(
            ExperimentRequest(
                spec=FormulaSpec(formula=DOMINATING, family="star", sizes=(4,), trials=5)
            )
        )
        assert service.stats()["service"]["requests"]["formula"] == 1

    def test_health_reports_cache_size(self, service):
        health = service.health().result
        assert health["formula_cache_size"] == 0
        service.certify(
            CertifyRequest(formula=DOMINATING, graph="star:8", params={"t": 2})
        )
        assert service.health().result["formula_cache_size"] == 1


class TestFormulaSharding:
    def test_formula_spec_becomes_a_formula_request(self):
        request = ShardDriver(deadline_s=5.0).shard_request(
            FormulaSpec(formula=DOMINATING, family="star", sizes=(4, 8), t=3), 1, 2
        )
        assert isinstance(request, ExperimentRequest)
        assert request.spec.formula == DOMINATING
        assert request.spec.t == 3
        assert request.spec.shard == (1, 2)
        assert request.deadline_s == 5.0

    def test_invalid_formula_is_not_transient(self):
        from repro.service.driver import TRANSIENT_CODES

        assert "invalid-formula" not in TRANSIENT_CODES

    def test_sharded_requests_merge_to_the_unsharded_series(self, service):
        spec = FormulaSpec(
            formula=DOMINATING, family="star", sizes=(4, 6, 8, 10), trials=5
        )
        full = service.experiment(ShardDriver().shard_request(spec, 0, 1))
        parts = [
            service.experiment(ShardDriver().shard_request(spec, index, 2))
            for index in range(2)
        ]
        merged = {}
        for part in parts:
            merged.update(part.series)
        assert merged == full.series
