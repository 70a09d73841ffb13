"""One experiment protocol: every kind rides ``run``, legacy lines stay aliases.

Three guarantees, checked for every registered experiment kind:

* a ``{"op": "run"}`` line round-trips through the wire decoder and the
  service answers it with the kind's artifact payload;
* each legacy per-kind line (``sweep``, ``formula``, ``lower-bound``,
  ``radius``; kernels only ride ``run``) answers byte-for-byte like its
  ``run`` equivalent;
* an in-process two-shard drive merges to the unsharded payload exactly.

The golden transcript under ``golden/legacy_wire_lines.json`` pins the
legacy lines themselves: it was captured from the per-kind request types
this protocol replaced, and every line must still answer with the same
bytes (per-point wall-clock timings zeroed).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import (
    ExperimentSpec,
    FormulaSpec,
    KernelSpec,
    LowerBoundSpec,
    RadiusSpec,
    SweepSpec,
    canonical_payload,
)
from repro.service.core import CertificationService
from repro.service.driver import drive
from repro.service.faults import FaultInjector, FaultRule
from repro.service.messages import (
    LEGACY_EXPERIMENT_OPS,
    ExperimentRequest,
    request_from_dict,
)
from repro.service.protocol import encode_line, handle_line
from tests.service.test_driver import tcp_workers

DOMINATING = "exists x. forall y. (x = y | x ~ y)"

GOLDEN = Path(__file__).parent / "golden" / "legacy_wire_lines.json"

#: One small spec per experiment kind; a new kind must add its example.
EXAMPLES = {
    "sweep": SweepSpec(
        scheme="tree", family="path", sizes=(4, 6, 8), trials=3, engine="compiled"
    ),
    "formula": FormulaSpec(
        formula=DOMINATING, family="star", sizes=(4, 5, 6), trials=3, engine="compiled"
    ),
    "lower-bound": LowerBoundSpec(construction="automorphism", sizes=(3, 6, 9)),
    "radius": RadiusSpec(family="path", sizes=(3, 4, 6)),
    "kernel": KernelSpec(family="star", sizes=(8, 32, 128), k=3, check_ef=2),
}

KINDS = sorted(ExperimentSpec._KINDS)


def normalised(line: str) -> str:
    """A response line with its per-point wall-clock timings zeroed."""
    data = json.loads(line)
    if data.get("ok") and isinstance(data.get("result"), dict):
        data["result"] = canonical_payload(data["result"])
    return encode_line(data)


def answer(service: CertificationService, data: dict) -> str:
    line, keep_going = handle_line(service, encode_line(data))
    assert keep_going
    return normalised(line)


def run_line(spec: ExperimentSpec) -> dict:
    return ExperimentRequest(spec=spec).to_dict()


@pytest.fixture(scope="module")
def service():
    with CertificationService(workers=2) as svc:
        yield svc


def test_every_kind_has_an_example():
    assert sorted(EXAMPLES) == KINDS


@pytest.mark.parametrize("kind", KINDS)
class TestEveryKind:
    def test_run_round_trips_through_the_wire(self, service, kind):
        spec = EXAMPLES[kind]
        request = ExperimentRequest(spec=spec, deadline_s=60.0, request_id=f"rt-{kind}")
        assert request_from_dict(json.loads(json.dumps(request.to_dict()))) == request
        response = json.loads(answer(service, run_line(spec)))
        assert response["ok"] is True and response["op"] == kind
        assert response["result"]["kind"] == kind
        assert response["result"]["spec"] == spec.to_dict()

    def test_two_shard_drive_merges_to_the_unsharded_payload(self, service, kind):
        spec = EXAMPLES[kind]
        unsharded = json.loads(answer(service, run_line(spec)))["result"]
        with tcp_workers(2) as workers:
            report = drive(spec, workers, shards=2)
        driven = encode_line(canonical_payload(report.result.to_dict()))
        assert driven == encode_line(unsharded)


@pytest.mark.parametrize("kind", LEGACY_EXPERIMENT_OPS)
def test_legacy_alias_answers_like_run(service, kind):
    fields = run_line(EXAMPLES[kind])["spec"]
    fields.pop("kind")
    assert answer(service, {"op": kind, **fields}) == answer(service, run_line(EXAMPLES[kind]))


def test_formula_sweep_alias_answers_like_run(service):
    legacy = {"op": "sweep", "formula": DOMINATING, "params": {"t": 2},
              "family": "star", "sizes": [4, 5, 6], "trials": 3, "engine": "compiled"}
    assert answer(service, legacy) == answer(service, run_line(EXAMPLES["formula"]))


def test_processes_never_cross_the_wire(service):
    spec = SweepSpec(scheme="tree", family="path", sizes=(4,), processes=3)
    assert "processes" not in run_line(spec)["spec"]
    smuggled = run_line(spec)
    smuggled["spec"]["processes"] = 3
    response = json.loads(answer(service, smuggled))
    assert response["code"] == "invalid-request"
    assert "processes" in response["message"]


def test_run_spec_needs_a_kind(service):
    response = json.loads(answer(service, {"op": "run", "spec": {"sizes": [4]}}))
    assert response["code"] == "invalid-request"


def test_legacy_lines_answer_as_recorded(service):
    transcript = json.loads(GOLDEN.read_text())
    assert len(transcript) >= 20
    for entry in transcript:
        line, _ = handle_line(service, entry["line"])
        assert normalised(line) == entry["answer"], entry["line"]


class TestKernelOverTheWire:
    """Kernel series ride the one protocol: stop-checks, salvage, drives."""

    def test_frozen_kernel_run_times_out(self):
        with CertificationService(workers=1) as svc:
            svc.fault_injector = FaultInjector([FaultRule("freeze", op="kernel")])
            line = {**run_line(EXAMPLES["kernel"]), "deadline_s": 0.3}
            response = json.loads(answer(svc, line))
        assert response["code"] == "timeout" and response["request_op"] == "kernel"
        assert svc.fault_injector.log[0][:3] == ("service", "freeze", "kernel")

    def test_timed_out_kernel_run_salvages_its_finished_points(self):
        with CertificationService(workers=1) as svc:
            svc.fault_injector = FaultInjector(
                [
                    FaultRule("freeze", op="kernel", seconds=0.05),
                    FaultRule("straggle", op="kernel", seconds=30.0),
                ]
            )
            line = {**run_line(EXAMPLES["kernel"]), "deadline_s": 0.5}
            response = json.loads(answer(svc, line))
        assert response["code"] == "timeout" and response["request_op"] == "kernel"
        points = response["partial"]["points"]
        assert [point["index"] for point in points] == [0]
        assert points[0]["kernel_size"] == 4


def test_op_keyed_wire_faults_match_run_lines_by_kind():
    from repro.service.protocol import _line_op

    assert _line_op(encode_line(run_line(EXAMPLES["sweep"]))) == "sweep"
    assert _line_op(encode_line(run_line(EXAMPLES["kernel"]))) == "kernel"
    assert _line_op(encode_line({"op": "lower-bound"})) == "lower-bound"
