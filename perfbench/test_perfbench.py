"""Tests of the benchmark itself (not of the program).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import networkx as nx
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import spans  # noqa: E402
from workloads import WARM_MIX, certify_rounds, drive_campaign  # noqa: E402


def _lines(workload: str, seed: int, rounds: int) -> str:
    batches = itertools.islice(certify_rounds(workload, seed), rounds)
    return "".join(item.line for batch in batches for item in batch)


@pytest.mark.parametrize("workload", ["certify-cold", "certify-warm"])
def test_a_seed_fixes_the_request_lines(workload):
    assert _lines(workload, 7, 3) == _lines(workload, 7, 3)
    assert _lines(workload, 7, 3) != _lines(workload, 8, 3)


def test_a_seed_fixes_the_drive_specs():
    def specs(seed):
        return json.dumps(drive_campaign(seed), sort_keys=True)

    assert specs(7) == specs(7)
    assert specs(7) != specs(8)


def test_cold_stream_never_repeats_a_pair():
    seen = set()
    for batch in itertools.islice(certify_rounds("certify-cold", 3), 8):
        for item in batch:
            request = item.request
            graph = oracle.build_graph(request["graph"], request["seed"])
            key = (
                frozenset(frozenset(edge) for edge in graph.edges()),
                request.get("scheme"),
                request.get("formula"),
                json.dumps(request.get("params"), sort_keys=True),
            )
            assert key not in seen
            seen.add(key)
            assert 12 <= graph.number_of_nodes() <= 16


def test_treedepth_recursion_on_known_graphs():
    assert oracle.treedepth(nx.path_graph(7)) == 3
    assert oracle.treedepth(nx.path_graph(15)) == 4
    assert oracle.treedepth(nx.star_graph(15)) == 2
    assert oracle.treedepth(nx.complete_graph(5)) == 5
    assert oracle.treedepth(nx.cycle_graph(8)) == 4


def _verdict(request, holds, vertices, edges, **extra):
    result = {"holds": holds, "vertices": vertices, "edges": edges,
              "accepted": True if holds else None, "sound": None if holds else True}
    result.update(extra)
    return {"ok": True, "op": "certify", "result": result}


def test_oracle_accepts_a_right_verdict_and_flags_a_doctored_one():
    request = {"op": "certify", "scheme": "treedepth", "params": {"t": 3},
               "graph": "path:7", "seed": 0}
    expected = oracle.expectation(request)
    assert expected == {"vertices": 7, "edges": 6, "holds": True}
    assert oracle.check_answer(expected, _verdict(request, True, 7, 6)) is None
    assert oracle.check_answer(expected, _verdict(request, False, 7, 6)) is not None
    wrong_size = _verdict(request, True, 8, 7)
    assert oracle.check_answer(expected, wrong_size) is not None


def test_oracle_flags_a_wrong_error_code():
    item = next(item for item in WARM_MIX if item.error_code == "invalid-param")
    expected = oracle.expectation(item.request, item.error_code)
    right = {"ok": False, "op": "error", "code": "invalid-param"}
    wrong = {"ok": False, "op": "error", "code": "invalid-request"}
    assert oracle.check_answer(expected, right) is None
    assert oracle.check_answer(expected, wrong) is not None
    assert oracle.check_answer(expected, _verdict(item.request, True, 9, 8)) is not None


def test_oracle_formulas():
    star, path = nx.star_graph(5), nx.path_graph(5)
    assert oracle.has_dominating_vertex(star) and not oracle.has_dominating_vertex(path)
    assert oracle.has_dominating_pair(path) and not oracle.has_dominating_pair(nx.path_graph(7))


def test_wrappers_are_gone_after_a_traced_replay():
    import repro.core.scheme as scheme_module
    import repro.service.core as core_module
    from repro.service.core import CertificationService

    import run

    originals = (CertificationService.respond, scheme_module.evaluate_scheme,
                 core_module.evaluate_scheme)
    tracer = spans.Tracer()
    checker = run.Checker()
    replay = run.replay_certify("certify-warm", [list(WARM_MIX)], checker, tracer=tracer)
    assert checker.failures == []
    assert {span.layer for span in tracer.spans} >= {
        "protocol.decode", "core.dispatch", "prove", "engine", "holds",
    }
    assert spans.leftover_wrappers() == []
    assert (CertificationService.respond, scheme_module.evaluate_scheme,
            core_module.evaluate_scheme) == originals
    assert not hasattr(CertificationService.respond, spans.MARK)
    assert replay.wall > 0
