"""The single exact treedepth solver: tree parity, its cap and its memo key.

``golden/optimal_elimination_trees.json`` records the parent map (in
insertion order) of the minimum-depth elimination tree the exact solver
returned before ground truth and prover shared one subset DP.  It covers
every connected graph of networkx's graph atlas (all graphs on up to 7
vertices, by atlas index) plus 42 seeded connected ``G(n, p)`` graphs on
8–14 vertices (stored as edge lists).  Identical trees keep every
certificate, and so every committed artifact, byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

import networkx as nx
import pytest

from repro.caching import cache_stats, cache_stats_since
from repro.service.core import CertificationService
from repro.service.protocol import encode_line, handle_line
from repro.treedepth.cops_robbers import treedepth_via_cops
from repro.treedepth.decomposition import (
    EXACT_TREEDEPTH_MAX_VERTICES,
    exact_treedepth,
    optimal_elimination_tree,
)

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "optimal_elimination_trees.json").read_text()
)


def _parent_pairs(graph: nx.Graph) -> list:
    return [[v, p] for v, p in optimal_elimination_tree(graph).parent.items()]


@pytest.fixture(scope="module")
def atlas():
    return nx.graph_atlas_g()


class TestGoldenTrees:
    def test_golden_covers_the_connected_atlas(self, atlas):
        connected = [
            i for i, g in enumerate(atlas) if g.number_of_nodes() and nx.is_connected(g)
        ]
        assert [entry["index"] for entry in GOLDEN["atlas"]] == connected
        assert len(connected) == 996

    def test_atlas_trees_match_golden(self, atlas):
        mismatched = [
            entry["index"] for entry in GOLDEN["atlas"]
            if _parent_pairs(atlas[entry["index"]]) != entry["parent"]
        ]
        assert mismatched == []

    @pytest.mark.parametrize("entry", GOLDEN["random"], ids=lambda e: f"seed{e['seed']}-n{e['n']}")
    def test_random_trees_match_golden(self, entry):
        graph = nx.Graph()
        graph.add_nodes_from(range(entry["n"]))
        graph.add_edges_from(entry["edges"])
        assert _parent_pairs(graph) == entry["parent"]

    def test_atlas_depth_matches_cops_and_robber(self, atlas):
        """The cops-and-robber game value is an independent reference."""
        mismatched = [
            entry["index"] for entry in GOLDEN["atlas"]
            if exact_treedepth(atlas[entry["index"]]) != treedepth_via_cops(atlas[entry["index"]])
        ]
        assert mismatched == []


class TestOneSolve:
    def test_every_entry_point_shares_one_memoised_solve(self):
        graph = nx.relabel_nodes(
            nx.gnp_random_graph(12, 0.35, seed=2024), lambda v: f"one-solve-{v}"
        )
        assert nx.is_connected(graph)
        before = cache_stats()
        depths = {
            exact_treedepth(graph),
            exact_treedepth(graph, 12),
            exact_treedepth(graph, max_vertices=12),
            optimal_elimination_tree(graph).depth,
        }
        assert len(depths) == 1
        assert cache_stats_since(before)["graph_functions"]["misses"] == 1

    def test_cap_is_checked_outside_the_memo(self):
        graph = nx.path_graph(10)
        assert exact_treedepth(graph) == 4
        with pytest.raises(ValueError, match="limited to 9 vertices"):
            exact_treedepth(graph, max_vertices=9)
        with pytest.raises(ValueError, match="limited to 9 vertices"):
            optimal_elimination_tree(graph, max_vertices=9)


class TestCapOnTheWire:
    @pytest.fixture()
    def service(self):
        with CertificationService(workers=1) as svc:
            yield svc

    def _certify(self, service, n: int) -> dict:
        line, _ = handle_line(service, encode_line({
            "op": "certify", "scheme": "treedepth", "params": {"t": 5}, "graph": f"path:{n}",
        }))
        return json.loads(line)

    def test_largest_exact_instance_is_decided(self, service):
        payload = self._certify(service, EXACT_TREEDEPTH_MAX_VERTICES)
        assert payload["ok"] is True
        assert payload["result"]["holds"] is True and payload["result"]["accepted"] is True

    def test_one_vertex_more_is_undecidable(self, service):
        payload = self._certify(service, EXACT_TREEDEPTH_MAX_VERTICES + 1)
        assert payload["ok"] is False and payload["code"] == "undecidable"
        assert payload["message"].startswith("cannot decide treedepth exactly")
