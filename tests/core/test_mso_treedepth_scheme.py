"""Tests for the Theorem 2.6 kernelization-based certification."""

from __future__ import annotations

import json

import networkx as nx
import pytest

from repro.caching import cache_stats, cache_stats_since, clear_caches
from repro.core import mso_treedepth_scheme
from repro.core.encoding import CertificateWriter
from repro.core.mso_treedepth_scheme import MSOTreedepthScheme, _decode_kernel_certificate
from repro.core.scheme import NotAYesInstance, evaluate_scheme, soundness_under_corruption
from repro.graphs.generators import bounded_treedepth_graph, path_graph, star_graph
from repro.logic import properties
from repro.network.ids import assign_identifiers
from repro.network.simulator import NetworkSimulator
from repro.registry import REGISTRY
from repro.service.core import CertificationService
from repro.service.protocol import encode_line, handle_line


class TestCompleteness:
    @pytest.mark.parametrize("seed", range(4))
    def test_two_colorability_on_bipartite_bounded_td(self, seed):
        graph = bounded_treedepth_graph(3, branching=2, extra_edge_probability=0.0, seed=seed)
        scheme = MSOTreedepthScheme(properties.two_colorable(), t=3, name="2col")
        report = evaluate_scheme(scheme, graph, seed=seed)
        assert report.holds and report.completeness_ok

    def test_triangle_free_on_star(self):
        scheme = MSOTreedepthScheme(properties.triangle_free(), t=2, name="triangle-free")
        report = evaluate_scheme(scheme, star_graph(8))
        assert report.holds and report.completeness_ok

    def test_dominating_vertex_on_star(self):
        scheme = MSOTreedepthScheme(properties.has_dominating_vertex(), t=2, name="dom")
        assert evaluate_scheme(scheme, star_graph(6)).completeness_ok

    def test_path_diameter_formula(self):
        scheme = MSOTreedepthScheme(properties.diameter_at_most_two(), t=2, name="diam2")
        assert evaluate_scheme(scheme, star_graph(5)).completeness_ok


class TestSoundness:
    def test_formula_violation_is_no_instance(self):
        graph = nx.complete_graph(4)  # has triangles, treedepth 4
        scheme = MSOTreedepthScheme(properties.triangle_free(), t=4, name="triangle-free")
        report = evaluate_scheme(scheme, graph)
        assert not report.holds and report.soundness_ok

    def test_treedepth_violation_is_no_instance(self):
        graph = path_graph(16)  # treedepth 5
        scheme = MSOTreedepthScheme(properties.two_colorable(), t=3, name="2col")
        report = evaluate_scheme(scheme, graph)
        assert not report.holds and report.soundness_ok

    def test_prover_refuses_when_formula_fails(self):
        graph = nx.complete_graph(4)
        scheme = MSOTreedepthScheme(properties.triangle_free(), t=4, name="triangle-free")
        with pytest.raises(NotAYesInstance):
            scheme.prove(graph, assign_identifiers(graph, seed=0))

    def test_corruption_detected(self):
        graph = bounded_treedepth_graph(3, branching=2, seed=3)
        scheme = MSOTreedepthScheme(properties.two_colorable(), t=3, name="2col")
        if scheme.holds(graph):
            assert soundness_under_corruption(scheme, graph, seed=0)

    def test_kernel_swap_between_instances_rejected(self):
        """Certificates honestly produced for a star must not certify a
        path against the dominating-vertex property (the path has none)."""
        scheme = MSOTreedepthScheme(properties.has_dominating_vertex(), t=3, name="dom")
        star = star_graph(4)
        path = path_graph(5)
        star_ids = assign_identifiers(star, seed=0, sequential=True)
        path_ids = assign_identifiers(path, seed=0, sequential=True)
        star_certificates = scheme.prove(star, star_ids)
        simulator = NetworkSimulator(path, identifiers=path_ids)
        assert not simulator.run(scheme.verify, star_certificates).accepted


class TestKernelSizeIndependence:
    def test_certificate_size_dominated_by_treedepth_part(self):
        """For a fixed formula and t, the kernel part of the certificate does
        not grow with n (Proposition 6.2), so sizes grow like t·log n."""
        scheme = MSOTreedepthScheme(properties.has_dominating_vertex(), t=2, name="dom")
        sizes = {n: scheme.max_certificate_bits(star_graph(n)) for n in (8, 32, 128)}
        assert sizes[128] <= sizes[8] + 200  # only identifier growth, no kernel growth

    def test_quantifier_depth_default(self):
        scheme = MSOTreedepthScheme(properties.has_dominating_vertex(), t=2)
        assert scheme.k == 2

    def test_explicit_k_override(self):
        scheme = MSOTreedepthScheme(properties.has_dominating_vertex(), t=2, k=3)
        assert scheme.k == 3


class TestKernelTooLarge:
    def test_holds_prove_and_wire_share_one_message(self):
        """A 25-reduction keeps every leaf of a 23-leaf star: the 24-vertex
        kernel is refused alike by ground truth, the prover and the wire."""
        params = {"t": 2, "k": 25, "model": "star"}
        scheme = REGISTRY.create("mso-treedepth", params)
        graph = star_graph(23)
        with pytest.raises(ValueError) as from_holds:
            scheme.holds(graph)
        with pytest.raises(ValueError) as from_prove:
            scheme.prove(graph, assign_identifiers(graph, seed=0))
        with CertificationService(workers=1) as service:
            line, _ = handle_line(service, encode_line({
                "op": "certify", "scheme": "mso-treedepth", "params": params, "graph": "star:24",
            }))
        payload = json.loads(line)
        assert payload["ok"] is False and payload["code"] == "undecidable"
        assert "the 25-reduced kernel has 24 vertices" in payload["message"]
        assert str(from_holds.value) == str(from_prove.value) == payload["message"]


def _rewrite_kernel_layer(certificates, table=None, root_index=None):
    """Certificates with every vertex's type table and/or root end-type index
    replaced consistently, so the neighbourhood agreement checks still pass."""
    rewritten = {}
    for vertex, certificate in certificates.items():
        td_cert, pruned_flags, type_indices, table_bytes = _decode_kernel_certificate(certificate)
        if root_index is not None:
            type_indices = type_indices[:-1] + [root_index]
        writer = CertificateWriter()
        writer.write_bytes(td_cert)
        writer.write_bool_list(pruned_flags)
        writer.write_uint_list(type_indices)
        writer.write_bytes(table_bytes if table is None else table(table_bytes))
        rewritten[vertex] = writer.getvalue()
    return rewritten


class TestKernelCheckCache:
    """The verifier model-checks the kernel once per (formula, table, root type)."""

    @pytest.fixture()
    def star(self):
        clear_caches()
        graph = star_graph(6)
        ids = assign_identifiers(graph, seed=0, sequential=True)
        scheme = MSOTreedepthScheme(properties.has_dominating_vertex(), t=2, name="dom")
        return graph, ids, scheme, scheme.prove(graph, ids)

    def _accepted(self, scheme, graph, ids, certificates) -> bool:
        return NetworkSimulator(graph, identifiers=ids).run(scheme.verify, certificates).accepted

    def test_one_model_check_per_certificate_table(self, star):
        graph, ids, scheme, certificates = star
        before = cache_stats()
        assert self._accepted(scheme, graph, ids, certificates)
        counters = cache_stats_since(before)["kernel-checks"]
        assert counters["misses"] == 1
        assert counters["hits"] == graph.number_of_nodes() - 1

    def test_tampered_table_still_rejects(self, star):
        graph, ids, scheme, certificates = star
        assert self._accepted(scheme, graph, ids, certificates)
        truncated = _rewrite_kernel_layer(certificates, table=lambda table: table[:-1])
        assert not self._accepted(scheme, graph, ids, truncated)
        flipped = _rewrite_kernel_layer(
            certificates, table=lambda table: table[:-1] + bytes([table[-1] ^ 1])
        )
        assert not self._accepted(scheme, graph, ids, flipped)

    def test_tampered_root_type_index_still_rejects(self, star):
        graph, ids, scheme, certificates = star
        assert self._accepted(scheme, graph, ids, certificates)
        honest_root = _decode_kernel_certificate(next(iter(certificates.values())))[2][-1]
        for root_index in {0, 1, 2, 99} - {honest_root}:
            tampered = _rewrite_kernel_layer(certificates, root_index=root_index)
            assert not self._accepted(scheme, graph, ids, tampered), root_index

    def test_formulas_do_not_share_a_verdict(self, star):
        """Same table bytes, same k, different formula: the triangle check
        must fail on the star kernel even after the dominating-vertex check
        passed on it."""
        graph, ids, scheme, certificates = star
        triangle = MSOTreedepthScheme(properties.has_triangle(), t=2, k=scheme.k, name="tri")
        before = cache_stats()
        assert self._accepted(scheme, graph, ids, certificates)
        assert not self._accepted(triangle, graph, ids, certificates)
        assert cache_stats_since(before)["kernel-checks"]["misses"] == 2

    def test_clear_caches_empties_the_cache(self, star):
        graph, ids, scheme, certificates = star
        assert self._accepted(scheme, graph, ids, certificates)
        assert cache_stats()["kernel-checks"]["size"] == 1
        clear_caches()
        assert cache_stats()["kernel-checks"] == {"hits": 0, "misses": 0, "size": 0}


class TestOneKernelInstance:
    def test_cold_yes_instance_certify_reduces_once(self, monkeypatch):
        """Ground truth and prover share one coherent model and k-reduction."""
        calls = []
        real = mso_treedepth_scheme.k_reduced_graph

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(mso_treedepth_scheme, "k_reduced_graph", counting)
        clear_caches()
        with CertificationService(workers=1) as service:
            line, _ = handle_line(service, encode_line({
                "op": "certify", "scheme": "mso-treedepth", "params": {"t": 2}, "graph": "star:9",
            }))
        payload = json.loads(line)
        assert payload["ok"] is True
        assert payload["result"]["holds"] is True and payload["result"]["accepted"] is True
        assert len(calls) == 1
