"""Tests for the declarative kernel-size experiment kind (Section 6)."""

from __future__ import annotations

import json

import pytest

from repro.experiments import (
    ExperimentSpec,
    KernelResult,
    KernelSpec,
    load_artifact,
    merge_artifacts,
    run_experiment,
    write_artifact,
)
from repro.experiments.results import (
    collect_artifacts,
    compare_to_baseline,
    write_baseline,
)
from repro.registry import RegistryError


def _timeless(result):
    data = result.to_dict()
    for point in data["points"]:
        point.pop("elapsed_s")
    return json.dumps(data, sort_keys=True)


class TestKernelSpec:
    def test_roundtrip_through_dict(self):
        spec = KernelSpec(
            family="star", sizes=(8, 32), k=2, model="star", check_ef=2, seed=5
        )
        assert KernelSpec.from_dict(spec.to_dict()) == spec

    def test_kind_dispatch_from_base_class(self):
        spec = KernelSpec(family="star", sizes=(8,))
        hydrated = ExperimentSpec.from_dict(spec.to_dict())
        assert isinstance(hydrated, KernelSpec)
        assert hydrated == spec

    def test_default_label_names_k_and_family(self):
        assert KernelSpec(family="star", sizes=(8,), k=4).label == "kernel-k4-star"

    def test_validate_rejects_unknown_family(self):
        with pytest.raises(RegistryError, match="graph family"):
            KernelSpec(family="nebula", sizes=(8,)).validate()

    def test_validate_rejects_bad_k_and_model(self):
        with pytest.raises(RegistryError, match="k must be"):
            KernelSpec(family="star", sizes=(8,), k=0).validate()
        with pytest.raises(RegistryError, match="kernel model"):
            KernelSpec(family="star", sizes=(8,), model="comet").validate()
        with pytest.raises(RegistryError, match="star model"):
            KernelSpec(family="path", sizes=(8,), model="star").validate()
        with pytest.raises(RegistryError, match="check_ef"):
            KernelSpec(family="star", sizes=(8,), check_ef=-1).validate()


class TestRunKernel:
    def test_run_validates_the_spec_first(self):
        with pytest.raises(RegistryError):
            run_experiment(KernelSpec(family="star", sizes=(8,), k=0))

    def test_star_series_saturates(self):
        # Proposition 6.2 on stars: the k=3 kernel is the 4-vertex star
        # regardless of n (1 centre + k leaves of the one leaf type).
        result = run_experiment(KernelSpec(family="star", sizes=(8, 32, 128), k=3))
        assert result.series == {8: 4, 32: 4, 128: 4}
        assert result.all_ok
        assert all(point.valid_model for point in result.points)
        assert all(point.pruned == point.vertices - point.kernel_size for point in result.points)

    def test_star_model_is_monotone_in_k(self):
        # The E17 ablation shape: more generous pruning keeps more vertices.
        sizes = {
            k: run_experiment(
                KernelSpec(family="star", sizes=(41,), k=k, model="star")
            ).series[41]
            for k in (1, 2, 3, 4)
        }
        assert sizes[1] <= sizes[2] <= sizes[3] <= sizes[4] <= 41

    def test_ef_check_runs_on_small_instances_and_skips_large_ones(self):
        result = run_experiment(
            KernelSpec(family="star", sizes=(8, 32), k=2, check_ef=2)
        )
        small, large = result.points
        assert small.ef_ok is True  # 8 vertices: the rank-2 game is played
        assert large.ef_ok is None  # 32 vertices: beyond the EF cutoff
        assert result.all_ok

    def test_points_reproducible_in_isolation(self):
        spec = KernelSpec(family="bounded-treedepth", sizes=(3, 3), k=2, seed=4)
        full = run_experiment(spec)
        alone = spec.run_point(1)
        assert alone.seed == full.points[1].seed
        assert alone.kernel_size == full.points[1].kernel_size

    def test_merge_of_shards_equals_full_run(self):
        spec = KernelSpec(family="star", sizes=(8, 16, 32, 64), k=3)
        full = run_experiment(spec)
        parts = [run_experiment(spec, shard=(i, 2)) for i in range(2)]
        assert _timeless(merge_artifacts(parts)) == _timeless(full)


class TestKernelArtifacts:
    def test_artifact_roundtrip(self, tmp_path):
        result = run_experiment(KernelSpec(family="star", sizes=(8, 32, 128), k=3))
        path = write_artifact(result, tmp_path / "kernel_star.json")
        loaded = load_artifact(path)
        assert isinstance(loaded, KernelResult)
        assert loaded.series == result.series
        assert loaded.fit is not None

    def test_collected_and_gated_like_any_series(self, tmp_path):
        result = run_experiment(KernelSpec(family="star", sizes=(8, 32), k=3))
        write_artifact(result, tmp_path / "kernel_star.json")
        artifacts = collect_artifacts(tmp_path)
        assert [r.kind for _, r in artifacts] == ["kernel"]
        baseline = write_baseline(artifacts, tmp_path / "base")
        assert compare_to_baseline(artifacts, baseline).ok

    def test_grown_kernel_is_a_regression_shrunk_is_an_improvement(self, tmp_path):
        result = run_experiment(KernelSpec(family="star", sizes=(8, 32), k=3))
        write_artifact(result, tmp_path / "kernel_star.json")
        artifacts = collect_artifacts(tmp_path)
        label = result.spec.label
        smaller = {
            label: {"kind": "kernel", "series": {"8": 3, "32": 4}}
        }
        report = compare_to_baseline(artifacts, smaller)
        assert not report.ok and report.regressions[0].size == 8
        bigger = {
            label: {"kind": "kernel", "series": {"8": 5, "32": 4}}
        }
        report = compare_to_baseline(artifacts, bigger)
        assert report.ok and report.improvements[0].size == 8
