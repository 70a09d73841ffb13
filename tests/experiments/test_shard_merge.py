"""Shard/merge round-trips: k shards stitch back into the unsharded run."""

from __future__ import annotations

import json

import pytest

from repro.experiments import (
    LowerBoundSpec,
    SweepSpec,
    load_artifact,
    merge_artifacts,
    run_experiment,
    write_artifact,
)


def _timeless(result):
    """The full artifact dict with per-point wall-clock timings removed."""
    data = result.to_dict()
    for point in data["points"]:
        point.pop("elapsed_s")
    return json.dumps(data, sort_keys=True)


class TestSweepShardMerge:
    SPEC = SweepSpec(scheme="tree", family="random-tree", sizes=(4, 8, 12, 16, 20), trials=5)

    def test_merge_of_shards_equals_full_run(self):
        full = run_experiment(self.SPEC)
        parts = [run_experiment(self.SPEC, shard=(i, 3)) for i in range(3)]
        assert sum(len(p.points) for p in parts) == len(full.points)
        merged = merge_artifacts(parts)
        assert _timeless(merged) == _timeless(full)

    def test_sharded_points_keep_global_indices_and_seeds(self):
        full = run_experiment(self.SPEC)
        part = run_experiment(self.SPEC, shard=(1, 2))
        by_index = {point.index: point for point in full.points}
        for point in part.points:
            assert point.index % 2 == 1
            assert point.seed == by_index[point.index].seed
            assert point.max_certificate_bits == by_index[point.index].max_certificate_bits

    def test_merge_through_artifact_files(self, tmp_path):
        parts = [run_experiment(self.SPEC, shard=(i, 2)) for i in range(2)]
        paths = [
            write_artifact(part, tmp_path / f"part{i}.json")
            for i, part in enumerate(parts)
        ]
        merged = merge_artifacts(paths)
        assert _timeless(merged) == _timeless(run_experiment(self.SPEC))

    def test_partial_artifact_records_its_shard(self, tmp_path):
        part = run_experiment(self.SPEC, shard=(0, 2))
        assert part.spec.shard == (0, 2)
        loaded = load_artifact(write_artifact(part, tmp_path / "p.json"))
        assert loaded.spec.shard == (0, 2)

    def test_missing_shard_rejected(self):
        parts = [run_experiment(self.SPEC, shard=(0, 3)), run_experiment(self.SPEC, shard=(2, 3))]
        with pytest.raises(ValueError, match="do not cover"):
            merge_artifacts(parts)

    def test_duplicate_shard_rejected(self):
        part = run_experiment(self.SPEC, shard=(0, 2))
        with pytest.raises(ValueError, match="two shards"):
            merge_artifacts([part, part])

    def test_shards_with_different_worker_counts_merge(self):
        """processes is execution-only — machines may shard with different
        pool sizes and still merge (the advertised cross-machine use)."""
        from dataclasses import replace

        full = run_experiment(self.SPEC)
        parts = [
            run_experiment(replace(self.SPEC, processes=2), shard=(0, 2)),
            run_experiment(replace(self.SPEC, processes=1), shard=(1, 2)),
        ]
        merged = merge_artifacts(parts)
        assert _timeless(merged) == _timeless(full)

    def test_different_experiments_rejected(self):
        other = SweepSpec(scheme="tree", family="random-tree", sizes=(4, 8, 12, 16, 20), trials=6)
        with pytest.raises(ValueError, match="different experiments"):
            merge_artifacts(
                [run_experiment(self.SPEC, shard=(0, 2)), run_experiment(other, shard=(1, 2))]
            )

    def test_mixed_kinds_rejected(self):
        sweep_part = run_experiment(self.SPEC, shard=(0, 1))
        lb_part = run_experiment(
            LowerBoundSpec(construction="automorphism", sizes=(3,), check_dichotomy=False)
        )
        with pytest.raises(ValueError, match="different kinds"):
            merge_artifacts([sweep_part, lb_part])

    def test_empty_merge_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            merge_artifacts([])


class TestLowerBoundShardMerge:
    SPEC = LowerBoundSpec(construction="automorphism", sizes=(3, 5, 7, 9), seed=11)

    def test_merge_of_shards_equals_full_run(self):
        full = run_experiment(self.SPEC)
        parts = [run_experiment(self.SPEC, shard=(i, 2)) for i in range(2)]
        merged = merge_artifacts(parts)
        assert _timeless(merged) == _timeless(full)
        assert merged.spec.shard is None
        assert merged.bound is not None and merged.fit is not None
