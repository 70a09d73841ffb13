"""Tests for the declarative sweep subsystem (spec, runner, artifacts)."""

from __future__ import annotations

import json

import pytest

from repro.experiments import (
    SweepSpec,
    load_artifact,
    run_experiment,
    write_artifact,
)
from repro.registry import RegistryError


def _point_key(point):
    """Everything about a point except wall-clock timing and routing.

    ``engine_resolved`` legitimately differs across engines (it records
    which one ran); the measured verdicts must not.
    """
    data = point.to_dict()
    data.pop("elapsed_s")
    data.pop("engine_resolved", None)
    return data


class TestSweepSpec:
    def test_roundtrip_through_dict(self):
        spec = SweepSpec(
            scheme="treedepth",
            params={"t": 3},
            family="path",
            sizes=(4, 7),
            trials=5,
            seed=9,
            measure="size",
        )
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    def test_validate_rejects_unknown_scheme(self):
        with pytest.raises(RegistryError):
            SweepSpec(scheme="quantum", family="path", sizes=(4,)).validate()

    def test_validate_rejects_unknown_family(self):
        with pytest.raises(RegistryError, match="graph family"):
            SweepSpec(scheme="tree", family="nebula", sizes=(4,)).validate()

    def test_validate_rejects_bad_params_early(self):
        with pytest.raises(RegistryError, match="requires parameter"):
            SweepSpec(scheme="treedepth", family="path", sizes=(4,)).validate()

    def test_validate_rejects_empty_grid_and_bad_measure(self):
        with pytest.raises(RegistryError, match="at least one size"):
            SweepSpec(scheme="tree", family="path", sizes=()).validate()
        with pytest.raises(RegistryError, match="measure"):
            SweepSpec(scheme="tree", family="path", sizes=(4,), measure="fast").validate()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(RegistryError, match="unknown SweepSpec field"):
            SweepSpec.from_dict({"scheme": "tree", "family": "path", "sizes": [4], "x": 1})

    def test_every_engine_is_a_valid_spec_engine(self):
        for engine in ("legacy", "compiled", "delta", "vector"):
            spec = SweepSpec(scheme="tree", family="path", sizes=(4,), engine=engine)
            assert spec.validate().engine == engine

    def test_unknown_engine_error_enumerates_the_engines(self):
        with pytest.raises(RegistryError, match="engine") as excinfo:
            SweepSpec(scheme="tree", family="path", sizes=(4,), engine="quantum").validate()
        message = str(excinfo.value)
        for engine in ("legacy", "compiled", "delta", "vector"):
            assert repr(engine) in message

    def test_size_template_substitution(self):
        spec = SweepSpec(
            scheme="spanning-tree-count",
            params={"expected_n": "$n"},
            family="path",
            sizes=(5, 9),
        )
        assert spec.resolved_params(5) == {"expected_n": 5}
        assert spec.resolved_params(9) == {"expected_n": 9}

    def test_point_seeds_are_independent_of_preceding_points(self):
        spec = SweepSpec(scheme="tree", family="random-tree", sizes=(4, 8, 16))
        subset = spec.subset([2])
        assert subset.sizes == (16,)
        # Reproducing point 2 needs only the original spec and its index.
        assert spec.point_seed(2) == SweepSpec.from_dict(spec.to_dict()).point_seed(2)
        assert len({spec.point_seed(i) for i in range(3)}) == 3

    def test_shard_field_selects_strided_global_indices(self):
        spec = SweepSpec(scheme="tree", family="path", sizes=(4, 8, 16, 32, 64))
        assert spec.shard_indices() == (0, 1, 2, 3, 4)
        assert SweepSpec.from_dict({**spec.to_dict(), "shard": [0, 2]}).shard_indices() == (0, 2, 4)
        assert SweepSpec.from_dict({**spec.to_dict(), "shard": [1, 2]}).shard_indices() == (1, 3)

    def test_bad_shard_rejected(self):
        with pytest.raises(RegistryError, match="shard"):
            SweepSpec(scheme="tree", family="path", sizes=(4,), shard=(-1, 2)).validate()
        with pytest.raises(RegistryError, match="shard"):
            SweepSpec(scheme="tree", family="path", sizes=(4,), shard=(0, 0)).validate()

    def test_offset_shard_selects_sub_shard_remainder(self):
        # Offset form (i >= k): the remainder of shard (1, 2) after its first
        # point, split in two, is exactly shards (3, 4) and (5, 4).
        spec = SweepSpec(scheme="tree", family="path", sizes=(4, 8, 16, 32, 64, 128))
        parent = SweepSpec.from_dict({**spec.to_dict(), "shard": [1, 2]})
        assert parent.shard_indices() == (1, 3, 5)
        left = SweepSpec.from_dict({**spec.to_dict(), "shard": [3, 4]}).validate()
        right = SweepSpec.from_dict({**spec.to_dict(), "shard": [5, 4]}).validate()
        assert left.shard_indices() == (3,)
        assert right.shard_indices() == (5,)
        assert left.shard_indices() + right.shard_indices() == parent.shard_indices()[1:]
        # Past-the-grid offsets are legal and empty, not an error.
        assert SweepSpec(
            scheme="tree", family="path", sizes=(4,), shard=(2, 2)
        ).validate().shard_indices() == ()

    def test_kind_dispatch_from_base_class(self):
        from repro.experiments import ExperimentSpec

        spec = SweepSpec(scheme="tree", family="path", sizes=(4,))
        revived = ExperimentSpec.from_dict(spec.to_dict())
        assert isinstance(revived, SweepSpec) and revived == spec
        # Dicts without a kind (schema-1 artifacts) default to sweeps.
        legacy = dict(spec.to_dict())
        legacy.pop("kind")
        assert ExperimentSpec.from_dict(legacy) == spec


class TestRunner:
    def test_full_sweep_on_tree_scheme(self):
        spec = SweepSpec(scheme="tree", family="random-tree", sizes=(4, 8, 16), trials=5)
        result = run_experiment(spec)
        assert [point.n for point in result.points] == [4, 8, 16]
        assert result.all_accepted and result.all_sound
        assert set(result.series) == {4, 8, 16}
        assert result.bound is not None and result.bound.ok

    def test_no_instances_run_adversarial_trials(self):
        # Cycles are not trees: every point must be a sound no-instance.
        result = run_experiment(SweepSpec(scheme="tree", family="cycle", sizes=(4, 6), trials=8))
        assert not any(point.holds for point in result.points)
        assert all(point.soundness_ok for point in result.points)
        assert result.series == {}

    def test_points_reproducible_in_isolation(self):
        spec = SweepSpec(scheme="tree", family="random-tree", sizes=(6, 12), trials=5)
        full = run_experiment(spec)
        alone = spec.run_point(1)
        assert _point_key(alone) == _point_key(full.points[1])

    def test_multiprocessing_matches_serial(self):
        spec = SweepSpec(scheme="bipartite", family="path", sizes=(4, 8, 12), trials=5)
        serial = run_experiment(spec)
        fanned = run_experiment(spec, processes=2)
        assert [_point_key(p) for p in serial.points] == [_point_key(p) for p in fanned.points]

    def test_engines_produce_identical_points(self):
        # Mixed yes- and no-instances (odd cycles are not bipartite): every
        # engine must report identical verdicts and certificate sizes.
        import dataclasses

        results = {
            engine: run_experiment(
                dataclasses.replace(
                    SweepSpec(
                        scheme="bipartite", family="cycle", sizes=(4, 5, 6), trials=6
                    ),
                    engine=engine,
                )
            )
            for engine in ("legacy", "compiled", "delta", "vector")
        }
        keyed = {
            engine: [_point_key(p) for p in result.points]
            for engine, result in results.items()
        }
        baseline = keyed["legacy"]
        assert all(points == baseline for points in keyed.values())

    def test_size_measure_skips_verification(self):
        spec = SweepSpec(
            scheme="tree", family="random-tree", sizes=(8,), measure="size"
        )
        result = run_experiment(spec)
        point = result.points[0]
        assert point.holds and point.completeness_ok is None
        assert point.max_certificate_bits > 0

    def test_size_measure_detects_no_instances(self):
        result = run_experiment(
            SweepSpec(scheme="tree", family="cycle", sizes=(5,), measure="size")
        )
        assert not result.points[0].holds
        assert result.points[0].max_certificate_bits == 0

    def test_bound_violation_is_reported_not_raised(self):
        # The heuristic (unbalanced) treewidth decomposition yields ~n log n
        # bits on paths, violating the registered O(k log² n) bound.
        spec = SweepSpec(
            scheme="treewidth",
            params={"k": 1},
            family="path",
            sizes=(16, 512),
            measure="size",
        )
        result = run_experiment(spec)
        assert result.bound is not None
        assert not result.bound.ok

    def test_check_bound_can_be_disabled(self):
        spec = SweepSpec(
            scheme="treewidth",
            params={"k": 1},
            family="path",
            sizes=(16, 256),
            measure="size",
            check_bound=False,
        )
        assert run_experiment(spec).bound is None

    def test_size_template_end_to_end(self):
        spec = SweepSpec(
            scheme="spanning-tree-count",
            params={"expected_n": "$n"},
            family="random-connected",
            sizes=(6, 10),
            trials=5,
        )
        result = run_experiment(spec)
        assert all(point.holds for point in result.points)
        assert result.all_accepted


class TestArtifacts:
    def test_artifact_roundtrip(self, tmp_path):
        spec = SweepSpec(scheme="tree", family="random-tree", sizes=(4, 8), trials=5)
        result = run_experiment(spec)
        path = write_artifact(result, tmp_path / "artifact.json")
        loaded = load_artifact(path)
        assert loaded.spec == spec
        assert [_point_key(p) for p in loaded.points] == [_point_key(p) for p in result.points]
        assert loaded.bound == result.bound
        assert loaded.series == result.series

    def test_artifact_is_plain_json_with_series(self, tmp_path):
        spec = SweepSpec(scheme="bipartite", family="path", sizes=(4,), trials=2)
        path = write_artifact(run_experiment(spec), tmp_path / "a.json")
        data = json.loads(path.read_text())
        assert data["schema"] == 2
        assert data["kind"] == "sweep"
        assert data["spec"]["scheme"] == "bipartite"
        assert data["series"] == {"4": 8}
        assert data["bound"]["label"] == "O(1)"

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 999, "spec": {}, "points": []}))
        with pytest.raises(ValueError, match="schema"):
            load_artifact(path)

    def test_schema_1_artifacts_still_load_as_sweeps(self, tmp_path):
        """Pre-pipeline artifacts carry no kind and no fit; they default to
        sweeps with fit=None."""
        spec = SweepSpec(scheme="bipartite", family="path", sizes=(4,), trials=2)
        data = run_experiment(spec).to_dict()
        data["schema"] = 1
        del data["kind"], data["fit"]
        data["spec"].pop("kind")
        for legacy_field in ("id_exponent", "shard"):
            data["spec"].pop(legacy_field)
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(data))
        loaded = load_artifact(path)
        assert loaded.spec == spec
        assert loaded.fit is None and loaded.series == {4: 8}
