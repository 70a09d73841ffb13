"""Tests for the declarative formula experiment kind (formula-as-a-request)."""

from __future__ import annotations

import json

import pytest

from repro.experiments import (
    ExperimentSpec,
    FormulaResult,
    FormulaSpec,
    load_artifact,
    merge_artifacts,
    run_experiment,
    write_artifact,
)
from repro.experiments.results import (
    collect_artifacts,
    compare_to_baseline,
    render_experiments_md,
    write_baseline,
)
from repro.formulas import FormulaError
from repro.registry import RegistryError

DOMINATING = "exists x. forall y. (x = y | x ~ y)"


def _timeless(result):
    data = result.to_dict()
    for point in data["points"]:
        point.pop("elapsed_s")
    return json.dumps(data, sort_keys=True)


class TestFormulaSpec:
    def test_roundtrip_through_dict(self):
        spec = FormulaSpec(
            formula=DOMINATING, family="star", sizes=(4, 8), t=3, seed=5
        )
        assert FormulaSpec.from_dict(spec.to_dict()) == spec

    def test_kind_dispatch_from_base_class(self):
        spec = FormulaSpec(formula=DOMINATING, family="star", sizes=(4,))
        hydrated = ExperimentSpec.from_dict(spec.to_dict())
        assert isinstance(hydrated, FormulaSpec)
        assert hydrated == spec

    def test_default_label_names_route_and_family(self):
        spec = FormulaSpec(formula=DOMINATING, family="star", sizes=(4,))
        assert spec.label == "formula-treedepth-star"

    def test_validate_rejects_unknown_family(self):
        with pytest.raises(RegistryError, match="graph family"):
            FormulaSpec(formula=DOMINATING, family="nebula", sizes=(4,)).validate()

    def test_validate_rejects_bad_engine(self):
        with pytest.raises(RegistryError):
            FormulaSpec(
                formula=DOMINATING, family="star", sizes=(4,), engine="warp"
            ).validate()

    def test_validate_rejects_malformed_formula(self):
        with pytest.raises(FormulaError, match="cannot parse"):
            FormulaSpec(formula="exists x. (", family="star", sizes=(4,)).validate()

    def test_validate_rejects_non_sentence(self):
        with pytest.raises(FormulaError, match="free"):
            FormulaSpec(formula="x ~ y", family="star", sizes=(4,)).validate()


class TestRunFormula:
    def test_star_series_is_clean_and_bounded(self):
        result = run_experiment(
            FormulaSpec(formula=DOMINATING, family="star", sizes=(4, 6, 8), trials=5)
        )
        assert isinstance(result, FormulaResult)
        assert result.all_accepted and result.all_sound and result.all_ok
        assert set(result.series) == {4, 6, 8}
        assert result.bound is not None and result.bound.ok
        assert result.bound.label == "O(t log n)"

    def test_no_instances_exercise_soundness(self):
        # A cycle has no dominating vertex once n > 3.
        result = run_experiment(
            FormulaSpec(formula=DOMINATING, family="cycle", sizes=(5, 6), t=4, trials=5)
        )
        assert all(not point.holds for point in result.points)
        assert result.all_sound
        assert result.series == {}  # no yes-instances, no size series

    def test_points_reproducible_in_isolation(self):
        spec = FormulaSpec(
            formula=DOMINATING, family="random-tree", sizes=(6, 6), trials=5, seed=4
        )
        full = run_experiment(spec)
        alone = spec.run_point(1)
        assert alone.seed == full.points[1].seed
        assert alone.max_certificate_bits == full.points[1].max_certificate_bits

    def test_merge_of_shards_equals_full_run(self):
        spec = FormulaSpec(
            formula=DOMINATING, family="star", sizes=(4, 6, 8, 10), trials=5
        )
        full = run_experiment(spec)
        parts = [run_experiment(spec, shard=(i, 2)) for i in range(2)]
        assert _timeless(merge_artifacts(parts)) == _timeless(full)

    def test_engine_pins_are_respected(self):
        spec = FormulaSpec(
            formula=DOMINATING, family="star", sizes=(6,), trials=5, engine="vector"
        )
        result = run_experiment(spec)
        assert result.points[0].engine_resolved == "vector"


class TestFormulaArtifacts:
    def test_artifact_roundtrip(self, tmp_path):
        result = run_experiment(
            FormulaSpec(formula=DOMINATING, family="star", sizes=(4, 6, 8), trials=5)
        )
        path = write_artifact(result, tmp_path / "formula_star.json")
        loaded = load_artifact(path)
        assert isinstance(loaded, FormulaResult)
        assert loaded.series == result.series
        assert loaded.bound is not None and loaded.bound.ok

    def test_collected_and_gated_like_any_series(self, tmp_path):
        result = run_experiment(
            FormulaSpec(
                formula=DOMINATING, family="star", sizes=(4, 6), trials=5,
                name="gate-f",
            )
        )
        write_artifact(result, tmp_path / "formula_gate-f.json")
        artifacts = collect_artifacts(tmp_path)
        assert [r.kind for _, r in artifacts] == ["formula"]
        assert "gate-f" in render_experiments_md(artifacts)

        write_baseline(artifacts, tmp_path)
        report = compare_to_baseline(artifacts, tmp_path)
        assert report.ok and not report.regressions

    def test_grown_series_is_a_regression(self, tmp_path):
        result = run_experiment(
            FormulaSpec(formula=DOMINATING, family="star", sizes=(4, 6), trials=5)
        )
        baseline = {
            result.spec.label: {
                "kind": "formula",
                "series": {str(n): bits - 8 for n, bits in result.series.items()},
            }
        }
        report = compare_to_baseline([(tmp_path, result)], baseline)
        assert not report.ok and len(report.regressions) == 2
