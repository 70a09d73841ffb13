"""Tests for artifact aggregation, EXPERIMENTS.md rendering and the gate."""

from __future__ import annotations

import json

import pytest

from repro.experiments import (
    LowerBoundSpec,
    SweepSpec,
    collect_artifacts,
    compare_to_baseline,
    render_experiments_md,
    run_experiment,
    write_artifact,
    write_baseline,
)
from repro.experiments.results import baseline_path, load_baseline


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory):
    """A directory holding one sweep and one lower-bound artifact."""
    directory = tmp_path_factory.mktemp("artifacts")
    sweep = run_experiment(
        SweepSpec(scheme="tree", family="random-tree", sizes=(4, 8, 16), trials=5,
                  name="t-sweep")
    )
    write_artifact(sweep, directory / "sweep_t.json")
    lb = run_experiment(
        LowerBoundSpec(construction="automorphism", sizes=(3, 6, 9),
                       check_dichotomy=False, name="t-lb")
    )
    write_artifact(lb, directory / "lb_t.json")
    return directory


class TestCollectAndRender:
    def test_collects_both_kinds_in_pattern_order(self, artifact_dir):
        artifacts = collect_artifacts(artifact_dir)
        assert [result.kind for _, result in artifacts] == ["sweep", "lower-bound"]

    def test_sharded_partials_are_skipped(self, artifact_dir, tmp_path):
        for path, result in collect_artifacts(artifact_dir):
            (tmp_path / path.name).write_text(path.read_text())
        partial = run_experiment(
            SweepSpec(scheme="tree", family="path", sizes=(4, 8), name="partial"),
            shard=(0, 2),
        )
        write_artifact(partial, tmp_path / "sweep_partial.json")
        labels = [result.spec.label for _, result in collect_artifacts(tmp_path)]
        assert "partial" not in labels and len(labels) == 2

    def test_markdown_table_has_one_row_per_artifact(self, artifact_dir):
        artifacts = collect_artifacts(artifact_dir)
        table = render_experiments_md(artifacts)
        assert "| label | kind | clean | series | bound | fit |" in table
        assert "| t-sweep | sweep | yes |" in table
        assert "| t-lb | lower-bound | yes |" in table
        assert "O(log n)" in table and "Ω(ℓ)" in table


class TestBaselineGate:
    def test_identical_run_passes(self, artifact_dir, tmp_path):
        artifacts = collect_artifacts(artifact_dir)
        baseline = write_baseline(artifacts, tmp_path)
        report = compare_to_baseline(artifacts, baseline)
        assert report.ok
        assert not report.regressions and not report.improvements
        assert not report.missing_labels and not report.new_labels

    def test_grown_sweep_series_is_a_regression(self, artifact_dir, tmp_path):
        artifacts = collect_artifacts(artifact_dir)
        baseline = write_baseline(artifacts, tmp_path)
        data = json.loads(baseline.read_text())
        series = data["experiments"]["t-sweep"]["series"]
        size = sorted(series, key=int)[0]
        series[size] -= 1  # measured now exceeds baseline by one bit
        baseline.write_text(json.dumps(data))
        report = compare_to_baseline(artifacts, baseline)
        assert not report.ok
        assert len(report.regressions) == 1
        regression = report.regressions[0]
        assert regression.label == "t-sweep" and regression.size == int(size)
        assert "grew" in regression.describe()

    def test_shrunk_sweep_series_is_an_improvement(self, artifact_dir, tmp_path):
        artifacts = collect_artifacts(artifact_dir)
        baseline = write_baseline(artifacts, tmp_path)
        data = json.loads(baseline.read_text())
        series = data["experiments"]["t-sweep"]["series"]
        size = sorted(series, key=int)[0]
        series[size] += 4
        baseline.write_text(json.dumps(data))
        report = compare_to_baseline(artifacts, baseline)
        assert report.ok and len(report.improvements) == 1

    def test_shrunk_lower_bound_series_is_a_regression(self, artifact_dir, tmp_path):
        artifacts = collect_artifacts(artifact_dir)
        baseline = write_baseline(artifacts, tmp_path)
        data = json.loads(baseline.read_text())
        series = data["experiments"]["t-lb"]["series"]
        size = sorted(series, key=int)[0]
        series[size] += 0.5  # baseline stronger than measured → weakened bound
        baseline.write_text(json.dumps(data))
        report = compare_to_baseline(artifacts, baseline)
        assert not report.ok
        assert report.regressions[0].kind == "lower-bound"
        assert "shrank" in report.regressions[0].describe()

    def test_duplicate_labels_are_each_checked_against_the_baseline(
        self, artifact_dir, tmp_path
    ):
        """A regressed artifact must fail the gate even when another artifact
        with the same label is clean (no silent label collapsing)."""
        from dataclasses import replace

        artifacts = collect_artifacts(artifact_dir)
        baseline = write_baseline(artifacts, tmp_path)
        (path, sweep) = artifacts[0]
        worse_point = replace(
            sweep.points[0],
            max_certificate_bits=sweep.points[0].max_certificate_bits + 1,
        )
        regressed = replace(sweep, points=(worse_point,) + sweep.points[1:])
        # The regressed twin comes first, the clean one shadows it last.
        report = compare_to_baseline([(path, regressed), (path, sweep)], baseline)
        assert not report.ok and len(report.regressions) == 1

    def test_missing_and_new_labels_are_reported_not_fatal(self, artifact_dir, tmp_path):
        artifacts = collect_artifacts(artifact_dir)
        baseline = write_baseline(artifacts, tmp_path)
        data = json.loads(baseline.read_text())
        data["experiments"]["gone"] = {"kind": "sweep", "series": {"4": 1}}
        del data["experiments"]["t-lb"]
        baseline.write_text(json.dumps(data))
        report = compare_to_baseline(artifacts, baseline)
        assert report.ok
        assert report.missing_labels == ["gone"]
        assert report.new_labels == ["t-lb"]

    def test_kind_mismatch_fails_the_gate(self, artifact_dir, tmp_path):
        """A label whose measured kind disagrees with the baseline's record
        cannot be compared directionally — the gate must fail, not guess."""
        artifacts = collect_artifacts(artifact_dir)
        baseline = write_baseline(artifacts, tmp_path)
        data = json.loads(baseline.read_text())
        data["experiments"]["t-sweep"]["kind"] = "lower-bound"
        baseline.write_text(json.dumps(data))
        report = compare_to_baseline(artifacts, baseline)
        assert not report.ok
        assert len(report.kind_mismatches) == 1 and not report.regressions

    def test_baseline_path_resolves_directories_and_files(self, tmp_path):
        assert baseline_path(tmp_path) == tmp_path / "baselines.json"
        assert baseline_path(tmp_path / "b.json") == tmp_path / "b.json"
        assert baseline_path(tmp_path / "subdir") == tmp_path / "subdir" / "baselines.json"

    def test_baseline_schema_mismatch_rejected(self, tmp_path):
        bad = tmp_path / "baselines.json"
        bad.write_text(json.dumps({"schema": 99, "experiments": {}}))
        with pytest.raises(ValueError, match="schema"):
            load_baseline(bad)

    def test_committed_repo_baseline_loads(self):
        """The baseline CI gates against must stay loadable."""
        from pathlib import Path

        experiments = load_baseline(Path(__file__).parents[2] / "benchmarks" / "baselines")
        assert "gate-tree" in experiments
        assert all("series" in entry for entry in experiments.values())
