"""Tests for the command-line interface."""

from __future__ import annotations

import json

import networkx as nx
import pytest

from repro.cli import build_graph, main, parse_params
from repro.registry import REGISTRY


class TestBuildGraph:
    @pytest.mark.parametrize(
        "spec, nodes",
        [
            ("path:7", 7),
            ("cycle:5", 5),
            ("clique:4", 4),
            ("star:6", 6),
            ("random-tree:9", 9),
            ("grid:3", 9),
            ("triangle-chain:3", 7),
            ("union-of-cycles:3", 10),
        ],
    )
    def test_families(self, spec, nodes):
        assert build_graph(spec).number_of_nodes() == nodes

    def test_binary_tree_depth(self):
        graph = build_graph("binary-tree:3")
        assert nx.is_tree(graph)

    def test_file_graph(self, tmp_path):
        edge_file = tmp_path / "edges.txt"
        edge_file.write_text("a b\nb c\nc d\n")
        graph = build_graph(f"file:{edge_file}")
        assert graph.number_of_nodes() == 4
        assert graph.number_of_edges() == 3

    @pytest.mark.parametrize("spec", ["nocolon", "path:abc", "path:0", "nebula:4"])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(SystemExit):
            build_graph(spec)

    def test_missing_file_is_a_clean_exit(self, tmp_path):
        """A nonexistent edge list exits with a message, not a traceback."""
        with pytest.raises(SystemExit) as excinfo:
            build_graph(f"file:{tmp_path / 'missing.txt'}")
        assert "does not exist" in str(excinfo.value)


class TestParseParams:
    def test_key_value_pairs(self):
        assert parse_params(["t=3", "model=auto"], "treedepth") == {
            "t": "3",
            "model": "auto",
        }

    def test_bare_value_binds_single_required_param(self):
        assert parse_params(["3"], "treedepth") == {"t": "3"}

    def test_bare_value_without_required_param_rejected(self):
        with pytest.raises(SystemExit):
            parse_params(["3"], "tree")

    def test_every_registered_scheme_builds_from_the_registry(self):
        for info in REGISTRY:
            params = {
                spec.name: (spec.choices[0] if spec.choices else 3)
                for spec in info.params
                if spec.required
            }
            scheme = info.create(params)
            assert hasattr(scheme, "verify")


class TestMain:
    def test_list_command_enumerates_the_registry(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert f"{len(REGISTRY)} registered" in output
        for key in REGISTRY.names():
            assert key in output
        assert "mso-trees" in output and "universal" in output

    def test_certify_yes_instance(self, capsys):
        assert main(["certify", "--scheme", "treedepth", "--param", "3", "--graph", "path:7"]) == 0
        output = capsys.readouterr().out
        assert "holds:      True" in output
        assert "accepted:   True" in output

    def test_certify_key_value_param(self, capsys):
        assert main(
            ["certify", "--scheme", "treedepth", "--param", "t=3", "--graph", "path:7"]
        ) == 0
        assert "accepted:   True" in capsys.readouterr().out

    def test_certify_no_instance(self, capsys):
        assert main(["certify", "--scheme", "bipartite", "--graph", "cycle:5"]) == 0
        output = capsys.readouterr().out
        assert "holds:      False" in output

    def test_certify_json_output(self, capsys):
        assert main(
            [
                "certify",
                "--scheme",
                "mso-trees",
                "--param",
                "automaton=perfect-matching",
                "--graph",
                "path:8",
                "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["holds"] is True
        assert payload["accepted"] is True
        assert payload["registry_key"] == "mso-trees"
        assert payload["engine"] == "auto"
        assert payload["engine_resolved"] == "compiled"
        assert payload["seed"] == 0
        assert payload["max_certificate_bits"] > 0

    def test_certify_verbose_prints_certificates(self, capsys):
        assert main(
            ["certify", "--scheme", "bipartite", "--graph", "path:4", "--verbose"]
        ) == 0
        assert "per-vertex certificates" in capsys.readouterr().out

    def test_certify_registry_only_scheme(self, capsys):
        """Schemes that the old hand-rolled CLI table never exposed run now."""
        assert main(["certify", "--scheme", "lcl-mis", "--graph", "path:5"]) == 0
        assert "holds:      True" in capsys.readouterr().out

    def test_certify_treewidth_scheme(self, capsys):
        assert main(["certify", "--scheme", "treewidth", "--param", "2", "--graph", "cycle:12"]) == 0
        assert "bits per vertex" in capsys.readouterr().out

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            main(["certify", "--scheme", "quantum", "--graph", "path:4"])

    def test_unknown_scheme_message_suggests_close_matches(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["certify", "--scheme", "treedepht", "--graph", "path:4"])
        assert "did you mean 'treedepth'" in str(excinfo.value)

    def test_missing_required_param_rejected(self):
        with pytest.raises(SystemExit):
            main(["certify", "--scheme", "treedepth", "--graph", "path:4"])

    def test_invalid_param_value_is_a_clean_exit(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["certify", "--scheme", "treedepth", "--param", "t=0",
                  "--graph", "path:4"])
        assert "must be >= 1" in str(excinfo.value)

    def test_undecidable_ground_truth_is_a_clean_exit(self):
        """Regression: exact treedepth beyond its reach used to escape as a
        ValueError traceback; it must exit with the message instead."""
        with pytest.raises(SystemExit) as excinfo:
            main(["certify", "--scheme", "treedepth", "--param", "t=7",
                  "--graph", "path:64"])
        message = str(excinfo.value)
        assert "cannot decide treedepth" in message
        assert "Traceback" not in message

    def test_file_graph_end_to_end(self, tmp_path, capsys):
        edge_file = tmp_path / "tree.txt"
        edge_file.write_text("1 2\n2 3\n3 4\n4 5\n")
        assert main(["certify", "--scheme", "tree", "--graph", f"file:{edge_file}"]) == 0
        assert "holds:      True" in capsys.readouterr().out

    def test_missing_file_end_to_end(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["certify", "--scheme", "tree", "--graph", f"file:{tmp_path}/no.txt"])
        assert "does not exist" in str(excinfo.value)


class TestServeCommand:
    def _serve(self, monkeypatch, capsys, request_lines):
        import io
        import sys as _sys

        monkeypatch.setattr(_sys, "stdin", io.StringIO("".join(request_lines)))
        assert main(["serve", "--workers", "2"]) == 0
        return [json.loads(line) for line in capsys.readouterr().out.splitlines()]

    def test_serve_stdio_answers_a_batch_and_shuts_down(self, monkeypatch, capsys):
        responses = self._serve(monkeypatch, capsys, [
            '{"op": "certify", "scheme": "treedepth", "params": {"t": 3}, "graph": "path:7"}\n',
            '{"op": "certify", "scheme": "treedepth", "params": {"t": 0}, "graph": "path:7"}\n',
            '{"op": "certify", "scheme": "bipartite", "graph": "cycle:5"}\n',
            '{"op": "shutdown"}\n',
        ])
        assert len(responses) == 4
        assert responses[0]["ok"] is True and responses[0]["result"]["accepted"] is True
        assert responses[1]["ok"] is False and responses[1]["code"] == "invalid-param"
        assert responses[2]["result"]["holds"] is False
        assert responses[3] == {"ok": True, "op": "shutdown"}

    def test_serve_survives_garbage_lines(self, monkeypatch, capsys):
        responses = self._serve(monkeypatch, capsys, [
            "definitely not json\n",
            '{"op": "certify", "scheme": "tree", "graph": "path:4"}\n',
        ])
        assert responses[0]["code"] == "invalid-request"
        assert responses[1]["result"]["accepted"] is True

    def test_bad_tcp_address_rejected(self):
        from repro.cli import parse_tcp_address

        assert parse_tcp_address("8765") == ("127.0.0.1", 8765)
        assert parse_tcp_address("0.0.0.0:9") == ("0.0.0.0", 9)
        with pytest.raises(SystemExit):
            parse_tcp_address("eight")

    def test_bad_workers_rejected_cleanly(self):
        with pytest.raises(SystemExit, match="--workers"):
            main(["serve", "--workers", "0"])


class TestSweepCommand:
    def test_sweep_writes_artifact_and_checks_bound(self, tmp_path, capsys):
        artifact = tmp_path / "sweep.json"
        assert main(
            [
                "sweep",
                "--scheme",
                "tree",
                "--family",
                "random-tree",
                "--sizes",
                "4,8,16",
                "--trials",
                "5",
                "--output",
                str(artifact),
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "bound:      O(log n)  ok=True" in output
        data = json.loads(artifact.read_text())
        assert data["spec"]["scheme"] == "tree"
        assert data["all_accepted"] is True
        assert data["bound"]["ok"] is True
        assert set(data["series"]) == {"4", "8", "16"}

    def test_sweep_with_size_template(self, tmp_path):
        artifact = tmp_path / "count.json"
        assert main(
            [
                "sweep",
                "--scheme",
                "spanning-tree-count",
                "--param",
                "expected_n=$n",
                "--family",
                "random-connected",
                "--sizes",
                "6,10",
                "--trials",
                "5",
                "--output",
                str(artifact),
            ]
        ) == 0
        data = json.loads(artifact.read_text())
        assert data["all_accepted"] is True

    def test_sweep_bad_sizes_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--scheme", "tree", "--family", "path", "--sizes", "a,b"])

    def test_sweep_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--scheme", "tree", "--family", "nebula", "--sizes", "4"])

    def test_sweep_bad_shard_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--scheme", "tree", "--family", "path", "--sizes", "4",
                  "--shard", "2"])
        with pytest.raises(SystemExit):
            main(["sweep", "--scheme", "tree", "--family", "path", "--sizes", "4,8",
                  "--shard", "3/2"])

    def test_undecidable_sweep_exits_with_the_service_error(self, tmp_path, monkeypatch):
        # Exact treedepth cannot decide these instances: the service answers
        # ``undecidable`` and the command exits with its message, exactly as
        # ``certify`` does, instead of dying with a raw traceback.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--scheme", "treedepth", "--param", "t=12",
                  "--family", "random-tree", "--sizes", "64,256,1024"])
        assert str(excinfo.value).startswith("error: cannot decide treedepth exactly")
        assert not list(tmp_path.iterdir())  # no artifact for a failed run

    def test_sweep_measure_size_flag(self, tmp_path):
        artifact = tmp_path / "size.json"
        assert main(
            ["sweep", "--scheme", "treewidth", "--param", "k=1", "--family", "path",
             "--sizes", "8,16", "--measure", "size", "--no-bound-check",
             "--output", str(artifact)]
        ) == 0
        data = json.loads(artifact.read_text())
        assert data["spec"]["measure"] == "size"
        assert all(point["completeness_ok"] is None for point in data["points"])


class TestShardMergeResultsCommands:
    def _run_shards(self, tmp_path):
        base = ["sweep", "--scheme", "tree", "--family", "random-tree",
                "--sizes", "4,8,12,16", "--trials", "3", "--name", "gate"]
        assert main(base + ["--shard", "0/2", "--output", str(tmp_path / "p0.json")]) == 0
        assert main(base + ["--shard", "1/2", "--output", str(tmp_path / "p1.json")]) == 0
        assert main(base + ["--output", str(tmp_path / "sweep_full.json")]) == 0

    def test_shard_merge_equals_full_run(self, tmp_path, capsys):
        self._run_shards(tmp_path)
        assert main(
            ["merge", "--output", str(tmp_path / "merged.json"),
             str(tmp_path / "p0.json"), str(tmp_path / "p1.json")]
        ) == 0
        full = json.loads((tmp_path / "sweep_full.json").read_text())
        merged = json.loads((tmp_path / "merged.json").read_text())
        for data in (full, merged):
            for point in data["points"]:
                point.pop("elapsed_s")
        assert merged == full

    def test_merge_incomplete_shards_fails_cleanly(self, tmp_path):
        self._run_shards(tmp_path)
        with pytest.raises(SystemExit, match="cover"):
            main(["merge", "--output", str(tmp_path / "m.json"), str(tmp_path / "p0.json")])

    def test_lower_bound_command_writes_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "lb.json"
        assert main(
            ["lower-bound", "--construction", "automorphism", "--sizes", "3,6",
             "--output", str(artifact)]
        ) == 0
        output = capsys.readouterr().out
        assert "dichotomy=True" in output
        data = json.loads(artifact.read_text())
        assert data["kind"] == "lower-bound"
        assert data["all_ok"] is True

    def test_lower_bound_unknown_construction_rejected(self):
        with pytest.raises(SystemExit):
            main(["lower-bound", "--construction", "quantum", "--sizes", "3"])

    def test_sweep_accepts_every_engine_choice(self, tmp_path):
        for engine in ("legacy", "compiled", "delta", "vector"):
            artifact = tmp_path / f"sweep_{engine}.json"
            assert main(
                ["sweep", "--scheme", "tree", "--family", "path", "--sizes", "4",
                 "--trials", "3", "--engine", engine, "--output", str(artifact)]
            ) == 0
            assert json.loads(artifact.read_text())["spec"]["engine"] == engine

    def test_unknown_engine_is_an_argparse_error(self, capsys):
        # argparse rejects it before the spec layer, enumerating the choices.
        with pytest.raises(SystemExit):
            main(["sweep", "--scheme", "tree", "--family", "path", "--sizes", "4",
                  "--engine", "quantum"])
        assert "vector" in capsys.readouterr().err

    def test_kernel_command_writes_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "kernel.json"
        assert main(
            ["kernel", "--family", "star", "--sizes", "8,32,128", "--k", "3",
             "--check-ef", "2", "--output", str(artifact)]
        ) == 0
        output = capsys.readouterr().out
        assert "ef=True" in output
        data = json.loads(artifact.read_text())
        assert data["kind"] == "kernel"
        assert data["all_ok"] is True
        assert data["series"] == {"8": 4, "32": 4, "128": 4}

    def test_kernel_star_model_on_wrong_family_rejected(self):
        with pytest.raises(SystemExit, match="star model"):
            main(["kernel", "--family", "path", "--sizes", "4", "--model", "star"])

    def test_results_gate_roundtrip_and_regression_exit_codes(self, tmp_path, capsys):
        self._run_shards(tmp_path)
        (tmp_path / "p0.json").unlink()  # partials are skipped anyway; tidy up
        (tmp_path / "p1.json").unlink()
        # Write the baseline, check against it: clean pass.
        assert main(
            ["results", "--dir", str(tmp_path), "--output", str(tmp_path / "EXP.md"),
             "--write-baseline", str(tmp_path / "base")]
        ) == 0
        assert main(
            ["results", "--dir", str(tmp_path), "--check", str(tmp_path / "base")]
        ) == 0
        assert "regression gate: OK" in capsys.readouterr().out
        assert "| gate | sweep |" in (tmp_path / "EXP.md").read_text()
        # Inject a +1-bit regression: measured now exceeds the baseline.
        baseline = tmp_path / "base" / "baselines.json"
        data = json.loads(baseline.read_text())
        series = data["experiments"]["gate"]["series"]
        smallest = sorted(series, key=int)[0]
        series[smallest] -= 1
        baseline.write_text(json.dumps(data))
        assert main(
            ["results", "--dir", str(tmp_path), "--check", str(tmp_path / "base")]
        ) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_results_empty_dir_is_a_clean_exit(self, tmp_path):
        with pytest.raises(SystemExit, match="no experiment artifacts"):
            main(["results", "--dir", str(tmp_path)])

    def test_check_runs_against_previous_baseline_when_writing_too(self, tmp_path, capsys):
        """--check with --write-baseline on the same path must diff against
        the old baseline, not the one being written from this run."""
        self._run_shards(tmp_path)
        (tmp_path / "p0.json").unlink(), (tmp_path / "p1.json").unlink()
        both = ["results", "--dir", str(tmp_path),
                "--check", str(tmp_path / "base"), "--write-baseline", str(tmp_path / "base")]
        assert main(["results", "--dir", str(tmp_path),
                     "--write-baseline", str(tmp_path / "base")]) == 0
        baseline = tmp_path / "base" / "baselines.json"
        data = json.loads(baseline.read_text())
        series = data["experiments"]["gate"]["series"]
        smallest = sorted(series, key=int)[0]
        series[smallest] -= 1  # the previous baseline was stricter
        baseline.write_text(json.dumps(data))
        assert main(both) == 1  # regression detected against the OLD baseline
        assert "REGRESSION" in capsys.readouterr().out
        # ... and the baseline was refreshed afterwards, so a re-check passes.
        assert main(["results", "--dir", str(tmp_path), "--check", str(tmp_path / "base")]) == 0

    def test_merge_exit_code_reflects_bound_violation(self, tmp_path):
        """Merging shards of a bound-violating sweep fails like the sweep would."""
        base = ["sweep", "--scheme", "treewidth", "--param", "k=1", "--family", "path",
                "--sizes", "16,512", "--measure", "size", "--name", "viol"]
        # Each single-point shard is within the band on its own (spread 1);
        # only the merged series exposes the violation — and merge fails.
        assert main(base + ["--shard", "0/2", "--output", str(tmp_path / "v0.json")]) == 0
        assert main(base + ["--shard", "1/2", "--output", str(tmp_path / "v1.json")]) == 0
        assert main(
            ["merge", "--output", str(tmp_path / "v.json"),
             str(tmp_path / "v0.json"), str(tmp_path / "v1.json")]
        ) == 1


class TestFormulaCommands:
    DOMINATING = "exists x. forall y. (x = y | x ~ y)"

    def test_certify_formula_json_verdict(self, capsys):
        assert main(
            ["certify", "--formula", self.DOMINATING, "--graph", "star:8",
             "--param", "t=2", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["holds"] is True and payload["accepted"] is True
        assert payload["registry_key"] == "formula"
        assert payload["bound"] == "O(t log n)"

    def test_certify_malformed_formula_exits_with_the_wire_message(self):
        """Satellite: the CLI exits non-zero with the exact invalid-formula
        message the wire path produces, offending position included."""
        from repro import api

        with pytest.raises(SystemExit) as excinfo:
            main(["certify", "--formula", "exists x. ((x = y)",
                  "--graph", "star:8"])
        cli_message = str(excinfo.value)
        try:
            api.certify(formula="exists x. ((x = y)", graph="star:8")
            raise AssertionError("expected a ServiceError")
        except api.ServiceError as error:
            assert error.response.code == "invalid-formula"
            assert cli_message == f"error: {error.response.message}"
        assert "at position 18" in cli_message

    def test_certify_scheme_and_formula_mutually_exclusive(self):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(["certify", "--scheme", "tree", "--formula", self.DOMINATING,
                  "--graph", "path:4"])

    def test_certify_requires_scheme_or_formula(self):
        with pytest.raises(SystemExit, match="one of 'scheme' or 'formula'"):
            main(["certify", "--graph", "path:4"])

    def test_formula_command_writes_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "formula.json"
        assert main(
            ["formula", "--formula", self.DOMINATING, "--family", "star",
             "--sizes", "4,6,8", "--trials", "5", "--output", str(artifact)]
        ) == 0
        output = capsys.readouterr().out
        assert "bound:      O(t log n)  ok=True" in output
        data = json.loads(artifact.read_text())
        assert data["kind"] == "formula"
        assert data["spec"]["formula"] == self.DOMINATING
        assert data["all_accepted"] is True
        assert set(data["series"]) == {"4", "6", "8"}

    def test_sweep_formula_equals_formula_command(self, tmp_path):
        via_formula = tmp_path / "a.json"
        via_sweep = tmp_path / "b.json"
        assert main(
            ["formula", "--formula", self.DOMINATING, "--family", "star",
             "--sizes", "4,6", "--trials", "5", "--canonical",
             "--output", str(via_formula)]
        ) == 0
        assert main(
            ["sweep", "--formula", self.DOMINATING, "--family", "star",
             "--sizes", "4,6", "--trials", "5", "--param", "t=2",
             "--canonical", "--output", str(via_sweep)]
        ) == 0
        assert via_formula.read_bytes() == via_sweep.read_bytes()

    def test_formula_shard_merge_equals_full_run(self, tmp_path):
        base = ["formula", "--formula", self.DOMINATING, "--family", "star",
                "--sizes", "4,6,8,10", "--trials", "5", "--canonical"]
        assert main(base + ["--output", str(tmp_path / "full.json")]) == 0
        assert main(base + ["--shard", "0/2", "--output", str(tmp_path / "p0.json")]) == 0
        assert main(base + ["--shard", "1/2", "--output", str(tmp_path / "p1.json")]) == 0
        assert main(
            ["merge", "--output", str(tmp_path / "merged.json"),
             str(tmp_path / "p0.json"), str(tmp_path / "p1.json")]
        ) == 0
        assert (tmp_path / "merged.json").read_bytes() == (tmp_path / "full.json").read_bytes()

    def test_sweep_formula_rejects_scheme_and_unsupported_flags(self, tmp_path):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(["sweep", "--scheme", "tree", "--formula", self.DOMINATING,
                  "--family", "star", "--sizes", "4"])
        with pytest.raises(SystemExit, match="measure"):
            main(["sweep", "--formula", self.DOMINATING, "--family", "star",
                  "--sizes", "4", "--measure", "size"])
        with pytest.raises(SystemExit, match="id-exponent"):
            main(["sweep", "--formula", self.DOMINATING, "--family", "star",
                  "--sizes", "4", "--id-exponent", "2"])

    def test_formula_malformed_param_is_a_clean_exit(self):
        with pytest.raises(SystemExit, match="key=value"):
            main(["sweep", "--formula", self.DOMINATING, "--family", "star",
                  "--sizes", "4", "--param", "3"])
