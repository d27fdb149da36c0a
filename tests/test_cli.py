"""CLI tests — builders are monkeypatched to the small session datasets so
the commands run in unit-test time."""

import pytest

from repro import cli


@pytest.fixture(autouse=True)
def small_builders(monkeypatch, small_circles_dataset, small_community_dataset):
    def circles_builder(seed=None, **kwargs):
        return small_circles_dataset

    def community_builder(seed=None, **kwargs):
        return small_community_dataset

    monkeypatch.setattr(
        cli,
        "_BUILDERS",
        {
            "google_plus": circles_builder,
            "twitter": circles_builder,
            "livejournal": community_builder,
            "orkut": community_builder,
            "magno": community_builder,
        },
    )


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_unknown_dataset_exits(self):
        with pytest.raises(SystemExit, match="unknown dataset"):
            cli.main(["overlap", "nope"])


class TestCommands:
    def test_characterize_single(self, capsys):
        assert cli.main(["characterize", "google_plus"]) == 0
        out = capsys.readouterr().out
        assert "Dataset characterization" in out
        assert "vertices" in out

    def test_characterize_all_prints_contrast(self, capsys):
        assert cli.main(["characterize"]) == 0
        out = capsys.readouterr().out
        assert "Crawl-method contrast" in out

    def test_overlap(self, capsys):
        assert cli.main(["overlap", "google_plus"]) == 0
        out = capsys.readouterr().out
        assert "overlap_fraction" in out
        assert "Membership multiplicity" in out

    def test_overlap_requires_ego_collection(self):
        with pytest.raises(SystemExit, match="no ego collection"):
            cli.main(["overlap", "livejournal"])

    def test_degree_fit(self, capsys):
        assert cli.main(["degree-fit", "google_plus"]) == 0
        out = capsys.readouterr().out
        assert "model selection" in out
        assert "Likelihood-ratio" in out

    def test_score(self, capsys):
        assert cli.main(["score", "google_plus"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 5" in out
        assert "circles" in out
        assert "Separation summary" in out

    def test_score_with_sampler(self, capsys):
        assert cli.main(["score", "google_plus", "--sampler", "uniform"]) == 0

    def test_compare(self, capsys):
        assert cli.main(["compare"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 6" in out
        assert "Structural signatures" in out

    def test_robustness(self, capsys):
        assert cli.main(["robustness", "google_plus"]) == 0
        out = capsys.readouterr().out
        assert "deviation" in out

    def test_classify(self, capsys):
        assert cli.main(["classify", "google_plus"]) == 0
        out = capsys.readouterr().out
        assert "Circle categorization" in out
        assert "community_count" in out

    def test_classify_threshold_method(self, capsys):
        assert cli.main(["classify", "google_plus", "--method", "threshold"]) == 0

    def test_classify_requires_circles(self):
        with pytest.raises(SystemExit, match="no circles"):
            cli.main(["classify", "livejournal"])

    def test_ego_view(self, capsys):
        assert cli.main(["ego-view", "google_plus"]) == 0
        out = capsys.readouterr().out
        assert "Ego-local vs global" in out
        assert "Confinement gain" in out

    def test_ego_view_requires_ego_collection(self):
        with pytest.raises(SystemExit, match="no ego collection"):
            cli.main(["ego-view", "livejournal"])

    def test_detect(self, capsys):
        assert cli.main(["detect", "livejournal"]) == 0
        out = capsys.readouterr().out
        assert "Louvain" in out
        assert "Jaccard" in out

    def test_export(self, capsys, tmp_path):
        target = tmp_path / "figures"
        assert cli.main(["export", "-o", str(target)]) == 0
        out = capsys.readouterr().out
        assert "fig5_conductance.csv" in out
        assert (target / "fig6_conductance.csv").exists()

    def test_lint_clean_file(self, capsys, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text('"""Doc."""\n__all__ = []\n')
        assert cli.main(["lint", str(clean)]) == 0

    def test_lint_flags_violations(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n\nx = random.random()\n")
        assert cli.main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "REP001" in out

    def test_lint_list_rules(self, capsys):
        assert cli.main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "REP001" in out and "REP006" in out

    def test_check_named_pipeline(self, capsys):
        assert cli.main(["check", "synth.erdos_renyi"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_check_unknown_pipeline(self, capsys):
        assert cli.main(["check", "bogus.pipeline"]) == 2
        err = capsys.readouterr().err
        assert "unknown pipeline" in err

    def test_lint_missing_path(self, capsys, tmp_path):
        assert cli.main(["lint", str(tmp_path / "nope.py")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_check_list(self, capsys):
        assert cli.main(["check", "--list"]) == 0
        out = capsys.readouterr().out
        assert "sampling.random_walk" in out


class TestTrace:
    @pytest.fixture(autouse=True)
    def obs_off(self):
        from repro import obs

        obs.disable()
        obs.REGISTRY.reset()
        yield
        obs.disable()
        obs.REGISTRY.reset()

    def test_trace_wraps_subcommand_and_writes_artifacts(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "trace.jsonl"
        code = cli.main(
            ["trace", "--trace-out", str(out_path), "score", "google_plus"]
        )
        assert code == 0

        captured = capsys.readouterr()
        assert "Separation summary" in captured.out  # traced stdout intact
        assert "trace written to" in captured.err

        records = [
            json.loads(line)
            for line in out_path.read_text(encoding="utf-8").splitlines()
        ]
        assert records[0]["type"] == "trace"
        assert records[-1]["type"] == "metrics"
        span_names = {r["name"] for r in records if r["type"] == "span"}
        assert "experiment.circles_vs_random" in span_names
        manifest_commands = [
            r["command"] for r in records if r["type"] == "manifest"
        ]
        assert "circles_vs_random" in manifest_commands

        sidecar = out_path.with_suffix(".manifest.json")
        assert sidecar.exists()
        assert json.loads(sidecar.read_text(encoding="utf-8"))

    def test_trace_text_format_prints_tree_to_stderr(self, capsys, tmp_path):
        out_path = tmp_path / "trace.jsonl"
        code = cli.main(
            [
                "trace",
                "--trace-out",
                str(out_path),
                "--format",
                "text",
                "score",
                "--dataset",
                "gplus-synth",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "trace: score --dataset gplus-synth" in err
        assert "experiment.circles_vs_random" in err

    def test_trace_disables_observability_afterwards(self, tmp_path):
        from repro import obs

        cli.main(["trace", "--trace-out", str(tmp_path / "t.jsonl"), "overlap"])
        assert not obs.enabled()

    def test_trace_requires_a_command(self):
        with pytest.raises(SystemExit, match="missing command"):
            cli.main(["trace"])

    def test_trace_rejects_nesting(self):
        with pytest.raises(SystemExit, match="cannot nest"):
            cli.main(["trace", "trace", "score"])

    def test_trace_out_flag_on_plain_subcommand(self, capsys, tmp_path):
        out_path = tmp_path / "direct.jsonl"
        assert cli.main(["score", "google_plus", "--trace-out", str(out_path)]) == 0
        assert out_path.exists()
        assert out_path.with_suffix(".manifest.json").exists()
        assert "trace written to" in capsys.readouterr().err

    def test_inner_trace_out_wins_under_trace(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        out_path = tmp_path / "inner.jsonl"
        code = cli.main(
            ["trace", "score", "google_plus", "--trace-out", str(out_path)]
        )
        assert code == 0
        assert out_path.exists()
        assert out_path.with_suffix(".manifest.json").exists()
        assert not (tmp_path / "trace.jsonl").exists()
        assert f"trace written to {out_path}" in capsys.readouterr().err

    def test_dataset_aliases_resolve(self, capsys):
        assert cli.main(["score", "--dataset", "gplus-synth"]) == 0
        assert "Separation summary" in capsys.readouterr().out


class TestOutOfCoreCommands:
    def test_freeze_score_delta_round_trip(self, capsys, tmp_path):
        store = tmp_path / "store"
        assert cli.main(["freeze", "google_plus", "-o", str(store)]) == 0
        out = capsys.readouterr().out
        assert "froze" in out
        assert (store / "meta.json").is_file()
        assert (store / "groups.json").is_file()

        assert cli.main(["score", "--mmap-dir", str(store)]) == 0
        out = capsys.readouterr().out
        assert "store" in out

        assert (
            cli.main(["delta", "--mmap-dir", str(store), "--drop-edges", "2"])
            == 0
        )
        out = capsys.readouterr().out
        assert "edges removed" in out

    def test_freeze_scale_builds_benchmark_store(self, capsys, tmp_path):
        store = tmp_path / "bench"
        assert (
            cli.main(["freeze", "--scale", "2000", "-o", str(store)]) == 0
        )
        assert (store / "meta.json").is_file()
        assert cli.main(["score", "--mmap-dir", str(store)]) == 0

    def test_mmap_dir_env_default(self, capsys, tmp_path, monkeypatch):
        store = tmp_path / "store"
        assert cli.main(["freeze", "google_plus", "-o", str(store)]) == 0
        capsys.readouterr()
        monkeypatch.setenv("REPRO_MMAP_DIR", str(store))
        assert cli.main(["score"]) == 0
        assert cli.main(["delta", "--drop-edges", "1"]) == 0

    def test_score_missing_store_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["score", "--mmap-dir", str(tmp_path / "missing")])

    def test_delta_without_store_exits(self, monkeypatch):
        monkeypatch.delenv("REPRO_MMAP_DIR", raising=False)
        with pytest.raises(SystemExit, match="mmap-dir"):
            cli.main(["delta"])
