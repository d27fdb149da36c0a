"""Public-API surface tests.

These guard the contract a downstream user relies on: everything in
``repro.__all__`` is importable and documented, the CLI parser exposes the
advertised commands, and the package metadata is consistent.
"""

import importlib
import inspect

import repro
from repro.cli import build_parser


class TestPublicSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_no_undeclared_shadowing(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_public_callables_documented(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__doc__, f"{name} lacks a docstring"

    def test_version_present(self):
        assert repro.__version__.count(".") == 2

    def test_engine_exports_one_group_stats_path(self):
        import repro.engine

        for name in repro.engine.__all__:
            assert hasattr(repro.engine, name), name
        assert "batch_group_stats_columns" in repro.engine.__all__
        assert "rescore_groups_columns" in repro.engine.__all__
        for removed in ("batch_group_stats", "group_stats", "rescore_groups"):
            assert not hasattr(repro.engine, removed), removed

    def test_subpackages_importable(self):
        for module in (
            "repro.graph",
            "repro.algorithms",
            "repro.scoring",
            "repro.nullmodel",
            "repro.sampling",
            "repro.powerlaw",
            "repro.data",
            "repro.synth",
            "repro.analysis",
            "repro.detection",
            "repro.graph.io",
            "repro.engine",
            "repro.service",
        ):
            importlib.import_module(module)


class TestCliSurface:
    def test_advertised_commands_exist(self):
        parser = build_parser()
        subparsers = next(
            action
            for action in parser._actions
            if hasattr(action, "choices") and action.choices
        )
        commands = set(subparsers.choices)
        assert {
            "characterize",
            "overlap",
            "degree-fit",
            "score",
            "compare",
            "robustness",
            "classify",
            "ego-view",
            "detect",
            "export",
        } <= commands

    def test_help_renders(self, capsys):
        import pytest

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--help"])
        assert excinfo.value.code == 0
        assert "reproduce" in capsys.readouterr().out.lower()
