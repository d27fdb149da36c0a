"""Registry and batch-driver tests."""

import numpy as np
import pytest

from repro.data.groups import Community, GroupSet, VertexGroup
from repro.engine import AnalysisContext
from repro.scoring.registry import (
    PAPER_FUNCTION_NAMES,
    make_all_functions,
    make_function,
    make_paper_functions,
    score_group,
    score_groups,
    score_member_lists,
    stats_requirements,
)


class TestFactories:
    def test_paper_functions_in_order(self):
        functions = make_paper_functions()
        assert tuple(f.name for f in functions) == PAPER_FUNCTION_NAMES

    def test_make_function_by_name(self):
        assert make_function("conductance").name == "conductance"

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="conductance"):
            make_function("nope")

    def test_all_functions_have_unique_names(self):
        functions = make_all_functions()
        names = [f.name for f in functions]
        assert len(names) == len(set(names))
        assert len(names) >= 14


class TestScoreGroup:
    def test_returns_all_function_values(self, two_cliques_graph):
        scores = score_group(
            two_cliques_graph, [0, 1, 2, 3], make_paper_functions()
        )
        assert set(scores) == set(PAPER_FUNCTION_NAMES)
        assert scores["average_degree"] == pytest.approx(3.0)
        assert scores["conductance"] == pytest.approx(1 / 13)


class _RecordingExecutor:
    """Stands in for an active ParallelExecutor; records what it is fed."""

    active = True

    def __init__(self):
        self.calls = []

    def score_groups(self, id_lists, functions, **requirements):
        self.calls.append((id_lists, requirements))
        return [len(ids) for ids in id_lists], np.zeros(
            (len(id_lists), len(functions))
        )


class _StatefulFunction:
    """A scoring function with non-scalar state (no cache token)."""

    name = "stateful"

    def __init__(self):
        self.weights = [1.0]

    def __call__(self, stats):
        return float(stats.n_C)


class TestDispatcher:
    def test_stats_requirements(self, two_cliques_graph):
        context = AnalysisContext(two_cliques_graph)
        assert stats_requirements(make_paper_functions(), context) == (
            None,
            False,
        )
        assert stats_requirements(make_all_functions(), context) == (
            context.median_degree,
            True,
        )

    def test_serial_without_executor(self, two_cliques_graph):
        context = AnalysisContext(two_cliques_graph)
        functions = make_all_functions()
        sizes, matrix = score_member_lists(
            context, [[0, 1, 2, 3], [3, 4, 4]], functions
        )
        assert sizes == [4, 2]
        assert matrix.shape == (2, len(functions))
        single = score_group(context, [3, 4, 4], functions)
        assert [single[f.name] for f in functions] == matrix[1].tolist()

    def test_active_executor_gets_vertex_ids_and_requirements(
        self, two_cliques_graph
    ):
        context = AnalysisContext(two_cliques_graph)
        executor = _RecordingExecutor()
        score_member_lists(
            context, [[0, 1], [6, 7]], make_all_functions(), executor=executor
        )
        ((id_lists, requirements),) = executor.calls
        assert [ids.tolist() for ids in id_lists] == [
            context.vertex_ids([0, 1]).tolist(),
            context.vertex_ids([6, 7]).tolist(),
        ]
        assert requirements == {
            "graph_median_degree": context.median_degree,
            "include_internal_adjacency": True,
        }

    def test_untokenizable_functions_and_empty_batches_stay_serial(
        self, two_cliques_graph
    ):
        context = AnalysisContext(two_cliques_graph)
        executor = _RecordingExecutor()
        sizes, matrix = score_member_lists(
            context, [[0, 1, 2]], [_StatefulFunction()], executor=executor
        )
        assert matrix.tolist() == [[3.0]]
        sizes, matrix = score_member_lists(
            context, [], make_paper_functions(), executor=executor
        )
        assert sizes == [] and matrix.shape == (0, 4)
        assert executor.calls == []


class TestScoreGroups:
    def test_table_alignment(self, two_cliques_graph):
        groups = GroupSet(
            groups=[
                Community(name="left", members=frozenset({0, 1, 2, 3})),
                Community(name="right", members=frozenset({4, 5, 6, 7})),
            ]
        )
        table = score_groups(two_cliques_graph, groups)
        assert table.group_names == ["left", "right"]
        assert table.group_sizes == [4, 4]
        assert len(table.scores("conductance")) == 2
        np.testing.assert_allclose(
            table.scores("conductance"), [1 / 13, 1 / 13]
        )

    def test_members_outside_graph_dropped(self, two_cliques_graph):
        groups = GroupSet(
            groups=[
                Community(name="mixed", members=frozenset({0, 1, 999})),
                Community(name="gone", members=frozenset({777})),
            ]
        )
        table = score_groups(two_cliques_graph, groups)
        assert table.group_names == ["mixed"]
        assert table.group_sizes == [2]

    def test_restriction_disabled_raises_on_missing(self, two_cliques_graph):
        groups = GroupSet(
            groups=[Community(name="bad", members=frozenset({0, 999}))]
        )
        with pytest.raises(KeyError):
            score_groups(
                two_cliques_graph, groups, restrict_to_graph=False
            )

    def test_default_functions_are_papers(self, two_cliques_graph):
        groups = GroupSet(
            groups=[Community(name="left", members=frozenset({0, 1, 2, 3}))]
        )
        table = score_groups(two_cliques_graph, groups)
        assert table.function_names() == list(PAPER_FUNCTION_NAMES)

    def test_fomd_gets_graph_median(self, two_cliques_graph):
        groups = GroupSet(
            groups=[Community(name="left", members=frozenset({0, 1, 2, 3}))]
        )
        table = score_groups(
            two_cliques_graph, groups, [make_function("fomd")]
        )
        # median degree of the two-clique graph is 3; internal degrees are 3
        assert table.scores("fomd")[0] == 0.0

    def test_accepts_plain_sequence_of_groups(self, two_cliques_graph):
        groups = [VertexGroup(name="g", members=frozenset({0, 1}))]
        table = score_groups(two_cliques_graph, groups)
        assert len(table) == 1

    def test_summary_statistics(self, two_cliques_graph):
        groups = GroupSet(
            groups=[
                Community(name="left", members=frozenset({0, 1, 2, 3})),
                Community(name="right", members=frozenset({4, 5, 6, 7})),
            ]
        )
        table = score_groups(two_cliques_graph, groups)
        summary = table.summary()
        assert summary["average_degree"]["mean"] == pytest.approx(3.0)
        assert summary["conductance"]["min"] == summary["conductance"]["max"]

    def test_summary_ignores_infinities(self, two_cliques_graph):
        groups = GroupSet(
            groups=[Community(name="all", members=frozenset(range(8)))]
        )
        table = score_groups(
            two_cliques_graph, groups, [make_function("separability")]
        )
        assert np.isinf(table.scores("separability")[0])
        assert table.summary()["separability"]["mean"] == 0.0
