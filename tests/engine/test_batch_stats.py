"""Engine batch stats vs the per-group oracle.

The engine's acceptance bar is *bit-identical* agreement with
:func:`repro.scoring.base.compute_group_stats` — same counts, same
arrays, same error types — on arbitrary graphs including the edge cases
(singleton groups, the whole graph as one group, duplicate members).
Each group of a :func:`batch_group_stats_columns` batch is compared
through ``GroupStatsBatch.row(i)``.
"""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import AnalysisContext, batch_group_stats_columns
from repro.exceptions import EmptyGroupError, NodeNotFound
from repro.graph.digraph import DiGraph
from repro.graph.ugraph import Graph
from repro.scoring.base import compute_group_stats
from repro.scoring.columnar import score_matrix
from repro.scoring.registry import make_paper_functions
from repro.synth.paper_datasets import GOOGLE_PLUS_CONFIG, build_google_plus


@st.composite
def graph_and_groups(draw, directed):
    """A random graph plus member lists, always including a singleton
    group and the whole vertex set."""
    n = draw(st.integers(min_value=2, max_value=20))
    nodes = [f"v{i:02d}" for i in range(n)]
    pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1 :]]
    edges = draw(
        st.lists(st.sampled_from(pairs), min_size=1, max_size=3 * n)
    )
    graph = DiGraph() if directed else Graph()
    for node in nodes:
        graph.add_node(node)
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    for u, v in edges:
        if directed and rng.random() < 0.5:
            u, v = v, u
        graph.add_edge(u, v)
    groups = draw(
        st.lists(
            st.lists(st.sampled_from(nodes), min_size=1, max_size=n),
            min_size=0,
            max_size=5,
        )
    )
    groups.append([nodes[0]])  # singleton
    groups.append(list(nodes))  # the whole graph
    return graph, groups


def group_stats(context, members, **kwargs):
    """One group's stats through the columnar batch."""
    return batch_group_stats_columns(context, [members], **kwargs).row(0)


def assert_stats_identical(got, want):
    assert got.members == want.members
    assert got.n == want.n
    assert got.m == want.m
    assert got.n_C == want.n_C
    assert got.m_C == want.m_C
    assert got.c_C == want.c_C
    assert got.directed == want.directed
    assert got.graph_median_degree == want.graph_median_degree
    for attribute in (
        "member_degrees",
        "member_internal_degrees",
        "member_in_degrees",
        "member_out_degrees",
    ):
        left, right = getattr(got, attribute), getattr(want, attribute)
        assert left.dtype == right.dtype, attribute
        assert np.array_equal(left, right), attribute
    assert len(got.member_internal_neighbors) == len(
        want.member_internal_neighbors
    )
    for left, right in zip(
        got.member_internal_neighbors, want.member_internal_neighbors
    ):
        assert np.array_equal(left, right)


def assert_batch_matches_oracle(graph, groups, strategy):
    context = AnalysisContext(graph)
    median = context.median_degree
    batch = batch_group_stats_columns(
        context,
        groups,
        graph_median_degree=median,
        include_internal_adjacency=True,
        strategy=strategy,
    )
    oracle = [
        compute_group_stats(graph, members, graph_median_degree=median)
        for members in groups
    ]
    assert len(batch) == len(oracle)
    for i, want in enumerate(oracle):
        assert_stats_identical(batch.row(i), want)
    return batch, oracle


@pytest.mark.parametrize("strategy", ["pairs", "gather"])
@pytest.mark.parametrize("directed", [False, True])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_engine_matches_legacy_oracle(directed, strategy, data):
    graph, groups = data.draw(graph_and_groups(directed))
    assert_batch_matches_oracle(graph, groups, strategy)


@pytest.fixture(scope="module")
def google_plus_egos():
    """The 8-ego synthetic Google+ corpus, circles of two or more."""
    dataset = build_google_plus(
        config=dataclasses.replace(GOOGLE_PLUS_CONFIG, num_egos=8)
    )
    groups = [
        list(group.members)
        for group in dataset.groups.filter_by_size(minimum=2)
    ]
    return dataset.graph, groups


@pytest.mark.parametrize("strategy", ["auto", "pairs", "gather"])
def test_engine_matches_legacy_oracle_on_google_plus(
    google_plus_egos, strategy
):
    # The paper's corpus shape: many small circles on one directed graph.
    # Stats match row by row, and the columnar paper-function scores match
    # the scalar functions applied to the oracle's stats bit for bit.
    graph, groups = google_plus_egos
    batch, oracle = assert_batch_matches_oracle(graph, groups, strategy)
    functions = make_paper_functions()
    want = np.array(
        [[float(function(stats)) for function in functions] for stats in oracle],
        dtype=np.float64,
    )
    assert score_matrix(functions, batch).tobytes() == want.tobytes()


class TestBatchSemantics:
    def test_duplicates_deduplicated(self, triangle_graph):
        context = AnalysisContext(triangle_graph)
        stats = group_stats(context, [1, 1, 2, 2])
        assert stats.n_C == 2
        assert stats.members == (1, 2)

    def test_empty_group_raises(self, triangle_graph):
        context = AnalysisContext(triangle_graph)
        with pytest.raises(EmptyGroupError):
            batch_group_stats_columns(context, [[]])

    def test_missing_member_raises(self, triangle_graph):
        context = AnalysisContext(triangle_graph)
        with pytest.raises(NodeNotFound):
            batch_group_stats_columns(context, [[1, 999]])

    def test_mask_reset_after_error(self, triangle_graph):
        # A failed group must not leak membership into later batches.
        context = AnalysisContext(triangle_graph)
        with pytest.raises(NodeNotFound):
            batch_group_stats_columns(context, [[1, 2], [999]])
        stats = group_stats(context, [3, 4])
        want = compute_group_stats(triangle_graph, [3, 4])
        assert stats.m_C == want.m_C
        assert stats.c_C == want.c_C

    def test_internal_adjacency_opt_in(self, triangle_graph):
        context = AnalysisContext(triangle_graph)
        assert group_stats(context, [1, 2]).member_internal_neighbors is None
        rows = group_stats(
            context, [1, 2], include_internal_adjacency=True
        ).member_internal_neighbors
        assert rows is not None
        assert [row.tolist() for row in rows] == [[1], [0]]

    def test_median_threaded_through(self, triangle_graph):
        context = AnalysisContext(triangle_graph)
        stats = group_stats(context, [1, 2], graph_median_degree=2.5)
        assert stats.graph_median_degree == 2.5

    def test_directed_counts_each_arc_once(self, small_digraph):
        context = AnalysisContext(small_digraph)
        stats = group_stats(context, ["a", "b"])
        assert stats.m_C == 2  # the reciprocal pair is two directed arcs
        assert stats.c_C == 1  # b -> c
