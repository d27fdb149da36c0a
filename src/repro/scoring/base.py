"""Shared machinery for community scoring functions.

Every scoring function in the paper (and in the Yang–Leskovec catalogue it
draws from) is a function of a handful of group statistics — the paper's
Table I nomenclature:

=========  =====================================================
``n``      number of vertices in the graph
``m``      number of edges in the graph
``n_C``    number of vertices in the group :math:`C`
``m_C``    number of edges inside :math:`C`
``c_C``    number of edges at the boundary of :math:`C`
``d(v)``   degree of vertex ``v`` (in + out when directed)
=========  =====================================================

:class:`GroupStats` computes them in a single pass over the group's
adjacency and caches per-member degree breakdowns so that *all* scoring
functions can be evaluated without revisiting the graph.  Batch evaluation
over many groups therefore costs one adjacency sweep per group, not one per
(group, function) pair.

:func:`compute_group_stats` is the per-group dict sweep and the
reproduction's correctness oracle; the production batch path is
:func:`repro.engine.batch_group_stats_columns`, which computes
bit-identical statistics for all groups from one frozen
:class:`~repro.engine.AnalysisContext` as columns
(``GroupStatsBatch.row(i)`` rebuilds one group's :class:`GroupStats`).  A :class:`GroupStats` is a pure
value object — it carries no reference to the graph it was measured on,
so holding thousands of them does not pin the substrate in memory and
never reads mutated state.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from dataclasses import dataclass, field, replace
from typing import Protocol, runtime_checkable

import numpy as np

from repro.exceptions import EmptyGroupError, NodeNotFound
from repro.graph.digraph import DiGraph
from repro.graph.ugraph import Graph

Node = Hashable

__all__ = ["GroupStats", "ScoringFunction", "compute_group_stats"]


@dataclass(frozen=True)
class GroupStats:
    """One-pass structural statistics of a vertex group within its graph.

    Attributes follow the paper's nomenclature (Table I); the per-member
    arrays are aligned with :attr:`members`.
    """

    members: tuple[Node, ...] = field(repr=False)
    n: int
    m: int
    n_C: int
    m_C: int
    c_C: int
    directed: bool
    #: total degree d(v) of each member in the full graph
    member_degrees: np.ndarray = field(repr=False)
    #: degree restricted to edges with both endpoints in C
    member_internal_degrees: np.ndarray = field(repr=False)
    #: in-degree of each member (directed only; zeros otherwise)
    member_in_degrees: np.ndarray = field(repr=False)
    #: out-degree of each member (directed only; zeros otherwise)
    member_out_degrees: np.ndarray = field(repr=False)
    #: median total degree of the whole graph, if precomputed (for FOMD)
    graph_median_degree: float | None = None
    #: per-member sorted arrays of internal-neighbour member *positions*
    #: (undirected skeleton of the induced subgraph; needed only by TPR)
    member_internal_neighbors: tuple[np.ndarray, ...] | None = field(
        default=None, repr=False
    )

    @property
    def member_boundary_degrees(self) -> np.ndarray:
        """Per-member count of edge endpoints leaving the group."""
        return self.member_degrees - self.member_internal_degrees

    @property
    def degree_sum(self) -> int:
        """:math:`\\sum_{v \\in C} d(v)` — total degree volume of the group."""
        return int(self.member_degrees.sum())

    @property
    def internal_degree_sum(self) -> int:
        """Sum of internal degrees; equals ``2 * m_C`` (any orientation)."""
        return int(self.member_internal_degrees.sum())

    @property
    def possible_internal_edges(self) -> int:
        """Maximum possible ``m_C`` given ``n_C`` (orientation-aware)."""
        pairs = self.n_C * (self.n_C - 1)
        return pairs if self.directed else pairs // 2

    def with_median_degree(self, median: float) -> "GroupStats":
        """Return a copy carrying the graph-wide median degree (FOMD)."""
        return replace(self, graph_median_degree=median)


@runtime_checkable
class ScoringFunction(Protocol):
    """A community scoring function ``f(C)`` evaluated from group statistics."""

    name: str

    def __call__(self, stats: GroupStats) -> float:  # pragma: no cover - protocol
        ...


def _positions(
    inside: Iterable[Node], position_of: dict[Node, int]
) -> np.ndarray:
    return np.asarray(
        sorted(position_of[node] for node in inside), dtype=np.int64
    )


def compute_group_stats(
    graph: Graph | DiGraph,
    members: Iterable[Node],
    *,
    graph_median_degree: float | None = None,
    include_internal_adjacency: bool = True,
) -> GroupStats:
    """Compute :class:`GroupStats` for ``members`` within ``graph``.

    Members absent from the graph raise :class:`NodeNotFound`; an empty
    member set raises :class:`EmptyGroupError`.  Directed conventions match
    the paper: ``m_C`` counts each directed internal edge once, ``c_C``
    counts boundary edges of either direction, ``d(v) = d_in + d_out``.

    This is the per-group dict sweep, kept as the engine's correctness
    oracle; batch workloads should go through
    :func:`repro.engine.batch_group_stats_columns` instead.
    ``include_internal_adjacency=False`` skips materializing the induced
    internal adjacency (only TPR consumes it).
    """
    member_tuple = tuple(dict.fromkeys(members))  # stable order, deduplicated
    if not member_tuple:
        raise EmptyGroupError("cannot score an empty vertex group")
    member_set = frozenset(member_tuple)
    n_C = len(member_set)
    count = len(member_tuple)

    degrees = np.zeros(count, dtype=np.int64)
    internal = np.zeros(count, dtype=np.int64)
    in_degrees = np.zeros(count, dtype=np.int64)
    out_degrees = np.zeros(count, dtype=np.int64)
    internal_endpoint_sum = 0
    boundary = 0
    position_of = (
        {node: i for i, node in enumerate(member_tuple)}
        if include_internal_adjacency
        else {}
    )
    internal_rows: list[np.ndarray] = []

    if graph.is_directed:
        succ = graph._succ  # noqa: SLF001 - single-pass fast path
        pred = graph._pred  # noqa: SLF001
        for i, node in enumerate(member_tuple):
            if node not in succ:
                raise NodeNotFound(node)
            out_set = succ[node]
            in_set = pred[node]
            out_degrees[i] = len(out_set)
            in_degrees[i] = len(in_set)
            degrees[i] = len(out_set) + len(in_set)
            inside_out = out_set & member_set
            inside_in = in_set & member_set
            internal_out = len(inside_out)
            internal_in = len(inside_in)
            internal[i] = internal_out + internal_in
            internal_endpoint_sum += internal_out  # each inside edge once
            boundary += (len(out_set) - internal_out) + (len(in_set) - internal_in)
            if include_internal_adjacency:
                internal_rows.append(
                    _positions(inside_out | inside_in, position_of)
                )
        m_C = internal_endpoint_sum
    else:
        adj = graph._adj  # noqa: SLF001
        for i, node in enumerate(member_tuple):
            if node not in adj:
                raise NodeNotFound(node)
            neighbor_set = adj[node]
            degrees[i] = len(neighbor_set)
            inside_set = neighbor_set & member_set
            inside = len(inside_set)
            internal[i] = inside
            internal_endpoint_sum += inside
            boundary += len(neighbor_set) - inside
            if include_internal_adjacency:
                internal_rows.append(_positions(inside_set, position_of))
        m_C = internal_endpoint_sum // 2

    return GroupStats(
        members=member_tuple,
        n=graph.number_of_nodes(),
        m=graph.number_of_edges(),
        n_C=n_C,
        m_C=m_C,
        c_C=boundary,
        directed=graph.is_directed,
        member_degrees=degrees,
        member_internal_degrees=internal,
        member_in_degrees=in_degrees,
        member_out_degrees=out_degrees,
        graph_median_degree=graph_median_degree,
        member_internal_neighbors=(
            tuple(internal_rows) if include_internal_adjacency else None
        ),
    )
