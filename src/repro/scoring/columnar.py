"""Struct-of-arrays scoring: one column per statistic, no per-group objects.

:class:`~repro.scoring.base.GroupStats` is a fine value object for one
group, but scoring tens of thousands of groups through it costs one
Python object, one frozen-dataclass ``__dict__`` and one interpreter
``__call__`` per (group, function) pair — at the paper's Google+ scale
(~25k circles per store) that scalar stage dominates warm scoring runs.
:class:`GroupStatsBatch` keeps the *same* statistics as parallel int64
columns (``n_C``, ``m_C``, ``c_C``) plus flat per-member arrays sliced
by ``group_offsets``; every scoring function then evaluates all groups
in a handful of numpy kernel calls via its ``score_batch`` method.

The contract is **bitwise identity**: for every registry function,
``score_batch(batch)`` must equal the scalar ``__call__`` oracle applied
row by row, byte for byte (``tests/scoring/test_columnar_identity.py``
enforces this with hypothesis).  The kernels therefore mirror the scalar
arithmetic operation for operation — int64 counts divide as float64
exactly like Python ints, conditionals become ``np.where`` over the same
predicates, and order-sensitive float reductions (Average-ODF's mean)
run per group slice rather than through ``reduceat``.

:func:`score_matrix` is the one shared scoring stage: the parallel
executor's workers, the service micro-batcher and the serial
``score_groups`` path all route through it, so the three call sites
cannot drift (REP607 lints against reintroducing per-group loops).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.obs import instruments
from repro.scoring.base import GroupStats, ScoringFunction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.engine.context import AnalysisContext

Node = Hashable

__all__ = [
    "GroupStatsBatch",
    "scalar_score_column",
    "score_function_column",
    "score_matrix",
    "score_stats_columns",
]


@dataclass(frozen=True)
class GroupStatsBatch:
    """Statistics of many vertex groups, one array per field.

    The batch analogue of :class:`~repro.scoring.base.GroupStats`:
    graph-level scalars are stored once, per-group counts are int64
    columns aligned with the batch order, and per-member breakdowns are
    flat arrays segmented by :attr:`group_offsets` (group ``i`` owns
    ``[group_offsets[i], group_offsets[i + 1])``).  Produced by
    :func:`repro.engine.batch_group_stats_columns` without materializing
    any per-group object; :meth:`row` reconstructs a single
    :class:`GroupStats` lazily where object-at-a-time code still needs
    one.
    """

    #: number of vertices / edges of the whole graph
    n: int
    m: int
    directed: bool
    #: median total degree of the whole graph, if precomputed (for FOMD)
    graph_median_degree: float | None
    #: deduplicated member labels of each group (batch order)
    members: tuple[tuple[Node, ...], ...] = field(repr=False)
    #: per-group columns (int64, aligned with the batch order)
    n_C: np.ndarray = field(repr=False)
    m_C: np.ndarray = field(repr=False)
    c_C: np.ndarray = field(repr=False)
    #: flat-member segment boundaries, length ``len(batch) + 1``
    group_offsets: np.ndarray = field(repr=False)
    #: flat per-member arrays (int64), segmented by ``group_offsets``
    member_degrees: np.ndarray = field(repr=False)
    member_internal_degrees: np.ndarray = field(repr=False)
    member_in_degrees: np.ndarray = field(repr=False)
    member_out_degrees: np.ndarray = field(repr=False)
    #: per-member internal-neighbour position rows (flat; TPR only)
    member_internal_neighbors: tuple[np.ndarray, ...] | None = field(
        default=None, repr=False
    )

    def __len__(self) -> int:
        return len(self.n_C)

    @classmethod
    def empty(
        cls,
        *,
        n: int,
        m: int,
        directed: bool,
        graph_median_degree: float | None = None,
        with_neighbors: bool = False,
    ) -> "GroupStatsBatch":
        """Build the zero-group batch for a graph (empty columns)."""
        zero = np.zeros(0, dtype=np.int64)
        return cls(
            n=n,
            m=m,
            directed=directed,
            graph_median_degree=graph_median_degree,
            members=(),
            n_C=zero,
            m_C=zero,
            c_C=zero,
            group_offsets=np.zeros(1, dtype=np.int64),
            member_degrees=zero,
            member_internal_degrees=zero,
            member_in_degrees=zero,
            member_out_degrees=zero,
            member_internal_neighbors=(() if with_neighbors else None),
        )

    @property
    def member_boundary_degrees(self) -> np.ndarray:
        """Flat per-member count of edge endpoints leaving the group."""
        return self.member_degrees - self.member_internal_degrees

    @property
    def possible_internal_edges(self) -> np.ndarray:
        """Per-group maximum possible ``m_C`` (orientation-aware)."""
        pairs = self.n_C * (self.n_C - 1)
        return pairs if self.directed else pairs // 2

    def group_sum(self, per_member: np.ndarray) -> np.ndarray:
        """Reduce a flat per-member array to per-group totals.

        Segments are contiguous and never empty (an empty group raises
        before any batch is built), so ``reduceat`` is safe; on int64
        input the sums are exact and order-independent.
        """
        if len(self.n_C) == 0:
            return np.zeros(0, dtype=per_member.dtype)
        return np.add.reduceat(per_member, self.group_offsets[:-1])

    def group_max(self, per_member: np.ndarray) -> np.ndarray:
        """Reduce a flat per-member array to per-group maxima."""
        if len(self.n_C) == 0:
            return np.zeros(0, dtype=per_member.dtype)
        return np.maximum.reduceat(per_member, self.group_offsets[:-1])

    def row(self, i: int) -> GroupStats:
        """Reconstruct group ``i`` as a lazy :class:`GroupStats` view.

        The per-member arrays are slices of the batch's flat arrays (no
        copy); the result is bit-identical to what
        :func:`repro.scoring.base.compute_group_stats` returns for the
        same members.
        """
        lo = int(self.group_offsets[i])
        hi = int(self.group_offsets[i + 1])
        neighbors: tuple[np.ndarray, ...] | None = None
        if self.member_internal_neighbors is not None:
            neighbors = tuple(self.member_internal_neighbors[lo:hi])
        stats = GroupStats.__new__(GroupStats)
        stats.__dict__.update(
            members=self.members[i],
            n=self.n,
            m=self.m,
            n_C=hi - lo,
            m_C=int(self.m_C[i]),
            c_C=int(self.c_C[i]),
            directed=self.directed,
            member_degrees=self.member_degrees[lo:hi],
            member_internal_degrees=self.member_internal_degrees[lo:hi],
            member_in_degrees=self.member_in_degrees[lo:hi],
            member_out_degrees=self.member_out_degrees[lo:hi],
            graph_median_degree=self.graph_median_degree,
            member_internal_neighbors=neighbors,
        )
        return stats

    def rows(self) -> Iterable[GroupStats]:
        """Yield every group as a lazy :class:`GroupStats` view."""
        for i in range(len(self.n_C)):
            yield self.row(i)


def scalar_score_column(
    function: ScoringFunction, batch: GroupStatsBatch
) -> np.ndarray:
    """Score a batch one group at a time through the scalar ``__call__``.

    The fallback for functions whose formula is inherently per-group
    (TPR's triangle sweep, sampled Modularity's null-ensemble probe) or
    for third-party functions without a ``score_batch`` method.  Counted
    on ``scoring.scalar_calls``.
    """
    if obs.enabled():
        instruments.SCORING_SCALAR.inc(len(batch), label=function.name)
    return np.array(
        [float(function(batch.row(i))) for i in range(len(batch))],
        dtype=np.float64,
    )


def score_function_column(
    function: ScoringFunction, batch: GroupStatsBatch
) -> np.ndarray:
    """Score one function over a batch, vectorized when possible.

    Dispatches to the function's ``score_batch`` kernel (counted on
    ``scoring.vectorized_calls``) and falls back to
    :func:`scalar_score_column` for functions that define none.
    """
    score_batch = getattr(function, "score_batch", None)
    if score_batch is None:
        return scalar_score_column(function, batch)
    if obs.enabled():
        instruments.SCORING_VECTORIZED.inc(label=function.name)
    return np.asarray(score_batch(batch), dtype=np.float64)


def score_matrix(
    functions: Sequence[ScoringFunction], batch: GroupStatsBatch
) -> np.ndarray:
    """Score a batch under many functions into one ``(G, F)`` matrix.

    Column ``j`` holds ``functions[j]``'s scores in batch order, bitwise
    identical to the scalar ``__call__`` oracle.  This is the single
    scoring stage shared by the serial ``score_groups`` path, the
    parallel executor's workers and the service micro-batcher.
    """
    if obs.enabled():
        instruments.SCORING_BATCH_GROUPS.observe(len(batch))
    matrix = np.empty((len(batch), len(functions)), dtype=np.float64)
    for j, function in enumerate(functions):
        matrix[:, j] = score_function_column(function, batch)
    return matrix


def score_stats_columns(
    context: "AnalysisContext",
    groups: Sequence[Iterable[Node]],
    functions: Sequence[ScoringFunction],
    *,
    graph_median_degree: float | None = None,
    include_internal_adjacency: bool = False,
) -> tuple[list[int], np.ndarray]:
    """Compute stats columns and score them in one pass.

    Returns per-group deduplicated sizes and the ``(G, F)`` score
    matrix.  The one shared helper behind every batch scoring entry
    point — worker shards and the serial paths produce their packed
    column shards here, which is what keeps ``--jobs`` byte-identical.
    """
    from repro.engine.batch import batch_group_stats_columns

    batch = batch_group_stats_columns(
        context,
        groups,
        graph_median_degree=graph_median_degree,
        include_internal_adjacency=include_internal_adjacency,
    )
    return batch.n_C.tolist(), score_matrix(functions, batch)
