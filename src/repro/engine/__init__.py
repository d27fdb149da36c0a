"""Analysis engine: one frozen substrate for scoring, sampling, experiments.

The engine layer sits between the mutable dict-adjacency substrate
(:mod:`repro.graph`) and the batch consumers (:mod:`repro.scoring`,
:mod:`repro.analysis`, the CLI).  Its contract is **freeze once**: an
:class:`AnalysisContext` snapshots a graph into CSR form plus cached
degree arrays, edge count and median degree, and every downstream pass —
:func:`batch_group_stats_columns`, the CSR-native samplers, the
Fig. 5/6/§IV-B experiment drivers — reads that one snapshot instead of
re-deriving its own view per group.

The per-group dict path (:func:`repro.scoring.base.compute_group_stats`)
remains the correctness oracle; the columnar engine pass is the only
production path.
"""

from repro.engine.batch import batch_group_stats_columns
from repro.engine.cache import ResultCache, function_tokens, query_key
from repro.engine.context import AnalysisContext, CSRBuffers
from repro.engine.delta import ContextDelta, rescore_groups_columns
from repro.engine.parallel import ParallelExecutor, resolve_jobs
from repro.engine.samplers import (
    ENGINE_SAMPLERS,
    bfs_ball_set,
    random_walk_set,
    sample_matched_sets,
    uniform_vertex_set,
)

__all__ = [
    "AnalysisContext",
    "CSRBuffers",
    "ContextDelta",
    "rescore_groups_columns",
    "ParallelExecutor",
    "ResultCache",
    "function_tokens",
    "query_key",
    "batch_group_stats_columns",
    "random_walk_set",
    "bfs_ball_set",
    "uniform_vertex_set",
    "ENGINE_SAMPLERS",
    "sample_matched_sets",
    "resolve_jobs",
]
