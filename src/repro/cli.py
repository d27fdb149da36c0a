"""Command-line interface: ``repro <command>``.

Each subcommand regenerates one of the paper's artifacts on the synthetic
corpora (see DESIGN.md for the experiment index):

=================  ========================================================
``characterize``   Table II/III characterization of one or all corpora
``overlap``        Fig. 1–2 ego-network overlap analysis
``degree-fit``     Fig. 3 degree-distribution model selection
``score``          Fig. 5 circles-vs-random experiment
``compare``        Fig. 6 cross-dataset comparison
``robustness``     section IV-B directed-vs-undirected deviation
``classify``       Fang-et-al. community/celebrity circle categorization
``ego-view``       §VI future work: local (ego) vs global circle scores
``detect``         detected-vs-declared: do algorithms recover the groups?
``freeze``         stream a dataset into an on-disk CSR store (out-of-core)
``delta``          incremental re-freeze + dirty-group rescore of a store
``serve``          async HTTP score service over frozen stores (SERVICE.md)
``lint``           repo-specific AST lint pass (repro.devtools.lint)
``check``          seed-determinism check of the stochastic pipelines
``trace``          run any other subcommand under the tracer (repro.obs)
=================  ========================================================

Every dataset-taking subcommand accepts the dataset either positionally
(``repro score google_plus``) or as a flag (``repro score --dataset
gplus-synth``); common aliases such as ``gplus-synth`` resolve to the
synthetic builder names.  Passing ``--trace-out PATH`` to any subcommand
records a JSONL trace plus a ``.manifest.json`` sidecar; ``repro trace
<cmd> ...`` does the same with a human-readable ``--format text`` option
(see docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from repro import obs
from repro.analysis.characterization import characterize, table2_comparison
from repro.analysis.comparison import compare_datasets
from repro.analysis.experiment import circles_vs_random
from repro.analysis.overlap import analyze_overlap
from repro.analysis.report import render_cdf_panel, render_kv, render_table
from repro.analysis.robustness import directed_vs_undirected
from repro.data.datasets import Dataset
from repro.data.groups import load_groups, save_groups
from repro.engine import AnalysisContext
from repro.exceptions import GraphError
from repro.obs import write_manifests
from repro.synth.paper_datasets import (
    build_google_plus,
    build_livejournal,
    build_magno_reference,
    build_orkut,
    build_twitter,
)

__all__ = ["main"]

_BUILDERS = {
    "google_plus": build_google_plus,
    "twitter": build_twitter,
    "livejournal": build_livejournal,
    "orkut": build_orkut,
    "magno": build_magno_reference,
}

#: Accepted spellings for the synthetic corpora (paper-ish names included).
_ALIASES = {
    "gplus": "google_plus",
    "gplus-synth": "google_plus",
    "google-plus": "google_plus",
    "twitter-synth": "twitter",
    "lj": "livejournal",
    "lj-synth": "livejournal",
    "livejournal-synth": "livejournal",
    "orkut-synth": "orkut",
    "magno-synth": "magno",
}


def _build(name: str, seed: int | None) -> Dataset:
    name = _ALIASES.get(name, name)
    try:
        builder = _BUILDERS[name]
    except KeyError:
        known = ", ".join(sorted([*_BUILDERS, *_ALIASES]))
        raise SystemExit(f"unknown dataset {name!r}; known: {known}") from None
    return builder(seed=seed) if seed is not None else builder()


def _dataset_name(args: argparse.Namespace) -> str:
    """Resolve the dataset from flag form (``--dataset``) or positional."""
    return args.dataset_flag or args.dataset


def _cmd_characterize(args: argparse.Namespace) -> int:
    chosen = _dataset_name(args)
    names = list(_BUILDERS) if chosen == "all" else [chosen]
    rows = []
    for name in names:
        dataset = _build(name, args.seed)
        rows.append(characterize(dataset, seed=0).as_row())
    print(render_table(rows, title="Dataset characterization (Table II/III)"))
    if chosen == "all":
        ego = characterize(_build("google_plus", args.seed), seed=0)
        bfs = characterize(_build("magno", args.seed), seed=0)
        contrast = table2_comparison(ego, bfs)["contrast"]
        print()
        print(render_kv(contrast, title="Crawl-method contrast (Table II)"))
    return 0


def _cmd_overlap(args: argparse.Namespace) -> int:
    dataset = _build(_dataset_name(args), args.seed)
    if dataset.ego_collection is None:
        raise SystemExit(f"dataset {dataset.name!r} has no ego collection")
    report = analyze_overlap(dataset.ego_collection)
    print(render_kv(report.summary(), title="Ego-network overlap (Fig. 1)"))
    print()
    print(
        render_table(
            report.as_rows(), title="Membership multiplicity histogram (Fig. 2)"
        )
    )
    return 0


def _cmd_degree_fit(args: argparse.Namespace) -> int:
    from repro.algorithms.degrees import degree_sequence, in_degree_sequence
    from repro.powerlaw.comparison import best_fit

    dataset = _build(_dataset_name(args), args.seed)
    if dataset.directed:
        sequence = in_degree_sequence(dataset.graph)
        kind = "in-degree"
    else:
        sequence = degree_sequence(dataset.graph)
        kind = "degree"
    selection = best_fit(sequence[sequence >= 1])
    summary = selection.summary()
    comparisons = summary.pop("comparisons")
    print(render_kv(summary, title=f"{kind} model selection (Fig. 3)"))
    print()
    print(render_table(comparisons, title="Likelihood-ratio tests"))
    return 0


def _cache_arg(args: argparse.Namespace) -> "str | bool | None":
    """Resolve the --cache-dir/--no-cache pair to a driver cache argument.

    ``False`` disables caching outright; ``None`` defers to the
    ``REPRO_CACHE_DIR`` environment flag.
    """
    if getattr(args, "no_cache", False):
        return False
    return getattr(args, "cache_dir", None)


def _mmap_dir(args: argparse.Namespace) -> str | None:
    """Resolve ``--mmap-dir``, falling back to ``REPRO_MMAP_DIR``."""
    explicit = getattr(args, "mmap_dir", None)
    if explicit:
        return explicit
    return os.environ.get("REPRO_MMAP_DIR", "").strip() or None


def _open_store(directory: str) -> "tuple[AnalysisContext, object]":
    """Attach an on-disk CSR store plus its ``groups.json`` sidecar."""
    try:
        context = AnalysisContext.open(directory)
    except GraphError as exc:
        raise SystemExit(str(exc)) from None
    groups_path = Path(directory) / "groups.json"
    if not groups_path.exists():
        raise SystemExit(
            f"{directory} has no groups.json sidecar; re-run 'repro freeze'"
        )
    return context, load_groups(groups_path)


def _cmd_score(args: argparse.Namespace) -> int:
    mmap_dir = _mmap_dir(args)
    if mmap_dir is not None:
        return _score_store(args, mmap_dir)
    dataset = _build(_dataset_name(args), args.seed)
    context = AnalysisContext(dataset.graph)
    result = circles_vs_random(
        dataset,
        sampler=args.sampler,
        seed=args.seed or 0,
        context=context,
        jobs=args.jobs,
        cache=_cache_arg(args),
    )
    for name in result.function_names():
        circles, randoms = result.cdf_pair(name)
        print(
            render_cdf_panel(
                {"circles": circles, "random": randoms},
                title=f"Fig. 5 — {name}",
            )
        )
        print()
    rows = [
        {"function": name, **values}
        for name, values in result.separation_summary().items()
    ]
    print(render_table(rows, title="Separation summary"))
    return 0


def _score_store(args: argparse.Namespace, mmap_dir: str) -> int:
    """Score a frozen on-disk store's groups without rebuilding anything.

    The out-of-core path of ``repro score``: the CSR arrays stay
    memmapped (O(1) resident set for the substrate), the stored groups
    are scored through the normal batch/parallel/cache machinery, and
    the output is byte-identical to scoring the same graph in RAM.
    """
    from repro.scoring.registry import score_groups

    context, groups = _open_store(mmap_dir)
    table = score_groups(
        context, groups, jobs=args.jobs, cache=_cache_arg(args)
    )
    print(
        render_kv(
            {
                "store": mmap_dir,
                "dataset": context.display_name or "graph",
                "vertices": context.num_vertices,
                "edges": context.num_edges,
                "groups scored": len(table),
            },
            title="Out-of-core scoring",
        )
    )
    print()
    rows = [
        {"function": name, **values}
        for name, values in table.summary().items()
    ]
    print(render_table(rows, title="Score summary (stored groups)"))
    return 0


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(f"{name} must be an integer, got {raw!r}") from None


def _env_float(name: str, fallback: float) -> float:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return fallback
    try:
        return float(raw)
    except ValueError:
        raise SystemExit(f"{name} must be a number, got {raw!r}") from None


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve score queries over a directory of frozen CSR stores.

    Flags default to the ``REPRO_SERVE_*`` environment variables (see
    README), which default in turn to the documented constants, so a
    supervisor can configure a fleet without rewriting unit files.  The
    server drains gracefully on SIGINT/SIGTERM: queued micro-batches
    still get responses before executors and stores are released.
    """
    import asyncio
    import signal

    from repro.service import CircleService, ServiceConfig

    config = ServiceConfig(
        root=args.root,
        host=args.host
        or os.environ.get("REPRO_SERVE_HOST", "").strip()
        or "127.0.0.1",
        port=args.port
        if args.port is not None
        else _env_int("REPRO_SERVE_PORT", 8734),
        jobs=args.jobs,
        cache=_cache_arg(args),
        max_resident=args.max_resident
        if args.max_resident is not None
        else _env_int("REPRO_SERVE_MAX_RESIDENT", 4),
        batch_window=args.batch_window
        if args.batch_window is not None
        else _env_float("REPRO_SERVE_WINDOW", 0.005),
        max_batch=args.max_batch
        if args.max_batch is not None
        else _env_int("REPRO_SERVE_MAX_BATCH", 64),
    )
    service = CircleService(config)

    async def run() -> None:
        await service.start()
        assert service.address is not None
        host, port = service.address
        datasets = service.registry.available()
        print(
            f"serving {len(datasets)} dataset(s) from {config.root} "
            f"on http://{host}:{port}"
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX loop
                pass
        await stop.wait()
        print("draining in-flight batches ...")
        await service.shutdown()

    asyncio.run(run())
    return 0


def _cmd_freeze(args: argparse.Namespace) -> int:
    """Stream-freeze a dataset (or a --scale benchmark) to a CSR store."""
    from repro.synth.stream import (
        GraphEdgeStream,
        benchmark_stream,
        freeze_stream,
    )

    out = args.out
    if args.scale is not None:
        stream = benchmark_stream(args.scale, seed=args.seed or 0)
        groups = None
    else:
        dataset = _build(_dataset_name(args), args.seed)
        stream = GraphEdgeStream(dataset.graph)
        groups = dataset.groups
    freeze_stream(
        stream, out, chunk_edges=args.chunk_edges, overwrite=args.force
    )
    if groups is None:
        groups = stream.groups()
    save_groups(groups, Path(out) / "groups.json")
    context = AnalysisContext.open(out)
    print(
        f"froze {context.display_name or 'graph'}: "
        f"{context.num_vertices} vertices, {context.num_edges} edges, "
        f"{len(groups)} groups -> {out}"
    )
    return 0


def _sample_store_edges(
    context: AnalysisContext, count: int, seed: int
) -> list[tuple]:
    """Draw ``count`` distinct existing edges of a frozen context.

    Samples positions of the out (directed) or union (undirected) CSR
    index array uniformly and maps them back to label pairs — no edge
    list is ever materialized.
    """
    csr = context.csr_out if context.is_directed else context.csr
    total = csr.indices.shape[0]
    rng = np.random.default_rng(seed)
    nodes = context.nodes
    chosen: dict[tuple[int, int], None] = {}
    attempts = 0
    while len(chosen) < count and attempts < 100 * max(count, 1):
        attempts += 1
        position = int(rng.integers(0, total))
        src = int(np.searchsorted(csr.indptr, position, side="right")) - 1
        dst = int(csr.indices[position])
        if not context.is_directed and src > dst:
            src, dst = dst, src
        if src != dst:
            chosen.setdefault((src, dst), None)
    return [(nodes[u], nodes[v]) for u, v in chosen]


def _cmd_delta(args: argparse.Namespace) -> int:
    """Apply a random edge-removal delta and rescore only dirty groups."""
    from repro.engine import batch_group_stats_columns
    from repro.engine.delta import ContextDelta, rescore_groups_columns

    mmap_dir = _mmap_dir(args)
    if mmap_dir is None:
        raise SystemExit("delta: --mmap-dir (or REPRO_MMAP_DIR) is required")
    context, groups = _open_store(mmap_dir)
    removals = _sample_store_edges(context, args.drop_edges, args.seed or 0)
    delta = ContextDelta(remove_edges=tuple(removals))
    member_lists = [list(group.members) for group in groups]
    baseline = batch_group_stats_columns(context, member_lists)
    baseline_names = [group.name for group in groups]
    patched = delta.apply(context)
    dirty = delta.dirty_names(groups)
    rescore_groups_columns(patched, groups, baseline, baseline_names, dirty)
    print(
        render_kv(
            {
                "store": mmap_dir,
                "edges removed": len(removals),
                "edges before/after": f"{context.num_edges}/{patched.num_edges}",
                "groups total": len(groups),
                "groups dirty (rescored)": len(dirty),
                "groups patched (no kernel)": len(groups) - len(dirty),
            },
            title="Incremental re-freeze",
        )
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    datasets = [
        _build(name, args.seed)
        for name in ("google_plus", "twitter", "livejournal", "orkut")
    ]
    contexts = {
        dataset.name: AnalysisContext(dataset.graph) for dataset in datasets
    }
    result = compare_datasets(
        datasets, contexts=contexts, jobs=args.jobs, cache=_cache_arg(args)
    )
    for name in result.function_names():
        print(render_cdf_panel(result.cdfs(name), title=f"Fig. 6 — {name}"))
        print()
    rows = [
        {"dataset": name, **values}
        for name, values in result.signature_summary().items()
    ]
    print(render_table(rows, title="Structural signatures"))
    return 0


def _cmd_robustness(args: argparse.Namespace) -> int:
    dataset = _build(_dataset_name(args), args.seed)
    result = directed_vs_undirected(
        dataset,
        context=AnalysisContext(dataset.graph),
        jobs=args.jobs,
        cache=_cache_arg(args),
    )
    print(
        render_kv(
            result.summary(),
            title="Directed vs undirected relative deviation (section IV-B)",
        )
    )
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    from repro.analysis.circle_types import classify_circles

    dataset = _build(_dataset_name(args), args.seed)
    if dataset.structure != "circles":
        raise SystemExit(f"dataset {dataset.name!r} has no circles to classify")
    classification = classify_circles(
        dataset.graph, dataset.groups, method=args.method, seed=0
    )
    print(
        render_kv(
            classification.summary(),
            title="Circle categorization (Fang et al.)",
        )
    )
    print()
    celebrity = classification.of_kind("celebrity")
    rows = [
        features.as_row()
        for features in classification.features
        if features.name in set(celebrity)
    ]
    print(render_table(rows, title="Celebrity circles"))
    return 0


def _cmd_ego_view(args: argparse.Namespace) -> int:
    from repro.analysis.ego_view import ego_centered_scores

    dataset = _build(_dataset_name(args), args.seed)
    if dataset.ego_collection is None:
        raise SystemExit(f"dataset {dataset.name!r} has no ego collection")
    result = ego_centered_scores(
        dataset.ego_collection, joined=dataset.graph
    )
    rows = [
        {"function": name, **values}
        for name, values in result.summary().items()
    ]
    print(render_table(rows, title="Ego-local vs global circle scores (§VI)"))
    print()
    print(render_kv(result.confinement_gain(), title="Confinement gain"))
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    from repro.detection import (
        louvain_communities,
        mean_best_jaccard,
        partition_modularity,
    )

    dataset = _build(_dataset_name(args), args.seed)
    partition = louvain_communities(dataset.graph, seed=0)
    quality = partition_modularity(dataset.graph, partition)
    recovery = mean_best_jaccard(
        dataset.groups.filter_by_size(minimum=2), partition
    )
    print(
        render_kv(
            {
                "detected blocks": len(partition),
                "partition modularity": round(quality, 4),
                "mean best-match Jaccard vs declared groups": round(recovery, 4),
            },
            title=f"Louvain on {dataset.name} (detected vs declared)",
        )
    )
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.analysis.export import export_figures

    circles = _build("google_plus", args.seed)
    communities = [
        _build(name, args.seed)
        for name in ("twitter", "livejournal", "orkut")
    ]
    written = export_figures(circles, communities, args.output, seed=0)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.devtools.lint import main as lint_main

    forwarded = list(args.paths)
    if args.list_rules:
        forwarded.append("--list-rules")
    if args.explain:
        forwarded += ["--explain", args.explain]
    if args.format != "text":
        forwarded += ["--format", args.format]
    if args.output:
        forwarded += ["--output", args.output]
    if args.jobs != 1:
        forwarded += ["--jobs", str(args.jobs)]
    if args.baseline:
        forwarded += ["--baseline", args.baseline]
    if args.write_baseline:
        forwarded.append("--write-baseline")
    if args.check_baseline:
        forwarded.append("--check-baseline")
    return lint_main(forwarded)


def _write_trace(
    tracer: "obs.Tracer", trace_out: str, trace_format: str = "jsonl"
) -> None:
    """Write a finished tracer as JSONL plus a ``.manifest.json`` sidecar.

    With ``trace_format == "text"`` the human-readable span tree is also
    printed (to stderr, so the traced command's stdout stays byte-
    identical to an untraced run).
    """
    path = Path(trace_out)
    tracer.write_jsonl(path)
    manifest_path = path.with_suffix(".manifest.json")
    write_manifests(tracer.manifests, manifest_path)
    if trace_format == "text":
        print(tracer.render_text(), file=sys.stderr)
    print(
        f"trace written to {path} (manifests: {manifest_path})",
        file=sys.stderr,
    )


def _cmd_trace(args: argparse.Namespace) -> int:
    rest = list(args.rest)
    if rest and rest[0] == "--":
        rest = rest[1:]
    if not rest:
        raise SystemExit("trace: missing command to run (repro trace <cmd> ...)")
    if rest[0] == "trace":
        raise SystemExit("trace: cannot nest 'repro trace trace'")
    inner = build_parser().parse_args(rest)
    tracer = obs.enable(name=" ".join(rest), memory=args.memory)
    try:
        code = inner.handler(inner)
    finally:
        obs.disable()
    # The inner command's own --trace-out names the file when given.
    trace_out = getattr(inner, "trace_out", None) or args.trace_out
    _write_trace(tracer, trace_out, args.trace_format)
    return code


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.devtools.determinism import main as determinism_main

    forwarded = list(args.pipelines)
    forwarded += ["--seed", str(args.seed if args.seed is not None else 0)]
    if args.fast:
        forwarded.append("--fast")
    if args.list:
        forwarded.append("--list")
    return determinism_main(forwarded)


def _add_dataset_argument(
    parser: argparse.ArgumentParser, *, default: str = "google_plus"
) -> None:
    """Add the dataset selector in both positional and flag form.

    ``repro score google_plus`` and ``repro score --dataset gplus-synth``
    are equivalent; the flag wins when both are given (see
    :func:`_dataset_name`).
    """
    parser.add_argument(
        "dataset",
        nargs="?",
        default=default,
        help=f"dataset name (default: {default})",
    )
    parser.add_argument(
        "--dataset",
        dest="dataset_flag",
        default=None,
        metavar="NAME",
        help="dataset name in flag form (aliases like 'gplus-synth' accepted)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Are Circles Communities?' (ICDCS 2014)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="generation seed (default: per-dataset)"
    )
    # Shared by every subcommand: record a JSONL trace of the run.
    trace_parent = argparse.ArgumentParser(add_help=False)
    trace_parent.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="record a JSONL trace (+ .manifest.json sidecar) of this run",
    )
    # Shared by the scoring-heavy subcommands: worker count and result
    # cache (defaults defer to REPRO_JOBS / REPRO_CACHE_DIR).
    perf_parent = argparse.ArgumentParser(add_help=False)
    perf_parent.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for scoring/sampling "
        "(default: $REPRO_JOBS or 1; output is byte-identical to serial)",
    )
    perf_parent.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help="on-disk result cache directory (default: $REPRO_CACHE_DIR; "
        "unset disables caching)",
    )
    perf_parent.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the result cache even if REPRO_CACHE_DIR is set",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    characterize_parser = commands.add_parser(
        "characterize",
        help="Table II/III dataset characterization",
        parents=[trace_parent],
    )
    _add_dataset_argument(characterize_parser, default="all")
    characterize_parser.set_defaults(handler=_cmd_characterize)

    overlap_parser = commands.add_parser(
        "overlap", help="Fig. 1-2 ego overlap analysis", parents=[trace_parent]
    )
    _add_dataset_argument(overlap_parser)
    overlap_parser.set_defaults(handler=_cmd_overlap)

    fit_parser = commands.add_parser(
        "degree-fit",
        help="Fig. 3 degree-distribution model selection",
        parents=[trace_parent],
    )
    _add_dataset_argument(fit_parser)
    fit_parser.set_defaults(handler=_cmd_degree_fit)

    score_parser = commands.add_parser(
        "score",
        help="Fig. 5 circles vs random sets",
        parents=[trace_parent, perf_parent],
    )
    _add_dataset_argument(score_parser)
    score_parser.add_argument(
        "--sampler",
        default="random_walk",
        choices=["random_walk", "uniform", "bfs_ball", "forest_fire"],
    )
    score_parser.add_argument(
        "--mmap-dir",
        metavar="DIR",
        default=None,
        help="score the groups of an on-disk CSR store (memmap-attached; "
        "default: $REPRO_MMAP_DIR) instead of building a dataset",
    )
    score_parser.set_defaults(handler=_cmd_score)

    freeze_parser = commands.add_parser(
        "freeze",
        help="stream a dataset into an on-disk CSR store (docs/SCALING.md)",
        parents=[trace_parent],
    )
    _add_dataset_argument(freeze_parser)
    freeze_parser.add_argument(
        "-o", "--out", required=True, metavar="DIR", help="store directory"
    )
    freeze_parser.add_argument(
        "--scale",
        type=int,
        default=None,
        metavar="EDGES",
        help="freeze a planted-partition benchmark stream of this many "
        "edge draws instead of a named dataset",
    )
    freeze_parser.add_argument(
        "--chunk-edges",
        type=int,
        default=1 << 22,
        metavar="N",
        help="edges per streamed chunk (bounds the freeze's peak RSS)",
    )
    freeze_parser.add_argument(
        "--force", action="store_true", help="overwrite an existing store"
    )
    freeze_parser.set_defaults(handler=_cmd_freeze)

    delta_parser = commands.add_parser(
        "delta",
        help="incremental re-freeze: drop random edges, rescore dirty groups",
        parents=[trace_parent],
    )
    delta_parser.add_argument(
        "--mmap-dir",
        metavar="DIR",
        default=None,
        help="on-disk CSR store to patch (default: $REPRO_MMAP_DIR)",
    )
    delta_parser.add_argument(
        "--drop-edges",
        type=int,
        default=8,
        metavar="K",
        help="number of random existing edges to remove (default: 8)",
    )
    delta_parser.set_defaults(handler=_cmd_delta)

    serve_parser = commands.add_parser(
        "serve",
        help="async HTTP score service over frozen stores (docs/SERVICE.md)",
        parents=[perf_parent],
    )
    serve_parser.add_argument(
        "root",
        metavar="DIR",
        help="directory holding one repro-csr-dir store per dataset",
    )
    serve_parser.add_argument(
        "--host",
        default=None,
        help="bind address (default: $REPRO_SERVE_HOST or 127.0.0.1)",
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=None,
        help="bind port, 0 for ephemeral (default: $REPRO_SERVE_PORT or 8734)",
    )
    serve_parser.add_argument(
        "--max-resident",
        type=int,
        default=None,
        metavar="N",
        help="datasets kept warm before LRU eviction "
        "(default: $REPRO_SERVE_MAX_RESIDENT or 4)",
    )
    serve_parser.add_argument(
        "--batch-window",
        type=float,
        default=None,
        metavar="SECONDS",
        help="micro-batch coalescing window "
        "(default: $REPRO_SERVE_WINDOW or 0.005)",
    )
    serve_parser.add_argument(
        "--max-batch",
        type=int,
        default=None,
        metavar="N",
        help="groups per micro-batch before an early flush "
        "(default: $REPRO_SERVE_MAX_BATCH or 64)",
    )
    serve_parser.set_defaults(handler=_cmd_serve)

    compare_parser = commands.add_parser(
        "compare",
        help="Fig. 6 circles vs communities across datasets",
        parents=[trace_parent, perf_parent],
    )
    compare_parser.set_defaults(handler=_cmd_compare)

    robustness_parser = commands.add_parser(
        "robustness",
        help="section IV-B directed vs undirected check",
        parents=[trace_parent, perf_parent],
    )
    _add_dataset_argument(robustness_parser)
    robustness_parser.set_defaults(handler=_cmd_robustness)

    classify_parser = commands.add_parser(
        "classify",
        help="Fang et al. community/celebrity circle categorization",
        parents=[trace_parent],
    )
    _add_dataset_argument(classify_parser)
    classify_parser.add_argument(
        "--method", default="kmeans", choices=["kmeans", "threshold"]
    )
    classify_parser.set_defaults(handler=_cmd_classify)

    ego_view_parser = commands.add_parser(
        "ego-view",
        help="section VI: ego-local vs global circle scores",
        parents=[trace_parent],
    )
    _add_dataset_argument(ego_view_parser)
    ego_view_parser.set_defaults(handler=_cmd_ego_view)

    detect_parser = commands.add_parser(
        "detect",
        help="Louvain detection vs declared groups",
        parents=[trace_parent],
    )
    _add_dataset_argument(detect_parser)
    detect_parser.set_defaults(handler=_cmd_detect)

    export_parser = commands.add_parser(
        "export",
        help="write the data series of Figs. 2-6 as CSV files",
        parents=[trace_parent],
    )
    export_parser.add_argument(
        "-o", "--output", default="figures", help="output directory"
    )
    export_parser.set_defaults(handler=_cmd_export)

    trace_parser = commands.add_parser(
        "trace", help="run another subcommand under the tracer (repro.obs)"
    )
    trace_parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default="trace.jsonl",
        help="trace output path (default: trace.jsonl)",
    )
    trace_parser.add_argument(
        "--format",
        dest="trace_format",
        choices=("jsonl", "text"),
        default="jsonl",
        help="also print a human-readable span tree with 'text'",
    )
    trace_parser.add_argument(
        "--memory",
        action="store_true",
        help="record tracemalloc peak deltas per span (adds overhead)",
    )
    trace_parser.add_argument(
        "rest",
        nargs=argparse.REMAINDER,
        help="the repro subcommand to run, with its arguments",
    )
    trace_parser.set_defaults(handler=_cmd_trace)

    lint_parser = commands.add_parser(
        "lint", help="repo-specific AST lint pass (rules REP001-REP607)"
    )
    lint_parser.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories"
    )
    lint_parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    lint_parser.add_argument(
        "--explain",
        metavar="REPxxx",
        help="print one rule's rationale with a bad/good example "
        "('all' prints the whole catalogue)",
    )
    lint_parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    lint_parser.add_argument(
        "--output", metavar="FILE", help="write the report to FILE"
    )
    lint_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="lint files in N worker processes",
    )
    lint_parser.add_argument(
        "--baseline", metavar="FILE", help="baseline file to apply"
    )
    lint_parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite the baseline from current findings (pruning stale entries)",
    )
    lint_parser.add_argument(
        "--check-baseline",
        action="store_true",
        help="fail if the baseline contains stale entries",
    )
    lint_parser.set_defaults(handler=_cmd_lint)

    check_parser = commands.add_parser(
        "check", help="seed-determinism check of the stochastic pipelines"
    )
    check_parser.add_argument(
        "pipelines", nargs="*", help="pipeline names (default: all)"
    )
    check_parser.add_argument(
        "--fast", action="store_true", help="only the fast gate pipelines"
    )
    check_parser.add_argument(
        "--list", action="store_true", help="list registered pipelines"
    )
    check_parser.set_defaults(handler=_cmd_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_out = getattr(args, "trace_out", None)
    if trace_out and args.handler is not _cmd_trace:
        tracer = obs.enable(name=args.command)
        try:
            code = args.handler(args)
        finally:
            obs.disable()
        _write_trace(tracer, trace_out)
        return code
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
