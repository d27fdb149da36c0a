#!/usr/bin/env python
"""Parallel-vs-serial Fig. 5 benchmark (the perf tentpole's receipt).

Runs the full Fig. 5 workload — score every circle of a synthetic
Google+ corpus, draw matched random-walk sets, score those — twice:

* **serial** — ``jobs=1``, the plain in-process path;
* **parallel** — ``--jobs N`` (default 4), sharded across a
  shared-memory worker pool over the same frozen
  :class:`repro.engine.AnalysisContext`.

Both runs must produce **byte-identical** score tables (every column
compared with ``ndarray.tobytes``), always — that assertion has no
escape hatch.  The timed quantity is the whole experiment pass, best of
``--repeat`` runs, *including* the parallel run's pool startup and CSR
export: a speedup that needs those costs hidden is not a real speedup.
The full run additionally asserts a >= 2x speedup, but only on machines
with at least :data:`MIN_CORES` CPU cores — a single-core container can
verify identity, not throughput.  Emits a JSON report::

    python benchmarks/bench_parallel_scoring.py           # full, prints JSON
    python benchmarks/bench_parallel_scoring.py --smoke   # small corpus,
                                                          # identity only
                                                          # (check.sh)

``--scale`` switches to the out-of-core perf trajectory instead: for
each requested edge count a planted-partition stream
(:func:`repro.synth.stream.benchmark_stream`) is frozen to an on-disk
CSR store and then scored through ``AnalysisContext.open`` — each stage
in its own subprocess so its **peak RSS** is measured in isolation
(``ru_maxrss``).  The report (``BENCH_scale.json`` in check.sh/CI)
records build/freeze/score wall times and peak RSS per scale;
``--rss-budget-mb`` / ``--time-budget`` turn the smoke into an asserted
gate::

    python benchmarks/bench_parallel_scoring.py \
        --scale 100000,1000000,10000000 -o BENCH_scale.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import time
from collections.abc import Sequence
from pathlib import Path

from repro.analysis.experiment import circles_vs_random
from repro.engine import AnalysisContext
from repro.synth.paper_datasets import GOOGLE_PLUS_CONFIG, build_google_plus

#: Required parallel speedup of the full benchmark (acceptance criterion).
MIN_SPEEDUP = 2.0

#: Cores below which the speedup assertion is vacuous and therefore skipped
#: (the identity assertion always runs).
MIN_CORES = 4

#: Experiment repetitions; the best run of each path is compared.
DEFAULT_REPEAT = 3

#: Sampler seed; pinned so serial and parallel replay the same draws.
SEED = 0


def _build_dataset(smoke: bool):
    if smoke:
        config = dataclasses.replace(GOOGLE_PLUS_CONFIG, num_egos=8)
    else:
        # ~350 circles on ~13k vertices: enough work per shard to
        # amortize process dispatch.
        config = dataclasses.replace(GOOGLE_PLUS_CONFIG, num_egos=100)
    return build_google_plus(config=config)


def _timed(run_once):
    start = time.perf_counter()
    result = run_once()
    return time.perf_counter() - start, result


def _write_fig5_csvs(result, directory):
    """Write Fig. 5 panel CSVs through the real export helpers, so the
    byte diff covers the exact files ``repro export`` would publish."""
    from repro.analysis.export import _cdf_series, _write_csv

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name in result.function_names():
        circles_cdf, random_cdf = result.cdf_pair(name)
        grid, series = _cdf_series(
            {"circles": circles_cdf, "random": random_cdf}
        )
        path = directory / f"fig5_{name}.csv"
        _write_csv(
            path,
            ["value", "circles_cdf", "random_cdf"],
            [
                [float(x), float(a), float(b)]
                for x, a, b in zip(grid, series["circles"], series["random"])
            ],
        )
        written.append(path)
    return written


def _tables_identical(left, right) -> bool:
    if (
        left.group_names != right.group_names
        or left.group_sizes != right.group_sizes
        or left.function_names() != right.function_names()
    ):
        return False
    return all(
        left.scores(name).tobytes() == right.scores(name).tobytes()
        for name in left.function_names()
    )


def run(
    smoke: bool = False,
    jobs: int = 4,
    repeat: int = DEFAULT_REPEAT,
    csv_dir: str | None = None,
) -> dict:
    """Run the Fig. 5 experiment serially and in parallel; return the report."""
    dataset = _build_dataset(smoke)
    context = AnalysisContext(dataset.graph)
    # Warm every lazy cache both paths read, so the comparison measures
    # scoring and sampling work, not one-time derivations.
    context.degree_array
    context.label_rank
    context.median_degree

    def experiment(n_jobs):
        return circles_vs_random(
            dataset, seed=SEED, context=context, jobs=n_jobs
        )

    serial_seconds = parallel_seconds = float("inf")
    for _ in range(repeat):
        seconds, serial = _timed(lambda: experiment(1))
        serial_seconds = min(serial_seconds, seconds)
        seconds, parallel = _timed(lambda: experiment(jobs))
        parallel_seconds = min(parallel_seconds, seconds)

    identical = _tables_identical(
        serial.circle_scores, parallel.circle_scores
    ) and _tables_identical(serial.random_scores, parallel.random_scores)
    csv_identical = None
    if csv_dir is not None:
        serial_files = _write_fig5_csvs(serial, Path(csv_dir) / "serial")
        parallel_files = _write_fig5_csvs(
            parallel, Path(csv_dir) / "parallel"
        )
        csv_identical = all(
            a.read_bytes() == b.read_bytes()
            for a, b in zip(serial_files, parallel_files)
        )
    speedup = (
        serial_seconds / parallel_seconds
        if parallel_seconds > 0
        else float("inf")
    )
    cores = os.cpu_count() or 1
    return {
        "mode": "smoke" if smoke else "full",
        "dataset": dataset.name,
        "n": dataset.graph.number_of_nodes(),
        "m": dataset.graph.number_of_edges(),
        "groups": len(serial.circle_scores.group_names),
        "jobs": jobs,
        "cores": cores,
        "repeat": repeat,
        "seed": SEED,
        "serial_seconds": round(serial_seconds, 4),
        "parallel_seconds": round(parallel_seconds, 4),
        "speedup": round(speedup, 2),
        "speedup_asserted": (not smoke) and cores >= MIN_CORES,
        "byte_identical": identical,
        "csv_identical": csv_identical,
    }


# -- out-of-core scale trajectory ---------------------------------------------

#: Per-stage child: runs one stage of one scale and reports wall time +
#: peak RSS as JSON on stdout.  A subprocess per stage keeps ru_maxrss
#: honest — the freeze's spill buffers never inflate the score stage's
#: reading, and vice versa.
_STAGE_SCRIPT = r"""
import json, resource, sys, time
from pathlib import Path

stage, store, edges, seed, jobs = (
    sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4]),
    int(sys.argv[5]),
)
chunk = 1 << 20
start = time.perf_counter()
if stage == "freeze":
    from repro.data.groups import save_groups
    from repro.synth.stream import benchmark_stream, freeze_stream

    stream = benchmark_stream(edges, seed=seed, chunk_edges=chunk)
    freeze_stream(stream, store, chunk_edges=chunk, overwrite=True)
    save_groups(stream.groups(), Path(store) / "groups.json")
    payload = {"groups": stream.num_communities}
else:
    from repro.data.groups import load_groups
    from repro.engine import AnalysisContext
    from repro.scoring.registry import score_groups

    context = AnalysisContext.open(store)
    groups = load_groups(Path(store) / "groups.json")
    table = score_groups(context, groups, jobs=jobs if jobs > 1 else None)
    payload = {
        "groups": len(table),
        "n": context.num_vertices,
        "m": context.num_edges,
    }
payload["seconds"] = round(time.perf_counter() - start, 4)
kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
payload["peak_rss_mb"] = round(kb / 1024.0, 1)
print(json.dumps(payload))
"""


def _run_stage(stage: str, store: str, edges: int, seed: int, jobs: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            _STAGE_SCRIPT,
            stage,
            store,
            str(edges),
            str(seed),
            str(jobs),
        ],
        capture_output=True,
        text=True,
        env=os.environ.copy(),
        check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"scale stage {stage!r} at {edges} edges failed:\n"
            f"{completed.stderr}"
        )
    return json.loads(completed.stdout.splitlines()[-1])


def run_scale(
    scales: Sequence[int],
    *,
    seed: int = SEED,
    jobs: int = 1,
    store_root: str | None = None,
) -> dict:
    """Freeze + score each scale out-of-core; return the trajectory report."""
    rows = []
    for edges in scales:
        with tempfile.TemporaryDirectory(
            prefix="bench-scale-", dir=store_root
        ) as tmp:
            store = str(Path(tmp) / f"store-{edges}")
            freeze = _run_stage("freeze", store, edges, seed, jobs)
            score = _run_stage("score", store, edges, seed, jobs)
            store_bytes = sum(
                path.stat().st_size for path in Path(store).iterdir()
            )
        rows.append(
            {
                "edges_requested": edges,
                "n": score["n"],
                "m": score["m"],
                "groups": score["groups"],
                "store_bytes": store_bytes,
                "freeze_seconds": freeze["seconds"],
                "freeze_peak_rss_mb": freeze["peak_rss_mb"],
                "score_seconds": score["seconds"],
                "score_peak_rss_mb": score["peak_rss_mb"],
            }
        )
    return {
        "mode": "scale",
        "seed": seed,
        "jobs": jobs,
        "cores": os.cpu_count() or 1,
        "scales": rows,
    }


def _check_scale_budgets(
    report: dict, rss_budget_mb: float | None, time_budget: float | None
) -> list[str]:
    """Budget violations of the trajectory (empty when within budget)."""
    failures = []
    for row in report["scales"]:
        edges = row["edges_requested"]
        if rss_budget_mb is not None:
            peak = max(row["freeze_peak_rss_mb"], row["score_peak_rss_mb"])
            if peak > rss_budget_mb:
                failures.append(
                    f"{edges} edges: peak RSS {peak} MB exceeds "
                    f"budget {rss_budget_mb} MB"
                )
        if time_budget is not None:
            total = row["freeze_seconds"] + row["score_seconds"]
            if total > time_budget:
                failures.append(
                    f"{edges} edges: freeze+score {total:.1f}s exceeds "
                    f"budget {time_budget:.1f}s"
                )
    return failures


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark parallel Fig. 5 scoring against the serial path"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small corpus, byte-identity checks only (no speedup assertion)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=4,
        help="worker count of the parallel pass (default 4)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=DEFAULT_REPEAT,
        help="experiment repetitions per path (best run wins)",
    )
    parser.add_argument(
        "--csv-dir",
        default=None,
        help="write Fig. 5 CSVs from both runs here and byte-diff them",
    )
    parser.add_argument(
        "-o", "--output", default=None, help="write the JSON report here"
    )
    parser.add_argument(
        "--scale",
        default=None,
        metavar="EDGES[,EDGES...]",
        help="out-of-core perf trajectory instead: freeze + score a "
        "planted-partition stream at each edge count (BENCH_scale.json)",
    )
    parser.add_argument(
        "--rss-budget-mb",
        type=float,
        default=None,
        help="fail if any --scale stage's peak RSS exceeds this (MB)",
    )
    parser.add_argument(
        "--time-budget",
        type=float,
        default=None,
        help="fail if any --scale point's freeze+score exceeds this (s)",
    )
    args = parser.parse_args(argv)

    if args.scale is not None:
        scales = [int(part) for part in args.scale.split(",") if part]
        report = run_scale(scales, jobs=args.jobs)
        serialized = json.dumps(report, indent=2, sort_keys=True)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(serialized + "\n")
        print(serialized)
        failures = _check_scale_budgets(
            report, args.rss_budget_mb, args.time_budget
        )
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if failures else 0

    report = run(
        smoke=args.smoke,
        jobs=args.jobs,
        repeat=args.repeat,
        csv_dir=args.csv_dir,
    )
    serialized = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(serialized + "\n")
    print(serialized)

    if not report["byte_identical"]:
        print(
            "FAIL: parallel output differs from the serial run",
            file=sys.stderr,
        )
        return 1
    if report["csv_identical"] is False:
        print(
            "FAIL: Fig. 5 CSVs from the parallel run differ byte-wise",
            file=sys.stderr,
        )
        return 1
    if report["speedup_asserted"] and report["speedup"] < MIN_SPEEDUP:
        print(
            f"FAIL: speedup {report['speedup']}x below {MIN_SPEEDUP}x "
            f"at --jobs {report['jobs']}",
            file=sys.stderr,
        )
        return 1
    if not report["speedup_asserted"] and not args.smoke:
        print(
            f"NOTE: speedup assertion skipped on {report['cores']} core(s); "
            f"byte-identity verified",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
