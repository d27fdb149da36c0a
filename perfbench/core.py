"""Shared benchmark machinery: metric catalogue, run isolation, children, stats, spans.

Everything here is standard library only, so importing it inside a
traced child costs nothing the ``cli.import`` span would miss.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
SRC = CHECKOUT / "src"
TMP_BASE = CHECKOUT / ".perfbench-tmp"
SHM = Path("/dev/shm")

WORKLOADS = ("serve-mix", "serve-store")

#: End-to-end metrics, printed by every untraced run: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "p50_ms": "ms",
    "compute_p50_ms": "ms",
    "p99_ms": "ms",
    "qps": "1/s",
    "slo_ok_share": "share",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Layer:
    """One per-layer metric: where it is measured and what it should move."""

    name: str
    unit: str
    measured_on: tuple[str, ...]
    around: str
    moves: str


_M, _T = ("serve-mix",), ("serve-store",)
_SETUP = "setup_s of both"
_BOTH = _M + _T

#: Per-layer metrics, printed by every traced run (0 where the workload
#: does not run the layer).  ``around`` names the calls the span wraps;
#: ``moves`` names the end-to-end metric and workloads a change to the
#: layer should move.
LAYERS = (
    Layer("cli.import_s", "s", _BOTH, "`import repro.cli` in a fresh interpreter", _SETUP),
    Layer("serve.ready_s", "s", _BOTH, "spawn of `repro serve` to its first 200 on `/v1/health`",
          _SETUP),
    Layer("synth.build_s", "s", _M, "`build_google_plus` + `build_twitter`",
          "serve-mix setup_s"),
    Layer("synth.edges_per_s", "1/s", _M, "edges of both graphs / `synth.build_s`",
          "serve-mix setup_s"),
    Layer("synth.freeze_stream_s", "s", _BOTH,
          "`freeze_stream` (serve-store: with `benchmark_stream` generation)", _SETUP),
    Layer("synth.freeze_edges_per_s", "1/s", _BOTH, "edges / `synth.freeze_stream_s`",
          _SETUP),
    Layer("graph.store_bytes", "bytes", _BOTH, "size of the frozen stores", _SETUP),
    Layer("data.groups_build_s", "s", _T, "`BenchmarkStream.groups()` (5,000 groups)",
          "serve-store setup_s"),
    Layer("data.save_groups_s", "s", _BOTH, "`save_groups`", _SETUP),
    Layer("data.sidecar_bytes", "bytes", _BOTH, "size of the `groups.json` sidecars", _SETUP),
    Layer("engine.attach_s", "s", _BOTH,
          "`AnalysisContext.open`, which the server runs on a dataset's first request",
          _SETUP),
    Layer("data.load_groups_s", "s", _BOTH,
          "`load_groups`, which the server runs on a dataset's first request", _SETUP),
    Layer("registry.first_attach_ms", "ms", _BOTH, "the first request to each dataset",
          _SETUP),
    Layer("serve.p50_ms.first", "ms", _BOTH, "first-seen GETs the engine computes",
          "compute_p50_ms, p99_ms of both"),
    Layer("serve.p50_ms.disk", "ms", _BOTH, "first-seen GETs the disk cache answers",
          "p50_ms of both"),
    Layer("serve.p50_ms.repeat", "ms", _BOTH, "repeated GETs (memory cache)",
          "p50_ms of both"),
    Layer("serve.p50_ms.revalidate", "ms", _BOTH, "revalidations answered 304",
          "p50_ms of both"),
    Layer("serve.p50_ms.post", "ms", _BOTH, "POSTs of ad-hoc member lists",
          "compute_p50_ms, p99_ms of both"),
    Layer("serve.p50_ms.compare", "ms", _M, "`GET /v1/compare`", "serve-mix p50_ms"),
    Layer("serve.p99_ms.first", "ms", _BOTH, "first-seen GETs the engine computes",
          "p99_ms of both"),
    Layer("serve.p99_ms.repeat", "ms", _BOTH, "repeated GETs (memory cache)",
          "p99_ms of both"),
    Layer("service.batch_size_mean", "count", _BOTH, "`/v1/metrics` delta over the timed phase",
          "compute_p50_ms of both"),
    Layer("service.memory_hit_share", "share", _BOTH,
          "`/v1/metrics` delta: memory hits / 200s", "p50_ms of both"),
    Layer("cache.disk_hit_share", "share", _BOTH,
          "`/v1/metrics` delta: disk hits / disk lookups", "p50_ms of both"),
    Layer("serve.status.200", "count", _BOTH, "`/v1/metrics` delta", "slo_ok_share of both"),
    Layer("serve.status.304", "count", _BOTH, "`/v1/metrics` delta", "slo_ok_share of both"),
    Layer("serve.status.other", "count", _BOTH, "`/v1/metrics` delta", "slo_ok_share of both"),
    Layer("engine.stats_kernel_ms", "ms", _BOTH,
          "`batch_group_stats_columns` replayed on each engine GET's groups",
          "compute_p50_ms of both"),
    Layer("scoring.score_matrix_ms", "ms", _BOTH, "`score_matrix` on that batch",
          "compute_p50_ms of both"),
    Layer("engine.batch_score_ms", "ms", _BOTH,
          "`engine.stats_kernel_ms` + `scoring.score_matrix_ms`", "compute_p50_ms of both"),
    Layer("service.residual_ms.first", "ms", _BOTH,
          "`serve.p50_ms.first` - `engine.batch_score_ms`: queue wait, HTTP, render",
          "compute_p50_ms of both"),
    Layer("serve.generator_late_ms", "ms", _BOTH, "p99 lateness of the load schedule",
          "none: validity of the run"),
    Layer("op.unattributed_s", "s", _BOTH, "request time not covered by a span", "none"),
    Layer("op.trace_overhead_ms", "ms", _BOTH, "traced minus untraced median latency", "none"),
)


def layer_table() -> str:
    """The per-layer table as Markdown (``README.md`` holds it verbatim)."""
    lines = [
        "| per-layer metric | unit | measured around | workloads | should move |",
        "|---|---|---|---|---|",
    ]
    for layer in LAYERS:
        lines.append(
            f"| `{layer.name}` | {layer.unit} | {layer.around} | "
            f"{', '.join(layer.measured_on)} | {layer.moves} |"
        )
    return "\n".join(lines)


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, a child misbehaved)."""


# -- statistics ---------------------------------------------------------------

#: A tail percentile is reported only with this many samples beyond it.
TAIL_MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as the driver computes them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def tail_percentile(count: int, wanted: float = 99.0) -> float:
    """The highest percentile up to ``wanted`` with 10 samples beyond it.

    Returns 50 when even the 75th percentile is unsupported: a run that
    small reports its median in place of a tail.
    """
    for p in (wanted, 95.0, 90.0, 75.0):
        if p <= wanted and count * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND:
            return p
    return 50.0


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail(values, wanted: float = 99.0) -> float:
    """The supported tail of ``values`` (see :func:`tail_percentile`)."""
    p = tail_percentile(len(values), wanted)
    return median(values) if p == 50.0 else percentile(values, p)


# -- spans --------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int


class Tracer:
    """In-memory spans: a name, start, end, parent index and op id each.

    Timestamps are ``time.perf_counter()``, which is the system-wide
    monotonic clock on Linux, so spans recorded by a child process nest
    under the parent's span of that child.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.op = 0

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._start(name)
        try:
            yield self.spans[index]
        finally:
            self.spans[index].end = time.perf_counter()
            self._open.pop()

    def _start(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record a span timed elsewhere; returns its index."""
        self.spans.append(Span(name, start, end, parent, self.op))
        return len(self.spans) - 1

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per op, per span name: duration minus what child spans cover."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            children.setdefault(span.parent, []).append(span)
        totals: dict[int, dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            covered = _covered(span, children.get(index, []))
            per_op = totals.setdefault(span.op, {})
            per_op[span.name] = per_op.get(span.name, 0.0) + (
                span.end - span.start - covered
            )
        return totals

    def layer_median(self, name: str) -> float:
        """Median over ops of the self time of ``name`` (0 if never seen)."""
        values = [t[name] for t in self.self_times().values() if name in t]
        return median(values) if values else 0.0


class NullTracer:
    """Stands in for a :class:`Tracer` in untraced runs."""

    op = 0

    def span(self, name: str):
        return contextlib.nullcontext()


def _covered(span: Span, children: list[Span]) -> float:
    covered = 0.0
    cursor = span.start
    for child in sorted(children, key=lambda s: s.start):
        lo, hi = max(child.start, cursor), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


# -- run isolation and children -----------------------------------------------


@dataclass
class ChildResult:
    spawned: float
    wall: float
    code: int
    stdout: bytes
    stderr: bytes
    maxrss_mb: float


class RunRoot:
    """A fresh scratch root for one run, inside the checkout.

    Stores, spill runs, sidecars, result caches and children's ``TMPDIR``
    all live under it.  On exit every child still running is terminated
    and reaped, the root is deleted and dirty pages are synced, so
    nothing one run writes is read or flushed during the next.
    ``leftovers`` lists what the run failed to clean up.
    """

    def __init__(self) -> None:
        self.path = Path()
        self.fs_type = ""
        self.leftovers: list[str] = []
        self._children: list[subprocess.Popen] = []
        self._shm_before: set[str] = set()

    def __enter__(self) -> "RunRoot":
        self._shm_before = _listdir(SHM)
        TMP_BASE.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_BASE))
        (self.path / "tmp").mkdir()
        tempfile.tempdir = str(self.path / "tmp")
        self.fs_type = filesystem_type(self.path)
        return self

    def __exit__(self, *exc_info) -> None:
        for proc in self._children:
            if proc.returncode is None:
                stop_child(proc)
        tempfile.tempdir = None
        shutil.rmtree(self.path, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_BASE.rmdir()
        os.sync()
        if self.path.exists():
            self.leftovers.append(str(self.path))
        self.leftovers += [
            str(SHM / name) for name in sorted(_listdir(SHM) - self._shm_before)
        ]

    def fresh_dir(self, name: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=self.path))

    def env(self) -> dict[str, str]:
        """A child's environment: no ``REPRO_*`` or ``PYTHON*`` from outside."""
        env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith(("REPRO_", "PYTHON"))
        }
        env.update(
            PYTHONPATH=str(SRC),
            PYTHONHASHSEED="0",
            PYTHONDONTWRITEBYTECODE="1",
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
            TMPDIR=str(self.path / "tmp"),
        )
        return env

    def spawn(self, argv: list[str], *, stdout, stderr) -> subprocess.Popen:
        proc = subprocess.Popen(
            argv, cwd=CHECKOUT, env=self.env(), stdout=stdout, stderr=stderr,
            stdin=subprocess.DEVNULL,
        )
        self._children.append(proc)
        return proc

    def run(self, argv: list[str], *, timeout: float = 170.0) -> ChildResult:
        """Run a child to completion; its output goes through files, not pipes."""
        out_path = self.path / "tmp" / "child.out"
        err_path = self.path / "tmp" / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            spawned = time.perf_counter()
            proc = self.spawn(argv, stdout=out, stderr=err)
            maxrss_mb = reap(proc, timeout)
            wall = time.perf_counter() - spawned
        result = ChildResult(
            spawned, wall, proc.returncode, out_path.read_bytes(),
            err_path.read_bytes(), maxrss_mb,
        )
        out_path.unlink()
        err_path.unlink()
        return result


def reap(proc: subprocess.Popen, timeout: float) -> float:
    """Wait for ``proc`` (killing it after ``timeout``); returns its peak RSS in MB."""
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0


def stop_child(proc: subprocess.Popen, grace: float = 10.0) -> float:
    """Terminate ``proc``, kill it if it outlives ``grace``, reap it."""
    with contextlib.suppress(ProcessLookupError):
        proc.terminate()
    return reap(proc, grace)


def _listdir(path: Path) -> set[str]:
    try:
        return set(os.listdir(path))
    except OSError:
        return set()


def filesystem_type(path: Path) -> str:
    """The type of the filesystem holding ``path``, from ``/proc/mounts``."""
    best, fs_type = "", "unknown"
    resolved = str(path.resolve())
    try:
        lines = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return fs_type
    for line in lines:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1]
        inside = resolved == mount or resolved.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) >= len(best):
            best, fs_type = mount, fields[2]
    return fs_type


def python() -> str:
    return sys.executable or "python3"


# -- results ------------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload run reports."""

    attempted: int
    failed: int
    correct: bool
    metrics: dict[str, float]


def result_line(outcome: Outcome, trace: bool) -> str:
    """The JSON object the run prints last, with every declared metric."""
    if trace:
        declared = {layer.name: layer.unit for layer in LAYERS}
    else:
        declared = dict(END_TO_END)
    unknown = set(outcome.metrics) - set(declared)
    missing = set() if trace else set(declared) - set(outcome.metrics)
    if unknown or missing:
        raise BenchError(
            f"undeclared metrics {sorted(unknown)}, missing {sorted(missing)}"
        )
    metrics = {
        name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in declared.items()
    }
    return json.dumps(
        {
            "correct": bool(outcome.correct),
            "attempted": int(outcome.attempted),
            "failed": int(outcome.failed),
            "metrics": metrics,
        }
    )


def log(message: str) -> None:
    """Progress and diagnostics go to stderr; stdout ends with the result."""
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)
