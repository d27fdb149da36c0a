"""serve-mix and serve-store: open loops of HTTP requests against ``repro serve``.

One client process sends a seeded plan over two keep-alive connections
at a fixed offered rate.  The server (``--jobs 1``, default batch window
and size, a fresh ``--cache-dir``) serves stores frozen during set-up:

* ``serve-mix``: ``google_plus`` and the directed ``twitter``, built and
  frozen as ``repro freeze`` does;
* ``serve-store``: one ``repro freeze --scale 2000000`` store (about
  1.78 M edges and 5,000 groups), so the set-up runs the external sort
  and the 5,000-group sidecar, and the server attaches a large store.

The mix:

* 60 % GET score requests for an 8-group subset, drawn with Zipf
  weights (exponent 1) from 4,096 subsets, four times the 1,024-entry
  rendered-response cache.  The first GET of a subset is answered by the
  disk result cache when the subset was warmed before the phase (half of
  them, drawn from the seed) and by the engine otherwise; later GETs of
  it come from memory;
* 20 % revalidations with ``If-None-Match``: an ETag the client holds
  (expects 304), or for one in ten another key's ETag (expects 200);
* 15 % POSTs of ad-hoc member lists, which are always computed;
* 5 % ``GET /v1/compare`` over both datasets with the paper's four
  functions (computed once, then served from memory); ``serve-store``
  has one dataset, so these slots are score GETs there.

A request is timed from when it was due, so a stall counts against the
requests queued behind it; one unanswered after ``TIMEOUT_S`` fails.
Both workloads read stores but never write them during the phase.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import hashlib
import http.client
import json
import os
import random
import shutil
import socket
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable
from types import SimpleNamespace
from urllib.parse import quote

import numpy as np

from perfbench.core import (
    BenchError,
    NullTracer,
    Outcome,
    RunRoot,
    Tracer,
    log,
    median,
    python,
    stop_child,
    tail,
)

#: Offered load, requests/s.  The closed-loop saturation of the serve-mix
#: plan over two connections measured 385-403/s on a 2-core VM.  At 150/s
#: queueing cascades hit 1-2 % of requests and ``p99_ms`` flipped between
#: 20 and 45 ms from run to run.  At 100/s that VM's slow periods, which
#: stretch every request the engine computes, still queued requests often
#: enough that ``p99_ms`` spread 0.44 (serve-mix) and 0.70 (serve-store)
#: over five runs; at 50/s queueing is rare and the tail is the compute
#: path's own.
RATE = 50.0
CONNECTIONS = 2
KEY_SPACE = 4096
#: The service's default rendered-response cache (``ServiceConfig``).
RESPONSE_CACHE_ENTRIES = 1024
SUBSET_SIZE = 8
#: Zipf's law proper: the weight of the subset of popularity rank r is
#: 1/r.  There is no trace of circle-score traffic to fit an exponent to.
ZIPF_EXPONENT = 1.0
#: Share of the plan's subsets already in the disk result cache when the
#: phase starts, as after a restart on the same ``--cache-dir``: half of
#: the first-seen GETs read the disk cache, the other half the engine.
WARM_SHARE = 0.5
MIX = (("get", 0.60), ("revalidate", 0.20), ("post", 0.15), ("compare", 0.05))
#: serve-mix builds its datasets at one program seed, so every run serves
#: stores of the same size (google_plus ranges over 340 k-630 k edges
#: with its seed); the workload seed draws the request plan.
DATASET_SEED = 7
STREAM_EDGES = 2_000_000
STALE_SHARE = 0.1
#: Share of the inter-arrival gap a request's due time may move.
JITTER = 0.5
TIMEOUT_S = 2.0
SLO_MS = 50.0
SETUPS = 3
VERIFY_GETS = 12
VERIFY_POSTS = 6
EXPECTED_STATUS = {
    "first": 200, "disk": 200, "repeat": 200, "revalidate": 304, "stale": 200,
    "post": 200, "compare": 200,
}
#: Request kinds the engine answers.
COMPUTED = ("first", "post")


# -- the request plan ---------------------------------------------------------


@dataclass(frozen=True)
class Planned:
    """One request of the plan, ``due`` seconds after the phase starts."""

    due: float
    kind: str
    method: str
    path: str
    key: int = -1
    etag_of: int = -1
    body: bytes = b""


def key_space(seed: int, groups: dict[str, list[str]]) -> list[tuple[str, tuple[str, ...]]]:
    """``KEY_SPACE`` distinct (dataset, sorted 8-group subset) keys.

    Each key's dataset is any of them with equal odds: nothing says how
    traffic divides between them.
    """
    datasets = sorted(groups)
    rng = random.Random(f"{seed}:keys")
    keys: list[tuple[str, tuple[str, ...]]] = []
    seen = set()
    while len(keys) < KEY_SPACE:
        dataset = rng.choice(datasets)
        key = (dataset, tuple(sorted(rng.sample(groups[dataset], SUBSET_SIZE))))
        if key not in seen:
            seen.add(key)
            keys.append(key)
    return keys


def score_path(dataset: str, names: tuple[str, ...]) -> str:
    return f"/v1/datasets/{dataset}/score?groups=" + ",".join(
        quote(name, safe="") for name in names
    )


def make_plan(
    seed: int,
    rate: float,
    count: int,
    groups: dict[str, list[str]],
    nodes: dict[str, list],
    sizes: dict[str, list[int]],
    mix: tuple[tuple[str, float], ...] = MIX,
) -> list[Planned]:
    """The seeded request plan and send schedule.

    Request ``i`` is due at ``(i + u) / rate`` with ``u`` drawn from
    ``[0, JITTER)``: a constant offered rate, so the phase lasts the same
    on every seed and queueing comes from the server, not from bursts
    the seed happened to draw.

    A GET is ``repeat`` when its key appeared earlier in the plan.  A
    first-seen GET is ``disk`` when its key is warmed into the disk
    cache before the phase (``WARM_SHARE`` of them) and ``first`` when
    the engine computes it.  A revalidation targets a key whose first
    GET was due at least ``TIMEOUT_S`` earlier, so its ETag is held
    unless that request failed; before any key qualifies the slot
    becomes a GET.  A POST scores as many random members as a stored
    group of the same dataset, drawn at random, has.
    """
    datasets = sorted(groups)
    rng = random.Random(seed)
    keys = key_space(seed, groups)
    cumulative = list(np.cumsum([1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(KEY_SPACE)]))
    kinds = [kind for kind, _ in mix]
    weights = [share for _, share in mix]
    first_due: dict[int, float] = {}
    order: list[int] = []
    eligible = 0
    plan: list[Planned] = []
    for index in range(count):
        due = (index + rng.uniform(0.0, JITTER)) / rate
        kind = rng.choices(kinds, weights)[0]
        while eligible < len(order) and first_due[order[eligible]] <= due - TIMEOUT_S:
            eligible += 1
        if kind == "revalidate" and eligible == 0:
            kind = "get"
        if kind == "get":
            key = bisect.bisect_left(cumulative, rng.random() * cumulative[-1])
            if key in first_due:
                plan.append(Planned(due, "repeat", "GET", score_path(*keys[key]), key))
            else:
                first_due[key] = due
                order.append(key)
                seen = "disk" if rng.random() < WARM_SHARE else "first"
                plan.append(Planned(due, seen, "GET", score_path(*keys[key]), key))
        elif kind == "revalidate":
            key = order[rng.randrange(eligible)]
            other = order[rng.randrange(eligible)]
            if other != key and rng.random() < STALE_SHARE:
                plan.append(Planned(due, "stale", "GET", score_path(*keys[key]), key, other))
            else:
                plan.append(Planned(due, "revalidate", "GET", score_path(*keys[key]), key, key))
        elif kind == "post":
            dataset = rng.choice(datasets)
            members = rng.sample(nodes[dataset], rng.choice(sizes[dataset]))
            body = json.dumps(
                {"groups": [{"name": f"adhoc-{index}", "members": members}]}
            ).encode()
            plan.append(Planned(due, "post", "POST", f"/v1/datasets/{dataset}/score", body=body))
        else:
            path = "/v1/compare?datasets=" + ",".join(datasets)
            plan.append(Planned(due, "compare", "GET", path))
    return plan


def warm_disk_cache(api, cache_dir: Path, seed: int, contexts, groups, plan) -> int:
    """Write the disk cache entries of the plan's ``disk`` keys; returns their number.

    ``score_groups`` with a cache writes exactly the entry the service
    reads for the same groups: both derive it with ``query_key``.
    """
    keys = key_space(seed, {name: [g.name for g in groups[name]] for name in groups})
    by_name = {name: {g.name: g for g in groups[name]} for name in groups}
    cache = api.ResultCache(cache_dir)
    functions = api.make_paper_functions()
    warmed = [request.key for request in plan if request.kind == "disk"]
    for key in warmed:
        dataset, names = keys[key]
        subset = [by_name[dataset][name] for name in names]
        api.score_groups(contexts[dataset], subset, functions, cache=cache)
    return len(warmed)


# -- the client ---------------------------------------------------------------


class Connection:
    """One keep-alive HTTP/1.1 connection (no pipelining)."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self.reader = self.writer = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection("127.0.0.1", self.port)

    async def exchange(self, request: Planned, etag: str | None):
        if self.writer is None:
            await self.open()
        lines = [f"{request.method} {request.path} HTTP/1.1", "Host: 127.0.0.1"]
        if etag is not None:
            lines.append(f"If-None-Match: {etag}")
        if request.method == "POST":
            lines.append("Content-Type: application/json")
            lines.append(f"Content-Length: {len(request.body)}")
        self.writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + request.body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        headers = {}
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        body = await self.reader.readexactly(length) if length else b""
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return status, headers, body


@dataclass
class Reply:
    late: float = 0.0
    sent: float = 0.0
    latency: float = TIMEOUT_S
    status: int = 0
    etag: str = ""
    digest: str = ""
    body: bytes | None = None
    error: str = ""


async def drive(port: int, plan: list[Planned], tracer: Tracer | None = None):
    """Send ``plan`` on its schedule; returns the replies and the phase wall time.

    With a tracer, every other request records spans: ``op`` (due to
    answered) with ``client.wait`` (due to sent) and ``http.exchange``.
    """
    queue: asyncio.Queue = asyncio.Queue()
    replies = [Reply() for _ in plan]
    etags: dict[int, str] = {}
    connections = [Connection(port) for _ in range(CONNECTIONS)]
    for connection in connections:
        await connection.open()
    start = time.perf_counter() + 0.05
    finished = [start]

    async def generator() -> None:
        for index, request in enumerate(plan):
            due = start + request.due
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            replies[index].late = max(0.0, time.perf_counter() - due)
            queue.put_nowait(index)
        for _ in range(CONNECTIONS):
            queue.put_nowait(None)

    async def worker(connection: Connection) -> None:
        try:
            while (index := await queue.get()) is not None:
                request, reply = plan[index], replies[index]
                due = start + request.due
                reply.sent = time.perf_counter()
                etag = etags.get(request.etag_of) if request.etag_of >= 0 else None
                if request.etag_of >= 0 and etag is None:
                    reply.error = "no ETag held for the revalidated key"
                    continue
                try:
                    status, headers, body = await asyncio.wait_for(
                        connection.exchange(request, etag), TIMEOUT_S
                    )
                except (asyncio.TimeoutError, ConnectionError, OSError, ValueError) as exc:
                    reply.error = f"{type(exc).__name__}: {exc}"
                    reply.latency = time.perf_counter() - due
                    await connection.close()
                    continue
                done = time.perf_counter()
                finished.append(done)
                reply.latency = done - due
                reply.status = status
                reply.etag = headers.get("etag", "")
                reply.digest = hashlib.sha256(body).hexdigest()
                if status == 200 and request.kind in ("first", "disk", "post"):
                    reply.body = body
                if status == 200 and request.key >= 0:
                    etags.setdefault(request.key, reply.etag)
                if tracer is not None and index % 2 == 0:
                    tracer.op = index + 1
                    op = tracer.add("op", due, done)
                    tracer.add("client.wait", due, reply.sent, op)
                    tracer.add("http.exchange", reply.sent, done, op)
        finally:
            await connection.close()

    tasks = [asyncio.create_task(generator())]
    tasks += [asyncio.create_task(worker(connection)) for connection in connections]
    await asyncio.gather(*tasks)
    return replies, max(finished) - start


# -- the server ---------------------------------------------------------------


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """A ``repro serve`` child over a store root, with a fresh result cache."""

    def __init__(self, root: RunRoot, stores: Path) -> None:
        self.root = root
        self.stores = stores
        self.cache = root.fresh_dir("cache")
        self.port = free_port()
        self.log_path = root.fresh_dir("serve-log") / "stderr"
        self.proc: subprocess.Popen | None = None

    def start(self) -> float:
        """Spawn the server; returns seconds until ``/v1/health`` answers 200."""
        argv = [
            python(), "-m", "repro", "serve", str(self.stores),
            "--host", "127.0.0.1", "--port", str(self.port),
            "--jobs", "1", "--cache-dir", str(self.cache),
        ]
        with open(self.log_path, "wb") as err:
            spawned = time.perf_counter()
            self.proc = self.root.spawn(argv, stdout=subprocess.DEVNULL, stderr=err)
        while time.perf_counter() - spawned < 120.0:
            if self.proc.poll() is not None:
                raise BenchError(f"repro serve exited:\n{self.log_path.read_text()[-2000:]}")
            try:
                status, _, _ = self.get("/v1/health")
            except (ConnectionError, OSError, http.client.HTTPException):
                time.sleep(0.005)
                continue
            if status == 200:
                return time.perf_counter() - spawned
        raise BenchError("repro serve did not become healthy")

    def get(self, path: str) -> tuple[int, dict, bytes]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            body = response.read()
            return response.status, {k.lower(): v for k, v in response.getheaders()}, body
        finally:
            connection.close()

    def metrics(self) -> dict:
        status, _, body = self.get("/v1/metrics")
        if status != 200:
            raise BenchError(f"/v1/metrics answered {status}")
        return json.loads(body)

    def stop(self) -> float:
        """Terminate and reap the server; returns its peak RSS in MB."""
        rss = stop_child(self.proc)
        shutil.rmtree(self.stores, ignore_errors=True)
        shutil.rmtree(self.cache, ignore_errors=True)
        return rss


# -- the workloads ------------------------------------------------------------


def load_api() -> SimpleNamespace:
    from repro.data.groups import Community, load_groups, save_groups
    from repro.engine import AnalysisContext, ResultCache, batch_group_stats_columns
    from repro.obs.manifest import fingerprint_context
    from repro.scoring.columnar import score_matrix
    from repro.scoring.registry import make_paper_functions, score_groups
    from repro.synth.paper_datasets import build_google_plus, build_twitter
    from repro.synth.stream import GraphEdgeStream, benchmark_stream, freeze_stream

    return SimpleNamespace(**{k: v for k, v in locals().items()})


def freeze_paper_datasets(api, seed: int, stores: Path, tracer) -> dict[str, str]:
    """What ``repro freeze google_plus`` and ``repro freeze twitter`` do.

    Returns the name of one stored group per store.
    """
    with tracer.span("synth.build"):
        datasets = {
            "google_plus": api.build_google_plus(seed=DATASET_SEED),
            "twitter": api.build_twitter(seed=DATASET_SEED),
        }
    for name, dataset in datasets.items():
        with tracer.span("synth.freeze_stream"):
            api.freeze_stream(api.GraphEdgeStream(dataset.graph), stores / name)
        with tracer.span("data.save_groups"):
            api.save_groups(dataset.groups, stores / name / "groups.json")
    return {name: next(iter(dataset.groups)).name for name, dataset in datasets.items()}


def freeze_scale_store(api, seed: int, stores: Path, tracer) -> dict[str, str]:
    """What ``repro --seed S freeze --scale 2000000`` does."""
    with tracer.span("synth.freeze_stream"):
        stream = api.benchmark_stream(STREAM_EDGES, seed=seed)
        api.freeze_stream(stream, stores / "scale")
    with tracer.span("data.groups_build"):
        groups = stream.groups()
    with tracer.span("data.save_groups"):
        api.save_groups(groups, stores / "scale" / "groups.json")
    return {"scale": next(iter(groups)).name}


@dataclass(frozen=True)
class Profile:
    """What one serve workload freezes and which request mix it sends."""

    freeze: Callable
    mix: tuple[tuple[str, float], ...]


PROFILES = {
    "serve-mix": Profile(freeze_paper_datasets, MIX),
    "serve-store": Profile(
        freeze_scale_store,
        tuple((kind, share) for kind, share in MIX if kind != "compare"),
    ),
}


def setup(root: RunRoot, api, profile: Profile, seed: int, tracer) -> SimpleNamespace:
    """Freeze the stores, start the server, wait for health, score on each.

    The first request to each dataset attaches its store and scores one
    stored group, a query outside the plan's key space, so the timed
    phase does not start on a cold engine path.
    """
    started = time.perf_counter()
    stores = root.fresh_dir("stores")
    one_group = profile.freeze(api, seed, stores, tracer)
    server = Server(root, stores)
    ready = server.start()
    first, fingerprints = [], {}
    for name, group in one_group.items():
        sent = time.perf_counter()
        status, _, body = server.get(score_path(name, (group,)))
        first.append(time.perf_counter() - sent)
        if status != 200:
            raise BenchError(f"first request to {name} answered {status}")
        fingerprints[name] = json.loads(body)["fingerprint"]
    return SimpleNamespace(
        server=server, seconds=time.perf_counter() - started, ready=ready,
        first=first, fingerprints=fingerprints,
    )


def run(root: RunRoot, workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    profile = PROFILES[workload]
    api = load_api()
    tracer = Tracer() if trace else NullTracer()
    setups: list[SimpleNamespace] = []
    for _ in range(1 if trace else SETUPS):
        if setups:
            setups[-1].server.stop()
        setups.append(setup(root, api, profile, seed, tracer))
    live = setups[-1]
    stores = live.server.stores
    names = sorted(live.fingerprints)
    with tracer.span("engine.attach"):
        contexts = {name: api.AnalysisContext.open(stores / name) for name in names}
    with tracer.span("data.load_groups"):
        groups = {name: api.load_groups(stores / name / "groups.json") for name in names}
    for name, context in contexts.items():
        if api.fingerprint_context(context) != live.fingerprints[name]:
            raise BenchError(f"server fingerprint of {name} differs from the store")
    live.sidecar_bytes = sum((stores / name / "groups.json").stat().st_size for name in names)
    live.store_bytes = sum(
        path.stat().st_size for path in stores.rglob("*") if path.is_file()
    ) - live.sidecar_bytes
    count = round(RATE * seconds)
    plan = make_plan(
        seed, RATE, count,
        {name: [g.name for g in groups[name]] for name in names},
        {name: [int(node) for node in contexts[name].nodes] for name in names},
        {name: [len(g.members) for g in groups[name]] for name in names},
        profile.mix,
    )
    warmed = warm_disk_cache(api, live.server.cache, seed, contexts, groups, plan)
    # Flush what set-up and warming wrote, so its writeback does not land
    # in the timed phase.
    os.sync()
    before = live.server.metrics() if trace else None
    # The client's own collector pauses would count against the server:
    # keep the collector off while sending.
    gc.collect()
    gc.disable()
    try:
        replies, wall = asyncio.run(drive(live.server.port, plan, tracer if trace else None))
    finally:
        gc.enable()
    after = live.server.metrics() if trace else None
    alive = live.server.proc.poll() is None
    rss = live.server.stop()
    if not alive:
        log(f"repro serve exited during the phase with code {live.server.proc.returncode}")

    bad = check_replies(plan, replies)
    bad |= verify_scores(api, seed, contexts, groups, plan, replies)
    ok = [i not in bad and not replies[i].error for i in range(len(plan))]
    failed = len(plan) - sum(ok)
    for i in [i for i, good in enumerate(ok) if not good][:5]:
        log(f"request {i} ({plan[i].kind}) failed: status {replies[i].status} {replies[i].error}")
    latencies = [reply.latency for reply in replies]
    late = [reply.late for reply in replies]
    log(
        f"{workload}: {len(plan)} requests at {RATE}/s, {warmed} keys warmed, "
        f"{failed} failed, generator lateness p99 {tail(late) * 1e3:.3f} ms"
    )
    correct = failed == 0 and alive
    if trace:
        metrics = _layers(api, root, tracer, plan, replies, ok, live, before, after, contexts, groups)
        if metrics["cache.disk_hit_share"] <= 0.0:
            log("no request was answered from the disk cache")
            correct = False
    else:
        metrics = {
            "setup_s": median([s.seconds for s in setups]),
            "wall_s": wall,
            "p50_ms": median(latencies) * 1e3,
            "compute_p50_ms": median(
                [r.latency for r, q in zip(replies, plan) if q.kind in COMPUTED]
            ) * 1e3,
            "p99_ms": tail(latencies) * 1e3,
            "qps": sum(ok) / wall,
            "slo_ok_share": sum(
                good and reply.latency * 1e3 <= SLO_MS for good, reply in zip(ok, replies)
            ) / len(plan),
            "peak_rss_mb": rss,
        }
    return Outcome(attempted=len(plan), failed=failed, correct=correct, metrics=metrics)


def check_replies(plan: list[Planned], replies: list[Reply]) -> set[int]:
    """Statuses, and one ETag and one body per key; 304 only for its own ETag."""
    bad: set[int] = set()
    etag_of: dict[int, str] = {}
    digest_of: dict[object, str] = {}
    for index, (request, reply) in enumerate(zip(plan, replies)):
        if reply.error:
            continue
        if reply.status != EXPECTED_STATUS[request.kind]:
            bad.add(index)
            continue
        if request.key >= 0:
            if etag_of.setdefault(request.key, reply.etag) != reply.etag:
                bad.add(index)
        if request.kind in ("first", "disk", "repeat", "stale", "compare"):
            identity = request.key if request.key >= 0 else request.path
            if digest_of.setdefault(identity, reply.digest) != reply.digest:
                bad.add(index)
    for index, (request, reply) in enumerate(zip(plan, replies)):
        # A 304 must answer the key's own ETag; a stale one must not match.
        stale = request.kind == "stale" and not reply.error
        if stale and etag_of.get(request.etag_of) == etag_of.get(request.key):
            bad.add(index)
    return bad


def _served_columns(body: bytes, names: list[str], functions: list[str]) -> dict[str, bytes]:
    payload = json.loads(body)
    by_name = {group["name"]: group["scores"] for group in payload["groups"]}
    return {
        function: np.array(
            [float(by_name[name][function]) for name in names], dtype=np.float64
        ).tobytes()
        for function in functions
    }


def verify_scores(api, seed: int, contexts, groups, plan, replies) -> set[int]:
    """A seeded sample of score bodies equals ``score_groups`` bitwise."""
    rng = random.Random(f"{seed}:verify")
    firsts = [i for i, r in enumerate(replies) if plan[i].kind in ("first", "disk") and r.body]
    posts = [i for i, r in enumerate(replies) if plan[i].kind == "post" and r.body]
    chosen = rng.sample(firsts, min(VERIFY_GETS, len(firsts)))
    chosen += rng.sample(posts, min(VERIFY_POSTS, len(posts)))
    functions = api.make_paper_functions()
    names_of_functions = [f.name for f in functions]
    bad: set[int] = set()
    for index in chosen:
        payload = json.loads(replies[index].body)
        dataset = payload["dataset"]
        if plan[index].kind == "post":
            record = json.loads(plan[index].body)["groups"][0]
            query = [api.Community(name=record["name"], members=frozenset(record["members"]))]
        else:
            by_name = {g.name: g for g in groups[dataset]}
            query = [by_name[g["name"]] for g in payload["groups"]]
        table = api.score_groups(contexts[dataset], query, functions, cache=False)
        served = _served_columns(replies[index].body, table.group_names, names_of_functions)
        expected = {name: table.columns[name].tobytes() for name in names_of_functions}
        if served != expected:
            bad.add(index)
    return bad


def _counter(snapshot: dict, name: str, label: str | None = None) -> float:
    values = snapshot.get(name, {}).get("values", {})
    if label is None:
        return float(sum(values.values()))
    return float(values.get(label, 0))


def _layers(api, root, tracer, plan, replies, ok, live, before, after, contexts, groups) -> dict:
    def latencies(kind: str) -> list[float]:
        return [r.latency for i, r in enumerate(replies) if ok[i] and plan[i].kind == kind]

    metrics = {
        f"serve.p50_ms.{kind}": median(latencies(kind)) * 1e3
        for kind in ("first", "disk", "repeat", "revalidate", "post", "compare")
        if latencies(kind)
    }
    for kind in ("first", "repeat"):
        if latencies(kind):
            metrics[f"serve.p99_ms.{kind}"] = tail(latencies(kind)) * 1e3

    def delta(name: str, label: str | None = None) -> float:
        return _counter(after, name, label) - _counter(before, name, label)

    batch_before, batch_after = before.get("service.batch_size", {}), after.get("service.batch_size", {})
    batches = batch_after.get("count", 0) - batch_before.get("count", 0)
    computed = sum(1 for i, r in enumerate(replies) if ok[i] and r.status == 200)
    hits, misses = delta("cache.hits", "score"), delta("cache.misses", "score")
    # The "before" /v1/metrics response is counted in the after snapshot.
    statuses = {"200": delta("service.responses", "200") - 1, "304": delta("service.responses", "304")}
    metrics.update(
        {
            "service.batch_size_mean": (
                (batch_after.get("sum", 0.0) - batch_before.get("sum", 0.0)) / batches
                if batches else 0.0
            ),
            "service.memory_hit_share": delta("service.memory_hits") / computed if computed else 0.0,
            "cache.disk_hit_share": hits / (hits + misses) if hits + misses else 0.0,
            "serve.status.200": statuses["200"],
            "serve.status.304": statuses["304"],
            "serve.status.other": delta("service.responses") - 1 - sum(statuses.values()),
            "registry.first_attach_ms": median(live.first) * 1e3,
            "serve.generator_late_ms": tail([r.late for r in replies]) * 1e3,
        }
    )
    kernel, matrix = _replay_first_seen(api, plan, replies, ok, contexts, groups)
    metrics["engine.stats_kernel_ms"] = kernel
    metrics["scoring.score_matrix_ms"] = matrix
    metrics["engine.batch_score_ms"] = kernel + matrix
    if "serve.p50_ms.first" in metrics:
        metrics["service.residual_ms.first"] = (
            metrics["serve.p50_ms.first"] - metrics["engine.batch_score_ms"]
        )
    traced = [r.latency for i, r in enumerate(replies) if ok[i] and i % 2 == 0]
    untraced = [r.latency for i, r in enumerate(replies) if ok[i] and i % 2 == 1]
    metrics["op.trace_overhead_ms"] = (median(traced) - median(untraced)) * 1e3
    metrics["op.unattributed_s"] = tracer.layer_median("op")
    for name in (
        "synth.build", "synth.freeze_stream", "data.groups_build", "data.save_groups",
        "engine.attach", "data.load_groups",
    ):
        metrics[name + "_s"] = tracer.layer_median(name)
    edges = sum(context.num_edges for context in contexts.values())
    if metrics["synth.build_s"]:
        metrics["synth.edges_per_s"] = edges / metrics["synth.build_s"]
    metrics["synth.freeze_edges_per_s"] = edges / metrics["synth.freeze_stream_s"]
    metrics["data.sidecar_bytes"] = live.sidecar_bytes
    metrics["graph.store_bytes"] = live.store_bytes
    metrics["serve.ready_s"] = live.ready
    metrics["cli.import_s"] = _import_seconds(root)
    return metrics


def _replay_first_seen(api, plan, replies, ok, contexts, groups) -> tuple[float, float]:
    """Median ms of the stats kernel and of ``score_matrix`` on each engine GET's groups.

    The two calls are what the service's micro-batch runs for a request
    served by one engine batch.
    """
    functions = api.make_paper_functions()
    by_name = {name: {g.name: g for g in groups[name]} for name in groups}
    kernel, matrix = [], []
    for index, request in enumerate(plan):
        if request.kind != "first" or not ok[index]:
            continue
        payload = json.loads(replies[index].body)
        context = contexts[payload["dataset"]]
        member_lists = [
            [node for node in by_name[payload["dataset"]][g["name"]].members if node in context]
            for g in payload["groups"]
        ]
        started = time.perf_counter()
        batch = api.batch_group_stats_columns(context, member_lists)
        between = time.perf_counter()
        api.score_matrix(functions, batch)
        kernel.append(between - started)
        matrix.append(time.perf_counter() - between)
    if not kernel:
        return 0.0, 0.0
    return median(kernel) * 1e3, median(matrix) * 1e3


def _import_seconds(root: RunRoot) -> float:
    """``import repro.cli`` in a fresh interpreter, from the child's span."""
    spans = root.path / "tmp" / "import-spans.json"
    result = root.run([python(), "-m", "perfbench.import_probe", "--spans", str(spans)])
    if result.code != 0:
        raise BenchError("import probe failed")
    dump = json.loads(spans.read_text())
    spans.unlink()
    span = next(s for s in dump["spans"] if s["name"] == "cli.import")
    return span["end"] - span["start"]
