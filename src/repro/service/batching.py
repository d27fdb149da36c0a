"""Micro-batching: coalesce concurrent score requests into one kernel pass.

Under concurrent load many requests ask the same dataset for scores
within the same few milliseconds.  Scoring them one by one would pay
the batch kernel's setup per request; the engine is fastest when it
sees *many groups at once*.  The :class:`MicroBatcher` therefore queues
requests per ``(dataset, functions)`` coalescing key, waits up to
``window`` seconds for siblings to arrive (flushing early at
``max_batch``), and runs the union of all pending groups through a
single :func:`~repro.scoring.registry.score_member_lists` call — the
same dispatcher :func:`~repro.scoring.registry.score_groups` uses.
Each request then receives exactly its own slice of the combined sizes
and ``(G, F)`` score matrix.

Scoring runs on a worker thread (``loop.run_in_executor``) so the event
loop keeps accepting connections while a batch computes.  Results are
byte-identical to a serial :func:`repro.scoring.registry.score_groups`
call because both go through that one dispatcher.
"""

from __future__ import annotations

import asyncio
from collections.abc import Hashable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.engine import AnalysisContext, ParallelExecutor
from repro.obs import instruments
from repro.scoring.base import ScoringFunction
from repro.scoring.registry import score_member_lists

Node = Hashable

__all__ = ["MicroBatcher", "ScoreRequest"]


@dataclass
class ScoreRequest:
    """One request's share of a micro-batch: its groups and its future."""

    names: list[str]
    member_lists: list[list[Node]]
    id_lists: list[np.ndarray]
    future: asyncio.Future = field(repr=False)


@dataclass
class _BatchState:
    """Pending requests for one coalescing key plus the flush timer."""

    context: AnalysisContext
    functions: Sequence[ScoringFunction]
    executor: ParallelExecutor | None
    pending: list[ScoreRequest] = field(default_factory=list)
    handle: asyncio.TimerHandle | None = None


class MicroBatcher:
    """Request coalescer over the engine's batch scoring entry points.

    One instance serves every dataset; batches never mix coalescing
    keys, so a key is ``(dataset name, functions signature)`` — two
    requests scoring different function sets stay in separate kernel
    invocations (their GroupStats requirements differ).
    """

    def __init__(
        self, *, window: float = 0.005, max_batch: int = 64
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.window = window
        self.max_batch = max_batch
        self._states: dict[tuple, _BatchState] = {}
        self._inflight: set[asyncio.Task] = set()

    async def submit(
        self,
        key: tuple,
        context: AnalysisContext,
        functions: Sequence[ScoringFunction],
        executor: ParallelExecutor | None,
        names: list[str],
        member_lists: list[list[Node]],
        id_lists: list[np.ndarray],
    ) -> tuple[list[int], np.ndarray]:
        """Queue one request under ``key``; await its slice of the batch."""
        loop = asyncio.get_running_loop()
        state = self._states.get(key)
        if state is None:
            state = _BatchState(
                context=context, functions=functions, executor=executor
            )
            self._states[key] = state
        request = ScoreRequest(
            names=names,
            member_lists=member_lists,
            id_lists=id_lists,
            future=loop.create_future(),
        )
        state.pending.append(request)
        if sum(len(r.names) for r in state.pending) >= self.max_batch:
            self._flush(key)
        elif state.handle is None:
            state.handle = loop.call_later(
                self.window, self._flush, key
            )
        return await request.future

    def _flush(self, key: tuple) -> None:
        state = self._states.pop(key, None)
        if state is None or not state.pending:
            return
        if state.handle is not None:
            state.handle.cancel()
            state.handle = None
        task = asyncio.get_running_loop().create_task(
            self._run_batch(state)
        )
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _run_batch(self, state: _BatchState) -> None:
        requests = state.pending
        instruments.SERVICE_BATCHES.inc()
        instruments.SERVICE_BATCH_SIZE.observe(len(requests))
        member_lists: list[list[Node]] = []
        id_lists: list[np.ndarray] = []
        for request in requests:
            member_lists.extend(request.member_lists)
            id_lists.extend(request.id_lists)
        loop = asyncio.get_running_loop()
        try:
            sizes, rows = await loop.run_in_executor(
                None,
                score_member_lists,
                state.context,
                member_lists,
                state.functions,
                id_lists,
                state.executor,
            )
        except BaseException as exc:  # repro: noqa[REP006] - fan the failure out to every waiter
            for request in requests:
                if not request.future.done():
                    request.future.set_exception(exc)
            return
        offset = 0
        for request in requests:
            stop = offset + len(request.names)
            if not request.future.done():
                request.future.set_result(
                    (sizes[offset:stop], rows[offset:stop])
                )
            offset = stop

    async def drain(self) -> None:
        """Flush every queue and wait for all in-flight batches.

        The graceful-shutdown path: requests already queued still get
        answers; nothing new may be submitted afterwards.
        """
        for key in list(self._states):
            self._flush(key)
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)

    def __repr__(self) -> str:
        queued = sum(len(s.pending) for s in self._states.values())
        return (
            f"<MicroBatcher window={self.window} queued={queued} "
            f"inflight={len(self._inflight)}>"
        )
