"""Micro-batching request scheduler for the fleet engine.

Requests from different cells arrive at different times; running each
one alone squanders the engine's batched forward path.  The
:class:`MicroBatcher` coalesces ``estimate`` and ``predict`` requests
into per-kind queues and releases a queue as one engine call when it
either fills up (**size trigger**, ``max_batch``) or its oldest request
has waited long enough (**deadline trigger**, ``max_delay_s``) — the
classic latency/throughput knob of serving systems.

Time is injected (``clock``) so schedules are exactly reproducible in
tests and simulations; production callers pass ``time.monotonic``.
Every completion carries its queueing latency and the size of the
batch that served it, and :attr:`MicroBatcher.stats` aggregates both.

The batcher is thread-safe: submissions, polls and flushes serialize
on one re-entrant lock (:attr:`MicroBatcher.lock`), so concurrent
submitters — gateway executor threads, a polling serving loop — never
tear a queue or double-serve a request.  Holding the lock across the
engine call also means an engine shared with out-of-band work (e.g. a
fleet rollout on a gateway executor thread) can be serialized against
batch flushes by taking the same lock.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Callable

from .engine import FleetEngine

__all__ = ["Request", "Completion", "BatchStats", "MicroBatcher"]

_KINDS = ("estimate", "predict")


@dataclasses.dataclass(frozen=True, slots=True)
class Request:
    """One queued inference request.

    ``payload`` holds the kind-specific operands: ``(V, I, T)`` for an
    estimate, ``(I_avg, T_avg, N)`` for a prediction.

    ``trace`` optionally carries the submitter's
    :class:`~repro.monitor.tracing.TraceContext` so the batcher can
    attribute queue-wait and batch-serve time to the originating
    request's trace (``None`` — the common case — costs nothing).

    Slotted: at gateway rates (~10k req/s) one of these is allocated
    per request, and ``__slots__`` drops the per-instance ``__dict__``.
    """

    req_id: int
    kind: str
    cell_id: str
    payload: tuple[float, ...]
    submitted_s: float
    trace: object | None = None


@dataclasses.dataclass(frozen=True, slots=True)
class Completion:
    """Outcome of one request after its batch was served.

    Attributes
    ----------
    req_id, cell_id, kind:
        Echo of the originating request.
    value:
        The SoC the engine returned (NaN when the request failed).
    wait_s:
        Time the request sat in the queue before its batch fired.
    batch_size:
        Number of requests served by the same engine call.
    error:
        Failure message when the engine rejected this request
        (``None`` on success).  A bad request never blocks its
        batchmates: requests for unregistered cells are rejected
        before the engine call, and an engine-level failure makes the
        scheduler retry the rest individually.
    """

    req_id: int
    cell_id: str
    kind: str
    value: float
    wait_s: float
    batch_size: int
    error: str | None = None

    @property
    def ok(self) -> bool:
        """Whether the engine served this request successfully."""
        return self.error is None


@dataclasses.dataclass(slots=True)
class BatchStats:
    """Aggregate latency/throughput accounting across all flushes."""

    requests: int = 0
    errors: int = 0
    flushes: int = 0
    size_flushes: int = 0
    deadline_flushes: int = 0
    forced_flushes: int = 0
    total_wait_s: float = 0.0
    max_wait_s: float = 0.0

    def mean_wait_s(self) -> float:
        """Mean queueing latency per request."""
        return self.total_wait_s / self.requests if self.requests else 0.0

    def mean_batch_size(self) -> float:
        """Mean number of requests coalesced per engine call."""
        return self.requests / self.flushes if self.flushes else 0.0


class MicroBatcher:
    """Coalesce single-cell requests into batched engine calls.

    Parameters
    ----------
    engine:
        The :class:`~repro.serve.engine.FleetEngine` (or
        :class:`~repro.serve.sharding.ShardedFleet`) serving the fleet.
    max_batch:
        Queue size that releases a batch immediately.
    max_delay_s:
        Longest any request may wait; :meth:`poll` releases queues
        whose oldest entry has exceeded it.
    clock:
        Monotonic time source (injectable for deterministic tests).
    """

    def __init__(
        self,
        engine: FleetEngine,
        max_batch: int = 64,
        max_delay_s: float = 0.010,
        clock: Callable[[], float] = time.monotonic,
        on_worker_crash: Callable[[], bool] | None = None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_delay_s < 0:
            raise ValueError("max_delay_s cannot be negative")
        self.engine = engine
        self.max_batch = max_batch
        self.max_delay_s = max_delay_s
        self.clock = clock
        # recovery hook: invoked (under the batcher lock) when a batched
        # engine call dies with WorkerCrashError; return True after
        # restarting/rebalancing workers and the batch is retried once
        # against the healed fleet instead of erroring out per request
        self.on_worker_crash = on_worker_crash
        self.stats = BatchStats()
        # guards queues, outbox and stats against concurrent submitters;
        # re-entrant because a size-triggered submit flushes inline
        self.lock = threading.RLock()
        self._queues: dict[str, list[Request]] = {kind: [] for kind in _KINDS}
        self._outbox: list[Completion] = []
        self._next_id = 0

    # -- submission ----------------------------------------------------
    def submit_estimate(self, cell_id: str, voltage: float, current: float, temp_c: float, trace=None) -> int:
        """Queue a Branch 1 request; returns its request id.

        Fires the ``estimate`` queue immediately if this submission
        fills it.  ``trace`` optionally attaches the submitter's trace
        context (see :class:`Request`).
        """
        return self._submit("estimate", cell_id, (voltage, current, temp_c), trace)

    def submit_predict(
        self, cell_id: str, current_avg: float, temp_avg_c: float, horizon_s: float, trace=None
    ) -> int:
        """Queue a Branch 2 what-if request; returns its request id.

        The cell needs a stored SoC by the time the batch fires (i.e.
        an earlier estimate completed); otherwise its completion comes
        back with :attr:`Completion.error` set.
        """
        return self._submit("predict", cell_id, (current_avg, temp_avg_c, horizon_s), trace)

    def _submit(self, kind: str, cell_id: str, payload: tuple[float, ...], trace=None) -> int:
        with self.lock:
            req = Request(self._next_id, kind, cell_id, payload, self.clock(), trace)
            self._next_id += 1
            self._queues[kind].append(req)
            if len(self._queues[kind]) >= self.max_batch:
                self._flush_kind(kind, "size")
            return req.req_id

    # -- release -------------------------------------------------------
    def poll(self) -> list[Completion]:
        """Release queues whose oldest request hit the deadline.

        Call this from the serving loop; returns all completions
        produced so far (including earlier size-triggered ones).
        """
        with self.lock:
            now = self.clock()
            for kind in _KINDS:
                queue = self._queues[kind]
                if queue and now - queue[0].submitted_s >= self.max_delay_s:
                    self._flush_kind(kind, "deadline")
            return self.drain()

    def flush(self) -> list[Completion]:
        """Force every queue out now and return all completions."""
        with self.lock:
            for kind in _KINDS:
                if self._queues[kind]:
                    self._flush_kind(kind, "forced")
            return self.drain()

    def drain(self) -> list[Completion]:
        """Return completions accumulated since the last drain."""
        with self.lock:
            out, self._outbox = self._outbox, []
            return out

    @property
    def pending(self) -> int:
        """Requests currently queued across both kinds."""
        with self.lock:
            return sum(len(q) for q in self._queues.values())

    # ------------------------------------------------------------------
    def _flush_kind(self, kind: str, trigger: str) -> None:
        queue = self._queues[kind]
        if not queue:
            return
        batch, self._queues[kind] = queue, []
        now = self.clock()
        # trace attribution: every traced request gets a queue-wait span;
        # the engine call itself runs under ONE representative context
        # (the first traced request), so engine/shard/wire/kernel child
        # spans nest in that trace — the others record a flat batch.serve
        # span with the same timing, which is the honest picture: one
        # engine call served them all.
        rep = next((r.trace for r in batch if r.trace is not None), None)
        if rep is None:
            outcomes = self._serve_batch(kind, batch, now)
        else:
            with rep.tracer.span(rep, "batch.serve", batch_size=len(batch), trigger=trigger):
                outcomes = self._serve_batch(kind, batch, now)
            t_done = self.clock()
            for r in batch:
                if r.trace is None:
                    continue
                r.trace.tracer.record(r.trace, "batch.queue_wait", r.submitted_s, now)
                if r.trace is not rep:
                    r.trace.tracer.record(
                        r.trace, "batch.serve", now, t_done, batch_size=len(batch), trigger=trigger
                    )
        for r, value, error in outcomes:
            wait = now - r.submitted_s
            self._outbox.append(Completion(r.req_id, r.cell_id, kind, value, wait, len(batch), error))
            self.stats.requests += 1
            self.stats.errors += error is not None
            self.stats.total_wait_s += wait
            self.stats.max_wait_s = max(self.stats.max_wait_s, wait)
        self.stats.flushes += 1
        setattr(self.stats, f"{trigger}_flushes", getattr(self.stats, f"{trigger}_flushes") + 1)

    def _attempt_batch(self, kind: str, batch: list[Request], now: float):
        """Serve the batch in one engine call; probe membership only after a ``KeyError``.

        Every engine raises ``KeyError`` for an unregistered cell before
        touching state (a worker as an ``err`` reply), so an all-known
        batch costs one call and no probes.  After a ``KeyError`` each
        request's cell is probed once (a round trip on a worker fleet),
        unregistered cells get their own error completions, and the rest
        is served in one call.  On a :class:`~repro.serve.sharding.ShardedFleet`,
        shards that ran before the failing shard are served twice on that
        path, the crash retry's trade-off (see :meth:`_serve_batch`).  The
        probes touch the engine, so the whole attempt sits under the
        caller's crash-recovery umbrella.
        """
        try:
            return [(r, float(v), None) for r, v in zip(batch, self._run(kind, batch, now))]
        except KeyError:
            pass
        known = [r.cell_id in self.engine for r in batch]  # one probe per request
        rejected = [r for r, ok in zip(batch, known) if not ok]
        served = [r for r, ok in zip(batch, known) if ok]
        outcomes = [
            (r, float("nan"), f"unknown cell {r.cell_id!r}: not registered with the engine")
            for r in rejected
        ]
        if served:
            outcomes += [(r, float(v), None) for r, v in zip(served, self._run(kind, served, now))]
        return outcomes

    def _serve_batch(self, kind: str, batch: list[Request], now: float):
        """Serve one flushed batch, surviving crashes and poison requests.

        A :class:`~repro.serve.workers.WorkerCrashError` anywhere in the
        attempt (a shard worker subprocess died) triggers the
        ``on_worker_crash`` hook; if it reports a successful
        restart/rebalance the batch is retried **once** against the
        healed fleet.  Any other failure — or a retry that fails again —
        falls back to per-request isolation, where every request is
        individually wrapped so this method can never raise: a flush
        that threw would kill the gateway's flusher task and strand
        every queued waiter.  (Cells on surviving shards are served
        twice by a batch retry; estimates/predictions are idempotent
        reads, so only their request counters notice.)
        """
        from .workers import WorkerCrashError  # late: workers imports this module's engine types

        try:
            return self._attempt_batch(kind, batch, now)
        except WorkerCrashError:
            # the hook itself touches the fleet (respawn + init), so a
            # persistently-crashing worker can raise right here — treat
            # that as "not recovered", never let it escape the flush
            try:
                recovered = self.on_worker_crash is not None and self.on_worker_crash()
            except Exception:
                recovered = False
            if recovered:
                try:
                    return self._attempt_batch(kind, batch, now)
                except Exception:
                    pass
        except Exception:
            pass
        # one poisoned request must not sink the batch: retry each
        # request alone and report failures on their own completions
        outcomes = []
        for r in batch:
            try:
                if r.cell_id not in self.engine:
                    outcomes.append(
                        (r, float("nan"), f"unknown cell {r.cell_id!r}: not registered with the engine")
                    )
                else:
                    outcomes.append((r, float(self._run(kind, [r], now)[0]), None))
            except Exception as exc:
                outcomes.append((r, float("nan"), f"{type(exc).__name__}: {exc}"))
        return outcomes

    def _run(self, kind: str, batch: list[Request], now: float):
        cell_ids = [r.cell_id for r in batch]
        cols = list(zip(*(r.payload for r in batch)))
        if kind == "estimate":
            return self.engine.estimate(cell_ids, cols[0], cols[1], cols[2], now_s=now)
        return self.engine.predict(cell_ids, cols[0], cols[1], cols[2], now_s=now)
