"""Spans around each layer's public entry points, and the per-layer ledger.

The traced run wraps the public functions of every layer *from the
benchmark's side* (no span lives in ``src/``): :func:`instrument`
swaps class attributes and ``repro.serve.wire`` functions for timing
wrappers and restores them on exit.  Spans stay in memory as flat
columns (name, start, end, parent, request id, rows) and are written
out once at the end of the run.

Self time is a span's duration minus the time its direct children
cover; spans nest on one thread, so children never overlap and self
times of a tree sum to its root's duration.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import json
import threading
import time
from pathlib import Path

import numpy as np

# request id of the load-generator call running in the current task
REQUEST_ID: contextvars.ContextVar[int | None] = contextvars.ContextVar("perfbench_request", default=None)

# span name prefix -> the layer (module) it belongs to
LAYERS = {
    "gateway": "serve.gateway",
    "scheduler": "serve.scheduler",
    "sharding": "serve.sharding",
    "workers": "serve.workers",
    "transport": "serve.transport",
    "wire": "serve.wire",
    "engine": "serve.engine",
    "kernel": "core.kernels",
    "journal": "serve.persistence",
    "drift": "monitor.drift",
}


def read_wchar() -> int:
    """Bytes this process has written through ``write`` so far."""
    with open("/proc/self/io", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    return 0


class SpanLog:
    """In-memory span store with a per-thread stack for parent links."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.request: list[int] = []
        self.rows: list[int] = []
        self._local = threading.local()

    def __len__(self) -> int:
        return len(self.name)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, rows: int = 0) -> int:
        stack = self._stack()
        idx = len(self.name)
        parent = stack[-1] if stack else -1
        req = self.request[parent] if parent >= 0 else REQUEST_ID.get()
        self.name.append(name)
        self.parent.append(parent)
        self.request.append(-1 if req is None else req)
        self.rows.append(rows)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack().pop()

    # -- analysis ------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        start = np.asarray(self.start)
        end = np.asarray(self.end)
        duration = end - start
        parent = np.asarray(self.parent, dtype=np.intp)
        has_parent = parent >= 0
        self_time = duration.copy()
        np.subtract.at(self_time, parent[has_parent], duration[has_parent])
        return {
            "name": np.asarray(self.name, dtype=object),
            "duration": duration,
            "self": self_time,
            "parent": parent,
            "rows": np.asarray(self.rows, dtype=np.int64),
        }

    def write(self, path: Path) -> None:
        """Dump every span as one JSON line (name, start, end, parent, request, rows)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = (self.name, self.start, self.end, self.parent, self.request, self.rows)
        with open(path, "w", encoding="utf-8") as fh:
            for record in zip(*columns):
                fh.write(json.dumps(record) + "\n")


def _rows_of(arg) -> int:
    try:
        return len(arg)
    except TypeError:
        return 1


def _sync(log: SpanLog, name: str, fn, rows_arg: int | None = None, after=None):
    """Wrap a function or method: one span per call, closed however it exits."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rows = _rows_of(args[rows_arg]) if rows_arg is not None and len(args) > rows_arg else 0
        idx = log.open(name, rows)
        try:
            result = fn(*args, **kwargs)
        finally:
            log.close(idx)
        if after is not None:
            after(idx, args, kwargs, result)
        return result

    return wrapper


class _TimedAwaitable:
    """Drive a coroutine step by step, one span per resumption.

    The steps are the coroutine's time on the event loop; the gaps
    between them are waits and belong to nobody.
    """

    __slots__ = ("_log", "_name", "_coro")

    def __init__(self, log: SpanLog, name: str, coro):
        self._log = log
        self._name = name
        self._coro = coro

    def __await__(self):
        it = self._coro.__await__()
        value, error = None, None
        while True:
            idx = self._log.open(self._name)
            try:
                yielded = it.throw(error) if error is not None else it.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                self._log.close(idx)
            try:
                value, error = (yield yielded), None
            except BaseException as exc:  # cancellation and errors go back into the coroutine
                value, error = None, exc


def _async(log: SpanLog, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _TimedAwaitable(log, name, fn(*args, **kwargs))

    return wrapper


class Recorder:
    """Side data the wrappers collect next to the spans."""

    def __init__(self):
        self.wire_bytes = 0
        self.wire_frames = 0
        self.pickle_frames = 0
        self.journal_records = 0
        self.journal_bytes = 0
        self.worker_batches: list[tuple] = []  # (op, ids, columns, kwargs) sent to workers, for replay


@contextlib.contextmanager
def instrument(log: SpanLog, recorder: Recorder, *, record_worker_batches: bool = False):
    """Wrap every layer's public entry points for the duration of the block."""
    from repro.core.kernels import CompiledTwoBranchKernel, FusedTwoBranchKernel
    from repro.monitor.drift import DriftMonitor
    from repro.serve import wire
    from repro.serve.engine import FleetEngine
    from repro.serve.gateway import SocGateway
    from repro.serve.persistence import StateJournal
    from repro.serve.scheduler import MicroBatcher
    from repro.serve.sharding import ShardedFleet
    from repro.serve.transport import Transport
    from repro.serve.workers import _WorkerClient

    patches: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, wrapper) -> None:
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def sync(owner, attr: str, name: str, rows_arg: int | None = None, after=None) -> None:
        patch(owner, attr, _sync(log, name, owner.__dict__[attr], rows_arg, after))

    # gateway: coroutine steps on the loop
    for op in ("estimate", "predict"):
        patch(SocGateway, op, _async(log, f"gateway.{op}", SocGateway.__dict__[op]))
    # scheduler: submissions (which may size-flush inline) and flushes
    for attr in ("submit_estimate", "submit_predict", "poll", "flush"):
        sync(MicroBatcher, attr, f"scheduler.{attr}")
    # sharding and engine: batched calls, rows = len(cell_ids)
    for owner, prefix in ((ShardedFleet, "sharding"), (FleetEngine, "engine")):
        for op in ("estimate", "predict", "rollout_fleet"):
            sync(owner, op, f"{prefix}.{op}", rows_arg=1)
    sync(ShardedFleet, "__contains__", "sharding.contains")

    # worker clients (parent side of the pipe)
    def keep_batch(op):
        def after(idx, args, kwargs, result):
            recorder.worker_batches.append((op, list(args[1]), tuple(args[2:]), dict(kwargs)))

        return after if record_worker_batches else None

    for op in ("estimate", "predict"):
        sync(_WorkerClient, op, f"workers.{op}", rows_arg=1, after=keep_batch(op))
    sync(_WorkerClient, "rollout_fleet", "workers.rollout_fleet", rows_arg=1)
    sync(Transport, "request_with", "transport.request_with")

    # wire codec (module functions, looked up through the module by callers)
    def sent(idx, args, kwargs, chunks):
        recorder.wire_frames += 1
        recorder.wire_bytes += sum(memoryview(c).nbytes for c in chunks)

    def pickled(idx, args, kwargs, body):
        recorder.wire_frames += 1
        recorder.pickle_frames += 1
        recorder.wire_bytes += len(body) + wire.LENGTH_PREFIX_SIZE

    def received(idx, args, kwargs, result):
        body = args[0]
        recorder.wire_frames += 1
        recorder.wire_bytes += len(body) + wire.LENGTH_PREFIX_SIZE
        if body[:1] != bytes([wire.V2_MAGIC]):
            recorder.pickle_frames += 1

    patch(wire, "encode_v2", _sync(log, "wire.encode", wire.encode_v2, after=sent))
    patch(wire, "encode_str_list", _sync(log, "wire.encode", wire.encode_str_list))
    patch(wire, "pickle_body", _sync(log, "wire.encode", wire.pickle_body, after=pickled))
    patch(wire, "decode_body", _sync(log, "wire.decode", wire.decode_body, after=received))

    # kernels
    for owner in (CompiledTwoBranchKernel, FusedTwoBranchKernel):
        fused = "_fused" if owner is FusedTwoBranchKernel else ""
        for op in ("estimate_soc", "predict_soc"):
            sync(owner, op, f"kernel.{op}{fused}", rows_arg=1)

    # persistence: count records inside the span, bytes from the process's write counter
    def journal(attr: str):
        fn = StateJournal.__dict__[attr]

        @functools.wraps(fn)
        def wrapper(self, items, *args, **kwargs):
            before = read_wchar()
            idx = log.open(f"journal.{attr}")
            try:
                items = list(items)
                log.rows[idx] = len(items)
                return fn(self, items, *args, **kwargs)
            finally:
                log.close(idx)
                recorder.journal_records += len(items)
                recorder.journal_bytes += read_wchar() - before

        return wrapper

    for attr in ("append_cells", "append_windows"):
        patch(StateJournal, attr, journal(attr))

    def one_record(idx, args, kwargs, result):
        recorder.journal_records += 1

    sync(StateJournal, "begin_rollout", "journal.begin_rollout", after=one_record)
    sync(StateJournal, "drop_cell", "journal.drop_cell", after=one_record)

    # drift monitor (events are read off the monitor itself)
    sync(DriftMonitor, "observe_soc", "drift.observe_soc", rows_arg=2)
    sync(DriftMonitor, "observe_residuals", "drift.observe_residuals", rows_arg=1)
    sync(DriftMonitor, "track", "drift.track", rows_arg=1)
    try:
        yield log
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


# -- per-layer ledger ---------------------------------------------------------
def layer_of(name: str) -> str:
    return LAYERS[name.split(".", 1)[0]]


def summarize(log: SpanLog) -> dict:
    """Calls, busy and self time (ms) and rows per layer, plus raw arrays."""
    if not len(log):
        return {"layers": {}, "spans": None}
    a = log.arrays()
    layer = np.array([layer_of(n) for n in a["name"]], dtype=object)
    # a layer's busy time counts only its outermost spans (re-entrant calls nest)
    parent_layer = np.where(a["parent"] >= 0, layer[np.maximum(a["parent"], 0)], None)
    outer = parent_layer != layer
    layers: dict[str, dict] = {}
    for name in sorted(set(layer)):
        mine = layer == name
        layers[name] = {
            "calls": int((mine & outer).sum()),
            "busy_ms": float(a["duration"][mine & outer].sum() * 1e3),
            "self_ms": float(a["self"][mine].sum() * 1e3),
            "rows": int(a["rows"][mine & outer].sum()),
        }
    return {"layers": layers, "spans": a, "layer": layer}

