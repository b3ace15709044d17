"""Shard workers behind the :class:`~repro.serve.transport.Transport` seam.

:class:`~repro.serve.sharding.ShardedFleet` assumes nothing in-process
about its shard workers — placement is a pure hash, the journal
protocol is append-only files, and every worker call goes through the
engine serving API.  The worker class here cashes that in: a full
:class:`~repro.serve.engine.FleetEngine` runs behind the same
duck-typed interface over the length-prefixed frame protocol
(:mod:`repro.serve.wire`), carried by any
:class:`~repro.serve.transport.Transport`:

- :class:`WorkerSpec` — the one description of a shard and the one
  engine builder.  ``WorkerSpec(url=...).resolve(k)`` is the worker
  factory :class:`ShardedFleet <repro.serve.sharding.ShardedFleet>`
  uses; :meth:`WorkerSpec.build_engine` builds the
  :class:`~repro.serve.engine.FleetEngine` both in process
  (``url=None``) and in a worker child, which rebuilds the spec from
  its ``init`` payload (the spec's declarative fields plus model
  weights);
- :class:`ShardWorker` — one client and one lifecycle whatever the
  medium, built from one resolved spec.  Its URL picks the launch:
  ``pipe://`` spawns a child on its stdio pipes (the local fast path),
  ``tcp://host:port`` / ``unix:///path`` spawn a listener child
  (``spawn=True``) or dial a running worker, and
  :meth:`ShardWorker.from_transport` adopts a worker that dialed in.

Wire protocol: one v2 frame (:mod:`repro.serve.wire`) per request and
one per reply, strictly in order.  A request's kind names the op; the
reply is ``ok`` (meta ``{"value": ...}`` or arrays) or ``err`` (meta
``{"type", "message"}``).  Every op has one request schema
(``_REQUESTS``, checked before the op runs) and one reply shape;
``src/repro/serve/README.md`` tabulates both.  A cell's state crosses
as :meth:`CellState.record() <repro.serve.engine.CellState.record>`,
the record the journal writes.

The serving side is :class:`WorkerEndpoint`, one dispatcher keyed on
the frame's kind, run by ``worker_main`` (pipes) and :func:`run_worker`
(socket listener).  A body that is not a v2 frame ends its connection
unread, so nothing a worker receives can execute code on it; a frame
that fails (unknown op, meta off its schema, an engine error) gets an
``err`` reply.  The link is unauthenticated: a peer that reaches a
listener can drive the engine and name the paths ``init`` opens, so
listeners belong on trusted networks only.

Failure semantics:

- **crash detection** — a peer that dies mid-call surfaces as
  :class:`WorkerCrashError` on the call that hit the dead link (with
  the exit code when the worker was locally spawned); ``alive``
  reports cached liveness between calls, and
  :meth:`ShardWorker.check_alive` actively probes a silent peer with a
  deadline-bounded ping.
- **recovery** — give the worker a journal and its engine journals
  every mutation; ``restart()`` respawns (or redials) the worker,
  which restores from that journal, so an interrupted fleet rollout
  resumes bit-for-bit via ``resume_rollout_fleet`` — the same 1e-9
  equivalence budget as the in-process shards, over any transport.
- **graceful drain** — ``close()`` sends a ``shutdown`` op: the
  worker flushes and closes its journal, replies, and exits 0; a
  spawning parent escalates to ``kill`` only after a grace period.

Fault injection for tests: ``crash_after_window`` arms the worker to
hard-exit (``os._exit``, no journal close — the crash being
simulated) after committing a given rollout window.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ..core.config import ModelConfig
from ..core.model import TwoBranchSoCNet
from ..core.rollout import RolloutResult
from ..datasets.base import CycleRecord
from ..monitor.drift import DriftEvent
from ..monitor.tracing import activate
from ..monitor.tracing import stage as trace_stage
from . import wire
from .engine import CellState, FleetEngine
from .persistence import StateJournal
from .registry import ModelRegistry
from .transport import (
    PipeTransport,
    Transport,
    TransportError,
    TransportListener,
    TransportTimeout,
    connect,
    parse_url,
)

__all__ = [
    "ShardWorker",
    "WorkerCrashError",
    "WorkerEndpoint",
    "WorkerSpec",
    "run_worker",
    "run_worker_connect",
    "worker_main",
]


class WorkerCrashError(RuntimeError):
    """A shard worker process died (or its link dropped) during a call."""


def _wire_col(col) -> np.ndarray:
    """One inference operand as a contiguous 1-D float wire payload.

    Scalars ship as a single element — the remote engine broadcasts
    them across the batch exactly as the in-process engine would — so
    a fleet-wide constant never crosses the wire N times.  ``float32``
    arrays keep their dtype (the v2 codec is dtype-faithful, and a
    silent float64 upcast would re-copy the bandwidth the tiered
    serving mode saves); everything else is normalized to float64.
    """
    array = np.asarray(col)
    if array.dtype != np.float32:
        array = np.asarray(array, dtype=np.float64)
    if array.ndim == 0:
        array = array.reshape(1)
    return np.ascontiguousarray(array)


# -- model shipping ----------------------------------------------------
def _model_wire(model: TwoBranchSoCNet | None) -> tuple[dict | None, list[np.ndarray]]:
    """A model as v2 meta + arrays: config and parameter names, then the weights."""
    if model is None:
        return None, []
    state = model.state_dict()
    meta = {
        "hidden": list(model.config.hidden),
        "horizon_scale_s": float(model.config.horizon_scale_s),
        "names": list(state),
    }
    return meta, list(state.values())


def _build_model(meta: dict | None, arrays: Sequence[np.ndarray]) -> TwoBranchSoCNet | None:
    """Rebuild a :func:`_model_wire` model; ``ValueError`` when the two disagree."""
    if meta is None:
        return None
    hidden = meta["hidden"]
    # the widths size every layer the model allocates: bound them by the
    # weights the frame carries before building anything (ModelConfig
    # refuses non-positive widths, load_state_dict any shape mismatch)
    if sum(a * b for a, b in zip(hidden, hidden[1:])) + sum(hidden) > sum(a.size for a in arrays):
        raise ValueError(f"hidden widths {hidden} need more weights than the frame carries")
    model = TwoBranchSoCNet(ModelConfig(tuple(hidden), meta["horizon_scale_s"]), rng=np.random.default_rng(0))
    model.load_state_dict(dict(zip(meta["names"], arrays)))
    return model


class _WorkerClient:
    """Shared client half of the worker protocol over a :class:`Transport`.

    :class:`ShardWorker` owns the connection lifecycle (spawn/dial/reap)
    through ``self._transport`` (the live transport, or ``None`` while
    down) and its ``_down_message`` / ``_transport_failed`` hooks, which
    turn a dead link into the :class:`WorkerCrashError` the caller sees.
    Everything else — the engine RPC surface, v2 encoding, trace
    propagation — lives here, identical over pipes and sockets.
    """

    name: str = "shard"
    _transport: Transport | None = None
    _call_timeout_s: float | None = None

    # -- engine API (one RPC each) --------------------------------------
    def register_cell(
        self, cell_id: str, chemistry: str | None = None, model_name: str | None = None
    ) -> CellState:
        """Register a cell on the worker's engine (see ``FleetEngine``)."""
        return self._state("register_cell", cell_id=cell_id, chemistry=chemistry, model_name=model_name)

    def deregister_cell(self, cell_id: str) -> CellState:
        """Remove a cell; returns its final state."""
        return self._state("deregister_cell", cell_id=cell_id)

    def reroute_cell(self, cell_id: str, model_name: str | None = None) -> CellState:
        """Re-resolve a cell's serving model in place."""
        return self._state("reroute_cell", cell_id=cell_id, model_name=model_name)

    def cell(self, cell_id: str) -> CellState:
        """State record for one registered cell (KeyError when unknown)."""
        return self._state("cell", cell_id=cell_id)

    def cells(self) -> Iterator[CellState]:
        """Iterate detached copies of all cells' state records."""
        return map(CellState.from_record, self._call("cells"))

    def __len__(self) -> int:
        return int(self._call("len"))

    def __contains__(self, cell_id: str) -> bool:
        return bool(self._call("contains", cell_id=cell_id))

    def estimate(
        self,
        cell_ids: Sequence[str],
        voltage,
        current,
        temp_c,
        now_s: float | None = None,
    ) -> np.ndarray:
        """Batched Branch 1 on the worker (see ``FleetEngine.estimate``).

        Ships the batch as one v2 frame: the cell-id blob and three raw
        float payloads.
        """
        ids = list(cell_ids)
        meta = {"n": len(ids), "now_s": now_s}
        # the wire.request span covers encode + round-trip + decode; its
        # context rides in the frame meta so the worker's worker.* spans
        # parent under it
        with trace_stage("wire.request", op="estimate") as h:
            if h is not None:
                meta[wire.TRACE_META_KEY] = wire.pack_trace_context(h.ctx)
            payload = [wire.encode_str_list(ids), *(_wire_col(col) for col in (voltage, current, temp_c))]
            reply = self._roundtrip("estimate", meta, payload)
            if h is not None:
                h.ctx.tracer.absorb(reply.meta.get("spans") or ())
            # copy out of the frame body: callers get writable arrays, as
            # they would from an in-process engine
            return reply.arrays[0].copy()

    def predict(
        self,
        cell_ids: Sequence[str],
        current_avg,
        temp_avg_c,
        horizon_s,
        soc_now=None,
        commit: bool = False,
        now_s: float | None = None,
    ) -> np.ndarray:
        """Batched Branch 2 on the worker (see ``FleetEngine.predict``)."""
        ids = list(cell_ids)
        meta = {"n": len(ids), "has_soc": soc_now is not None, "commit": bool(commit), "now_s": now_s}
        with trace_stage("wire.request", op="predict") as h:
            if h is not None:
                meta[wire.TRACE_META_KEY] = wire.pack_trace_context(h.ctx)
            arrays = [_wire_col(col) for col in (current_avg, temp_avg_c, horizon_s)]
            if soc_now is not None:
                arrays.append(_wire_col(soc_now))
            reply = self._roundtrip("predict", meta, [wire.encode_str_list(ids), *arrays])
            if h is not None:
                h.ctx.tracer.absorb(reply.meta.get("spans") or ())
            return reply.arrays[0].copy()

    def rollout_fleet(
        self,
        assignments: Iterable[tuple[str, CycleRecord]],
        step_s: float,
        step_hook: Callable[[int], None] | None = None,
    ) -> dict[str, RolloutResult]:
        """Fleet rollout on the worker; numerically the in-process result.

        Assignments ship as a v2 frame — deduplicated cycle channels
        stacked into raw arrays plus per-cycle JSON scalars and tags —
        and the reply streams every trajectory back as three stacked
        arrays.  Cycle tags must be JSON: others raise ``TypeError``
        here, before any byte is written.  ``step_hook`` cannot cross
        the process boundary — use :meth:`crash_after_window` for fault
        injection instead.
        """
        return self._rollout_call("rollout_fleet", assignments, step_s, step_hook)

    def resume_rollout_fleet(
        self,
        assignments: Iterable[tuple[str, CycleRecord]],
        step_s: float,
        step_hook: Callable[[int], None] | None = None,
    ) -> dict[str, RolloutResult]:
        """Finish an interrupted rollout from the worker's journal."""
        return self._rollout_call("resume_rollout_fleet", assignments, step_s, step_hook)

    def _rollout_call(self, op, assignments, step_s, step_hook) -> dict[str, RolloutResult]:
        if step_hook is not None:
            raise ValueError("step_hook cannot cross the process boundary")
        with trace_stage("wire.request", op=op) as h:
            meta, arrays = wire.encode_rollout_request(assignments, float(step_s))
            if h is not None:
                meta[wire.TRACE_META_KEY] = wire.pack_trace_context(h.ctx)
            reply = self._roundtrip(op, meta, arrays)
            if h is not None:
                h.ctx.tracer.absorb(reply.meta.get("spans") or ())
            return wire.decode_rollout_results(reply.meta, reply.arrays)

    def metrics_snapshot(self) -> dict | None:
        """The worker engine's metrics snapshot (``None`` unless ``monitor``).

        One ``metrics`` round-trip; the snapshot is plain JSON, so it
        merges with other workers' via
        :func:`repro.monitor.metrics.merge_snapshots`.
        """
        return self._call("metrics")

    def drift_events(self) -> list[DriftEvent]:
        """The worker monitor's drift-event ring (empty unless ``monitor``).

        One ``drift_events`` round-trip; each
        :class:`~repro.monitor.drift.DriftEvent` crosses as its JSON
        fields and feeds the harvester / autopilot on the parent side.
        """
        return [DriftEvent(**{**r, "trace_ids": tuple(r["trace_ids"])}) for r in self._call("drift_events")]

    def _adopt_state(self, state: CellState) -> None:
        """Install a migrating cell's state (rebalance protocol).

        A durable worker journals the adoption, so the migrated cell
        survives a restart of its *new* owner.
        """
        self._call("adopt_state", state=state.record())

    def _evict_state(self, cell_id: str) -> CellState:
        """Remove and return a migrating cell's state (rebalance protocol).

        A durable worker journals the drop, so a restart of the *old*
        owner cannot resurrect a cell the hash no longer routes to it.
        """
        return self._state("evict_state", cell_id=cell_id)

    # -- fault injection -------------------------------------------------
    def crash_after_window(self, window: int) -> None:
        """Arm the worker to hard-exit after committing rollout ``window``.

        The worker calls ``os._exit`` from the engine's ``step_hook`` —
        after the window's journal records flushed, before any
        shutdown path runs — simulating a mid-rollout process crash.
        """
        self._call("crash_after", window=int(window))

    # ------------------------------------------------------------------
    def _call(self, op: str, **meta):
        """One control round trip (a meta-only frame); returns the reply's ``value``."""
        return self._roundtrip(op, meta).meta.get("value")

    def _state(self, op: str, **meta) -> CellState:
        return CellState.from_record(self._call(op, **meta))

    def _roundtrip(self, op: str, meta: dict, arrays: Sequence[np.ndarray] = ()) -> wire.V2Frame:
        transport = self._transport
        if transport is None:
            raise WorkerCrashError(self._down_message(op))
        try:
            reply = transport.request(op, meta, arrays, timeout_s=self._call_timeout_s)
        except (TransportError, ValueError) as exc:
            # ValueError: the reply was not a v2 frame, so the link is
            # no longer speaking this protocol
            raise self._transport_failed(op, exc) from exc
        if reply.kind == "ok":
            return reply
        exc_type = {"KeyError": KeyError, "ValueError": ValueError}.get(reply.meta.get("type"), RuntimeError)
        raise exc_type(reply.meta.get("message"))


class ShardWorker(_WorkerClient):
    """One shard worker: a :class:`FleetEngine` behind the wire protocol.

    Implements the shard-worker interface :class:`ShardedFleet
    <repro.serve.sharding.ShardedFleet>` assumes (``register_cell`` /
    ``estimate`` / ``predict`` / ``rollout_fleet`` / state
    adopt/evict / ``len`` / ``in``), each call one round-trip on the
    wire protocol.

    ``spec`` is one resolved :class:`WorkerSpec` — URL, name and journal
    path already filled for this shard (:meth:`WorkerSpec.resolve` and
    :meth:`WorkerSpec.adopt` build it).  Its ``url`` picks how the
    worker is launched:

    - ``pipe://`` — spawn a child on its stdio pipes (the local fast
      path).  ``restart()`` respawns it.
    - ``tcp://host:port`` / ``unix:///path`` with ``spawn=True`` —
      launch :func:`run_worker` locally as a child listening on the URL
      (port 0 picks an ephemeral port), then dial it.  ``restart()``
      respawns the child.  This is how ``serve-sim --worker-transport
      tcp`` exercises the socket path on one machine.
    - the same URLs with ``spawn=False`` (default) — dial a worker that
      is already listening (``repro-soc worker --listen URL``), possibly
      on another host.  ``restart()`` redials: the crashed worker is
      expected to be brought back by its own supervisor, and the
      connect retry window makes the race benign.
    - ``url=None`` — no launch at all: :meth:`from_transport` adopts a
      worker that dialed in (``repro-soc worker --connect``), and
      :meth:`attach` re-homes it when it dials back after a crash.

    Whatever the launch, the lifecycle is one: a dead link surfaces as
    :class:`WorkerCrashError` on the call that hit it (with the exit
    code when this process spawned the worker), :meth:`check_alive`
    catches a *silent* death with a deadline-bounded ping, and a
    ``restart()`` re-sends the spec in ``init`` so a journaled worker
    restores its cells first.  The spec's ``name`` labels errors and
    health reports and is the identity an inbound worker re-attaches
    by; ``connect_timeout_s`` bounds a dial's retries and
    ``call_timeout_s`` is an optional receive deadline on every call.
    """

    def __init__(self, spec: WorkerSpec):
        self.spec = spec
        self.name = spec.name
        self._init = spec._init_payload()
        self._requested_url = None if spec.url is None else str(parse_url(spec.url))
        self.url: str | None = self._requested_url
        self._spawns = self._requested_url == "pipe://" or spec.spawn
        self._call_timeout_s = spec.call_timeout_s
        self._proc: subprocess.Popen | None = None
        self._transport = None
        self._exit_code: int | None = None
        self.restarts = 0
        if spec.url is not None:
            self._launch()

    @classmethod
    def from_transport(cls, transport: Transport, spec: WorkerSpec) -> ShardWorker:
        """Adopt an already-connected transport (a worker that dialed us).

        Used by the daemon for ``repro-soc worker --connect`` peers:
        the worker initiated the connection, so there is no URL to
        redial (``spec.url`` is ignored) — after a disconnect the worker
        is expected to dial again, and the daemon re-attaches the new
        transport with :meth:`attach`.
        """
        worker = cls(dataclasses.replace(spec, url=None))
        worker.attach(transport)
        return worker

    # -- lifecycle -----------------------------------------------------
    @property
    def alive(self) -> bool:
        """Cached liveness: a spawned child runs and the link is up.

        Cheap enough for ``/healthz``; a silently-dead peer stays
        ``True`` until a call fails or :meth:`check_alive` probes it.
        """
        if self._proc is not None and self._proc.poll() is not None:
            return False
        return self._transport is not None and not self._transport.closed

    @property
    def durable(self) -> bool:
        """Whether this worker journals its state (restart restores it)."""
        return self.spec.journal is not None

    @property
    def exit_code(self) -> int | None:
        """Exit code of the last spawned worker to die.

        ``None`` while it runs, and always for peers this process did
        not spawn — their exit codes are not observable, which is
        exactly why :meth:`check_alive` exists.
        """
        return self._exit_code

    def check_alive(self, timeout_s: float = 2.0) -> bool:
        """Actively probe the peer: one ``ping`` with a receive deadline.

        Returns ``False`` — and marks the worker dead — if the peer is
        down, the link is torn, or no ``pong`` arrives within
        ``timeout_s``.  This is the heartbeat the control plane runs
        between requests; a timeout poisons the transport (the stream
        may be mid-frame), so the only way back is ``restart()``.
        """
        transport = self._transport
        if transport is None or transport.closed:
            return False
        try:
            return transport.request("ping", timeout_s=timeout_s).meta.get("value") == "pong"
        except (TransportError, ValueError):
            self._drop_link()
            return False

    def restart(self) -> None:
        """Respawn (or redial) a dead worker; its journal restores it.

        A spawned child that is still running behind the dead link (hung,
        stopped, or its stream poisoned by a deadline) is killed first.
        An interrupted ``rollout_fleet`` is then completed with
        :meth:`resume_rollout_fleet`.
        """
        if self.alive:
            raise RuntimeError(f"shard worker {self.name!r} is still running")
        if self._requested_url is None:
            raise WorkerCrashError(
                f"shard worker {self.name!r} connected inbound; "
                "it must dial back in (reattach by name)"
            )
        self.restarts += 1
        self._drop_link()
        self._reap(grace_s=0.0)
        self._launch()

    def attach(self, transport: Transport) -> None:
        """Adopt a fresh transport for this worker and re-init its engine.

        The reconnect half of the ``--connect`` flow: a worker that
        dialed back in after a crash is re-attached here; its engine
        restores from its journal during ``init``, after which
        ``resume_rollout_fleet`` completes any interrupted windows.
        """
        self._drop_link()
        self._transport = transport
        self._roundtrip("init", *self._init)

    def close(self, grace_s: float = 5.0) -> int | None:
        """Drain the worker and drop the link; reap a spawned child.

        Sends ``shutdown`` (the worker closes its journal and exits),
        closes the transport, and — for spawned workers — waits up to
        ``grace_s`` before escalating to ``kill``.  Returns the exit
        code when the worker was spawned here, else ``None``.  Safe to
        call on a dead or already-closed worker.
        """
        if self._transport is not None and not self._transport.closed:
            try:
                self._call("shutdown")
            except WorkerCrashError:
                pass  # it died before acking
        self._drop_link()
        self._reap(grace_s)
        return self._exit_code

    def __enter__(self) -> ShardWorker:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # best-effort: do not leak children
        try:
            if self._proc is not None and self._proc.poll() is None:
                self._proc.kill()
                self._proc.wait()
        except Exception:
            pass

    # ------------------------------------------------------------------
    def _launch(self) -> None:
        """Spawn or dial the worker, then send ``init``."""
        if self._spawns:
            self.attach(self._spawn())
        else:
            self.attach(connect(self.url, timeout_s=self.spec.connect_timeout_s))

    def _spawn(self) -> Transport:
        """Start the worker child; return the link to it."""
        pipe = self._requested_url == "pipe://"
        proc = subprocess.Popen(
            [sys.executable, "-c", _BOOTSTRAP, *(() if pipe else (self._requested_url,))],
            stdin=subprocess.PIPE if pipe else None,
            stdout=subprocess.PIPE,
            env=_child_env(),
        )
        self._proc, self._exit_code = proc, None
        if pipe:
            return PipeTransport(proc.stdin, proc.stdout, peer=f"pipe://{self.name}")
        # the listener announces its resolved address (ephemeral ports!)
        # on stdout before accepting; an empty read means it died
        line = proc.stdout.readline().decode("utf-8", "replace").strip()
        if not line.startswith(WORKER_ANNOUNCE):
            self._reap(grace_s=2.0)
            raise WorkerCrashError(
                f"spawned worker {self.name!r} failed to listen on "
                f"{self._requested_url} (exit code {self._exit_code}, said {line!r})"
            )
        self.url = line[len(WORKER_ANNOUNCE) :].strip()
        return connect(self.url, timeout_s=self.spec.connect_timeout_s)

    def _drop_link(self) -> None:
        transport, self._transport = self._transport, None
        if transport is not None:
            transport.close()

    def _reap(self, grace_s: float) -> None:
        """Wait up to ``grace_s`` for a spawned child, then kill it."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            self._exit_code = proc.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            self._exit_code = proc.wait()
        for stream in (proc.stdin, proc.stdout):
            if stream is not None:
                try:
                    stream.close()
                except OSError:
                    pass

    def _down_message(self, op: str) -> str:
        return (
            f"shard worker {self.name!r} is not running "
            f"(last exit code {self._exit_code}); call restart()"
        )

    def _transport_failed(self, op: str, exc: Exception) -> WorkerCrashError:
        self._drop_link()
        detail = str(exc)
        # a spawned child that tore the link is exiting: reap its code.  A
        # deadline says nothing about the child, so do not wait on one.
        if self._proc is not None and not isinstance(exc, TransportTimeout):
            try:
                self._exit_code = self._proc.wait(timeout=_EXIT_GRACE_S)
            except subprocess.TimeoutExpired:
                pass
            else:
                detail = f"exit code {self._exit_code}"
        return WorkerCrashError(f"shard worker {self.name!r} died during {op!r} ({detail})")


# -c (not -m): runpy would re-execute this module on top of the copy the
# package __init__ already imported.  A URL argument makes a listener.
_BOOTSTRAP = (
    "import sys; from repro.serve.workers import run_worker, worker_main; "
    "sys.exit(run_worker(sys.argv[1]) if sys.argv[1:] else worker_main())"
)

# how long a torn link waits for its spawned child to exit (exit code)
_EXIT_GRACE_S = 2.0


def _child_env() -> dict:
    env = os.environ.copy()
    src_root = str(Path(__file__).resolve().parents[2])
    pythonpath = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_root if not pythonpath else src_root + os.pathsep + pythonpath
    return env


# -- worker specification ----------------------------------------------
@dataclasses.dataclass
class WorkerSpec:
    """Declarative description of one shard worker — the single factory.

    :class:`ShardedFleet <repro.serve.sharding.ShardedFleet>` resolves
    every shard through :meth:`resolve`, whatever the topology:

    - ``url=None`` — an in-process :class:`FleetEngine` (the original
      thread-sharded mode);
    - ``url="pipe://"`` — a :class:`ShardWorker` child over stdio pipes
      (the local fast path);
    - ``url="tcp://host:port"`` / ``"unix:///path"`` — a
      :class:`ShardWorker` over a socket; with ``spawn=True`` the worker
      process is launched locally first (``tcp://127.0.0.1:0`` picks
      ephemeral ports, so one spec template serves any shard count).

    :meth:`adopt` builds a :class:`ShardWorker` from the same template
    for a worker that dialed in, which is how the serve daemon
    provisions ``repro-soc worker --connect`` peers.  Either way the
    worker is built from a per-shard copy of this spec, and
    :meth:`build_engine` — the one engine builder — runs on it in
    process or, from the ``init`` payload, in the worker child.

    ``name``, ``url`` and ``journal`` are templates: a ``{shard}``
    placeholder is substituted with the shard index; a journal path
    without one gets a ``.shard{k}`` suffix so workers never share a
    journal file.  ``journal`` may also be a ready
    :class:`~repro.serve.persistence.StateJournal` *instance* — valid
    only for in-process shards, which share one fleet journal.
    ``metrics`` and ``drift`` are likewise instances shared by every
    in-process shard engine; ``registry`` may be a
    :class:`~repro.serve.registry.ModelRegistry` or its root directory.
    A worker child gets plain data instead: paths, flags, the dtype
    name and the model weights.

    ``monitor=True`` gives the engine a
    :class:`~repro.monitor.metrics.MetricsRegistry` and a
    :class:`~repro.monitor.drift.DriftMonitor` (default configurations)
    where the spec does not already give one.  A worker's registry is
    read over the wire via :meth:`ShardWorker.metrics_snapshot`, which
    :meth:`ShardedFleet.metrics
    <repro.serve.sharding.ShardedFleet.metrics>` merges across the
    topology; drift alarms surface as ``drift_events_total{kind=...}``.
    ``drift_from_registry=True`` resolves per-chemistry drift-detector
    specs from the registry's published-model metadata
    (:func:`~repro.serve.driftconfig.drift_resolver_from_registry`)
    instead; it requires a ``registry``.

    ``trace=True`` lets a worker record ``worker.deserialize`` /
    ``worker.compute`` / ``worker.serialize`` spans for requests whose
    v2 frame carries trace context (:data:`repro.serve.wire.TRACE_META_KEY`)
    and ship them back in the reply meta; unsampled requests pay one
    dict lookup.  ``archive_root`` and ``journal_segment_bytes`` are a
    worker journal's cold store and rotation size
    (:mod:`repro.serve.archive`).

    ``dtype`` selects the serving tier (``"float64"`` default;
    ``"float32"`` halves kernel memory traffic) and is forwarded to
    every resolved engine; estimate/predict replies come back in it.
    ``spawn``, ``connect_timeout_s`` and ``call_timeout_s`` describe the
    :class:`ShardWorker` launch and call deadlines.
    """

    url: str | None = None
    model: TwoBranchSoCNet | None = None
    registry: ModelRegistry | str | Path | None = None
    journal: StateJournal | str | Path | None = None
    monitor: bool = False
    trace: bool = False
    archive_root: str | Path | None = None
    journal_segment_bytes: int = 0
    drift_from_registry: bool = False
    dtype: object = None
    spawn: bool = False
    name: str = "shard{shard}"
    connect_timeout_s: float = 10.0
    call_timeout_s: float | None = None
    metrics: object = None
    drift: object = None

    def __post_init__(self):
        if self.url is not None:
            parse_url(_fill(self.url, 0))
        if self.model is None and self.registry is None:
            raise ValueError("need a default model, a registry root, or both")
        if self.drift_from_registry and self.registry is None:
            raise ValueError("drift_from_registry needs a registry to resolve specs from")

    @property
    def scheme(self) -> str | None:
        """``None`` for in-process, else the transport scheme."""
        if self.url is None:
            return None
        return parse_url(_fill(self.url, 0)).scheme

    def resolve(self, index: int):
        """Build the worker for shard ``index``: an engine or a :class:`ShardWorker`."""
        if self.url is None:
            if self.journal is not None and not isinstance(self.journal, StateJournal):
                raise ValueError("in-process shards share one StateJournal; pass the instance, not a path")
            return self.build_engine()
        spec = dataclasses.replace(
            self,
            url=_fill(self.url, index),
            name=self.name.format(shard=index),
            journal=self._journal_path(index),
        )
        return ShardWorker(spec)

    def adopt(self, transport: Transport, name: str) -> ShardWorker:
        """A :class:`ShardWorker` over an inbound ``transport``, from this template.

        For a worker that dialed in (``repro-soc worker --connect``)
        and introduced itself as ``name``: the name is kept verbatim —
        it is the identity a reconnect re-attaches by — and fills the
        journal template's ``{shard}`` (a plain path gets a ``.{name}``
        suffix).  Everything else, serving tier included, comes from
        the template exactly as for :meth:`resolve`.
        """
        spec = dataclasses.replace(self, name=name, journal=self._journal_path(name))
        return ShardWorker.from_transport(transport, spec)

    def build_engine(self) -> FleetEngine:
        """The :class:`FleetEngine` this spec describes — the one engine builder.

        Runs in process (:meth:`resolve` with ``url=None``) and in a
        worker child, whose ``init`` op rebuilds the spec from
        :meth:`_init_payload`.  A ``journal`` *path* is opened with the
        archive and segment settings, and the engine restores from it
        when it holds state (a restarted worker).
        """
        registry = self.registry
        if registry is not None and not isinstance(registry, ModelRegistry):
            registry = ModelRegistry(registry)
        metrics, drift = self.metrics, self.drift
        if self.monitor and metrics is None:
            from ..monitor.metrics import MetricsRegistry

            metrics = MetricsRegistry()
        if self.drift_from_registry:
            from .driftconfig import drift_resolver_from_registry

            # the engine wraps the resolver in a ChemistryDriftRouter
            drift = drift_resolver_from_registry(registry)
        elif self.monitor and drift is None:
            from ..monitor.drift import DriftMonitor

            drift = DriftMonitor(metrics=metrics)
        kwargs = dict(
            default_model=self.model,
            registry=registry,
            metrics=metrics,
            drift=drift,
            dtype=self.dtype or "float64",
        )
        journal = self.journal
        if journal is None or isinstance(journal, StateJournal):
            return FleetEngine(journal=journal, **kwargs)
        archive = None
        if self.archive_root:
            from .archive import DirectoryArchiveStore

            archive = DirectoryArchiveStore(self.archive_root)
        journal = StateJournal(journal, archive=archive, max_segment_bytes=self.journal_segment_bytes)
        snapshot = journal.snapshot()
        if snapshot.cells or snapshot.windows:
            return FleetEngine.restore(journal, **kwargs)
        return FleetEngine(journal=journal, **kwargs)

    def _init_payload(self) -> tuple[dict, list[np.ndarray]]:
        """The ``init`` frame: the fields a worker child rebuilds this spec from.

        Plain data only — paths, flags and the dtype name in the meta,
        with the model's config; its weights are the frame's arrays.
        In-process instances never cross the wire.
        """
        if isinstance(self.journal, StateJournal):
            raise ValueError(
                "process/socket workers own their journal file; pass a path template, "
                "not a StateJournal instance"
            )
        registry = self.registry.root if isinstance(self.registry, ModelRegistry) else self.registry
        model, weights = _model_wire(self.model)
        return {
            "model": model,
            "registry": None if registry is None else str(registry),
            "journal": None if self.journal is None else str(self.journal),
            "monitor": bool(self.monitor),
            "trace": bool(self.trace),
            "archive_root": None if self.archive_root is None else str(self.archive_root),
            "journal_segment_bytes": int(self.journal_segment_bytes),
            "drift_from_registry": bool(self.drift_from_registry),
            "dtype": np.dtype(self.dtype or "float64").name,
        }, weights

    def _journal_path(self, shard: int | str):
        """Journal file of shard index ``shard`` (or of the inbound worker so named)."""
        if not isinstance(self.journal, (str, Path)):
            return self.journal  # none, or an instance _init_payload rejects
        template = str(self.journal)
        if "{shard}" in template:
            return template.format(shard=shard)
        suffix = f"shard{shard}" if isinstance(shard, int) else shard
        return f"{template}.{suffix}"


def _fill(template: str, shard: int) -> str:
    """Substitute a ``{shard}`` placeholder (templates without one pass through)."""
    return template.format(shard=shard) if "{shard}" in template else template


# -- worker side -------------------------------------------------------
WORKER_ANNOUNCE = "worker listening on "

_OPT_STR = (str, type(None))
_OPT_NUM = (int, float, type(None))
_CELL = {"cell_id": str}
_ROLLOUT = {"step_s": (int, float), "n_pairs": int, "cycles": list}
# The one request schema per worker op: each meta field the op reads and
# its JSON type(s), checked before the op runs (serve/README.md also
# tabulates the reply shapes).
_REQUESTS: dict[str, dict] = {
    "init": {
        "model": (dict, type(None)),
        "registry": _OPT_STR,
        "journal": _OPT_STR,
        "monitor": bool,
        "trace": bool,
        "archive_root": _OPT_STR,
        "journal_segment_bytes": int,
        "drift_from_registry": bool,
        "dtype": str,
    },
    **dict.fromkeys(("shutdown", "ping", "metrics", "cells", "len", "drift_events"), {}),
    **dict.fromkeys(("deregister_cell", "cell", "contains", "evict_state"), _CELL),
    "register_cell": {**_CELL, "chemistry": _OPT_STR, "model_name": _OPT_STR},
    "reroute_cell": {**_CELL, "model_name": _OPT_STR},
    "adopt_state": {"state": dict},
    "crash_after": {"window": int},
    "estimate": {"n": int, "now_s": _OPT_NUM},
    "predict": {"n": int, "has_soc": bool, "commit": bool, "now_s": _OPT_NUM},
    "rollout_fleet": _ROLLOUT,
    "resume_rollout_fleet": _ROLLOUT,
}
_BULK = ("estimate", "predict", "rollout_fleet", "resume_rollout_fleet")
_ENGINELESS = ("init", "shutdown", "ping", "metrics", "crash_after")  # served before init
_MISSING = object()


def _check_request(kind: str, meta: dict, schema: dict | None = None) -> None:
    """Hold ``meta`` to ``kind``'s declared schema (``RuntimeError`` for an unknown op)."""
    schema = _REQUESTS.get(kind) if schema is None else schema
    if schema is None:
        raise RuntimeError(f"unknown op {kind!r}")
    for field, types in schema.items():
        if not isinstance(meta.get(field, _MISSING), types):
            raise ValueError(f"malformed {kind!r} frame: {field!r} must be {types}, got {meta.get(field)!r}")


def _crash_hook(after_window: int) -> Callable[[int], None]:
    def hook(window: int) -> None:
        if window >= after_window:
            os._exit(86)  # hard crash: skip journal close, atexit, everything

    return hook


class WorkerEndpoint:
    """The worker-side serving loop: read frames, dispatch, reply.

    One endpoint serves one :class:`Transport` until the peer goes
    away (``serve`` returns ``"closed"`` — a listener may then accept
    a new connection) or sends the ``shutdown`` op (``"shutdown"`` —
    the process should exit).  Both ``worker_main`` (pipes) and
    :func:`run_worker` (socket listener) are thin wrappers over this
    class, so the dispatch semantics — including journal close on
    drain and the crash-injection hook — are identical on every
    transport.
    """

    def __init__(self, transport: Transport):
        self.transport = transport
        self.engine: FleetEngine | None = None
        self._crash_after: int | None = None
        self._tracer = None

    def serve(self) -> str:
        """Serve until the peer closes (``"closed"``) or drains (``"shutdown"``)."""
        while True:
            try:
                frame = self.transport.recv_frame()
            except (TransportError, ValueError):
                # the peer vanished mid-frame, or sent a body that is not
                # a v2 frame: either way the connection is done, not the worker
                frame = None
            if frame is None:
                self._close_journal()
                return "closed"
            try:
                if self._serve_frame(frame):
                    return "shutdown"
            except TransportError:
                # the peer died while we were replying; nothing to tell it
                self._close_journal()
                return "closed"

    def _close_journal(self) -> None:
        if self.engine is not None and self.engine.journal is not None:
            self.engine.journal.close()

    def _serve_frame(self, frame: wire.V2Frame) -> bool:
        """Dispatch one request and write its reply; ``True`` means shutdown."""
        kind, meta, tracer = frame.kind, frame.meta, self._tracer
        ctx = None
        try:
            if tracer is not None and meta.get(wire.TRACE_META_KEY):
                ctx = tracer.from_wire(meta[wire.TRACE_META_KEY])
            _check_request(kind, meta)
            if self.engine is None and kind not in _ENGINELESS:
                raise RuntimeError(f"worker received {kind!r} before 'init'")
            if kind in _BULK:
                reply_meta, reply_arrays = self._bulk(kind, meta, frame.arrays, ctx)
            else:
                reply_meta, reply_arrays = {"value": self._control(kind, meta, frame.arrays)}, []
            if ctx is not None:
                reply_meta["spans"] = tracer.drain(ctx.trace_id)
            self.transport.send_v2("ok", reply_meta, reply_arrays)
        except TransportError:
            raise
        except Exception as exc:  # engine errors travel the wire, not the process
            if ctx is not None:
                tracer.drain(ctx.trace_id)  # discard: never leak a live buffer on errors
            self.transport.send_v2("err", {"type": type(exc).__name__, "message": str(exc)})
            return False
        return kind == "shutdown"

    def _control(self, kind: str, meta: dict, arrays):
        """Run one control op; returns the reply's JSON ``value``."""
        engine = self.engine
        if kind == "init":
            fields = {field: meta[field] for field in _REQUESTS["init"] if field != "model"}
            spec = WorkerSpec(model=_build_model(meta["model"], arrays), **fields)
            self.engine = spec.build_engine()
            if spec.trace:
                from ..monitor.tracing import SpanTracer

                # recorder only: no head sampling, no metrics — the
                # parent commits traces and owns the rollup
                self._tracer = SpanTracer(sample_rate=0.0, service="worker")
            return "ready"
        if kind == "shutdown":
            self._close_journal()
            return "bye"
        if kind == "ping":
            return "pong"
        if kind == "metrics":
            return None if engine is None else engine.metrics_snapshot()
        if kind == "crash_after":
            self._crash_after = meta["window"]
            return self._crash_after
        if kind in ("register_cell", "reroute_cell", "deregister_cell", "cell"):
            # the schema's fields are the engine method's keyword arguments
            return getattr(engine, kind)(**{field: meta[field] for field in _REQUESTS[kind]}).record()
        if kind == "contains":
            return meta["cell_id"] in engine
        if kind == "adopt_state":
            # unlike in-process shards (whose shared journal already holds
            # the record), this worker's own journal must learn about cells
            # migrating in — or a restart would lose them
            _check_request(kind, meta["state"], CellState.RECORD_TYPES)
            state = CellState.from_record(meta["state"])
            engine._adopt_state(state)
            if engine.journal is not None:
                engine.journal.append_cell(state)
            return None
        if kind == "evict_state":
            state = engine._evict_state(meta["cell_id"])
            if engine.journal is not None:
                engine.journal.drop_cell(meta["cell_id"])
            return state.record()
        if kind == "cells":
            return [state.record() for state in engine.cells()]
        if kind == "len":
            return len(engine)
        return [dataclasses.asdict(event) for event in engine.drift_events()]

    def _bulk(self, kind: str, meta: dict, arrays, ctx) -> tuple[dict, list]:
        """Run one bulk op; returns the reply's meta and arrays.

        With trace context in the meta and ``trace=True``, records
        ``worker.deserialize`` / ``worker.compute`` / ``worker.serialize``
        spans (shipped back as ``"spans"``).  The serialize span covers
        reply *assembly* only: the spans ride inside the frame, so its
        write cannot be timed from in here.  Timestamps are
        ``time.monotonic``, machine-wide on Linux, so they align with
        the parent's spans.
        """
        engine, tracer = self.engine, self._tracer
        t0 = time.monotonic()
        if kind in ("estimate", "predict"):
            ids = wire.decode_str_list(arrays[0], meta["n"])
        else:
            pairs, step_s = wire.decode_rollout_request(meta, arrays)
        if ctx is not None:
            tracer.record(ctx, "worker.deserialize", t0, time.monotonic(), op=kind)
        with activate(ctx), trace_stage("worker.compute", op=kind):
            if kind == "estimate":
                out = engine.estimate(ids, *arrays[1:4], now_s=meta["now_s"])
            elif kind == "predict":
                soc_now = arrays[4] if meta["has_soc"] else None
                commit, now_s = meta["commit"], meta["now_s"]
                out = engine.predict(ids, *arrays[1:4], soc_now=soc_now, commit=commit, now_s=now_s)
            else:
                hook = None if self._crash_after is None else _crash_hook(self._crash_after)
                results = getattr(engine, kind)(pairs, step_s, step_hook=hook)
        # estimate/predict replies are zero-copy (no assembly step); their
        # serialize span still marks the stage so trees stay uniform
        t_ser = time.monotonic()
        reply = ({}, [out]) if kind in ("estimate", "predict") else wire.encode_rollout_results(results)
        if ctx is not None:
            tracer.record(ctx, "worker.serialize", t_ser, time.monotonic(), op=kind)
        return reply


def worker_main() -> int:
    """Child-process serving loop over the stdio pipes.

    Runs until the parent closes the pipe (implicit drain) or sends the
    ``shutdown`` op (explicit drain: journal closed, reply sent, exit
    0).  Exposed as ``python -m repro.serve.workers``.
    """
    rd, wr = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr  # stray prints must not corrupt the frame stream
    WorkerEndpoint(PipeTransport(wr, rd, peer="pipe://parent")).serve()
    return 0


def run_worker(listen_url: str, once: bool = False) -> int:
    """Standalone socket worker: bind, announce, serve (``repro-soc worker``).

    Binds ``listen_url`` (``tcp://host:port`` — port 0 for ephemeral —
    or ``unix:///path``), prints ``worker listening on <resolved-url>``
    to stdout so a spawning parent can learn the address, then serves
    one connection at a time.  A peer that disconnects (parent crash)
    just returns the worker to ``accept`` — state lives in the journal
    and the next ``init`` restores it — while the ``shutdown`` op ends
    the process.  ``once=True`` exits after the first connection
    closes (tests).
    """
    listener = TransportListener(listen_url)
    print(f"{WORKER_ANNOUNCE}{listener.url}", flush=True)
    sys.stdout = sys.stderr  # same hygiene as the pipe path, post-announce
    try:
        while True:
            try:
                peer = listener.accept()
            except TransportError:
                return 0  # listener closed under us
            try:
                reason = WorkerEndpoint(peer).serve()
            finally:
                peer.close()
            if reason == "shutdown" or once:
                return 0
    except KeyboardInterrupt:
        return 0
    finally:
        listener.close()


def run_worker_connect(
    daemon_url: str,
    name: str,
    reconnect: bool = True,
    connect_timeout_s: float = 10.0,
    announce=None,
) -> int:
    """Dial a daemon and serve as one of its shard workers (NAT-friendly).

    The inverse topology of :func:`run_worker`: instead of listening
    for the fleet to dial in, the worker dials the daemon's control
    URL, introduces itself with a ``worker_hello`` frame carrying its
    ``name``, and then the roles flip — the daemon wraps this very
    connection in a :class:`ShardWorker` and starts sending
    engine ops, which a :class:`WorkerEndpoint` serves.

    ``name`` is the worker's identity across reconnects: if this
    worker (or its link) dies and the process dials back in with the
    same name, the daemon re-attaches it to its old shard — journal
    restore plus ``resume_rollout_fleet`` make the comeback
    state-exact.  With ``reconnect=True`` (the default, the
    ``repro-soc worker --connect`` behavior) a dropped daemon
    connection is redialed until the daemon comes back or the process
    is killed; a clean ``shutdown`` op always ends the loop.
    """
    notify = announce if announce is not None else lambda m: print(m, flush=True)
    while True:
        try:
            transport = connect(daemon_url, timeout_s=connect_timeout_s)
        except TransportError as exc:
            if not reconnect:
                raise
            notify(f"daemon at {daemon_url} unreachable ({exc}); retrying")
            time.sleep(min(connect_timeout_s, 1.0))
            continue
        try:
            reply = transport.request("worker_hello", {"name": name}, timeout_s=connect_timeout_s)
        except (TransportError, ValueError):
            transport.close()
            if not reconnect:
                return 1
            continue
        if reply.kind != "ok" or reply.meta.get("value") != "attach":
            transport.close()
            notify(f"daemon at {daemon_url} refused worker {name!r}: {reply!r}")
            return 1
        notify(f"worker {name!r} attached to {daemon_url}")
        try:
            reason = WorkerEndpoint(transport).serve()
        finally:
            transport.close()
        if reason == "shutdown" or not reconnect:
            return 0
        notify(f"daemon connection lost; worker {name!r} re-dialing {daemon_url}")


if __name__ == "__main__":
    sys.exit(worker_main())
