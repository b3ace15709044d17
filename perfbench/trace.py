"""Per-layer metrics from a traced run's spans.

Every workload emits every metric; a layer that does no work on a
workload reads zero there (no wire frames in process, no journal
appends online).  On ``online_pipe`` the engine and the kernels run in
the workers, out of reach of the parent's wrappers, so their metrics
come from replaying the recorded worker batches against an in-process
engine built like the workers' (see :func:`replay_worker_batches`).
"""

from __future__ import annotations

import sys

import numpy as np

from repro.core.complexity import mlp_complexity
from repro.serve.engine import FleetEngine
from repro.serve.registry import ModelRegistry

from . import ledger
from .common import metric, order_stat_ms
from .inputs import CHEMISTRIES

# per-layer metric name -> unit, in BENCHMARK.json order
PER_LAYER_UNITS = {
    "core.kernels.rows": "count",
    "core.kernels.busy_ms": "ms",
    "core.kernels.us_per_row": "us",
    "core.kernels.gops": "Gop/s",
    "core.kernels.fused_share": "share",
    "serve.engine.calls": "count",
    "serve.engine.rows": "count",
    "serve.engine.busy_ms": "ms",
    "serve.engine.self_ms": "ms",
    "serve.engine.over_kernel": "ratio",
    "serve.scheduler.batches": "count",
    "serve.scheduler.mean_batch_rows": "count",
    "serve.scheduler.queue_wait_p50_ms": "ms",
    "serve.scheduler.queue_wait_p99_ms": "ms",
    "serve.scheduler.size_flush_share": "share",
    "serve.gateway.admitted": "count",
    "serve.gateway.shed": "count",
    "serve.gateway.max_in_flight": "count",
    "serve.gateway.send_lag_p50_ms": "ms",
    "serve.gateway.send_lag_p99_ms": "ms",
    "serve.sharding.calls": "count",
    "serve.sharding.busy_ms": "ms",
    "serve.sharding.fanout": "count",
    "serve.sharding.skew": "ratio",
    "serve.wire.frames": "count",
    "serve.wire.bytes": "B",
    "serve.wire.encode_ms": "ms",
    "serve.wire.decode_ms": "ms",
    "serve.wire.pickle_frames": "count",
    "serve.transport.round_trip_p50_ms": "ms",
    "serve.transport.round_trip_p99_ms": "ms",
    "serve.transport.wait_ms": "ms",
    "serve.workers.compute_ms": "ms",
    "serve.workers.cpu_s": "s",
    "serve.workers.restarts": "count",
    "serve.persistence.appends": "count",
    "serve.persistence.bytes": "B",
    "serve.persistence.busy_ms": "ms",
    "serve.persistence.bytes_per_cell_step": "B",
    "monitor.drift.calls": "count",
    "monitor.drift.busy_ms": "ms",
    "monitor.drift.events": "count",
    "trace.overhead": "ratio",
    "ledger.unattributed_share": "share",
    "reconcile.engine.gap_ms": "ms",
    "reconcile.kernels.gap_ms": "ms",
    "reconcile.sharding.gap_ms": "ms",
    "reconcile.wire.gap_ms": "ms",
    "reconcile.workers.gap_ms": "ms",
}

# ledger spans <-> the program's own ``trace_stage_seconds`` stages covering the same region
RECONCILE = {
    "engine": (("engine.estimate", "engine.predict"), ("engine.estimate", "engine.predict")),
    "kernels": (
        ("kernel.estimate_soc", "kernel.predict_soc", "kernel.estimate_soc_fused",
         "kernel.predict_soc_fused"),
        ("kernel.estimate", "kernel.predict", "kernel.estimate_fused", "kernel.predict_fused"),
    ),
    "sharding": (("workers.estimate", "workers.predict"), ("shard.estimate", "shard.predict")),
    "wire": (("workers.estimate", "workers.predict"), ("wire.request",)),
}


def stage_rollups(snapshot: dict) -> dict[str, tuple[int, float]]:
    """``trace_stage_seconds{stage=...}`` histograms -> ``{stage: (count, sum_s)}``."""
    out = {}
    for key, summary in (snapshot.get("histograms") or {}).items():
        if key.startswith("trace_stage_seconds{") and 'stage="' in key:
            stage = key.split('stage="', 1)[1].split('"', 1)[0]
            out[stage] = (int(summary.get("count") or 0), float(summary.get("sum") or 0.0))
    return out


def _mean_ms(summary: dict, names) -> float | None:
    mask = _spans_named(summary, names)
    return float(summary["spans"]["duration"][mask].mean() * 1e3) if mask.any() else None


def _sum_ms(summary: dict, names) -> float:
    mask = _spans_named(summary, names)
    return float(summary["spans"]["duration"][mask].sum() * 1e3) if mask.any() else 0.0


def _stage_mean_ms(rollups: dict, stages) -> float | None:
    count = sum(rollups.get(s, (0, 0.0))[0] for s in stages)
    total = sum(rollups.get(s, (0, 0.0))[1] for s in stages)
    return total / count * 1e3 if count else None


def _gap(ours: float | None, program: float | None) -> float:
    return 0.0 if ours is None or program is None else ours - program


def _spans_named(summary: dict, names) -> np.ndarray:
    a = summary["spans"]
    if a is None:
        return np.zeros(0, dtype=bool)
    return np.isin(a["name"], list(names))


def _branch_ops(registry_root) -> dict[str, int]:
    """Analytic ops per row of each branch (``core.complexity``)."""
    model = ModelRegistry(registry_root).load(CHEMISTRIES[0])
    return {
        "estimate": mlp_complexity(model.branch1.mlp).ops,
        "predict": mlp_complexity(model.branch2.mlp).ops,
    }


def compute_metrics(summary: dict, ops: dict[str, int]) -> dict:
    """``core.kernels`` and ``serve.engine`` metrics from one span summary."""
    a = summary["spans"]
    rows = busy_s = total_ops = fused_rows = 0
    if a is not None:
        names = a["name"].astype(str)
        kernel = np.char.startswith(names, "kernel.")
        estimate = kernel & np.char.startswith(names, "kernel.estimate")
        rows = int(a["rows"][kernel].sum())
        busy_s = float(a["duration"][kernel].sum())
        total_ops = (
            int(a["rows"][estimate].sum()) * ops["estimate"]
            + int(a["rows"][kernel & ~estimate].sum()) * ops["predict"]
        )
        fused_rows = int(a["rows"][kernel & np.char.endswith(names, "_fused")].sum())
    engine = summary["layers"].get("serve.engine", {"calls": 0, "rows": 0, "busy_ms": 0.0, "self_ms": 0.0})
    return {
        "core.kernels.rows": rows,
        "core.kernels.busy_ms": busy_s * 1e3,
        "core.kernels.us_per_row": busy_s / rows * 1e6 if rows else 0.0,
        "core.kernels.gops": total_ops / busy_s / 1e9 if busy_s else 0.0,
        "core.kernels.fused_share": fused_rows / rows if rows else 0.0,
        "serve.engine.calls": engine["calls"],
        "serve.engine.rows": engine["rows"],
        "serve.engine.busy_ms": engine["busy_ms"],
        "serve.engine.self_ms": engine["self_ms"],
        "serve.engine.over_kernel": engine["busy_ms"] / (busy_s * 1e3) if busy_s else 0.0,
    }


def _layer(summary: dict, name: str, key: str):
    return summary["layers"].get(name, {}).get(key, 0)


def _unattributed(summary: dict, busy_s: float) -> float:
    a = summary["spans"]
    if a is None or busy_s <= 0:
        return 1.0
    roots = float(a["duration"][a["parent"] < 0].sum())
    return (busy_s - roots) / busy_s


def replay_worker_batches(registry_root, placements, first, batches, warm: int = 32) -> dict:
    """Re-run the batches the workers served on an in-process engine, traced.

    The engine is built as the workers build theirs (registry routing,
    no monitors) and seeded by the same first batched estimate; the
    first ``warm`` batches run once untraced so lazy kernel fusion is
    not timed.
    """
    engine = FleetEngine(registry=ModelRegistry(registry_root))
    for p in placements:
        engine.register_cell(p.cell_id, chemistry=p.chemistry, model_name=p.model_name)
    engine.estimate([p.cell_id for p in placements], *first)
    for op, ids, cols, kwargs in batches[:warm]:
        getattr(engine, op)(ids, *cols, **kwargs)
    log = ledger.SpanLog()
    with ledger.instrument(log, ledger.Recorder()):
        for op, ids, cols, kwargs in batches:
            getattr(engine, op)(ids, *cols, **kwargs)
    return ledger.summarize(log)


def online_ledger(bench, log, recorder, traced, untraced, busy_s, snapshot, pids) -> dict:
    """Every per-layer metric for an online workload's traced phase."""
    summary = ledger.summarize(log)
    ops = _branch_ops(bench.registry_root)
    rollups = stage_rollups(snapshot)
    replay = None
    if recorder.worker_batches:
        replay = replay_worker_batches(
            bench.registry_root, bench.placements, bench.first, recorder.worker_batches
        )
    m = compute_metrics(replay if replay is not None else summary, ops)
    compute_ms = replay["layers"].get("serve.engine", {}).get("busy_ms", 0.0) if replay is not None else 0.0

    batches = traced["batches"]
    flushes = batches["flushes"]
    m["serve.scheduler.batches"] = flushes
    m["serve.scheduler.mean_batch_rows"] = batches["requests"] / flushes if flushes else 0.0
    m["serve.scheduler.queue_wait_p50_ms"] = order_stat_ms(traced["wait_s"], 0.50)
    m["serve.scheduler.queue_wait_p99_ms"] = order_stat_ms(traced["wait_s"], 0.99)
    m["serve.scheduler.size_flush_share"] = batches["size_flushes"] / flushes if flushes else 0.0

    m["serve.gateway.admitted"] = traced["requests"] - traced["shed"]
    m["serve.gateway.shed"] = traced["shed"]
    m["serve.gateway.max_in_flight"] = traced["peak_in_flight"]
    m["serve.gateway.send_lag_p50_ms"] = order_stat_ms(traced["send_lag_s"], 0.50)
    m["serve.gateway.send_lag_p99_ms"] = order_stat_ms(traced["send_lag_s"], 0.99)

    a = summary["spans"]
    calls = _spans_named(summary, ("sharding.estimate", "sharding.predict", "sharding.rollout_fleet"))
    fanout, skew = [], []
    if calls.any():
        child_of = a["parent"]
        client = _spans_named(
            summary, ("workers.estimate", "workers.predict", "engine.estimate", "engine.predict")
        )
        per_call: dict[int, list[int]] = {}
        for k in np.flatnonzero(client & (child_of >= 0)):
            if calls[child_of[k]]:
                per_call.setdefault(int(child_of[k]), []).append(int(a["rows"][k]))
        for rows in per_call.values():
            fanout.append(len(rows))
            skew.append(max(rows) / (sum(rows) / len(rows)))
    m["serve.sharding.calls"] = int(calls.sum())
    m["serve.sharding.busy_ms"] = _layer(summary, "serve.sharding", "busy_ms")
    m["serve.sharding.fanout"] = float(np.mean(fanout)) if fanout else 0.0
    m["serve.sharding.skew"] = float(np.mean(skew)) if skew else 0.0

    m["serve.wire.frames"] = recorder.wire_frames
    m["serve.wire.bytes"] = recorder.wire_bytes
    m["serve.wire.encode_ms"] = _sum_ms(summary, ("wire.encode",))
    m["serve.wire.decode_ms"] = _sum_ms(summary, ("wire.decode",))
    m["serve.wire.pickle_frames"] = recorder.pickle_frames

    trips = _spans_named(summary, ("transport.request_with",))
    round_trips = a["duration"][trips] if trips.any() else np.zeros(0)
    m["serve.transport.round_trip_p50_ms"] = order_stat_ms(round_trips, 0.50) if trips.any() else 0.0
    m["serve.transport.round_trip_p99_ms"] = order_stat_ms(round_trips, 0.99) if trips.any() else 0.0
    m["serve.transport.wait_ms"] = float(round_trips.sum() * 1e3) - compute_ms if trips.any() else 0.0

    m["serve.workers.compute_ms"] = compute_ms
    m["serve.workers.cpu_s"] = traced["worker_cpu_s"] if pids else 0.0
    m["serve.workers.restarts"] = traced["retries"]

    m.update(_persistence(summary, recorder, cell_steps=0))
    m.update(_drift(summary, events=0))
    m["trace.overhead"] = traced["cpu_us_per_req"] / untraced["cpu_us_per_req"]
    m["ledger.unattributed_share"] = _unattributed(summary, busy_s)

    engine_source = replay if replay is not None else summary
    m["reconcile.engine.gap_ms"] = _gap(
        _mean_ms(engine_source, RECONCILE["engine"][0]), _stage_mean_ms(rollups, RECONCILE["engine"][1])
    )
    m["reconcile.kernels.gap_ms"] = _gap(
        _mean_ms(engine_source, RECONCILE["kernels"][0]), _stage_mean_ms(rollups, RECONCILE["kernels"][1])
    )
    for name in ("sharding", "wire"):
        ours, stages = RECONCILE[name]
        m[f"reconcile.{name}.gap_ms"] = _gap(_mean_ms(summary, ours), _stage_mean_ms(rollups, stages))
    m["reconcile.workers.gap_ms"] = _gap(
        _mean_ms(replay, ("engine.estimate", "engine.predict")) if replay is not None else None,
        _stage_mean_ms(rollups, ("worker.compute",)),
    )
    report_reconciliation(rollups, summary, replay)
    return finish(m)


def _persistence(summary: dict, recorder, cell_steps: int) -> dict:
    busy = _layer(summary, "serve.persistence", "busy_ms")
    return {
        "serve.persistence.appends": recorder.journal_records,
        "serve.persistence.bytes": recorder.journal_bytes,
        "serve.persistence.busy_ms": busy,
        "serve.persistence.bytes_per_cell_step": recorder.journal_bytes / cell_steps if cell_steps else 0.0,
    }


def _drift(summary: dict, events: int) -> dict:
    return {
        "monitor.drift.calls": _layer(summary, "monitor.drift", "calls"),
        "monitor.drift.busy_ms": _layer(summary, "monitor.drift", "busy_ms"),
        "monitor.drift.events": events,
    }


def rollout_ledger(
    log, recorder, *, registry_root, rollouts, cell_steps, events, busy_s, overhead, snapshot
) -> dict:
    """Every per-layer metric for the traced rollouts (request-path layers read zero)."""
    summary = ledger.summarize(log)
    m = dict.fromkeys(PER_LAYER_UNITS, 0)
    m.update(compute_metrics(summary, _branch_ops(registry_root)))
    m.update(_persistence(summary, recorder, cell_steps))
    m.update(_drift(summary, events))
    m["trace.overhead"] = overhead
    m["ledger.unattributed_share"] = _unattributed(summary, busy_s)
    # the program records one engine.rollout span per model group: compare per-rollout totals
    rollups = stage_rollups(snapshot)
    program_engine_ms = rollups.get("engine.rollout", (0, 0.0))[1] * 1e3 / rollouts
    m["reconcile.engine.gap_ms"] = _layer(summary, "serve.engine", "busy_ms") / rollouts - program_engine_ms
    m["reconcile.kernels.gap_ms"] = _gap(
        _mean_ms(summary, RECONCILE["kernels"][0]), _stage_mean_ms(rollups, RECONCILE["kernels"][1])
    )
    report_reconciliation(rollups, summary, None)
    return finish(m)


def finish(values: dict) -> dict:
    missing = set(PER_LAYER_UNITS) - set(values)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: metric(values[name], unit) for name, unit in PER_LAYER_UNITS.items()}


def report_reconciliation(rollups: dict, summary: dict, replay: dict | None) -> None:
    """Human-readable ledger vs ``trace_stage_seconds`` table, on stderr."""
    print("layer ledger (traced phase): calls busy_ms self_ms rows", file=sys.stderr)
    for source, s in (("parent", summary), ("replay", replay)):
        if s is None:
            continue
        for name, row in sorted(s["layers"].items()):
            print(
                f"  {source:6s} {name:20s} {row['calls']:8d} {row['busy_ms']:10.1f}"
                f" {row['self_ms']:10.1f} {row['rows']:9d}",
                file=sys.stderr,
            )
    print("program trace_stage_seconds rollups: count mean_ms", file=sys.stderr)
    for stage, (count, total) in sorted(rollups.items()):
        print(f"  {stage:24s} {count:8d} {total / count * 1e3 if count else 0.0:10.3f}", file=sys.stderr)
