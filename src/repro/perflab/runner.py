"""Execute run-table cells: build the topology, drive open-loop load, record.

One :func:`execute_run` call is one experiment: it builds the serving
stack the config names (engine or sharded fleet under a
:class:`~repro.serve.gateway.SocGateway`), warms it up with a discarded
steady phase, drives the measured phase with **open-loop** arrivals
from :mod:`repro.serve.loadgen`, then lets the stack cool down and
returns one JSON-safe artifact containing:

- the resolved config (``run_id`` / ``group_id`` for the analyzer);
- the load report — exact latency quantiles measured from *scheduled*
  arrival times, ok/error/shed counts, send-lag;
- the gateway's own per-endpoint stats (P² quantiles from
  :class:`~repro.monitor.metrics.MetricsRegistry`);
- trace-stage attribution (``trace_stage_seconds{stage=...}`` rollup
  from a sampling :class:`~repro.monitor.tracing.SpanTracer`);
- a resource time series (RSS / CPU seconds sampled from ``/proc`` by
  :class:`~repro.monitor.resources.ResourceSampler`) plus the
  per-worker ``process_*`` series from the topology-merged snapshot.

Topologies: ``inproc`` (one :class:`FleetEngine`), ``shards``
(in-process :class:`ShardedFleet`), ``pipe``/``tcp``
(subprocess workers over the respective transports, each child with
its own registry merged over the wire).

Runs are driven with an untrained-but-deterministic
:class:`~repro.core.TwoBranchSoCNet` — forward cost is identical to a
trained model's, and the lab measures serving, not accuracy.
"""

from __future__ import annotations

import asyncio
import json
import time
from pathlib import Path

import numpy as np

from ..core import TwoBranchSoCNet
from ..monitor.metrics import MetricsRegistry, merge_snapshots
from ..monitor.resources import install_process_metrics
from ..monitor.tracing import SpanTracer
from ..serve.engine import FleetEngine
from ..serve.fleet_sim import generate_fleet
from ..serve.gateway import SocGateway
from ..serve.loadgen import arrival_times, run_open_loop
from ..serve.sharding import ShardedFleet
from ..serve.workers import WorkerSpec
from .table import RunConfig, analysis_defaults, expand_table

__all__ = ["build_topology", "execute_run", "run_table"]

_URLS = {"pipe": "pipe://", "tcp": "tcp://127.0.0.1:0"}


def build_topology(cfg: RunConfig, model, metrics: MetricsRegistry):
    """The engine (or fleet) for one config.  Caller closes sharded fleets."""
    if cfg.topology == "inproc":
        return FleetEngine(default_model=model, metrics=metrics)
    if cfg.topology == "shards":
        return ShardedFleet(cfg.workers, spec=WorkerSpec(model=model, metrics=metrics))
    spec = WorkerSpec(
        url=_URLS[cfg.topology],
        model=model,
        monitor=True,
        spawn=cfg.topology == "tcp",
    )
    return ShardedFleet(cfg.workers, spec=spec)


def _stage_attribution(snapshot: dict) -> dict:
    """``trace_stage_seconds{stage=...}`` histograms -> per-stage summary."""
    stages: dict[str, dict] = {}
    for key, summary in (snapshot.get("histograms") or {}).items():
        if not key.startswith("trace_stage_seconds{"):
            continue
        labels = key[key.find("{") + 1 : -1]
        stage = next(
            (part.split("=", 1)[1].strip('"') for part in labels.split(",") if part.startswith("stage=")),
            None,
        )
        if stage is None:
            continue
        stages[stage] = {
            "count": summary.get("count", 0),
            "total_s": summary.get("sum", 0.0),
            "mean_ms": (summary["sum"] / summary["count"] * 1e3) if summary.get("count") else None,
        }
    return stages


def _process_series(snapshot: dict) -> dict:
    """Per-pid ``process_*`` values from a (merged) snapshot."""
    out: dict[str, dict] = {}
    for kind, name in (("gauges", "process_resident_bytes"), ("counters", "process_cpu_seconds_total")):
        for key, value in (snapshot.get(kind) or {}).items():
            if key.startswith(name + "{"):
                pid = key[key.find('pid="') + 5 : key.rfind('"')]
                out.setdefault(pid, {})[name] = value
    return out


def execute_run(cfg: RunConfig, *, model=None, sample_interval_s: float = 0.1) -> dict:
    """Run one table cell end to end and return its artifact dict."""
    if model is None:
        model = TwoBranchSoCNet(rng=np.random.default_rng(cfg.seed))
    scenario = generate_fleet(
        cfg.cells,
        seed=cfg.seed,
        ambient_temps_c=(25.0,),
        c_rates=(1.0, 2.0),
        protocols=("discharge",),
        max_time_s=1800.0,
    )
    members = list(scenario.members)
    metrics = MetricsRegistry()
    sampler = install_process_metrics(metrics)
    tracer = SpanTracer(sample_rate=0.05, metrics=metrics)
    engine = build_topology(cfg, model, metrics)
    sharded = isinstance(engine, ShardedFleet)
    try:
        for m in members:
            engine.register_cell(m.cell_id, chemistry=m.chemistry)
        # pre-seed every cell with one batched estimate so the measured
        # phase never pays first-touch state initialisation
        engine.estimate([m.cell_id for m in members], 3.7, 1.0, 25.0)

        def readings(j: int):
            m = members[j % len(members)]
            data = m.cycle.data
            idx = (j * 13) % len(m.cycle)
            return (
                m.cell_id,
                float(data.voltage[idx]),
                float(data.current[idx]),
                float(data.temp_c[idx]),
            )

        async def drive() -> dict:
            gateway = SocGateway(
                engine,
                max_batch=cfg.max_batch,
                max_delay_s=cfg.max_delay_s,
                max_in_flight=cfg.max_in_flight,
                metrics=metrics,
                tracer=tracer,
            )
            async with gateway:

                async def call(j: int):
                    cell_id, v, i, t = readings(j)
                    return await gateway.estimate(cell_id, v, i, t)

                if cfg.warmup_s > 0:
                    await run_open_loop(
                        call, arrival_times("steady", cfg.rate, cfg.warmup_s, cfg.seed), shape="warmup"
                    )
                sampler.start(sample_interval_s)
                t0 = time.monotonic()
                report = await run_open_loop(
                    call,
                    arrival_times(cfg.shape, cfg.rate, cfg.duration_s, cfg.seed),
                    shape=cfg.shape,
                )
                measured_s = time.monotonic() - t0
                if cfg.cooldown_s > 0:
                    await asyncio.sleep(cfg.cooldown_s)
                sampler.stop()
                sampler.sample()
                return {"report": report.to_dict(), "measured_s": measured_s, "gateway": gateway.stats_dict()}

        result = asyncio.run(drive())
        if cfg.topology in _URLS:
            # subprocess children carry their own registries; the parent
            # registry (gateway latency, tracer stages, parent process_*)
            # merges in on top
            merged = merge_snapshots([metrics.snapshot(), engine.metrics()])
        elif sharded:
            # in-process shards share the parent registry — metrics()
            # already deduplicates it, merging again would double-count
            merged = engine.metrics()
        else:
            merged = metrics.snapshot()
        resources = sampler.series()
        return {
            "config": cfg.to_dict(),
            "load": result["report"],
            "measured_s": result["measured_s"],
            "gateway": result["gateway"],
            "stages": _stage_attribution(merged),
            "resources": {
                "samples": resources,
                "peak_rss_bytes": max((s["rss_bytes"] for s in resources), default=None),
                "cpu_seconds": (
                    resources[-1]["cpu_seconds"] - resources[0]["cpu_seconds"] if len(resources) > 1 else None
                ),
                "per_process": _process_series(merged),
            },
        }
    finally:
        sampler.stop()
        if sharded:
            engine.close()


def run_table(table: dict, out_dir: str | Path, *, progress=print) -> dict:
    """Execute every cell of ``table``; one artifact file per run.

    Writes ``run-<run_id>.json`` per run plus ``manifest.json`` (the
    table, the expansion, and the analysis defaults) into ``out_dir``.
    A run that raises is recorded as failed in the manifest and does
    not abort the rest of the sweep.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    configs = expand_table(table)
    manifest = {
        "table": table,
        "analysis": analysis_defaults(table),
        "runs": [],
    }
    for k, cfg in enumerate(configs):
        progress(f"[{k + 1}/{len(configs)}] {cfg.run_id} ...")
        entry = {"run_id": cfg.run_id, "group_id": cfg.group_id}
        try:
            t0 = time.monotonic()
            artifact = execute_run(cfg)
            artifact["wall_s"] = time.monotonic() - t0
            path = out / f"run-{cfg.run_id}.json"
            path.write_text(json.dumps(artifact, indent=2) + "\n", encoding="utf-8")
            load = artifact["load"]
            entry.update(ok=True, file=path.name)
            progress(
                f"    offered {load['offered_rate']:.0f}/s achieved {load['achieved_rate']:.0f}/s "
                f"p99 {load['latency_ms']['p99']:.2f}ms shed {load['shed']} "
                f"({artifact['wall_s']:.1f}s wall)"
            )
        except Exception as exc:
            entry.update(ok=False, error=f"{type(exc).__name__}: {exc}")
            progress(f"    FAILED: {entry['error']}")
        manifest["runs"].append(entry)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    done = sum(1 for r in manifest["runs"] if r["ok"])
    progress(f"{done}/{len(configs)} runs completed -> {out}")
    return manifest
