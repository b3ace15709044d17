"""``rollout_journal``: offline fleet rollouts with a journal and a drift monitor.

Each repetition builds a fresh engine over the model registry with a
fresh ``StateJournal`` and ``DriftMonitor`` (timed as set-up: registry
load, kernel compile, cell registration, first batched estimate), then
times one ``FleetEngine.rollout_fleet`` of the whole fleet at a 60 s
step.  Window commits are timestamped through the public
``step_hook``.  After every rollout the output checks run untimed:
sampled trajectories against ``core.rollout.model_rollout`` and a
``FleetEngine.restore`` from the journal, bit for bit.

The end-to-end figures are those of a typical rollout assembled from
every window's median time over the repetitions (:func:`unit_times`),
given at the reference host speed of :class:`~perfbench.common.HostSpeed`,
whose calibration loop runs before every repetition.
"""

from __future__ import annotations

import contextlib
import gc
import time
from pathlib import Path

import numpy as np

from repro.monitor.drift import DriftMonitor
from repro.monitor.metrics import MetricsRegistry
from repro.monitor.tracing import SpanTracer
from repro.serve.engine import FleetEngine
from repro.serve.persistence import StateJournal
from repro.serve.registry import ModelRegistry

from . import checks, ledger
from .common import HostSpeed, end_to_end, order_stat_ms, peak_rss_mb
from .inputs import build_fleet, first_readings, placements, publish_models

N_CELLS = 1200  # ~78k cell-steps per rollout
STEP_S = 60.0
MIN_REPS = 3
TRACE_SECONDS_PER_REP = 6.0  # an untraced plus a traced repetition, checks included
CHECK_TRAJECTORIES = 6


class RolloutRun:
    def __init__(self, seed: int, workdir: Path, n_cells: int = N_CELLS):
        self.seed = seed
        self.workdir = workdir
        self.members = build_fleet(n_cells, seed)
        self.placements = placements(self.members)
        self.registry_root = workdir / "registry"
        publish_models(self.registry_root)
        self.assignments = [(m.cell_id, m.cycle) for m in self.members]
        self.first = first_readings(self.members)
        rng = np.random.default_rng([seed, 0x5A3])
        picks = rng.choice(len(self.members), CHECK_TRAJECTORIES, replace=False)
        self.sampled = [self.assignments[k] for k in picks]
        self.reps = 0
        self.host = HostSpeed()

    def setup(self) -> tuple[FleetEngine, StateJournal, DriftMonitor, Path]:
        """Registry load, kernel compile, cell registration, first batched estimate."""
        path = self.workdir / f"journal-{self.reps}.jsonl"
        journal = StateJournal(path)
        drift = DriftMonitor()
        engine = FleetEngine(registry=ModelRegistry(self.registry_root), journal=journal, drift=drift)
        for p in self.placements:
            engine.register_cell(p.cell_id, chemistry=p.chemistry, model_name=p.model_name)
        engine.estimate([p.cell_id for p in self.placements], *self.first)
        return engine, journal, drift, path

    def rep(self, around=contextlib.nullcontext) -> dict:
        """One timed set-up and rollout, then the untimed checks.

        ``around()`` is entered around the rollout call alone (the
        traced run's instrumentation).  Each repetition starts from a
        collected heap, so the collector's passes fall on the same steps
        in every repetition.
        """
        gc.collect()
        self.host.sample()
        t0 = time.perf_counter()
        engine, journal, drift, path = self.setup()
        setup_s = time.perf_counter() - t0
        events0 = drift.events_total
        stamps: list[tuple[int, float, float]] = [(0, time.perf_counter(), time.process_time())]
        with around():
            results = engine.rollout_fleet(
                self.assignments,
                STEP_S,
                step_hook=lambda w: stamps.append((w, time.perf_counter(), time.process_time())),
            )
        stamps.append((0, time.perf_counter(), time.process_time()))  # result assembly after the last window
        journal.close()
        self.reps += 1
        cell_steps = sum(len(r.soc_pred) - 1 for r in results.values())
        keys = {cid: engine.cell(cid).model_key for cid, _ in self.sampled}
        bad = checks.rollout_mismatches(results, self.sampled, engine.registry, keys, STEP_S)
        bad += checks.restore_mismatches(path, engine, self.registry_root)
        path.unlink()
        marks = np.array([(t, c) for _, t, c in stamps])
        spent = np.diff(marks, axis=0)
        return {
            "setup_s": setup_s,
            "wall_s": float(marks[-1, 0] - marks[0, 0]),
            "cell_steps": cell_steps,
            "windows": np.array([w for w, _, _ in stamps[1:]], dtype=np.intp),
            "unit_wall_s": spent[:, 0],
            "unit_cpu_s": spent[:, 1],
            "events": drift.events_total - events0,
            "failed": bad,
        }


def unit_times(reps: list[dict]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each rollout unit's median wall and CPU time over the repetitions.

    A unit is the stretch up to one step-hook call: one model group's
    window ``w`` (a group's first window also carries its plan assembly
    and seed estimate).  The engine advances one group through all its
    windows before the next, so the units come in the same order in
    every repetition; the result assembly after the last hook call is a
    final unit with window 0.  Returns ``(windows, wall_s, cpu_s)``.
    """
    windows = reps[0]["windows"]
    if any(not np.array_equal(r["windows"], windows) for r in reps):
        raise RuntimeError("rollout repetitions advanced different windows")
    wall = np.median([r["unit_wall_s"] for r in reps], axis=0)
    cpu = np.median([r["unit_cpu_s"] for r in reps], axis=0)
    return windows, wall, cpu


def run(
    seed: int, seconds: float, trace: bool, workdir: Path, spans_path: Path | None, n_cells: int = N_CELLS
) -> dict:
    bench = RolloutRun(seed, workdir, n_cells)
    gc.collect()
    gc.freeze()
    if not trace:
        reps = _repeat(bench, seconds)
        result = _result(reps, _end_to_end(reps, bench.host))
        result["detail"]["host_speed"] = {"factor": bench.host.factor, "samples": len(bench.host.samples)}
        return result

    from .trace import rollout_ledger

    # a fixed number of repetitions per --seconds, so traced counts repeat exactly
    reps = max(MIN_REPS, int(seconds // TRACE_SECONDS_PER_REP))
    untraced = [bench.rep() for _ in range(reps)]
    log = ledger.SpanLog()
    recorder = ledger.Recorder()
    tracer_metrics = MetricsRegistry()
    tracer = SpanTracer(sample_rate=1.0, metrics=tracer_metrics, max_spans_per_trace=1 << 17)

    @contextlib.contextmanager
    def traced_rollout():
        with ledger.instrument(log, recorder), tracer.trace("bench.rollout"):
            yield

    traced = [bench.rep(traced_rollout) for _ in range(reps)]
    if spans_path is not None:
        log.write(spans_path)
    untraced_s = np.mean([r["wall_s"] for r in untraced])
    traced_s = np.mean([r["wall_s"] for r in traced])
    metrics = rollout_ledger(
        log,
        recorder,
        registry_root=bench.registry_root,
        rollouts=len(traced),
        cell_steps=sum(r["cell_steps"] for r in traced),
        events=sum(r["events"] for r in traced),
        busy_s=sum(r["wall_s"] for r in traced),
        overhead=traced_s / untraced_s,
        snapshot=tracer_metrics.snapshot(),
    )
    return _result(traced, metrics)


def _repeat(bench: RolloutRun, seconds: float) -> list[dict]:
    reps = []
    t0 = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - t0 < seconds:
        reps.append(bench.rep())
    return reps


def _end_to_end(reps: list[dict], host: HostSpeed) -> dict:
    """Figures of the typical rollout, each unit at its median time over the reps.

    Times are divided by the run's host-speed factor: the shared host
    ran a run's rollouts up to 1.3x slower than another's, and the
    calibration loop tracks that (over ten seeds the composite rollout
    time spread 0.14 in IQR/median raw, 0.07 scaled).  The raw
    per-repetition times and the factor stay in the record.
    """
    windows, wall, cpu = unit_times(reps)
    wall, cpu = wall / host.factor, cpu / host.factor
    # one fleet step (every cell advanced one 60 s window, summed over
    # the model groups) is the rollout's unit of latency
    steps_s = np.bincount(windows, weights=wall)[1:]
    cell_steps = reps[0]["cell_steps"]
    return end_to_end(
        {
            "p50_ms": order_stat_ms(steps_s, 0.50),
            "p99_ms": order_stat_ms(steps_s, 0.99),
            # fleet steps per second
            "capacity_rps": steps_s.size / wall.sum(),
            "cell_steps_per_s": cell_steps / wall.sum(),
            # CPU per cell-step: one cell advanced one window
            "cpu_us_per_req": cpu.sum() / cell_steps * 1e6,
            "ok_frac": 1.0 - sum(r["failed"] > 0 for r in reps) / len(reps),
            "setup_s": float(np.median([r["setup_s"] for r in reps])),
            "peak_rss_mb": peak_rss_mb([]),
        }
    )


def _result(reps: list[dict], metrics: dict) -> dict:
    detail = {
        "reps": len(reps),
        "rollout_s": [r["wall_s"] for r in reps],
        "setup_s": [r["setup_s"] for r in reps],
        "cell_steps": reps[0]["cell_steps"],
        "fleet_steps": int(reps[0]["windows"].max()),
        "check_failures": [r["failed"] for r in reps],
    }
    return {
        "attempted": len(reps),
        "failed": sum(r["failed"] > 0 for r in reps),
        "check_failed": sum(r["failed"] for r in reps),
        "metrics": metrics,
        "detail": detail,
    }
