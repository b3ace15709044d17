#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last stdout line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload online_inproc --seed 1 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` says why each exists):

- ``online_inproc`` -- open-loop Poisson estimate/predict traffic (70/30)
  through ``SocGateway`` into one in-process ``FleetEngine``;
- ``online_pipe`` -- the same traffic, cells and models through a
  ``ShardedFleet`` of two ``pipe://`` workers;
- ``rollout_journal`` -- repeated ``FleetEngine.rollout_fleet`` of ~1.2k
  cells with a fresh ``StateJournal`` and ``DriftMonitor``.

The fleets mix three chemistry models, with a 1/8 canary slice pinned to
a second version of each (six model groups).

End-to-end metrics (``--trace 0``), every one on every workload:

- ``p50_ms``/``p99_ms`` -- online: request latency from the scheduled
  arrival at the reference rate (6000 req/s in process, 1000 over
  pipes), failed or shed requests counting as infinitely late.  The
  reference phase runs as 16 (12) chunks of about 0.9 (1.25) s with
  >= 1.25k samples each, and the lowest of the chunks' own quantiles
  is reported: the shared host's slow spells and hypervisor steal last
  seconds and inflate whole chunks.  Rollout: time per fleet step (every cell advanced
  one 60 s window, summed over the model groups) of the typical
  rollout, each window at its median time over the run's
  repetitions; the standard fleet takes 111 fleet steps, so its p99
  is its second-slowest step;
- ``capacity_rps`` -- online: the knee of a fixed 1.06x rate ladder
  found by an up-down staircase of ~0.6 s trials (a trial passes when
  the median of its three windows' p99 is within 100 ms with nothing
  shed or failed), at the mean rung of the trials from the first
  reversal on.  Rollout: fleet steps per second of the typical
  rollout;
- ``cell_steps_per_s`` -- rollout throughput in cells advanced one
  window per second, typical rollout.  Online, one request advances
  one cell one step, so this equals ``capacity_rps``;
- ``cpu_us_per_req`` -- online: CPU of this process plus the workers
  per completed request at the reference rate, median chunk.  Rollout:
  CPU per cell-step of the typical rollout;
- ``ok_frac`` -- 1 - (errors + shed + check failures) / attempted;
- ``setup_s`` -- median of repeated set-ups: registry load, kernel
  compile, worker spawn, cell registration and the first batched
  estimate.  Input generation is excluded;
- ``peak_rss_mb`` -- peak resident set summed over this process and the
  workers, read after the warm-up (online) or the last rollout.

Online ``capacity_rps``, ``cell_steps_per_s`` and ``cpu_us_per_req``,
and every rollout figure but set-up and memory, are given at a
reference host speed: the raw figure scaled by how much slower than its
reference time a fixed calibration loop ran between the measurements
(:class:`perfbench.common.HostSpeed`).  The raw figures, every chunk,
trial and repetition, and the factor stay in the record.

``--trace 1`` runs the per-layer ledger instead (see
:mod:`perfbench.trace`).  Every run also checks outputs: served values
against the Tensor path within 1e-9, rollout trajectories against
``core.rollout.model_rollout``, and journal restore bit for bit.

BLAS is pinned to one thread here and, through the environment, in the
workers.  The full record, with the environment fingerprint, goes to
``perfbench/.out/`` and is echoed on the line before the result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.env import fingerprint, pin_blas_threads  # noqa: E402

WORKLOADS = ("online_inproc", "online_pipe", "rollout_journal")
OUT_DIR = ROOT / "perfbench" / ".out"
WORK_DIR = ROOT / "perfbench" / ".work"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def execute(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    n_cells: int | None = None,
    out_dir: Path = OUT_DIR,
    work_dir: Path = WORK_DIR,
) -> dict:
    """Run one workload; the result dict before it is printed.

    ``n_cells`` overrides the workload's fleet size (the tests run tiny
    fleets).  Scratch files live under ``work_dir`` for the run's
    duration; a traced run leaves its spans in ``out_dir``.
    """
    sizing = {} if n_cells is None else {"n_cells": n_cells}
    tag = f"{workload}-s{seed}-t{int(trace)}"
    workdir = work_dir / f"{tag}-{os.getpid()}"
    spans_path = out_dir / f"spans-{tag}.jsonl" if trace else None
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if workload == "rollout_journal":
            from perfbench import rollout

            result = rollout.run(seed, seconds, trace, workdir, spans_path, **sizing)
        else:
            from perfbench import online

            result = online.run(workload, seed, seconds, trace, workdir, spans_path, **sizing)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    from perfbench.common import steal_seconds  # after the pinning: it imports NumPy

    steal0, t0 = steal_seconds(), time.perf_counter()
    result = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    steal1, wall_s = steal_seconds(), time.perf_counter() - t0
    line = {
        "correct": result["check_failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": result["metrics"],
    }
    printed = json.dumps(line, allow_nan=False)  # a metric that could not be measured fails the run
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprint(ROOT),
        # how much the shared host took away while the run measured
        "host": {"wall_s": wall_s, "steal_s": None if steal0 is None else steal1 - steal0},
        **line,
        "detail": result["detail"],
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"record-{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=float) + "\n", encoding="utf-8")
    print(json.dumps({"record": str(path.relative_to(ROOT)), "fingerprint": record["fingerprint"]}))
    print(printed, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
