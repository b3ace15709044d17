"""Process accounting and event-loop helpers shared by the workloads."""

from __future__ import annotations

import asyncio
import json
import os
import resource
import selectors
import time

import numpy as np

from repro.monitor.resources import read_process_stats


def child_pids() -> list[int]:
    """Live direct children of this process (the shard workers)."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                raw = fh.read().decode("ascii", "replace")
        except OSError:
            continue
        fields = raw[raw.rfind(")") + 2 :].split()
        if len(fields) > 1 and int(fields[1]) == me:
            pids.append(int(entry))
    return sorted(pids)


def cpu_seconds(pids: list[int]) -> float:
    """This process's CPU time plus the listed children's."""
    return time.process_time() + sum(read_process_stats(pid)["cpu_seconds"] for pid in pids)


def _hwm_bytes(pid: int | str) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    return 0


def steal_seconds() -> float | None:
    """CPU time the hypervisor gave to other guests, summed over this VM's CPUs.

    The ``steal`` column of ``/proc/stat``; ``None`` where it is missing.
    """
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def peak_rss_mb(pids: list[int]) -> float:
    """Peak resident set of this process plus the listed children, in MB."""
    try:
        own = _hwm_bytes("self")
    except OSError:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    total = own
    for pid in pids:
        try:
            total += _hwm_bytes(pid)
        except OSError:
            pass
    return total / 1e6


class IdleTimingSelector(selectors.DefaultSelector):
    """The default selector, timing how long the event loop sat in ``select``."""

    def __init__(self):
        super().__init__()
        self.idle_s = 0.0

    def select(self, timeout=None):
        t0 = time.perf_counter()
        try:
            return super().select(timeout)
        finally:
            self.idle_s += time.perf_counter() - t0


def new_loop() -> tuple[asyncio.AbstractEventLoop, IdleTimingSelector]:
    selector = IdleTimingSelector()
    loop = asyncio.SelectorEventLoop(selector)
    asyncio.set_event_loop(loop)
    return loop, selector


def close_loop(loop: asyncio.AbstractEventLoop) -> None:
    try:
        loop.run_until_complete(loop.shutdown_default_executor())
    finally:
        asyncio.set_event_loop(None)
        loop.close()


class HostSpeed:
    """The shared host's speed during a run, from a fixed calibration loop.

    The loop (integer arithmetic and ``json.dumps``, no program code)
    is timed a few times between measurements; :attr:`factor` is its
    median time over the run relative to :data:`REFERENCE_S`, its median
    on the 2-vCPU host the benchmark was tuned on.  A factor of 1.3
    means the run's host ran the loop 1.3x slower than that.
    """

    REFERENCE_S = 3.0e-3
    _RECORD = {"cell": "cell-00001", "window": 3, "soc": 0.123456789012345, "t": 1234.5}

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, n: int = 5) -> None:
        for _ in range(n):
            t0 = time.perf_counter()
            acc = 0
            for i in range(20000):
                acc += i % 7
            for _ in range(300):
                json.dumps(self._RECORD)
            self.samples.append(time.perf_counter() - t0)

    @property
    def factor(self) -> float:
        return float(np.median(self.samples)) / self.REFERENCE_S


def order_stat_ms(values, q: float) -> float:
    """Quantile ``q`` of seconds, as ms; an order statistic, so ``inf`` entries are safe."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return float("nan")
    return float(np.quantile(values, q, method="inverted_cdf") * 1e3)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


# end-to-end metric name -> unit, in BENCHMARK.json order
END_TO_END_UNITS = {
    "p50_ms": "ms",
    "p99_ms": "ms",
    "capacity_rps": "1/s",
    "cell_steps_per_s": "1/s",
    "cpu_us_per_req": "us",
    "ok_frac": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def end_to_end(values: dict) -> dict:
    """Attach units to every end-to-end metric, in declaration order."""
    missing = set(END_TO_END_UNITS) - set(values)
    if missing:
        raise KeyError(f"end-to-end metrics not computed: {sorted(missing)}")
    return {name: metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}
