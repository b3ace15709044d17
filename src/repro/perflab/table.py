"""Declarative run tables for the perf lab.

A run table is one JSON or YAML document with two sections::

    {
      "defaults": {"duration_s": 2.0, "warmup_s": 0.5, "cooldown_s": 0.2,
                   "reps": 2, "seed": 0,
                   "slo_p99_ms": 50.0, "per_cell_req_s": 0.0333},
      "sweep": {"topology": ["inproc", "pipe"],
                "workers": [1, 2],
                "cells": 64,
                "max_batch": 64,
                "shape": ["steady", "burst"],
                "rate": [200.0, 400.0]}
    }

Every ``sweep`` axis may be a scalar or a list; :func:`expand_table`
takes the cartesian product and replicates each point ``reps`` times
(repetition ``k`` runs with ``seed + k`` so reps differ in their
stochastic arrivals but stay reproducible).  The expansion order is
deterministic, so a table file pins an experiment exactly.

``slo_p99_ms`` and ``per_cell_req_s`` are *analysis* parameters (the
latency objective and the assumed steady-state per-cell request rate —
default one estimate every 30 s); they ride along in the manifest so
``perf_lab analyze`` reproduces the capacity model without re-stating
assumptions.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

__all__ = ["RunConfig", "expand_table", "load_table", "TOPOLOGIES"]

TOPOLOGIES = ("inproc", "shards", "pipe", "tcp")

_SWEEP_AXES = ("topology", "workers", "cells", "max_batch", "shape", "rate")

DEFAULTS = {
    "duration_s": 2.0,
    "warmup_s": 0.5,
    "cooldown_s": 0.2,
    "reps": 2,
    "seed": 0,
    "max_in_flight": 1024,
    "max_delay_s": 0.002,
    "slo_p99_ms": 50.0,
    "per_cell_req_s": 1.0 / 30.0,
}


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved cell of the run table (one measured run)."""

    topology: str = "inproc"
    workers: int = 1
    cells: int = 64
    max_batch: int = 64
    shape: str = "steady"
    rate: float = 200.0
    rep: int = 0
    duration_s: float = 2.0
    warmup_s: float = 0.5
    cooldown_s: float = 0.2
    seed: int = 0
    max_in_flight: int = 1024
    max_delay_s: float = 0.002

    def __post_init__(self):
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r} (expected one of {TOPOLOGIES})")
        if self.workers < 1 or self.cells < 1 or self.max_batch < 1:
            raise ValueError("workers, cells, and max_batch must be positive")
        if self.topology == "inproc" and self.workers != 1:
            raise ValueError("topology 'inproc' is a single engine; use 'shards' for workers > 1")

    @property
    def run_id(self) -> str:
        """Stable, filename-safe identity, e.g. ``pipe-w2-c64-b64-burst-r200-rep0``."""
        rate = f"{self.rate:g}".replace(".", "p")
        return (
            f"{self.topology}-w{self.workers}-c{self.cells}-b{self.max_batch}"
            f"-{self.shape}-r{rate}-rep{self.rep}"
        )

    @property
    def group_id(self) -> str:
        """Identity of the table cell with the repetition stripped."""
        return self.run_id.rsplit("-rep", 1)[0]

    def to_dict(self) -> dict:
        return {"run_id": self.run_id, "group_id": self.group_id, **asdict(self)}


def _as_list(value) -> list:
    return list(value) if isinstance(value, (list, tuple)) else [value]


def expand_table(table: dict) -> list[RunConfig]:
    """Cartesian product of the sweep axes × repetitions, in table order."""
    defaults = {**DEFAULTS, **(table.get("defaults") or {})}
    sweep = table.get("sweep") or {}
    unknown = set(sweep) - set(_SWEEP_AXES)
    if unknown:
        raise ValueError(f"unknown sweep axes {sorted(unknown)!r} (expected among {_SWEEP_AXES})")
    axes = [_as_list(sweep.get(axis, RunConfig.__dataclass_fields__[axis].default)) for axis in _SWEEP_AXES]
    reps = int(defaults.pop("reps"))
    if reps < 1:
        raise ValueError("reps must be at least 1")
    base_seed = int(defaults.pop("seed"))
    analysis_only = {"slo_p99_ms", "per_cell_req_s"}
    run_fields = {f.name for f in fields(RunConfig)}
    extra = set(defaults) - run_fields - analysis_only
    if extra:
        raise ValueError(f"unknown defaults {sorted(extra)!r}")
    carried = {k: v for k, v in defaults.items() if k in run_fields}
    configs: list[RunConfig] = []
    for values in itertools.product(*axes):
        point = dict(zip(_SWEEP_AXES, values))
        for rep in range(reps):
            configs.append(RunConfig(**point, rep=rep, seed=base_seed + rep, **carried))
    return configs


def load_table(path: str | Path) -> dict:
    """Read a run table from JSON or YAML (by file extension)."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError as exc:  # pragma: no cover - yaml ships in the image
            raise RuntimeError(f"YAML table {path} needs pyyaml; use JSON instead") from exc
        return yaml.safe_load(text)
    return json.loads(text)


def analysis_defaults(table: dict) -> dict:
    """The analysis parameters (SLO, per-cell rate) a table pins."""
    defaults = {**DEFAULTS, **(table.get("defaults") or {})}
    return {
        "slo_p99_ms": float(defaults["slo_p99_ms"]),
        "per_cell_req_s": float(defaults["per_cell_req_s"]),
    }
