"""Seeded workload inputs: fleet, model registry, placements and request streams.

Everything here is input generation and stays outside the measured
set-up time.  The same seed gives the same fleet, the same model
weights and the same request stream.
"""

from __future__ import annotations

import dataclasses
import functools
from pathlib import Path

import numpy as np

from repro.core import TwoBranchSoCNet
from repro.serve.canary import in_canary_slice
from repro.serve.fleet_sim import FleetMember, generate_fleet
from repro.serve.registry import ModelRegistry

CHEMISTRIES = ("nca", "nmc", "lfp")
CANARY_FRACTION = 1.0 / 8.0
# 4 cell specs x 3 C-rates, full discharges at 25 C: 12 simulated duty
# cycles, ~1.5 s to generate (the default 72-condition grid takes 17 s).
# They average ~65 windows of 60 s per cell.
CELL_NAMES = ("sandia-nca", "sandia-nmc", "sandia-lfp", "lg-hg2")
C_RATES = (0.5, 1.0, 2.0)
AMBIENT_C = 25.0
HORIZONS_S = (60.0, 300.0, 900.0)
ESTIMATE_SHARE = 0.7
MODEL_SEED = 20250101  # serving checkpoints are fixed; the run seed varies traffic and traces


@dataclasses.dataclass(frozen=True)
class Placement:
    """Where one cell is served: its chemistry and an optional pinned version."""

    cell_id: str
    chemistry: str
    model_name: str | None  # ``"<chem>@v2"`` for the canary slice, else stable routing


@functools.lru_cache(maxsize=4)
def _fleet(n_cells: int, seed: int) -> tuple[FleetMember, ...]:
    conditions = [(name, rate) for name in CELL_NAMES for rate in C_RATES]
    one = {"ambient_temps_c": (AMBIENT_C,), "protocols": ("discharge",)}
    cycles = [
        generate_fleet(1, seed=seed, cell_names=(name,), c_rates=(rate,), **one).members[0]
        for name, rate in conditions
    ]
    return tuple(
        dataclasses.replace(cycles[k % len(cycles)], cell_id=f"cell-{k:05d}") for k in range(n_cells)
    )


def build_fleet(n_cells: int, seed: int) -> list[FleetMember]:
    """``n_cells`` cells cycling through the 12 conditions in a fixed order.

    The seed drives each condition's simulated sensor noise; the fleet's
    make-up (conditions, chemistries, group sizes) is the same for every
    seed, because it sets how much work a rollout does.  Repeated calls
    in one process reuse the simulation.
    """
    return list(_fleet(n_cells, seed))


def publish_models(root: Path) -> None:
    """One stable (v1) and one canary (v2) checkpoint per chemistry.

    Untrained but fixed networks: a forward pass costs the same as a
    trained one's, and the benchmark measures serving, not accuracy.
    The weights do not follow the run seed because the drift monitor's
    work depends on what the models output.
    """
    registry = ModelRegistry(root)
    for k, chemistry in enumerate(CHEMISTRIES):
        for version, channel in ((1, "stable"), (2, "canary")):
            rng = np.random.default_rng([MODEL_SEED, k, version])
            registry.publish(chemistry, TwoBranchSoCNet(rng=rng), chemistry=chemistry, channel=channel)


def placements(members: list[FleetMember]) -> list[Placement]:
    """Stable routing by chemistry, with a hash-selected 1/8 pinned to v2."""
    return [
        Placement(
            m.cell_id,
            m.chemistry,
            f"{m.chemistry}@v2" if in_canary_slice(m.cell_id, CANARY_FRACTION) else None,
        )
        for m in members
    ]


def first_readings(members: list[FleetMember]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each cell's first sensor sample (the set-up's batched estimate)."""
    data = [m.cycle.data for m in members]
    return (
        np.array([d.voltage[0] for d in data]),
        np.array([d.current[0] for d in data]),
        np.array([d.temp_c[0] for d in data]),
    )


@dataclasses.dataclass(frozen=True)
class RequestStream:
    """A seeded request mix; row ``j`` is one estimate or predict."""

    is_estimate: np.ndarray  # bool
    cell: np.ndarray  # index into the fleet
    voltage: np.ndarray
    current: np.ndarray
    temp_c: np.ndarray
    horizon_s: np.ndarray

    def __len__(self) -> int:
        return int(self.cell.size)


def request_stream(members: list[FleetMember], n: int, seed: int) -> RequestStream:
    """``n`` requests: 70% estimates from recorded sensor samples, 30% what-ifs.

    A predict's workload (average current and temperature) is a recorded
    sample of the same cell's duty cycle; its horizon is one of
    :data:`HORIZONS_S`.
    """
    rng = np.random.default_rng([seed, 0xBE7C])
    cell = rng.integers(0, len(members), size=n)
    position = rng.random(n)
    voltage = np.empty(n)
    current = np.empty(n)
    temp_c = np.empty(n)
    for j, k in enumerate(cell):
        data = members[k].cycle.data
        idx = int(position[j] * len(data.voltage))
        voltage[j] = data.voltage[idx]
        current[j] = data.current[idx]
        temp_c[j] = data.temp_c[idx]
    return RequestStream(
        is_estimate=rng.random(n) < ESTIMATE_SHARE,
        cell=cell,
        voltage=voltage,
        current=current,
        temp_c=temp_c,
        horizon_s=rng.choice(HORIZONS_S, size=n),
    )
