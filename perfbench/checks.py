"""Output checks: served values against the Tensor path, rollouts, journal restore.

Every check returns the number of mismatching items, so a failed check
counts toward the run's ``failed`` total instead of only flipping a flag.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.rollout import model_rollout
from repro.serve.engine import FleetEngine
from repro.serve.persistence import StateJournal
from repro.serve.registry import ModelRegistry

TOLERANCE = 1e-9  # the float64 kernel/Tensor equivalence budget


def _same_bits(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def mismatches(served, expected, tol: float = TOLERANCE) -> int:
    """Entries of ``served`` further than ``tol`` from ``expected`` (NaN never matches)."""
    served = np.asarray(served, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if served.shape != expected.shape:
        return int(max(served.size, expected.size))
    return int(np.count_nonzero(~(np.abs(served - expected) <= tol)))


def tensor_reference(
    registry_root: Path, placements, estimate_cols, predict_cols
) -> tuple[np.ndarray, np.ndarray]:
    """Estimates, then predicts from the stored estimates, on the Tensor path.

    ``placements`` are the cells checked (distinct); ``estimate_cols`` is
    ``(voltage, current, temp_c)`` and ``predict_cols`` is ``(current_avg,
    temp_avg_c, horizon_s)``, one row per cell.
    """
    engine = FleetEngine(registry=ModelRegistry(registry_root), use_kernel=False)
    for p in placements:
        engine.register_cell(p.cell_id, chemistry=p.chemistry, model_name=p.model_name)
    ids = [p.cell_id for p in placements]
    estimates = engine.estimate(ids, *estimate_cols)
    predicts = engine.predict(ids, *predict_cols)
    return np.asarray(estimates, dtype=np.float64), np.asarray(predicts, dtype=np.float64)


def rollout_mismatches(results, cells, registry: ModelRegistry, keys: dict[str, str], step_s: float) -> int:
    """Sampled fleet trajectories against ``core.rollout.model_rollout``.

    ``cells`` are ``(cell_id, cycle)`` pairs; ``keys`` maps a cell to the
    registry reference it was served with.  Counts trajectory points
    off by more than :data:`TOLERANCE` (a length mismatch counts whole).
    """
    bad = 0
    for cell_id, cycle in cells:
        reference = model_rollout(registry.load(keys[cell_id]), cycle, step_s)
        bad += mismatches(results[cell_id].soc_pred, reference.soc_pred)
    return bad


def restore_mismatches(journal_path: Path, engine: FleetEngine, registry_root: Path) -> int:
    """Cells whose SoC after ``FleetEngine.restore`` differs in any bit."""
    with StateJournal(journal_path, compact_every=0) as journal:
        restored = FleetEngine.restore(journal, registry=ModelRegistry(registry_root))
        bad = 0
        for state in engine.cells():
            try:
                soc = restored.cell(state.cell_id).soc
            except KeyError:
                bad += 1
                continue
            if soc is None or state.soc is None or not _same_bits(soc, state.soc):
                bad += 1
    return bad
