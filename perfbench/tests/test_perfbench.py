"""The benchmark's own tests, on tiny fleets and sub-second runs.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q`` from the
repository root.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import checks, inputs  # noqa: E402
from perfbench.run import execute  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {"online_inproc": 48, "online_pipe": 48, "rollout_journal": 12}
COUNTS = ("serve.gateway.admitted", "core.kernels.rows", "serve.engine.rows", "serve.persistence.appends")


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """``run(workload, trace)``: one tiny run per argument pair, shared by the tests."""
    cache: dict[tuple, dict] = {}
    out = tmp_path_factory.mktemp("perfbench")

    def get(workload: str, trace: bool, fresh: bool = False) -> dict:
        key = (workload, trace)
        if fresh or key not in cache:
            result = execute(workload, 3, 0.8, trace, n_cells=TINY[workload], out_dir=out, work_dir=out)
            if fresh:
                return result
            cache[key] = result
        return cache[key]

    return get


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(run, workload):
    for trace, declared in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
        result = run(workload, trace)
        assert result["check_failed"] == 0
        assert result["attempted"] >= 1
        metrics = result["metrics"]
        assert list(metrics) == [m["name"] for m in declared]
        for m in declared:
            assert metrics[m["name"]]["unit"] == m["unit"]
            assert np.isfinite(metrics[m["name"]]["value"])
        if not trace:
            assert all(metrics[m["name"]]["value"] > 0 for m in declared)


def test_layers_without_work_read_zero(run):
    inproc = run("online_inproc", True)["metrics"]
    assert inproc["serve.wire.frames"]["value"] == 0
    assert inproc["serve.persistence.appends"]["value"] == 0
    assert inproc["serve.engine.rows"]["value"] > 0
    pipe = run("online_pipe", True)["metrics"]
    assert pipe["serve.wire.frames"]["value"] > 0
    assert pipe["serve.persistence.appends"]["value"] == 0
    rollout = run("rollout_journal", True)["metrics"]
    assert rollout["serve.persistence.appends"]["value"] > 0
    assert rollout["serve.gateway.admitted"]["value"] == 0


@pytest.mark.parametrize("workload", ["online_inproc", "rollout_journal"])
def test_counts_repeat_for_a_fixed_seed(run, workload):
    first = run(workload, True)["metrics"]
    second = run(workload, True, fresh=True)["metrics"]
    for name in COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_inputs_repeat_for_a_fixed_seed():
    members = inputs.build_fleet(16, seed=5)
    a = inputs.request_stream(members, 200, seed=5)
    b = inputs.request_stream(inputs.build_fleet(16, seed=5), 200, seed=5)
    for field in ("is_estimate", "cell", "voltage", "current", "temp_c", "horizon_s"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    c = inputs.request_stream(members, 200, seed=6)
    assert not np.array_equal(a.voltage, c.voltage)


def test_served_check_trips_on_a_perturbed_reference(tmp_path):
    from repro.serve.engine import FleetEngine
    from repro.serve.registry import ModelRegistry

    members = inputs.build_fleet(24, seed=2)
    placed = inputs.placements(members)
    inputs.publish_models(tmp_path)
    est_cols = inputs.first_readings(members)
    pred_cols = (est_cols[1], est_cols[2], np.full(len(members), 300.0))
    expected_est, expected_pred = checks.tensor_reference(tmp_path, placed, est_cols, pred_cols)
    engine = FleetEngine(registry=ModelRegistry(tmp_path))
    for p in placed:
        engine.register_cell(p.cell_id, chemistry=p.chemistry, model_name=p.model_name)
    ids = [p.cell_id for p in placed]
    served = np.concatenate([engine.estimate(ids, *est_cols), engine.predict(ids, *pred_cols)])
    expected = np.concatenate([expected_est, expected_pred])
    assert checks.mismatches(served, expected) == 0
    perturbed = expected.copy()
    perturbed[3] += 1e-6
    assert checks.mismatches(served, perturbed) == 1
    assert checks.mismatches(served, expected[:-1]) == served.size


def test_rollout_and_restore_checks_trip_on_perturbation(tmp_path):
    from repro.serve.engine import FleetEngine
    from repro.serve.persistence import StateJournal
    from repro.serve.registry import ModelRegistry

    members = inputs.build_fleet(8, seed=4)
    inputs.publish_models(tmp_path / "reg")
    registry = ModelRegistry(tmp_path / "reg")
    journal_path = tmp_path / "journal.jsonl"
    journal = StateJournal(journal_path)
    engine = FleetEngine(registry=registry, journal=journal)
    pairs = [(m.cell_id, m.cycle) for m in members]
    results = engine.rollout_fleet(pairs, 60.0)
    journal.close()
    keys = {cid: engine.cell(cid).model_key for cid, _ in pairs}
    assert checks.rollout_mismatches(results, pairs[:3], registry, keys, 60.0) == 0
    assert checks.restore_mismatches(journal_path, engine, tmp_path / "reg") == 0
    results[pairs[0][0]].soc_pred[5] += 1e-6
    assert checks.rollout_mismatches(results, pairs[:3], registry, keys, 60.0) == 1
    engine.cell(pairs[1][0]).soc = np.nextafter(engine.cell(pairs[1][0]).soc, 2.0)
    assert checks.restore_mismatches(journal_path, engine, tmp_path / "reg") == 1


def test_staircase_settles_between_the_bracketing_rungs():
    from perfbench.online import LATENCY_LIMIT_MS, Staircase

    knee = 10_000.0  # every rate up to here passes, every rate above fails
    stairs = Staircase("online_inproc")
    for _ in range(30):
        stairs.record(LATENCY_LIMIT_MS / 2 if stairs.rate <= knee else float("inf"))
    result = stairs.result()
    rates = sorted({rate for rate, _ in result["trials"]})
    below = max(r for r in rates if r <= knee)
    above = min(r for r in rates if r > knee)
    assert result["status"] == "settled"
    assert below <= result["knee_rps"] <= above


def test_unit_times_take_each_windows_median_over_the_repetitions():
    from perfbench.rollout import unit_times

    windows = np.array([1, 2, 1, 2, 0])
    walls = ([1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 1.0, 3.5, 3.0, 6.0], [9.0, 1.5, 3.2, 9.0, 4.0])
    reps = [{"windows": windows, "unit_wall_s": np.array(w), "unit_cpu_s": np.ones(5)} for w in walls]
    got_windows, wall, cpu = unit_times(reps)
    assert np.array_equal(got_windows, windows)
    assert np.array_equal(wall, [2.0, 1.5, 3.2, 4.0, 5.0])
    assert np.array_equal(cpu, np.ones(5))
    reps[1] = dict(reps[1], windows=np.array([1, 2, 3, 1, 0]))
    with pytest.raises(RuntimeError):
        unit_times(reps)
