"""Tests for ``benchmarks/check_bench_regression.py`` (--all gating mode)."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "check_bench_regression.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_bench_regression", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def fleet_record(speedup=60.0):
    return {
        "cells": 128,
        "step_s": 0.5,
        "fast": True,
        "speedup": speedup,
        "max_traj_diff": 1e-12,
        "cell_steps_per_s_batched": 600_000.0,
    }


def kernel_record(kernel_speedup=8.0, fused_speedup=1.8):
    """A kernel-latency record: two gated metrics in one file."""
    return {
        "reps": 200,
        "batch": 64,
        "step_s": 0.5,
        "fast": True,
        "kernel_speedup": kernel_speedup,
        "max_equiv_diff": 1e-13,
        "kernel_p50_us": 20.0,
        "fused_speedup": fused_speedup,
        "fused_models": 8,
        "fused_batch": 256,
        "fused_diff": 1e-13,
        "mixed_model_rows_per_s": 500_000.0,
    }


def write(tmp_path, name, record):
    path = tmp_path / name
    path.write_text(json.dumps(record))
    return str(path)


class TestCheckAll:
    def test_all_shared_metrics_pass(self, gate, tmp_path, capsys):
        baseline = write(tmp_path, "base.json", kernel_record())
        current = write(tmp_path, "cur.json", kernel_record(kernel_speedup=7.5, fused_speedup=1.7))
        rc = gate.main(["--baseline", baseline, "--current", current, "--all"])
        out = capsys.readouterr().out
        assert rc == 0
        # both kernel-record metrics were gated, each with a verdict row
        assert "--- kernel_speedup ---" in out and "--- fused_speedup ---" in out
        assert "benchmark gate passed (all shared metrics)" in out

    def test_one_regressed_metric_fails_the_gate(self, gate, tmp_path, capsys):
        baseline = write(tmp_path, "base.json", kernel_record())
        current = write(tmp_path, "cur.json", kernel_record(kernel_speedup=8.0, fused_speedup=1.0))
        rc = gate.main(["--baseline", baseline, "--current", current, "--all"])
        out = capsys.readouterr().out
        assert rc == 1
        # the passing metric still shows ok in the verdict table
        rows = dict(
            line.split()
            for line in out.splitlines()
            if len(line.split()) == 2 and line.split()[1] in ("ok", "FAIL")
        )
        assert rows == {"kernel_speedup": "ok", "fused_speedup": "FAIL"}

    def test_verdict_table_lists_every_metric(self, gate, tmp_path, capsys):
        baseline = write(tmp_path, "base.json", kernel_record())
        current = write(tmp_path, "cur.json", kernel_record())
        gate.main(["--baseline", baseline, "--current", current, "--all"])
        out = capsys.readouterr().out
        table = out[out.index("metric") :]
        assert "kernel_speedup" in table and "fused_speedup" in table

    def test_no_shared_metric_is_an_error(self, gate, tmp_path, capsys):
        baseline = write(tmp_path, "base.json", fleet_record())
        current = write(tmp_path, "cur.json", {"gateway_ratio": 2.0, "cells": 1})
        rc = gate.main(["--baseline", baseline, "--current", current, "--all"])
        assert rc == 1
        assert "share no gated metric" in capsys.readouterr().out

    def test_config_mismatch_fails(self, gate, tmp_path, capsys):
        baseline = write(tmp_path, "base.json", fleet_record())
        mismatched = fleet_record()
        mismatched["cells"] = 999
        current = write(tmp_path, "cur.json", mismatched)
        rc = gate.main(["--baseline", baseline, "--current", current, "--all"])
        assert rc == 1
        assert "config mismatch" in capsys.readouterr().out

    def test_all_and_metric_are_exclusive(self, gate, tmp_path):
        baseline = write(tmp_path, "base.json", fleet_record())
        with pytest.raises(SystemExit):
            gate.main(["--baseline", baseline, "--current", baseline, "--all", "--metric", "gateway_ratio"])


class TestSingleMetricStillWorks:
    def test_default_metric_passes(self, gate, tmp_path, capsys):
        baseline = write(tmp_path, "base.json", fleet_record())
        current = write(tmp_path, "cur.json", fleet_record(speedup=55.0))
        rc = gate.main(["--baseline", baseline, "--current", current])
        assert rc == 0
        assert "benchmark gate passed" in capsys.readouterr().out

    def test_regression_detected(self, gate, tmp_path, capsys):
        baseline = write(tmp_path, "base.json", fleet_record())
        current = write(tmp_path, "cur.json", fleet_record(speedup=10.0))
        rc = gate.main(["--baseline", baseline, "--current", current])
        assert rc == 1
        assert "regressed" in capsys.readouterr().out

    def test_aux_budget_enforced(self, gate, tmp_path, capsys):
        baseline = write(tmp_path, "base.json", fleet_record())
        bad = fleet_record()
        bad["max_traj_diff"] = 1e-6
        current = write(tmp_path, "cur.json", bad)
        rc = gate.main(["--baseline", baseline, "--current", current])
        assert rc == 1
        assert "divergence" in capsys.readouterr().out
