"""Tests of the benchmark itself, on every workload at a tiny scale.

Run from the repository root: ``python -m pytest perfbench/tests``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import measure, run, tracer
from perfbench.tracer import LAYER_TABLE, LayerTracer, _resolve
from perfbench.workloads import WORKLOADS, InputRefused, check_inputs

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 0.05


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], scale=TINY)


def _functions():
    return {
        (target, method): _resolve(target).__dict__[method]
        for _, target, methods in LAYER_TABLE
        for method in methods
    }


@pytest.fixture(scope="module")
def runs():
    """Per workload: (timed result, traced result) at tiny scale."""
    before = _functions()
    out = {
        name: (measure.timed(tiny(name), 1, 0.0), measure.traced(tiny(name), 1))
        for name in WORKLOADS
    }
    assert _functions() == before, "a traced run left a wrapper installed"
    return out


def test_benchmark_json_lists_the_workloads_and_metrics():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == measure.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == measure.PER_LAYER


def test_every_metric_is_emitted_with_its_unit(runs):
    for name, (timed, traced) in runs.items():
        assert timed.correct and traced.correct, (name, timed.problems, traced.problems)
        assert {k: u for k, (_, u) in timed.metrics.items()} == measure.END_TO_END
        assert {k: u for k, (_, u) in traced.metrics.items()} == measure.PER_LAYER
        assert all(value > 0 for value, _ in timed.metrics.values()), name


def test_tracing_changes_no_runstats(runs):
    # traced() itself fails a cell whose traced RunStats differ from
    # its untraced ones; the digests also tie it to the timed run.
    for name, (timed, traced) in runs.items():
        assert timed.outcome.failed == traced.outcome.failed == 0, name
        assert timed.outcome.digest() == traced.outcome.digest(), name


def test_wrappers_are_restored_when_the_body_raises():
    before = _functions()
    with pytest.raises(RuntimeError):
        with LayerTracer():
            assert _functions() != before
            raise RuntimeError("boom")
    assert _functions() == before


def test_layer_self_times_and_unattributed_add_up_to_the_traced_wall(runs):
    for name, (_, traced) in runs.items():
        metrics = {k: v for k, (v, _) in traced.metrics.items()}
        layer_self = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        # stamp's self time is reported split into setup and verify.
        layer_self += metrics["stamp.setup_s"] + metrics["stamp.verify_s"]
        total = layer_self + metrics["trace.unattributed_s"]
        assert total == pytest.approx(metrics["trace.wall_s"], rel=1e-6), name
        share = metrics["trace.unattributed_s"] / metrics["trace.wall_s"]
        assert 0 <= share <= measure.MAX_UNATTRIBUTED, name


def test_a_layer_table_that_misses_host_time_fails_the_traced_run(monkeypatch):
    table = tuple(entry for entry in LAYER_TABLE if entry[0] != "simulator")
    monkeypatch.setattr(tracer, "LAYER_TABLE", table)
    result = measure.traced(tiny("stm-stamp"), 1)
    assert not result.correct
    assert any("unattributed" in problem for problem in result.problems)


def test_bypass_predictions_hold(runs):
    stm = {k: v for k, (v, _) in runs["stm-stamp"][1].metrics.items()}
    for name in (
        "bloom.calls", "hw.engine.submits", "hw.manager.validates",
        "hw.detector.calls", "window.calls",
    ):
        assert stm[name] == 0, name
    rococo = {k: v for k, (v, _) in runs["rococo-stamp"][1].metrics.items()}
    assert rococo["bloom.calls"] > 0 and rococo["window.calls"] > 0
    for name, (_, traced) in runs.items():
        metrics = {k: v for k, (v, _) in traced.metrics.items()}
        cluster = [metrics[k] for k in metrics if k.startswith("cluster.")]
        if name == "cluster-chaos":
            assert all(value > 0 for value in cluster)
        else:
            assert not any(cluster), name


def test_only_fig10_jobs2_measures_the_pool(runs):
    for name, (_, traced) in runs.items():
        pool_s = traced.metrics["exec.pool_s"][0]
        assert (pool_s > 0) == (name == "fig10-jobs2"), name


def test_a_cell_whose_runstats_change_is_a_failure():
    outcome = measure.Outcome(2)
    outcome.check(0, {"commits": 1})
    outcome.check(1, None, "cell 1 raised")
    outcome.check(0, {"commits": 2})
    assert (outcome.attempted, outcome.failed) == (3, 2)


def test_inputs_are_only_generated_specs(monkeypatch):
    specs = tiny("rococo-stamp").specs(3)
    check_inputs(specs, 3)
    with pytest.raises(InputRefused):
        check_inputs(specs, 4)
    with pytest.raises(InputRefused):
        check_inputs(specs + specs[:1], 3)
    with pytest.raises(InputRefused):
        check_inputs([specs[0].with_(verify=False)], 3)
    monkeypatch.setenv("REPRO_SCHED", "scan")
    with pytest.raises(InputRefused):
        check_inputs(specs, 3)


def test_command_prints_one_json_result_last(monkeypatch, capsys):
    monkeypatch.setitem(WORKLOADS, "stm-stamp", tiny("stm-stamp"))
    code = run.main(["--workload", "stm-stamp", "--seed", "2", "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(measure.END_TO_END)


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stm-stamp", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_a_pool_sweep_that_raises_is_a_failure_not_a_crash(monkeypatch):
    monkeypatch.setattr(
        measure, "pool_sweep", lambda specs, jobs: (0.0, [None] * len(specs), "cell raised")
    )
    workload = tiny("fig10-jobs2")
    result = measure.timed(workload, 1, 0.0)
    assert not result.correct
    cells = len(workload.specs(1))
    assert result.outcome.failed == result.outcome.attempted == measure.MIN_REPS * cells
    assert set(result.metrics) == set(measure.END_TO_END)
