"""Tests of the benchmark itself: generator, output checks and tracer.

Run from the repository root with `python3 -m pytest perfbench/tests`.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import tracer  # noqa: E402
from worker import Runner, Stage  # noqa: E402


def _read_all(directory):
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))}


@pytest.mark.parametrize("workload", ["daily_refit", "ranker_regression", "ab_test"])
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    a = gen.generate(workload, 3, str(tmp_path / "a"))
    b = gen.generate(workload, 3, str(tmp_path / "b"))
    c = gen.generate(workload, 4, str(tmp_path / "c"))
    assert _read_all(tmp_path / "a") == _read_all(tmp_path / "b")
    assert a["inputs_sha256"] == b["inputs_sha256"] != c["inputs_sha256"]


def test_solve_sweep_model_is_fixed(tmp_path):
    a = gen.generate("solve_sweep", 1, str(tmp_path / "a"))
    b = gen.generate("solve_sweep", 2, str(tmp_path / "b"))
    assert a["inputs_sha256"] == b["inputs_sha256"]


def test_ensure_inputs_caches_by_seed(tmp_path):
    first, facts = gen.ensure_inputs(str(tmp_path), "ab_test", 5)
    again, cached = gen.ensure_inputs(str(tmp_path), "ab_test", 5)
    assert first == again and facts == cached


def _runner_writing(doc, output, kind, reference=None):
    """A Runner whose CLI writes `doc` to `output` and succeeds."""
    def fake_main(argv):
        with open(output, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return 0
    runner = Runner(fake_main, {"facts": {}}, reference)
    return runner, [Stage("x", [], str(output), kind)]


def _table(rows, bounds=(-1, 1)):
    return {"types": [1], "streak_bounds": list(bounds), "thresholds": {"1": rows}}


@pytest.mark.parametrize("rows", [[0.1, None, 1.5], [0.1, -0.2, 0.3], [0.1, 0.2]])
def test_corrupted_threshold_table_counts_as_failed(tmp_path, rows):
    runner, stages = _runner_writing(_table(rows), tmp_path / "p.json", "thresholds")
    assert runner.cycle(stages) is not None
    assert (runner.attempted, runner.failed) == (1, 1)


def test_valid_threshold_table_with_never_send_passes(tmp_path):
    runner, stages = _runner_writing(_table([0.0, None, 0.5]), tmp_path / "p.json",
                                     "thresholds")
    runner.cycle(stages)
    assert (runner.attempted, runner.failed) == (1, 0)


@pytest.mark.parametrize("values", [[0.2, 0.1, 0.3], [0.1, 0.2, 1.2]])
def test_corrupted_calibration_map_counts_as_failed(tmp_path, values):
    doc = {"breakpoints": [0.1, 0.5, 0.9], "values": values}
    runner, stages = _runner_writing(doc, tmp_path / "cal.json", "calibration")
    runner.cycle(stages)
    assert (runner.attempted, runner.failed) == (1, 1)


def test_reference_mismatch_counts_as_failed(tmp_path):
    good = _table([0.1, None, 0.5])
    ref = {"outputs": {"p.json": checks.snapshot("thresholds", good)}}
    off = _table([0.1 + 2e-6, None, 0.5])
    runner, stages = _runner_writing(off, tmp_path / "p.json", "thresholds", ref)
    runner.cycle(stages)
    assert runner.failed == 1
    close = _table([0.1 + 5e-7, None, 0.5])
    runner, stages = _runner_writing(close, tmp_path / "p.json", "thresholds", ref)
    runner.cycle(stages)
    assert runner.failed == 0


def test_failing_stage_is_counted_and_stops_the_cycle(tmp_path):
    def broken_main(argv):
        raise RuntimeError("boom")
    runner = Runner(broken_main, {"facts": {}}, None)
    stages = [Stage("a", [], str(tmp_path / "a.json"), "model"),
              Stage("b", [], str(tmp_path / "b.json"), "model")]
    assert runner.cycle(stages) is None
    assert (runner.attempted, runner.failed) == (1, 1)


def test_report_totals_must_match_per_type_rows():
    doc = {"baseline": "h", "treatments": [
        {"name": "h", "total_sends": 5, "total_opens": 2, "discounted_opens": 1.0}],
        "per_type": [{"treatment": "h", "user_type": 1, "sends": 4, "opens": 2}]}
    assert checks.report(doc)
    doc["per_type"][0]["sends"] = 5
    assert checks.report(doc) == []


def test_send_limit_check_flags_an_extra_send():
    line = '{"user_id": "u1", "user_type": 1, "timestamp": %d, "raw_score": 0.5, "outcome": 0}'
    events = [line % t for t in (0, 100, 200)]
    assert checks.send_limits(events, {"1": 3}, "arm") == []
    assert checks.send_limits(events, {"1": 2}, "arm")


def test_missing_boundary_reports_zero_and_does_not_crash(monkeypatch):
    import notif_ltv.sim

    monkeypatch.delattr(notif_ltv.sim, "simulate_pass")
    tr = tracer.Tracer()
    boundaries = layers.BOUNDARIES + (("notif_ltv.no_such_module", "f", "sim.gone",
                                       tracer.HOT, False),)
    undo = tracer.install(tr, boundaries)
    try:
        metrics = layers.layer_metrics(tr, [1.0], [1.0])
    finally:
        tracer.uninstall(undo)
    assert "notif_ltv.sim.simulate_pass" in tr.missing
    assert "notif_ltv.no_such_module.f" in tr.missing
    assert metrics["sim.simulate_pass_calls"] == 0
    assert metrics["sim.us_per_pass"] == 0


def test_uncalled_boundary_reports_zero():
    tr = tracer.Tracer()
    undo = tracer.install(tr, layers.BOUNDARIES)
    tracer.uninstall(undo)
    metrics = layers.layer_metrics(tr, [1.0], [1.0])
    assert tr.missing == []
    assert all(v == 0 for k, v in metrics.items() if k != "trace.overhead_ratio")


def test_self_times_add_up_to_the_traced_time():
    tr = tracer.Tracer()
    leaf = tr.wrap_hot("b.leaf", lambda: sum(range(2000)))
    mid = tr.wrap_hot("c.mid", lambda: [leaf() for _ in range(3)])
    with tr.span("a.outer"):
        with tr.span("a.inner"):
            mid()
        leaf()
    outer = tr.span_total("a.outer")
    selfs = tr.self_by_layer()
    assert sum(selfs.values()) == pytest.approx(outer, rel=1e-9)
    assert tr.hot_stat("b.leaf")[0] == 4 and tr.hot_stat("c.mid")[0] == 1
    assert tr.to_dict()["spans"][1]["parent"] == 0


def test_deferred_counter_error_is_recorded_not_raised():
    tr = tracer.Tracer()

    def bad(tr_, args, kwargs, result):
        raise AttributeError("renamed field")
    wrapped = tr.wrap_span("x.f", lambda: 1, bad)
    assert wrapped() == 1
    tr.flush()
    assert tr.counter_errors


def test_metric_names_agree_with_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(BENCH, "intent.json"), encoding="utf-8") as fh:
        intent = json.load(fh)
    per_layer = [m["name"] for m in bench["per_layer"]]
    computed = layers.layer_metrics(tracer.Tracer(), [1.0], [1.0])
    assert sorted(per_layer) == sorted(computed) == sorted(intent["per_layer"])
    e2e = {m["name"] for m in bench["end_to_end"]}
    workloads = {w["name"] for w in bench["workloads"]}
    assert set(intent["end_to_end"]) == e2e
    for name, entry in intent["per_layer"].items():
        assert entry["moves"] in e2e | {None}, name
        assert set(entry["on"]) <= workloads, name


def _run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_metric(trace):
    done = _run_bench(ROOT, "--workload", "ranker_regression", "--seed", "0",
                      "--seconds", "0.5", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    wanted = bench["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in result["metrics"].items()}


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".cache", ".work", ".out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _run_bench(tmp_path, "--workload", "solve_sweep", "--seed", "0",
                      "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
