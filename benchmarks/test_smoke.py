"""Smoke test of the benchmark at reduced sizes.

    python3 -m pytest -q benchmarks/test_smoke.py

Checks the metric names against BENCHMARK.json, the self-time arithmetic
on a hand-built span tree, and the refusals (missing hook target, hook
that never fires, multi-threaded BLAS).
"""

import dataclasses
import json
import math
import os
import shutil

import pytest

import bench
import tracing

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def _span(name, start, end, parent=tracing.NO_PARENT):
    return [name, start, end, parent, "test", None]


def test_self_time_of_hand_built_tree():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.0, 6.0, parent=0),  # overlaps a: the union covers 1..6
        _span("c", 8.0, 12.0, parent=0),  # runs past root: only 8..10 counts
        _span("a.child", 2.0, 3.0, parent=1),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])


def test_layer_metrics_sum_calls_self_time_and_counts():
    hooks = (tracing.Hook(("layer",), (), count_keys=("rows", "hits"),
                          shares=(("hit_share", "hits", "rows"),)),)
    spans = [
        _span("layer", 0.0, 2.0),
        _span("unhooked", 0.5, 1.0, parent=0),
        _span("layer", 3.0, 4.0),
    ]
    spans[0][5] = {"rows": 5, "hits": 1}
    spans[2][5] = {"rows": 7, "hits": 2}
    assert tracing.layer_metrics(spans, hooks) == pytest.approx(
        {"layer.calls": 2, "layer.self_s": 2.5, "layer.rows": 12, "layer.hits": 3,
         "layer.hit_share": 0.25}
    )


def test_missing_or_silent_hooks_fail_loudly():
    with pytest.raises(tracing.HookError, match="no_such_function"):
        tracing.Hooks(tracing.Tracer(), (tracing.Hook(("x",), ("rfloc.networks:no_such_function",)),))
    with pytest.raises(tracing.HookError, match="never fired"):
        tracing.layer_metrics([], (tracing.Hook(("x",), ()),))


def test_multithreaded_blas_is_refused(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    with pytest.raises(bench.EnvironmentRefused, match="OPENBLAS_NUM_THREADS"):
        bench.check_environment()


def test_benchmark_json_lists_the_workloads_and_layers():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(bench.END_TO_END_UNITS)
    assert [m["name"] for m in SPEC["per_layer"]] == tracing.layer_metric_names() + [
        "trace.overhead_s"
    ]


def _reduced(name, monkeypatch):
    for var in bench.BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    bench.check_environment()
    bench.import_rfloc()
    w = bench.WORKLOADS[name]
    return dataclasses.replace(
        w, train_epochs=5, adapt_epochs=1, cv_epochs=1, cv_folds=2, predict_repeats=2,
        sample_interval=1.0, large_interval=0.5 if w.large_interval else None,
        # The reference shares hold at full size only.
        mae_share_max=dict.fromkeys(bench.ADAPT_METHODS, math.inf),
    )


def test_repeat_session_skips_once_jobs_and_writes_the_same_outputs(monkeypatch):
    w = dataclasses.replace(_reduced("cv-grid", monkeypatch), once=("cv", "predict"))
    work = bench.WORK_DIR / f"smoke-{os.getpid()}-repeat"
    shutil.rmtree(work, ignore_errors=True)
    try:
        jobs = bench.Jobs()
        datasets = bench.set_up(w, 3, work / "setup", jobs)
        first = bench.run_jobs(w, 3, work / "setup", datasets, work / "s0", jobs, None)
        repeat = bench.run_jobs(w, 3, work / "setup", datasets, work / "s1", jobs, None, w.once)
        assert jobs.failed == 0
        assert set(first.times) - set(repeat.times) == {"cv"}
        assert first.predict_times and not repeat.predict_times
        assert "cv.csv" not in repeat.digests
        assert all(first.digests[name] == digest for name, digest in repeat.digests.items())
    finally:
        shutil.rmtree(work, ignore_errors=True)


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_reduced_workload_reports_every_metric(name, monkeypatch):
    small = _reduced(name, monkeypatch)
    work = bench.WORK_DIR / f"smoke-{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for trace, spec_key in ((False, "end_to_end"), (True, "per_layer")):
            result = bench.run(small, 3, 0.0, trace, work / spec_key, 0.0)
            assert result["correct"], result
            metrics = result["metrics"]
            assert list(metrics) == [m["name"] for m in SPEC[spec_key]]
            for spec in SPEC[spec_key]:
                assert metrics[spec["name"]]["unit"] == spec["unit"]
            if not trace:
                assert all(m["value"] > 0 for m in metrics.values())
    finally:
        shutil.rmtree(work, ignore_errors=True)
