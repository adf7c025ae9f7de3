"""Tests of the benchmark's own machinery: spans, self time, seeding.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import gplda  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from spans import NAME, PARENT  # noqa: E402


def _bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if module is not None and (name == "gplda" or name.startswith("gplda."))
        for attr, value in vars(module).items()
        if callable(value)
    }


def _small_dataset(seed):
    rng = np.random.default_rng(seed)
    return workloads.lap2d_images(rng, 40, 6, 6, 3.0)


def test_wrappers_restore_the_original_functions():
    before = _bindings()
    recorder = spans.SpanRecorder()
    data = _small_dataset(0)
    with spans.installed(recorder) as patches:
        wrapped = {(m.__name__, attr) for m, attr, _ in patches}
        assert ("gplda.discriminant", "generalized_eig_top") in wrapped
        assert ("gplda.estimator", "update_x") in wrapped
        assert ("gplda.simulate", "pda_fit") in wrapped
        assert gplda.discriminant.generalized_eig_top is not before[
            ("gplda.discriminant", "generalized_eig_top")]
        penalty = gplda.linalg.build_penalty("lap2d", (6, 6))
        gplda.discriminant.gplda_fit(data, config=gplda.model.FitConfig(penalty=penalty))
    assert _bindings() == before
    names = {span[NAME] for span in recorder.spans}
    assert {"discriminant.gplda_fit", "estimator.fit", "estimator.update_x",
            "linalg.generalized_eig_top", "linalg.build_penalty"} <= names
    fit_span = next(i for i, s in enumerate(recorder.spans) if s[NAME] == "estimator.fit")
    assert any(s[PARENT] == fit_span and s[NAME] == "estimator.update_mu"
               for s in recorder.spans)


def test_wrappers_are_restored_when_the_traced_block_raises():
    before = _bindings()
    with pytest.raises(gplda.exceptions.DimensionError):
        with spans.installed(spans.SpanRecorder()):
            gplda.linalg.build_penalty("d1", 1)
    assert _bindings() == before


def _span(name, start, end, parent, task=0, extra=None):
    return [name, start, end, parent, task, None, extra]


def test_self_time_on_a_hand_built_span_tree():
    tree = [
        _span("estimator.fit", 0.0, 10.0, None, extra=2),
        _span("estimator.update_x", 1.0, 4.0, 0),
        _span("model.log_posterior", 5.0, 9.0, 0),
        _span("linalg.spd_solve", 6.0, 7.5, 2),
        _span("estimator.fit", 20.0, 22.0, None, task=1, extra=1),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 3.0, 2.5, 1.5, 2.0])
    table = spans.layer_table(tree, window_tasks=1)
    assert table["estimator.fit.ms"] == pytest.approx((3.0 + 2.0) / 2 * 1e3)
    assert table["model.log_posterior.ms"] == pytest.approx(2.5e3)
    assert table["model.log_posterior.calls"] == 1
    assert table["estimator.fit.sweeps"] == 2


def _first_cycle_errors(seed):
    workload = workloads.SimBench()
    workload.setup(seed, "", in_process=True)
    return [t["errors"] for t in worker.run_tasks(workload, 0.0, workload.min_tasks)]


def test_same_seed_gives_identical_errors():
    first = _first_cycle_errors(3)
    assert first == _first_cycle_errors(3)
    metrics = run.task_metrics({"tasks": [
        {"seconds": 1.0, "cell": i, "errors": e, "problems": [], "dataset": str(i)}
        for i, e in enumerate(first)], "peak_rss_mb": 1.0})
    assert {"err_pct_gplda", "err_pct_pda", "err_pct_pca_lda"} <= set(metrics)


def test_task_p50_is_the_median_of_cell_medians():
    timings = [(0, 1.0), (0, 3.0), (1, 10.0), (1, 12.0), (1, 13.0), (2, 100.0)]
    tasks = [{"seconds": s, "cell": c, "errors": {}, "problems": [], "dataset": str(i)}
             for i, (c, s) in enumerate(timings)]
    metrics = run.task_metrics({"tasks": tasks, "peak_rss_mb": 1.0})
    assert metrics["task_p50_ms"] == pytest.approx(12e3)


def test_different_seed_gives_different_inputs(tmp_path):
    sim = [workloads.SimBench(), workloads.SimBench()]
    images = [workloads.ImageLap2d(), workloads.ImageLap2d()]
    cli = [workloads.CliRoundtrip(), workloads.CliRoundtrip()]
    for seed, group in enumerate(zip(sim, images, cli)):
        for workload in group:
            workload.setup(seed, str(tmp_path), in_process=True)
    assert sim[0].task_input(0) != sim[1].task_input(0)
    assert not np.array_equal(images[0].datasets[0][0].y, images[1].datasets[0][0].y)
    assert cli[0].argvs(0)[0] != cli[1].argvs(0)[0]
    again = workloads.ImageLap2d()
    again.setup(0, "", in_process=True)
    assert np.array_equal(again.datasets[0][0].y, images[0].datasets[0][0].y)


def test_reference_mismatch_fails_the_task():
    reference = {"seed": 0, "workloads": {"sim_bench": [
        {"index": 0, "errors": {"GPLDA": 10.0}}]}}
    tasks = [{"index": 0, "errors": {"GPLDA": 12.0}, "problems": []},
             {"index": 1, "errors": {"PDA": 5.0}, "problems": []}]
    assert run.apply_reference("sim_bench", 0, tasks, reference) == 1
    assert tasks[0]["problems"] and not tasks[1]["problems"]
    assert run.apply_reference("sim_bench", 1, tasks, reference) == 0


def test_declared_metric_units_match_the_benchmark():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert run.unit_of(metric["name"]) == metric["unit"], metric["name"]
