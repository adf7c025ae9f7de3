"""The library keeps what the benchmark in perfbench/ relies on.

One cycle of tasks of each workload runs in this process, traced as in
a ``run.py --trace 1`` phase: the workload's checks must find no problem,
and the per-layer table must hold every metric that BENCHMARK.json
declares, or ``run.py`` fails when it reads them.
"""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402

from gplda import DEFAULT_PDA_ALPHA_GRID  # noqa: E402


def _declared_layer_metrics():
    """Per-layer names the layer table must supply: ``run.py`` adds the
    ``.1t`` copies, the start-up time and the ``trace.`` rates itself."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer"]
    names = {spec["name"].removesuffix(".1t") for spec in declared}
    return {n for n in names if n != "cli.startup.s" and not n.startswith("trace.")}


def _run_traced(workload, seed, work_dir, tasks):
    workload.setup(seed, work_dir, in_process=True)
    recorder = spans.SpanRecorder()
    results = []
    try:
        with spans.installed(recorder):
            for index in range(tasks):
                recorder.task = index
                results.append(workload.check(index, workload.execute(index)))
    finally:
        workload.close()
    return results, spans.layer_table(recorder.spans, workload.count_window)


@pytest.fixture
def small_workloads(monkeypatch):
    monkeypatch.setattr(workloads.ImageLap2d, "DATASETS", 1)
    monkeypatch.setattr(workloads.CliRoundtrip, "N_TEST", 200)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_traced_cycle_passes_its_checks_and_fills_the_layer_table(
    name, small_workloads, tmp_path
):
    workload = workloads.WORKLOADS[name]()
    results, table = _run_traced(workload, 0, str(tmp_path / "work"), workload.cycle)
    for errors, problems in results:
        assert problems == []
        assert errors
    assert _declared_layer_metrics() - set(table) == set()


def test_every_fold_model_reaches_the_traced_solver(tmp_path):
    # a cycle is 7 cells, 3 of them PDA with 5 folds x 9 candidates each
    bench = workloads.SimBench()
    _, table = _run_traced(bench, 0, str(tmp_path), bench.cycle)
    folds = 5 * len(DEFAULT_PDA_ALPHA_GRID)
    assert table["linalg.generalized_eig_top.calls"] == pytest.approx((7 + 3 * folds) / 7)


def test_cross_validation_hands_every_fold_model_to_the_hook():
    bench = workloads.SimBench()
    bench.setup(0, "", in_process=True)
    index = workloads.SimBench.CELLS.index(("sim1", "PDA", 50))
    report, captured = bench.execute(index)
    # 5 folds for each candidate, then the final fit's test prediction
    assert len(captured) == 5 * len(DEFAULT_PDA_ALPHA_GRID) + 1
    assert bench.check(index, (report, captured))[1] == []
