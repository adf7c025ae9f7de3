"""The three benchmark workloads and the checks on their outputs.

Each workload builds its inputs from a seed in ``setup``, runs one task
in ``execute`` (the timed part) and checks that task's outputs in
``check`` (untimed).  Library calls go through module attributes
(``discriminant.gplda_fit``), so the span tracer sees them.

``check`` returns ``(errors, problems)``: test error in percent per
method, and a list of failed checks (empty when the task is correct).
"""

from __future__ import annotations

import contextlib
import io as _stdio
import os
import shutil
import subprocess
import sys

import numpy as np

from gplda import cli, discriminant, linalg, model, simulate

# Tolerance on D W D^T = I for directions normalized against W.
WHITENING_RTOL = 1e-6


def check_model(fitted, x_rows: int, predicted, problems: list, where: str) -> None:
    """Direction, normalization and prediction checks for one fitted model."""
    directions = fitted.directions
    if not np.all(np.isfinite(directions)):
        problems.append(f"{where}: non-finite directions")
        return
    if fitted.within_cov_used is not None:
        gram = directions @ fitted.within_cov_used @ directions.T
        if not np.allclose(gram, np.eye(fitted.k), rtol=0.0, atol=WHITENING_RTOL):
            problems.append(f"{where}: D W D^T deviates from I by "
                            f"{np.max(np.abs(gram - np.eye(fitted.k))):.3g}")
    predicted = np.atleast_1d(predicted)
    if predicted.shape[0] != x_rows:
        problems.append(f"{where}: {predicted.shape[0]} predictions for {x_rows} rows")
    unknown = set(predicted.tolist()) - set(fitted.class_labels)
    if unknown:
        problems.append(f"{where}: labels {sorted(unknown)} outside the class set")


class SimBench:
    """The acceptance Monte Carlo mix, one ``run_benchmark`` call per task."""

    name = "sim_bench"
    # (which, method, N); a task runs cell i % 7 with replication i // 7.
    CELLS = (
        ("sim1", "GPLDA", 50),
        ("sim1", "PDA", 50),
        ("sim1", "GPLDA", 200),
        ("sim1", "PDA", 200),
        ("sim2", "GPLDA", 20),
        ("sim2", "PDA", 20),
        ("sim2", "PCA_LDA", 20),
    )
    N_TEST = 200
    # Seeds get disjoint blocks of replication seeds, so two seeds never
    # share an input.
    SEED_STRIDE = 1_000_000
    cycle = len(CELLS)
    min_tasks = len(CELLS)
    count_window = len(CELLS)

    def setup(self, seed: int, work_dir: str, in_process: bool) -> None:
        self.seed = seed

    def task_input(self, index: int):
        which, method, n_train = self.CELLS[index % self.cycle]
        base_seed = self.seed * self.SEED_STRIDE + index // self.cycle
        return which, method, n_train, base_seed

    def execute(self, index: int):
        which, method, n_train, base_seed = self.task_input(index)
        captured = []
        inner = simulate.predict

        def capture(fitted, x_new):
            predicted = inner(fitted, x_new)
            captured.append((fitted, np.shape(x_new)[0], predicted))
            return predicted

        # run_benchmark keeps its models to itself; this hook at its call
        # site for predict hands every fitted model to the checks.
        simulate.predict = capture
        try:
            report = simulate.run_benchmark(
                which, [method], (n_train,), reps=1, base_seed=base_seed,
                n_test=self.N_TEST,
            )
        finally:
            simulate.predict = inner
        return report, captured

    def check(self, index: int, raw):
        report, captured = raw
        cell = report.cells[0]
        problems = []
        if cell.failures:
            problems.append(f"{cell.failures} numeric failure(s) in run_benchmark")
        for number, (fitted, rows, predicted) in enumerate(captured):
            check_model(fitted, rows, predicted, problems, f"model {number}")
        errors = {cell.method: e * 100.0 for e in cell.errors}
        return errors, problems

    def dataset_key(self, index: int):
        return self.task_input(index)

    def close(self) -> None:
        pass


def lap2d_images(rng: np.random.Generator, n: int, rows: int, cols: int,
                 separation: float):
    """Two balanced classes of smooth random images plus white noise.

    Every image is a random combination of the nine lowest sine modes of
    the grid plus unit white noise; class 1 adds ``separation`` times a
    centred Gaussian blob of width 0.15.
    """
    r = np.linspace(0.0, 1.0, rows)[:, None]
    c = np.linspace(0.0, 1.0, cols)[None, :]
    blob = np.exp(-((r - 0.5) ** 2 + (c - 0.5) ** 2) / (2 * 0.15 ** 2)).ravel()
    modes = np.array([
        (np.sin(np.pi * (a + 1) * r) * np.sin(np.pi * (b + 1) * c)).ravel()
        for a in range(3) for b in range(3)
    ])
    y = rng.standard_normal((n, modes.shape[0])) @ modes
    y += rng.standard_normal((n, rows * cols))
    half = n // 2
    y[:half] += separation * blob
    labels = np.repeat([1, 2], half)
    return model.LabeledFunctionalDataset(y=y, labels=labels, label_names=(1, 2))


class ImageLap2d:
    """GPLDA and fixed-alpha PDA on 40x40 two-class images (p = 1600)."""

    name = "image_lap2d"
    ROWS = COLS = 40
    N_TRAIN = 100
    N_TEST = 2000
    DATASETS = 4
    SEPARATION = 3.0
    PDA_ALPHA = 10.0
    cycle = 1
    min_tasks = DATASETS
    count_window = 1

    def setup(self, seed: int, work_dir: str, in_process: bool) -> None:
        self.datasets = []
        for d in range(self.DATASETS):
            rng = np.random.default_rng([seed, d])
            train = lap2d_images(rng, self.N_TRAIN, self.ROWS, self.COLS, self.SEPARATION)
            test = lap2d_images(rng, self.N_TEST, self.ROWS, self.COLS, self.SEPARATION)
            truth = np.asarray(test.label_names)[test.labels - 1]
            self.datasets.append((train, test, truth))

    def execute(self, index: int):
        train, test, truth = self.datasets[index % self.DATASETS]
        penalty = linalg.build_penalty("lap2d", (self.ROWS, self.COLS))
        gplda_model, _ = discriminant.gplda_fit(
            train, config=model.FitConfig(penalty=penalty)
        )
        pda_model = discriminant.pda_fit(train, penalty, self.PDA_ALPHA)
        outputs = {}
        for fitted in (gplda_model, pda_model):
            predicted = discriminant.predict(fitted, test.y)
            outputs[fitted.method_tag] = (
                fitted, predicted, discriminant.error_rate(predicted, truth)
            )
        return outputs

    def check(self, index: int, raw):
        test = self.datasets[index % self.DATASETS][1]
        problems = []
        errors = {}
        for tag, (fitted, predicted, rate) in raw.items():
            check_model(fitted, test.n, predicted, problems, tag)
            errors[tag] = rate * 100.0
        return errors, problems

    def dataset_key(self, index: int):
        return index % self.DATASETS

    def close(self) -> None:
        self.datasets = []


class CliRoundtrip:
    """simulate, fit and predict through ``python -m gplda.cli``.

    End-to-end, each command is its own subprocess.  In the three phases
    of a traced run the same argv goes to ``gplda.cli.cli_dispatch`` in
    this process, so that the io spans are visible and the untraced phase
    differs from the traced one only by the tracing.
    """

    name = "cli_roundtrip"
    N_TRAIN = 200
    N_TEST = 20000
    SEED_STRIDE = 1_000_000
    cycle = 1
    # A task takes seconds and its time swings with the host's CPU speed,
    # so a run always measures several.
    min_tasks = 4
    count_window = 1

    def setup(self, seed: int, work_dir: str, in_process: bool) -> None:
        self.seed = seed
        self.in_process = in_process
        self.work_dir = work_dir
        os.makedirs(work_dir, exist_ok=True)

    def argvs(self, index: int):
        prefix = os.path.join(self.work_dir, f"task{index}")
        return [
            ["simulate", "--which", "sim1", "--n-train", str(self.N_TRAIN),
             "--n-test", str(self.N_TEST),
             "--seed", str(self.seed * self.SEED_STRIDE + index), "--out", prefix],
            ["fit", "--data", f"{prefix}_train.csv", "--method", "gplda",
             "--out", f"{prefix}_model.json"],
            ["predict", "--model", f"{prefix}_model.json", "--data",
             f"{prefix}_test.csv", "--out", f"{prefix}_labels.csv"],
        ]

    def _run(self, argv):
        if self.in_process:
            out, err = _stdio.StringIO(), _stdio.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.cli_dispatch(argv)
            return code, out.getvalue(), err.getvalue()
        done = subprocess.run(
            [sys.executable, "-m", "gplda.cli", *argv],
            capture_output=True, text=True, check=False,
        )
        return done.returncode, done.stdout, done.stderr

    def execute(self, index: int):
        return [(argv[0], *self._run(argv)) for argv in self.argvs(index)]

    def check(self, index: int, raw):
        problems = []
        errors = {}
        reported = None
        for command, code, out, err in raw:
            if code != 0:
                problems.append(f"{command} exited {code}: {err.strip()[-200:]}")
            for line in out.splitlines():
                if line.startswith("error rate:"):
                    reported = float(line.split(":", 1)[1])
        prefix = os.path.join(self.work_dir, f"task{index}")
        if not problems:
            with open(f"{prefix}_test.csv") as fh:
                truth = [line.split(",", 1)[0] for line in fh if line.strip()]
            with open(f"{prefix}_labels.csv") as fh:
                predicted = [line.strip() for line in fh if line.strip()]
            if len(predicted) != len(truth):
                problems.append(
                    f"labels file has {len(predicted)} lines for {len(truth)} test rows"
                )
            elif not set(predicted) <= set(truth):
                problems.append(f"labels {sorted(set(predicted) - set(truth))} not in class set")
            else:
                rate = sum(p != t for p, t in zip(predicted, truth)) / len(truth)
                if reported is None or abs(rate - reported) > 1e-6:
                    problems.append(f"predict reported {reported}, labels give {rate}")
                errors["GPLDA"] = rate * 100.0
        for name in os.listdir(self.work_dir):
            if name.startswith(f"task{index}_"):
                os.unlink(os.path.join(self.work_dir, name))
        return errors, problems

    def dataset_key(self, index: int):
        return index

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (SimBench, ImageLap2d, CliRoundtrip)}
