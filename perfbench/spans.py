"""Span recording around the public functions of each gplda layer.

The tracer never edits the package.  ``installed`` replaces each traced
function at every ``gplda`` module attribute that is bound to it, which is
where callers look the name up at call time (``gplda.discriminant`` holds
its own reference to ``generalized_eig_top``, ``gplda.simulate`` its own
``pda_fit``, and so on), and puts the originals back on exit.

A span is ``[name, start, end, parent, task, error, extra]``: times from
``time.perf_counter``, ``parent`` the index of the enclosing span or None,
``task`` the benchmark task id, ``error`` the exception class name if the
call raised, and ``extra`` a per-function count (sweeps, curves, bytes,
exit code).  Spans stay in memory until ``write_spans`` is called once at
the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time

# The public functions traced in each of the seven modules of src/gplda.
# Thin helpers that only forward to a traced sibling (load_csv,
# log_posterior_terms) are left out so that the sibling's self time is not
# hidden behind a zero-width parent.
LAYER_FUNCTIONS = {
    "linalg": ("build_penalty", "generalized_eig_top", "spd_solve"),
    "model": ("log_posterior", "pooled_within_scatter", "validate_dataset"),
    "estimator": (
        "fit",
        "initial_state",
        "update_alpha1",
        "update_alpha2",
        "update_sigma2",
        "update_x",
        "update_mu",
        "update_sigma_w",
        "first_order_residuals",
    ),
    "discriminant": (
        "gplda_fit",
        "gplda_directions",
        "pda_fit",
        "mle_lda_fit",
        "pca_lda_fit",
        "predict",
    ),
    "simulate": ("run_benchmark", "generate", "select_pda_alpha"),
    "io": ("read_labeled_csv", "save_dataset_csv", "save_model", "load_model"),
    "cli": ("cli_dispatch",),
}

NAME, START, END, PARENT, TASK, ERROR, EXTRA = range(7)


def _curves(args, kwargs, result):
    x_new = args[1] if len(args) > 1 else kwargs["x_new"]
    shape = getattr(x_new, "shape", None) or (len(x_new),)
    return shape[0] if len(shape) == 2 else 1


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _sweeps(args, kwargs, result):
    return result[1].sweeps_run


def _exit_code(args, kwargs, result):
    return result


# Counts recorded on a span after the call returns.
EXTRA_COUNTERS = {
    "estimator.fit": _sweeps,
    "discriminant.predict": _curves,
    "io.read_labeled_csv": _file_bytes,
    "io.save_dataset_csv": _file_bytes,
    "cli.cli_dispatch": _exit_code,
}


def _cli_name(args, kwargs):
    argv = list(args[0] if args else kwargs["argv"])
    return f"cli.{argv[0]}" if argv else "cli.cli_dispatch"


# Span names that depend on the arguments.
SPAN_NAMERS = {"cli.cli_dispatch": _cli_name}


class SpanRecorder:
    """Collects spans from wrapped functions; ``task`` tags new spans."""

    def __init__(self):
        self.spans = []
        self.task = None
        self._stack = []

    def wrap(self, name, func):
        spans, stack = self.spans, self._stack
        counter = EXTRA_COUNTERS.get(name)
        namer = SPAN_NAMERS.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = [
                namer(args, kwargs) if namer else name,
                time.perf_counter(),
                None,
                stack[-1] if stack else None,
                self.task,
                None,
                None,
            ]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[EXTRA] = counter(args, kwargs, result)
            return result

        return wrapper


def _gplda_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "gplda" or name.startswith("gplda."))
    ]


@contextlib.contextmanager
def installed(recorder: SpanRecorder):
    """Route every traced function through ``recorder`` inside the block.

    Yields the list of ``(module, attribute, original)`` patches; all of
    them are undone on exit, also when the block raises.
    """
    for layer in LAYER_FUNCTIONS:
        importlib.import_module(f"gplda.{layer}")
    modules = _gplda_modules()
    patches = []
    for layer, names in LAYER_FUNCTIONS.items():
        home = sys.modules[f"gplda.{layer}"]
        for fname in names:
            original = getattr(home, fname)
            wrapper = recorder.wrap(f"{layer}.{fname}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
    try:
        yield patches
    finally:
        for module, attr, original in reversed(patches):
            setattr(module, attr, original)


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children of one parent never overlap
    and their durations add up.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            covered[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - covered[i] for i, span in enumerate(spans)]


def layer_table(spans, window_tasks: int) -> dict:
    """Per-layer metrics from one traced run.

    ``<name>.ms`` is mean self time per call over the whole run.  Counts
    (``.calls``, ``.sweeps``, ``.fold_fits``, ``.fold_failures``,
    ``.failures``) are per task over tasks ``0..window_tasks-1``, which
    every run of a given seed executes, so they repeat exactly.
    """
    selfs = self_times(spans)
    stats: dict = {}
    for span, own in zip(spans, selfs):
        entry = stats.setdefault(
            span[NAME], {"calls": 0, "self_s": 0.0, "total_s": 0.0, "extra": 0}
        )
        entry["calls"] += 1
        entry["self_s"] += own
        entry["total_s"] += span[END] - span[START]
        entry["extra"] += span[EXTRA] or 0

    in_window = [s for s in spans if s[TASK] is not None and s[TASK] < window_tasks]
    window_calls: dict = {}
    window_sweeps = 0
    fold_fits = fold_failures = bench_failures = 0
    for span in in_window:
        window_calls[span[NAME]] = window_calls.get(span[NAME], 0) + 1
        if span[NAME] == "estimator.fit":
            window_sweeps += span[EXTRA] or 0
        parent = spans[span[PARENT]][NAME] if span[PARENT] is not None else None
        if parent == "simulate.select_pda_alpha":
            fold_fits += span[NAME] == "discriminant.pda_fit"
            fold_failures += span[ERROR] is not None
        elif parent == "simulate.run_benchmark":
            bench_failures += span[ERROR] is not None

    table = {}
    for name, entry in sorted(stats.items()):
        if name.startswith("cli."):
            table[f"{name}.s"] = entry["total_s"] / entry["calls"]
            continue
        table[f"{name}.ms"] = entry["self_s"] / entry["calls"] * 1e3
    for name in ("linalg.generalized_eig_top", "model.log_posterior"):
        table[f"{name}.calls"] = window_calls.get(name, 0) / window_tasks
    table["estimator.fit.sweeps"] = window_sweeps / window_tasks
    table["simulate.select_pda_alpha.fold_fits"] = fold_fits / window_tasks
    table["simulate.select_pda_alpha.fold_failures"] = fold_failures / window_tasks
    table["simulate.run_benchmark.failures"] = bench_failures / window_tasks
    predict = stats.get("discriminant.predict")
    if predict and predict["self_s"] > 0:
        table["discriminant.predict.curves_per_s"] = predict["extra"] / predict["self_s"]
    for name in ("io.read_labeled_csv", "io.save_dataset_csv"):
        entry = stats.get(name)
        if entry and entry["self_s"] > 0:
            table[f"{name}.mb_per_s"] = entry["extra"] / 1e6 / entry["self_s"]
    return table


def write_spans(path: str, spans) -> None:
    """Write spans as JSON lines, one object per span, in call order."""
    with open(path, "w") as fh:
        for index, span in enumerate(spans):
            fh.write(
                json.dumps(
                    {
                        "id": index,
                        "name": span[NAME],
                        "start": span[START],
                        "end": span[END],
                        "parent": span[PARENT],
                        "task": span[TASK],
                        "error": span[ERROR],
                        "extra": span[EXTRA],
                    }
                )
                + "\n"
            )
