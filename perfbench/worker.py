"""One benchmark process: set up a workload, run tasks, report as JSON.

``run.py`` starts this file as a fresh interpreter, so that set-up time
covers interpreter start, ``import gplda`` and input building, and so
that the BLAS thread count is fixed by the environment it is given.

Protocol on stdout: a line ``READY`` once the first task can start, then
(unless ``--setup-only``) one line ``RESULT <json>``.  Anything else the
program prints is captured by the workload and never reaches stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def blas_info() -> dict:
    """Versions and thread counts of the BLAS libraries loaded right now."""
    import numpy
    import scipy

    libraries = []
    with open("/proc/self/maps") as fh:
        paths = sorted({
            line.split()[-1] for line in fh
            if "openblas" in os.path.basename(line.split()[-1]).lower()
        })
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("openblas", "scipy_openblas"):
            for suffix in ("", "64_"):
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    entry["threads"] = getter()
                if config is not None:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        libraries.append(entry)
    numpy_blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{numpy_blas.get('name')} {numpy_blas.get('version')}",
        "libraries": libraries,
        "threads": max((e.get("threads", 0) for e in libraries), default=0),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_tasks(workload, seconds: float, min_tasks: int, recorder=None) -> list:
    """Closed loop: start tasks until ``seconds`` pass, ending on a cycle."""
    from gplda.exceptions import NumericError

    tasks = []
    start = time.perf_counter()
    index = 0
    while (index < min_tasks or index % workload.cycle
           or time.perf_counter() - start < seconds):
        if recorder is not None:
            recorder.task = index
        began = time.perf_counter()
        try:
            raw = workload.execute(index)
            elapsed = time.perf_counter() - began
            errors, problems = workload.check(index, raw)
        except NumericError as exc:
            elapsed = time.perf_counter() - began
            errors, problems = {}, [f"{type(exc).__name__}: {exc}"]
        tasks.append({
            "index": index,
            "cell": index % workload.cycle,
            "seconds": elapsed,
            "errors": errors,
            "problems": problems,
            "dataset": repr(workload.dataset_key(index)),
        })
        index += 1
    if recorder is not None:
        recorder.task = None
    return tasks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--window", choices=("e2e", "trace"), default="e2e")
    parser.add_argument("--trace-out", default=None,
                        help="record spans and write them to this file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import gplda

    location = os.path.dirname(os.path.abspath(gplda.__file__))
    if location != os.path.join(SRC, "gplda"):
        print(f"gplda imported from {location}, not from {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    traced = args.trace_out is not None
    work_dir = os.path.join(HERE, "out", f"work-{os.getpid()}")
    workload.setup(args.seed, work_dir, in_process=args.window == "trace")
    print("READY", flush=True)
    try:
        if args.setup_only:
            return 0
        recorder = spans.SpanRecorder() if traced else None
        window = workload.min_tasks if args.window == "e2e" else workload.count_window
        with spans.installed(recorder) if traced else contextlib.nullcontext():
            tasks = run_tasks(workload, args.seconds, window, recorder)
        result = {
            "tasks": tasks,
            "peak_rss_mb": peak_rss_mb(),
            "blas": blas_info(),
        }
        if traced:
            result["layers"] = spans.layer_table(recorder.spans, workload.count_window)
            spans.write_spans(args.trace_out, recorder.spans)
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
