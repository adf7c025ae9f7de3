"""Run the gplda benchmark and print its metrics.

    python3 perfbench/run.py --workload sim_bench --seed 0 --seconds 25 --trace 0

``--workload all`` runs the three workloads one after another.  With
``--trace 0`` every task runs untraced in a fresh worker process with the
BLAS thread count left at the library default, and the end-to-end metrics
are printed.  With ``--trace 1`` the workload runs three times, each for a
third of ``--seconds``: untraced, traced, and traced with BLAS limited to
one thread; the per-layer tables are printed side by side.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("sim_bench", "image_lap2d", "cli_roundtrip")
METHODS = {"GPLDA": "err_pct_gplda", "PDA": "err_pct_pda", "PCA_LDA": "err_pct_pca_lda"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
STARTUP_SAMPLES = 3
P90_MIN_TASKS = 100
# Every run.py invocation, its workers included, ends within this budget.
RUN_LIMIT_S = 170.0
# Reference errors may differ by one test curve (BLAS thread count can
# move a curve that sits on the decision boundary).
TEST_ROWS = {"sim_bench": 200, "image_lap2d": 2000, "cli_roundtrip": 20000}

E2E_UNITS = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "task_p50_ms": "ms",
    "task_p90_ms": "ms",
    "failed_frac": "ratio",
    "peak_rss_mb": "MB",
    "err_pct_gplda": "%",
    "err_pct_pda": "%",
    "err_pct_pca_lda": "%",
}
SUFFIX_UNITS = (
    (".ms", "ms"),
    (".s", "s"),
    (".curves_per_s", "1/s"),
    (".mb_per_s", "MB/s"),
    ("_pct", "%"),
    (".tasks_per_s", "1/s"),
)


def unit_of(name: str) -> str:
    base = name[:-3] if name.endswith(".1t") else name
    if base in E2E_UNITS:
        return E2E_UNITS[base]
    for suffix, unit in SUFFIX_UNITS:
        if base.endswith(suffix):
            return unit
    return "count"


class Budget:
    """Kills workers that would carry the run past ``RUN_LIMIT_S``."""

    def __init__(self):
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def remaining(self) -> float:
        return max(1.0, self.deadline - time.monotonic())


def machine_context(traced: bool) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": git_commit(ROOT),
        "tracing": traced,
    }


def git_commit(root: str) -> str:
    """HEAD commit read from .git, or a note when there is no repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def spawn(budget: Budget, workload: str, seed: int, seconds: float, *,
          window: str = "e2e", trace_out: str | None = None,
          setup_only: bool = False, one_thread: bool = False):
    """Start a worker; return (seconds until READY, result dict or None)."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    if one_thread:
        env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = SRC
    command = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--window", window]
    if trace_out:
        command += ["--trace-out", trace_out]
    if setup_only:
        command.append("--setup-only")
    began = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(budget.remaining(), proc.kill)
    watchdog.start()
    ready = result = None
    try:
        for line in proc.stdout:
            if ready is None and line == "READY\n":
                ready = time.perf_counter() - began
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None or (result is None and not setup_only):
        raise RuntimeError(f"{workload} worker failed (exit code {code})")
    return ready, result


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def apply_reference(workload: str, seed: int, tasks: list, reference: dict) -> int:
    """Add a problem to each task whose errors differ from the reference.

    Only runs on the seed the reference was recorded with; returns how many
    tasks were compared.
    """
    if seed != reference["seed"]:
        return 0
    expected = {row["index"]: row["errors"] for row in reference["workloads"][workload]}
    tolerance = 100.0 / TEST_ROWS[workload] + 1e-9
    compared = 0
    for task in tasks:
        want = expected.get(task["index"])
        if want is None:
            continue
        compared += 1
        got = task["errors"]
        if set(got) != set(want) or any(abs(got[m] - want[m]) > tolerance for m in want):
            task["problems"].append(f"errors {got} differ from reference {want}")
    return compared


def task_metrics(result: dict) -> dict:
    """End-to-end metrics of one run from its task records."""
    tasks = result["tasks"]
    times = [t["seconds"] for t in tasks]
    failed = sum(1 for t in tasks if t["problems"])
    cells: dict = {}
    for task in tasks:
        cells.setdefault(task["cell"], []).append(task["seconds"])
    metrics = {
        "tasks_per_s": len(times) / sum(times),
        # Median over cells of each cell's median: in the sim_bench mix the
        # plain median falls between the time clusters of two cells and
        # jumps between them from run to run.
        "task_p50_ms": statistics.median(
            statistics.median(cell) for cell in cells.values()) * 1e3,
        "failed_frac": failed / len(tasks),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    if len(times) >= P90_MIN_TASKS:
        metrics["task_p90_ms"] = statistics.quantiles(times, n=10)[-1] * 1e3
    per_method: dict = {}
    seen = set()
    for task in tasks:
        for method, pct in task["errors"].items():
            if (task["dataset"], method) not in seen:
                seen.add((task["dataset"], method))
                per_method.setdefault(method, []).append(pct)
    for method, values in per_method.items():
        metrics[METHODS[method]] = statistics.fmean(values)
    return metrics


def run_e2e(budget, workload, seed, seconds, reference):
    setups = [
        spawn(budget, workload, seed, 0.0, setup_only=True)[0]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    ready, result = spawn(budget, workload, seed, seconds)
    setups.append(ready)
    compared = apply_reference(workload, seed, result["tasks"], reference)
    metrics = task_metrics(result)
    metrics["setup_s"] = statistics.median(setups)
    return metrics, result, {"setup_samples_s": setups, "reference_tasks": compared}


def startup_seconds(budget) -> float:
    """Median wall time of a fresh interpreter that only imports gplda."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = SRC
    samples = []
    for _ in range(STARTUP_SAMPLES):
        began = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import gplda"], env=env, cwd=ROOT,
                       check=True, timeout=budget.remaining())
        samples.append(time.perf_counter() - began)
    return statistics.median(samples)


def run_trace(budget, workload, seed, seconds, reference):
    phase_s = seconds / 3.0
    prefix = os.path.join(OUT, f"trace-{workload}-seed{seed}")
    _, untraced = spawn(budget, workload, seed, phase_s, window="trace")
    _, traced = spawn(budget, workload, seed, phase_s, window="trace",
                      trace_out=f"{prefix}-default.jsonl")
    _, single = spawn(budget, workload, seed, phase_s, window="trace",
                      trace_out=f"{prefix}-1thread.jsonl", one_thread=True)
    compared = sum(apply_reference(workload, seed, r["tasks"], reference)
                   for r in (untraced, traced, single))
    rates = {name: task_metrics(r)["tasks_per_s"]
             for name, r in (("untraced", untraced), ("traced", traced),
                             ("traced_1t", single))}
    metrics = dict(traced["layers"])
    metrics.update({f"{k}.1t": v for k, v in single["layers"].items()
                    if unit_of(k) != "count"})
    metrics["cli.startup.s"] = startup_seconds(budget)
    metrics["trace.untraced.tasks_per_s"] = rates["untraced"]
    metrics["trace.traced.tasks_per_s"] = rates["traced"]
    metrics["trace.overhead_pct"] = (1.0 - rates["traced"] / rates["untraced"]) * 100.0
    tasks = untraced["tasks"] + traced["tasks"] + single["tasks"]
    details = {
        "reference_tasks": compared,
        "phase_tasks_per_s": rates,
        "single_thread_blas": single["blas"],
        "trace_files": [f"{prefix}-default.jsonl", f"{prefix}-1thread.jsonl"],
    }
    return metrics, {"tasks": tasks, "blas": traced["blas"]}, details


def print_report(workload, seed, seconds, trace, context, metrics, result, details):
    tasks = result["tasks"]
    failed = [t for t in tasks if t["problems"]]
    blas = result["blas"]
    print(f"== perfbench {workload}  seed={seed}  seconds={seconds}  "
          f"trace={'on' if trace else 'off'}")
    print(f"machine: nproc={context['nproc']} python={context['python']} "
          f"numpy={blas['numpy']} scipy={blas['scipy']} blas={blas['numpy_blas']} "
          f"blas_threads={blas['threads']} thread_env={context['thread_env']} "
          f"commit={context['commit']}")
    for lib in blas["libraries"]:
        print(f"  {lib['library']}: threads={lib.get('threads')} {lib.get('config', '')}")
    if not trace:
        print("end-to-end:")
        for name in E2E_UNITS:
            if name in metrics:
                note = f"  ({len(tasks)} tasks)" if name.startswith("task_") else ""
                print(f"  {name:<16} {metrics[name]:>14.6g} {E2E_UNITS[name]}{note}")
        print(f"  setup samples: {', '.join(f'{s:.3f}' for s in details['setup_samples_s'])} s")
    else:
        single = details["single_thread_blas"]["threads"]
        print(f"per-layer (self time per call; counts per task over the first "
              f"window of tasks):")
        print(f"  {'metric':<46} {'default (' + str(blas['threads']) + ' thr)':>16} "
              f"{'1 thread':>14}  unit")
        for name in sorted(k for k in metrics if not k.endswith(".1t")):
            one = metrics.get(name + ".1t")
            one_text = f"{one:>14.6g}" if one is not None else f"{'':>14}"
            print(f"  {name:<46} {metrics[name]:>16.6g} {one_text}  {unit_of(name)}")
        print(f"  (1-thread column: BLAS limited to {single} thread; trace files: "
              f"{', '.join(os.path.relpath(p, ROOT) for p in details['trace_files'])})")
    print(f"checks: {'PASS' if not failed else 'FAIL'} "
          f"({len(failed)} of {len(tasks)} tasks failed; "
          f"{details['reference_tasks']} compared with the seed-0 reference)")
    for task in failed[:5]:
        print(f"  task {task['index']}: {'; '.join(task['problems'])[:300]}")


def run_one(budget, workload, seed, seconds, trace, reference):
    context = machine_context(bool(trace))
    runner = run_trace if trace else run_e2e
    metrics, result, details = runner(budget, workload, seed, seconds, reference)
    print_report(workload, seed, seconds, trace, context, metrics, result, details)
    tasks = result["tasks"]
    failed = sum(1 for t in tasks if t["problems"])
    with open(os.path.join(OUT, f"result-{workload}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds,
                   "context": context, "blas": result["blas"], "metrics": metrics,
                   "details": details,
                   "tasks": tasks}, fh, indent=1)
    return metrics, len(tasks), failed


def declared_metrics(trace: int) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def record_reference() -> None:
    """Write reference.json from seed 0, each workload's minimum tasks."""
    budget = Budget()
    rows = {}
    for workload in WORKLOADS:
        _, result = spawn(budget, workload, 0, 0.0)
        rows[workload] = [{"index": t["index"], "errors": t["errors"]}
                          for t in result["tasks"]]
    with open(REFERENCE, "w") as fh:
        json.dump({"seed": 0, "workloads": rows}, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from seed 0 and exit")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gplda", "__init__.py")):
        print(f"perfbench: no gplda sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    if args.record_reference:
        record_reference()
        return 0
    reference = load_reference()
    declared = declared_metrics(args.trace)
    for spec in declared:
        if unit_of(spec["name"]) != spec["unit"]:
            raise ValueError(f"{spec['name']}: BENCHMARK.json unit {spec['unit']}, "
                             f"benchmark unit {unit_of(spec['name'])}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        metrics, attempted, failed = run_one(
            Budget(), workload, args.seed, args.seconds, args.trace, reference
        )
        out["attempted"] += attempted
        out["failed"] += failed
        out["correct"] = out["correct"] and failed == 0
        prefix = f"{workload}." if len(names) > 1 else ""
        for spec in declared:
            out["metrics"][prefix + spec["name"]] = {
                "value": metrics[spec["name"]], "unit": spec["unit"]}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
