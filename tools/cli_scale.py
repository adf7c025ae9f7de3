"""Time and peak memory of each CLI command, one process per command.

For each test-set size, three fresh Python processes run ``gplda
simulate`` (sim1, seed ``SEED``, ``N_TRAIN`` training curves,
``--n-test`` test curves), ``gplda fit`` (GPLDA on the training CSV)
and ``gplda predict`` (on the test CSV), in a temporary directory, as
perfbench's ``cli_roundtrip`` task does.  Usage::

    PYTHONPATH=src python3 tools/cli_scale.py [--n-test 20000,100000]

prints a header and one ``<command> <n_test> <seconds> <own MiB>
<children MiB>`` line per command: the wall seconds of the whole process
(interpreter start and imports among them), its peak resident set size
(``ru_maxrss``, read as KiB as Linux reports it), and the largest peak
of the children it reaped, such as the forked child that writes or
reads half of a large CSV (0 when it forked none).  Each process runs
the command through ``gplda.cli.cli_dispatch``, with the command's own
output discarded, and imports ``gplda`` from where this process finds
it, so ``PYTHONPATH`` picks the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import resource
import subprocess
import sys
import tempfile
import time

import gplda

N_TEST = "20000,100000"
N_TRAIN = 200
SEED = 0


def run_one(argv: list[str]) -> tuple[float, float]:
    """Run one CLI command in this process: (own, children) peak MiB."""
    from gplda.cli import cli_dispatch

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_dispatch(argv)
    if code != 0:
        raise SystemExit(f"gplda {' '.join(argv)} exited {code}")
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def measure(argv: list[str]) -> tuple[float, float, float]:
    """(wall seconds, own MiB, children MiB) of ``run_one(argv)`` in a
    fresh process that imports this process's ``gplda``."""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(gplda.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--one", *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    seconds = time.perf_counter() - start
    own, children = done.stdout.split()
    return seconds, float(own), float(children)


def commands(prefix: str, n_test: int) -> list[list[str]]:
    """The argv of simulate, fit and predict on files named from ``prefix``."""
    return [
        ["simulate", "--which", "sim1", "--n-train", str(N_TRAIN), "--n-test", str(n_test),
         "--seed", str(SEED), "--out", prefix],
        ["fit", "--data", f"{prefix}_train.csv", "--method", "gplda",
         "--out", f"{prefix}_model.json"],
        ["predict", "--model", f"{prefix}_model.json", "--data", f"{prefix}_test.csv",
         "--out", f"{prefix}_labels.csv"],
    ]


def main(argv: list[str]) -> int:
    if argv[:1] == ["--one"]:
        print("%.1f %.1f" % run_one(argv[1:]))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-test", default=N_TEST, help="comma-separated test-set sizes")
    args = parser.parse_args(argv)
    print("command n_test seconds own_rss_mib children_rss_mib", flush=True)
    for n_test in map(int, args.n_test.split(",")):
        with tempfile.TemporaryDirectory() as work_dir:
            for command in commands(os.path.join(work_dir, "run"), n_test):
                seconds, own, children = measure(command)
                print(f"{command[0]} {n_test} {seconds:.3f} {own:.1f} {children:.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
