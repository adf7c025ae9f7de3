"""Time and peak memory of one lap2d image fit and predict per process.

For each square grid and method, a fresh Python process draws n
two-class training images and n test images (those of
``tools/fit_digest.py``), builds the ``lap2d`` penalty, fits GPLDA (or
PDA at ``alpha = 10``) and predicts the test images.  Usage::

    PYTHONPATH=src python3 tools/image_scale.py [--sides 40,64] [--methods GPLDA,PDA] [--n 100]

prints a header and one ``<rows>x<cols> <method> <n> <seconds> <MiB>``
line per run: the seconds of the penalty, the fit and the predict
(SciPy's first-use imports among them), and the process's peak resident
set size (``ru_maxrss``, read as KiB as Linux reports it), which counts
the interpreter, NumPy, SciPy and the images too.  Each run imports
``gplda`` from where this process finds it, so ``PYTHONPATH`` picks the
checkout.  A PDA fit holds one p x p array of 8 p^2 bytes, its within
matrix (128 MiB at 64 x 64, 2 GiB at 128 x 128), so PDA is not among
the default methods.
"""

from __future__ import annotations

import argparse
import os
import resource
import subprocess
import sys
import time

import gplda
from gplda import LAPLACIAN_2D, FitConfig, build_penalty, gplda_fit, pda_fit, predict

SIDES = "40,64,96,128"
PDA_ALPHA = 10.0


def run_one(side: int, method: str, n: int) -> tuple[float, float]:
    """(seconds, peak MiB) of one penalty, fit and predict in this process."""
    # The images of tools/fit_digest.py; run as a script, this file's
    # directory is on the import path.
    from fit_digest import lap2d_images

    train, test = lap2d_images(n, side, seed=0), lap2d_images(n, side, seed=1)
    start = time.perf_counter()
    penalty = build_penalty(LAPLACIAN_2D, (side, side))
    if method == "GPLDA":
        model, _ = gplda_fit(train, config=FitConfig(penalty=penalty))
    else:
        model = pda_fit(train, penalty, PDA_ALPHA)
    predict(model, test.y)
    seconds = time.perf_counter() - start
    return seconds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(side: int, method: str, n: int) -> tuple[float, float]:
    """``run_one`` in a fresh process that imports this process's ``gplda``."""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(gplda.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--one", str(side), method, str(n)],
        env=env, capture_output=True, text=True, check=True,
    )
    seconds, peak = done.stdout.split()
    return float(seconds), float(peak)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sides", default=SIDES, help="comma-separated image sides")
    parser.add_argument("--methods", default="GPLDA", help="comma-separated, GPLDA and/or PDA")
    parser.add_argument("--n", type=int, default=100, help="training and test images each")
    parser.add_argument("--one", nargs=3, metavar=("SIDE", "METHOD", "N"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        side, method, n = args.one
        print("%.4f %.1f" % run_one(int(side), method, int(n)))
        return 0
    methods = args.methods.split(",")
    if not set(methods) <= {"GPLDA", "PDA"}:
        parser.error(f"unknown method in {args.methods!r}")
    print("grid method n seconds peak_rss_mib", flush=True)
    for side in map(int, args.sides.split(",")):
        for method in methods:
            seconds, peak = measure(side, method, args.n)
            print(f"{side}x{side} {method} {args.n} {seconds:.3f} {peak:.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
