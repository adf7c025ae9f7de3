"""Print a SHA-256 digest of the outputs of a fixed set of fits.

Two checkouts whose fits are bit-identical print the same lines, so a
change that claims bit-identical fits is checked with one ``diff``::

    PYTHONPATH=OTHER_CHECKOUT/src python3 tools/fit_digest.py > before.txt
    PYTHONPATH=src python3 tools/fit_digest.py > after.txt
    diff before.txt after.txt

Each line is ``<cell> <seed> <method> <sha256>``.  The fits are GPLDA,
cross-validated PDA (second-difference penalty), MLE-LDA and PCA+LDA
(q = 1) on sim1 N=50, sim1 N=200 and sim2 N=20 at seeds 0-9, GPLDA
fits of 12 x 12, 16 x 16 and 20 x 20 lap2d images with n = 60 < p (the
first grid rotates by the dense DCT-II matrix, the others, past
``DENSE_DCT_BELOW_P``, by scipy.fft), one PDA fit at alpha = 10 of the
16 x 16 images, which solves its within matrix in the penalty's
eigenbasis, and one zero-jitter GPLDA fit with n = 80 >= p = 10.  Each
GPLDA fit prints three lines: ``GPLDA-fit`` covers the fitted state (x,
mu, the matrix of Sigma_w, alpha1, alpha2, sigma2) and the trace's
``sweeps_run``, ``converged`` and ``log_posterior_per_sweep``,
``GPLDA-resid`` the trace's ``final_residuals``, and ``GPLDA`` the
directions and eigenvalues, so a change that keeps the fit and moves
only the residuals' bits, or only the directions, differs in
``GPLDA-resid`` or ``GPLDA`` lines alone.  Each PDA fit prints two
lines the same way: ``PDA-cv`` covers the cross-validated alpha and the
mean cross-validated error of every candidate, and ``PDA`` the
directions, eigenvalues and within matrix (``within_cov_used``) at that
alpha.  ``MLE_LDA`` lines cover the directions, eigenvalues and within
matrix of that fit, ``PCA_LDA`` lines its directions and eigenvalues, and a
``penalty`` line the bytes of one lap2d penalty matrix.  The script reads
only the public ``gplda`` API and ``gplda.simulate.pda_cv_errors``, so it
runs on any checkout the path points at.
"""

from __future__ import annotations

import hashlib
import os
import sys

# Run as a script, the tool sets one BLAS thread before NumPy loads, so
# that what is computed outside the library's one-thread fits (the matrix
# of a low-rank Sigma_w) has the same bits on every machine and checkout.
if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from gplda import (  # noqa: E402
    FIRST_DIFF, LAPLACIAN_2D, METHOD_MLE_LDA, METHOD_PDA, SECOND_DIFF, FitConfig,
    LabeledFunctionalDataset, SimSpec,
    build_penalty, fit, generate, gplda_directions, mle_lda_fit, pca_lda_fit, pda_fit,
    select_pda_alpha,
)
from gplda.simulate import pda_cv_errors  # noqa: E402

SIM_CELLS = (("sim1", 50), ("sim1", 200), ("sim2", 20))
SEEDS = range(10)
LAP2D_GRIDS = ((40, 40), (12, 12), (5, 9), (2, 50), (50, 2))


def digest(*outputs) -> str:
    """SHA-256 of the dtype, shape and raw bytes of each output in turn."""
    sha = hashlib.sha256()
    for output in outputs:
        array = np.ascontiguousarray(output)
        sha.update(f"{array.dtype.str}{array.shape}".encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


def gplda_digests(data: LabeledFunctionalDataset, config: FitConfig) -> dict[str, str]:
    """The ``GPLDA-fit``, ``GPLDA-resid`` and ``GPLDA`` digests of one
    ``gplda_fit``, run as its two steps so that the fitted state can be
    read."""
    state, trace = fit(data, config=config)
    model = gplda_directions(state, data.label_names, penalty_descriptor=config.penalty.descriptor)
    return {
        "GPLDA-fit": digest(
            state.x, state.mu, np.asarray(state.sigma_w), state.alpha1, state.alpha2,
            state.sigma2, trace.sweeps_run, trace.converged, trace.log_posterior_per_sweep,
        ),
        "GPLDA-resid": digest(tuple(trace.final_residuals.as_dict().values())),
        "GPLDA": digest(model.directions, model.eigenvalues),
    }


def baseline_digests(data: LabeledFunctionalDataset, seed: int) -> dict[str, str]:
    """The ``PDA-cv``, ``PDA``, ``MLE_LDA`` and ``PCA_LDA`` digests of one
    dataset, each model's by ``model_digest``."""
    penalty = build_penalty(SECOND_DIFF, data.p)
    alpha = select_pda_alpha(data, penalty, seed=seed)
    models = {
        "PDA": pda_fit(data, penalty, alpha),
        "MLE_LDA": mle_lda_fit(data),
        "PCA_LDA": pca_lda_fit(data, q=1),
    }
    return {
        "PDA-cv": digest(alpha, pda_cv_errors(data, penalty, seed=seed)),
        **{method: model_digest(model) for method, model in models.items()},
    }


def model_digest(model) -> str:
    """The digest of a model's directions and eigenvalues, and for PDA
    and MLE-LDA also of the matrix of its ``within_cov_used``."""
    dense = model.method_tag in (METHOD_PDA, METHOD_MLE_LDA)
    within = (np.asarray(model.within_cov_used),) if dense else ()
    return digest(model.directions, model.eigenvalues, *within)


def lap2d_images(n: int, side: int, seed: int) -> LabeledFunctionalDataset:
    """Two balanced classes of random smooth images plus unit noise; the
    first class adds a centred bump of height 3."""
    rng = np.random.default_rng(seed)
    axis = np.linspace(0.0, 1.0, side)
    rows, cols = axis[:, None], axis[None, :]
    bump = np.exp(-((rows - 0.5) ** 2 + (cols - 0.5) ** 2) / 0.045).ravel()
    modes = np.array([(np.sin(np.pi * a * rows) * np.sin(np.pi * b * cols)).ravel()
                      for a in (1, 2, 3) for b in (1, 2, 3)])
    y = rng.standard_normal((n, len(modes))) @ modes + rng.standard_normal((n, side * side))
    y[: n // 2] += 3.0 * bump
    labels = np.repeat([1, 2], [n // 2, n - n // 2])
    return LabeledFunctionalDataset(y=y, labels=labels, label_names=(1, 2))


def shifted_normal_curves(n: int, p: int, seed: int) -> LabeledFunctionalDataset:
    """Two balanced classes of white-noise curves whose means differ by 0.5."""
    rng = np.random.default_rng(seed)
    labels = np.repeat([1, 2], [n // 2, n - n // 2])
    y = rng.standard_normal((n, p)) + 0.5 * labels[:, None]
    return LabeledFunctionalDataset(y=y, labels=labels, label_names=(1, 2))


def digest_lines():
    """Yield one ``<cell> <seed> <method> <sha256>`` line per digest."""
    for which, n_train in SIM_CELLS:
        cell = f"{which}_N{n_train}"
        for seed in SEEDS:
            train, _ = generate(SimSpec(which, n_train, 2, seed=seed))
            digests = {**gplda_digests(train, FitConfig.default(train.p)),
                       **baseline_digests(train, seed)}
            for method, value in digests.items():
                yield f"{cell} {seed} {method} {value}"
    for side in (12, 16):
        images = lap2d_images(60, side, seed=0)
        lap2d = FitConfig(penalty=build_penalty(LAPLACIAN_2D, (side, side)))
        for method, value in gplda_digests(images, lap2d).items():
            yield f"lap2d_{side}x{side}_N60 0 {method} {value}"
    model = pda_fit(images, lap2d.penalty, 10.0)
    yield f"lap2d_16x16_N60 0 PDA {model_digest(model)}"
    images = lap2d_images(60, 20, seed=0)
    lap2d = FitConfig(penalty=build_penalty(LAPLACIAN_2D, (20, 20)))
    for method, value in gplda_digests(images, lap2d).items():
        yield f"lap2d_20x20_N60 0 {method} {value}"
    curves = shifted_normal_curves(80, 10, seed=0)
    no_jitter = FitConfig(penalty=build_penalty(FIRST_DIFF, 10), jitter_scale=0.0)
    for method, value in gplda_digests(curves, no_jitter).items():
        yield f"d1_zero_jitter_N80 0 {method} {value}"
    for rows, cols in LAP2D_GRIDS:
        matrix = build_penalty(LAPLACIAN_2D, (rows, cols)).matrix
        yield f"lap2d_{rows}x{cols} 0 penalty {digest(matrix)}"


def main() -> int:
    for line in digest_lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
