"""Shared construction helpers for the test suite."""

from __future__ import annotations

import csv
import dataclasses
import importlib.util
import io
from pathlib import Path

import numpy as np
import scipy.linalg

from gplda import (
    FIRST_DIFF,
    FitConfig,
    HyperParams,
    LabeledFunctionalDataset,
    ParseError,
    PosteriorState,
    ValidationError,
    build_penalty,
    first_order_residuals,
    initial_state,
    log_posterior,
    update_alpha1,
    update_alpha2,
    update_mu,
    update_sigma2,
    update_sigma_w,
    update_x,
)
from gplda import simulate
from gplda.discriminant import (
    METHOD_PDA,
    DiscriminantModel,
    between_covariance,
    error_rate,
    generalized_eig_top,
    pooled_within_scatter,
    predict,
)
from gplda.estimator import FitTrace
from gplda.exceptions import NumericError
from gplda.linalg import blas_threads_for, frobenius_norm, spd_solve
from gplda.model import CholeskyForm


def sample_well_posed_dataset(rng: np.random.Generator) -> LabeledFunctionalDataset:
    """Draw a random dataset whose pooled scatter is safely full rank.

    Sizes satisfy n - c >= p + 4, the regime where the within-class
    covariance is estimable without regularization and the backfitting
    map has an interior fixed point.
    """
    c = int(rng.integers(2, 4))
    p = int(rng.integers(8, min(32, 40 - c - 4) + 1))
    n = int(rng.integers(p + c + 4, 41))
    labels = np.sort(
        np.concatenate([np.arange(1, c + 1), rng.integers(1, c + 1, size=n - c)])
    )
    y = rng.standard_normal((n, p)) + labels[:, None] * 0.5
    return LabeledFunctionalDataset(
        y=y, labels=labels, label_names=tuple(range(1, c + 1))
    )


def random_spd_matrix(rng: np.random.Generator, p: int) -> np.ndarray:
    """A well-conditioned random symmetric positive definite matrix."""
    a = rng.standard_normal((p, p))
    return a @ a.T / p + np.eye(p)


def random_posterior_state(
    rng: np.random.Generator, data: LabeledFunctionalDataset
) -> PosteriorState:
    """A random strictly feasible state for a given dataset; its covariance
    is built on the first-difference penalty."""
    return PosteriorState(
        x=data.y + 0.1 * rng.standard_normal(data.y.shape),
        mu=rng.standard_normal((data.c, data.p)),
        sigma_w=CholeskyForm(random_spd_matrix(rng, data.p), build_penalty(FIRST_DIFF, data.p)),
        alpha1=float(rng.uniform(0.05, 2.0)),
        alpha2=float(rng.uniform(0.05, 2.0)),
        sigma2=float(rng.uniform(0.1, 2.0)),
    )


def dense_generalized_eig_top(between, within, k):
    """Reference solver for ``between @ beta = value * within @ beta``.

    The dense route: whiten the whole ``between`` matrix with the Cholesky
    factor of ``within``, take a full symmetric eigendecomposition, and
    map the top k eigenvectors back.  Same conventions as
    ``generalized_eig_top``: descending values, ``within``-orthonormal
    rows, largest-magnitude entry of each row positive.
    """
    p = between.shape[0]
    chol = scipy.linalg.cholesky(within, lower=True)
    half = scipy.linalg.solve_triangular(chol, between, lower=True)
    whitened = scipy.linalg.solve_triangular(chol, half.T, lower=True)
    eigenvalues, vectors = np.linalg.eigh(0.5 * (whitened + whitened.T))
    order = np.arange(p - 1, p - 1 - k, -1)
    directions = scipy.linalg.solve_triangular(chol.T, vectors[:, order], lower=False).T
    for row in directions:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return eigenvalues[order], directions


def dense_sigma_w(x, mu, data, alpha2, penalty, hyper, jitter_scale):
    """Reference covariance update as a dense matrix, written out apart
    from ``update_sigma_w``: rho times the pooled scatter plus
    (rho / n) alpha2 times the penalty, symmetrized, plus the relative
    jitter on the diagonal."""
    n, p = data.n, data.p
    rho = n / (n + hyper.nu(p) + p + 1.0)
    scatter = pooled_within_scatter(x, data.labels, mu)
    sigma_w = rho * scatter + (rho / n) * alpha2 * penalty.matrix
    sigma_w = 0.5 * (sigma_w + sigma_w.T)
    if jitter_scale > 0:
        sigma_w[np.diag_indices(p)] += jitter_scale * (np.trace(sigma_w) / p)
    return sigma_w


def dense_fit(data, hyper=None, config=None, start=None):
    """Reference backfitting loop that keeps the covariance a dense matrix.

    The sweep loop ``fit`` ran before its covariance became an operator:
    every Sigma_w is the dense ``dense_sigma_w``, wrapped in its Cholesky
    form for each update, so every covariance operation goes through a
    p x p Cholesky factor.  The start and the stopping rule are ``fit``'s;
    returns ``(state, FitTrace)`` as it does.
    """
    hyper = hyper if hyper is not None else HyperParams()
    if config is None:
        config = FitConfig(penalty=build_penalty(FIRST_DIFF, data.p))
    penalty = config.penalty
    if start is None:
        start = initial_state(data, hyper, config)
        start = dataclasses.replace(start, sigma_w=CholeskyForm(dense_sigma_w(
            start.x, start.mu, data, start.alpha2, penalty, hyper, config.jitter_scale
        ), penalty))
    state = dataclasses.replace(start, sigma_w=CholeskyForm(np.asarray(start.sigma_w), penalty))
    x, mu, sigma_w = state.x, state.mu, state.sigma_w
    alpha1, alpha2, sigma2 = state.alpha1, state.alpha2, state.sigma2

    def relative_change(new, old):
        if np.isscalar(new):
            return abs(new - old) / (1.0 + abs(old))
        return frobenius_norm(new - old) / (1.0 + frobenius_norm(old))

    history = [log_posterior(state, data, hyper, penalty)]
    converged = False
    sweeps_run = 0
    for sweep in range(1, config.max_sweeps + 1):
        sweeps_run = sweep
        prev = (alpha1, alpha2, sigma2, x, mu, sigma_w.matrix)
        alpha1 = update_alpha1(mu, penalty, hyper)
        alpha2 = update_alpha2(sigma_w, penalty, hyper)
        sigma2 = update_sigma2(x, data, hyper)
        x = update_x(data, mu, sigma_w, sigma2)
        mu = update_mu(x, data, sigma_w, alpha1, penalty)
        sigma_w = CholeskyForm(
            dense_sigma_w(x, mu, data, alpha2, penalty, hyper, config.jitter_scale), penalty
        )
        blocks = (alpha1, alpha2, sigma2, x, mu, sigma_w.matrix)
        state = PosteriorState(
            x=x, mu=mu, sigma_w=sigma_w, alpha1=alpha1, alpha2=alpha2, sigma2=sigma2
        )
        history.append(log_posterior(state, data, hyper, penalty))
        if max(relative_change(b, pb) for b, pb in zip(blocks, prev)) < config.rel_tol:
            converged = True
            break
    return state, FitTrace(
        sweeps_run=sweeps_run,
        converged=converged,
        log_posterior_per_sweep=tuple(history),
        final_residuals=first_order_residuals(state, data, hyper, penalty),
    )


def unrotated_fit(data, hyper=None, config=None):
    """Reference backfitting loop in the data's own coordinates.

    ``fit`` before it moved its n < p sweeps into the penalty's
    eigenbasis: every sweep calls the public updates with
    ``config.penalty`` itself, so a low-rank Sigma_w rotates rows into
    the basis and back at each operation.  The start and the stopping
    rule are ``fit``'s; returns ``(state, FitTrace)`` as it does.
    """
    hyper = hyper if hyper is not None else HyperParams()
    if config is None:
        config = FitConfig(penalty=build_penalty(FIRST_DIFF, data.p))
    penalty = config.penalty
    with blas_threads_for():
        state = initial_state(data, hyper, config)
        history = [log_posterior(state, data, hyper, penalty)]
        converged = False
        sweeps_run = 0
        for sweep in range(1, config.max_sweeps + 1):
            sweeps_run = sweep
            old = state
            state = dataclasses.replace(
                old, alpha1=update_alpha1(old.mu, penalty, hyper),
                alpha2=update_alpha2(old.sigma_w, penalty, hyper),
                sigma2=update_sigma2(old.x, data, hyper),
            )
            state = dataclasses.replace(
                state, x=update_x(data, state.mu, state.sigma_w, state.sigma2))
            state = dataclasses.replace(
                state, mu=update_mu(state.x, data, state.sigma_w, state.alpha1, penalty))
            state = dataclasses.replace(state, sigma_w=update_sigma_w(
                state.x, state.mu, data, state.alpha2, penalty, hyper, config.jitter_scale))
            history.append(log_posterior(state, data, hyper, penalty))
            if state.relative_change(old) < config.rel_tol:
                converged = True
                break
        return state, FitTrace(
            sweeps_run=sweeps_run,
            converged=converged,
            log_posterior_per_sweep=tuple(history),
            final_residuals=first_order_residuals(state, data, hyper, penalty),
        )


def _gradient_parts(within, weight, count):
    """Z, P and the diagonal g of ``WoodburyForm.gradient_norm``'s
    comment, as it computes them."""
    _, scaled, capacitance = within._unshifted
    lam = within.basis.eigenvalues
    projected = spd_solve(capacitance, scaled)
    z = (
        (0.5 * count) * scaled
        - weight * scaled * (lam / within.d)
        + 0.5 * ((weight * (scaled * lam)) @ scaled.T) @ projected
    )
    return z, projected, weight * lam / within.d**2 - count / within.d


def two_gemm_gradient_norm(within, rows, weight, count):
    """Reference for ``WoodburyForm.gradient_norm``: the Frobenius norm of
    the whole p x p gradient diag(g) + E^T E + Z^T P + P^T Z, formed as
    ``gradient_norm`` formed it before it summed the norm in column strips
    and then from 3n x 3n Grams."""
    z, projected, g = _gradient_parts(within, weight, count)
    solved_rows = within._solve_rotated(within.basis.rotate(rows))
    cross = z.T @ projected
    gradient = solved_rows.T @ solved_rows
    gradient += cross
    gradient += cross.T
    gradient[np.diag_indices(within.p)] += g
    return frobenius_norm(gradient)


def stack_gradient_norm(within, solved, weight, count, dtype):
    """The Frobenius norm of diag(g) + L Pi L^T, in ``dtype``, from the
    float64 (p, 3n) stack L = [E; Z; P]^T and diagonal g that
    ``WoodburyForm.gradient_norm`` builds from the solved rows (Pi swaps
    the Z and P columns): its former strip sum, in one strip.  In long
    double it is the exact norm of the float64 stack to well past float64
    precision, so it measures the error of a float64 sum of the same
    stack alone."""
    z, projected, g = _gradient_parts(within, weight, count)
    solved_rows = within.basis.rotate(solved)
    left = np.concatenate((solved_rows.T, z.T, projected.T), axis=1).astype(dtype)
    m, k = len(solved_rows), len(z)
    gradient = left @ left[:, np.r_[:m, m + k:m + 2 * k, m:m + k]].T
    gradient[np.diag_indices(within.p)] += g.astype(dtype)
    return float(np.sqrt(np.sum(gradient * gradient)))


def dense_pda_fit(data, penalty, alpha):
    """PDA through the dense between matrix: class means, the within
    matrix S + alpha * Omega symmetrized as ``pda_fit`` forms it, and
    ``generalized_eig_top`` on ``between_covariance`` (the pivoted Cholesky
    route), default k.  Independent of the centred-means path that
    ``pda_fit`` and the cross-validation share."""
    penalty.check_grid(data.p)
    mu = data.class_means()
    within = pooled_within_scatter(data.y, data.labels, mu) + alpha * penalty.matrix
    within = 0.5 * (within + within.T)
    values, directions = generalized_eig_top(
        between_covariance(mu), within, min(data.c - 1, data.p)
    )
    return DiscriminantModel(
        method_tag=METHOD_PDA,
        directions=directions,
        projected_centroids=mu @ directions.T,
        class_labels=data.label_names,
        within_cov_used=within,
        eigenvalues=values,
        penalty=penalty.descriptor,
    )


def reference_pda_cv(data, penalty, seed=0):
    """Reference penalty-weight cross-validation: a full dense PDA fit
    (``dense_pda_fit``) and ``predict`` for every (candidate, fold) pair,
    candidates outermost.

    ``select_pda_alpha`` before each fold's scatter was computed once and
    each candidate whitened only the centred class means.  Returns
    ``(alpha, mean_errors)``: the chosen weight and the mean fold error
    of each candidate of ``DEFAULT_PDA_ALPHA_GRID``.
    """
    counts = data.class_counts
    if counts.min() < 2:
        name = data.label_names[int(np.argmin(counts))]
        raise ValidationError(
            f"class {name!r} has {int(counts.min())} curve(s); cross-validating the "
            "penalty weight needs at least 2 curves per class (pass --alpha)"
        )
    folds = min(5, int(counts.min()))
    rng = simulate._stream(seed, 2)
    assignment = np.zeros(data.n, dtype=int)
    for i in range(1, data.c + 1):
        shuffled = rng.permutation(data.class_rows(i))
        assignment[shuffled] = np.arange(shuffled.size) % folds
    mean_errors = []
    with blas_threads_for():
        for alpha in simulate.DEFAULT_PDA_ALPHA_GRID:
            fold_errors = []
            for fold in range(folds):
                holdout = assignment == fold
                train = LabeledFunctionalDataset(
                    y=data.y[~holdout],
                    labels=data.labels[~holdout],
                    label_names=data.label_names,
                )
                try:
                    model = dense_pda_fit(train, penalty, alpha)
                    predicted = predict(model, data.y[holdout])
                except NumericError:
                    fold_errors.append(1.0)
                    continue
                truth = np.asarray(data.label_names)[data.labels[holdout] - 1]
                fold_errors.append(error_rate(predicted, truth))
            mean_errors.append(float(np.mean(fold_errors)))
    alpha = float(simulate.DEFAULT_PDA_ALPHA_GRID[int(np.argmin(mean_errors))])
    return alpha, tuple(mean_errors)


def lap2d_image_set(rng: np.random.Generator, n: int, rows: int, cols: int):
    """Two balanced classes of smooth random images plus unit white noise.

    Each image mixes the nine lowest sine modes of the grid; class 1 adds
    a centred Gaussian blob of height 3.
    """
    r = np.linspace(0.0, 1.0, rows)[:, None]
    c = np.linspace(0.0, 1.0, cols)[None, :]
    blob = np.exp(-((r - 0.5) ** 2 + (c - 0.5) ** 2) / (2 * 0.15**2)).ravel()
    modes = np.array([
        (np.sin(np.pi * (a + 1) * r) * np.sin(np.pi * (b + 1) * c)).ravel()
        for a in range(3) for b in range(3)
    ])
    y = rng.standard_normal((n, modes.shape[0])) @ modes
    y += rng.standard_normal((n, rows * cols))
    y[: n // 2] += 3.0 * blob
    labels = np.repeat([1, 2], [n // 2, n - n // 2])
    return LabeledFunctionalDataset(y=y, labels=labels, label_names=(1, 2))


def loop_difference_operator(p: int, order: int) -> np.ndarray:
    """Order-1 or order-2 difference operator of shape (p - order, p).

    Built row by row with the stencil (-1, 1) or (1, -2, 1), as a
    reference for the penalty builder.
    """
    stencil = {1: (-1.0, 1.0), 2: (1.0, -2.0, 1.0)}[order]
    d = np.zeros((p - order, p))
    for i in range(p - order):
        d[i, i : i + order + 1] = stencil
    return d


def loop_laplacian_stencil(rows: int, cols: int) -> np.ndarray:
    """Five-point Laplacian on a rows-by-cols grid, built cell by cell.

    Out-of-range neighbours are dropped, so the centre weight of each row
    equals the number of in-bounds neighbours and constant images are
    annihilated.  A reference for the penalty builder.
    """
    p = rows * cols
    stencil = np.zeros((p, p))
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if 0 <= rr < rows and 0 <= cc < cols:
                    stencil[i, i] += 1.0
                    stencil[i, rr * cols + cc] -= 1.0
    return stencil


def kron_laplacian_gram(rows: int, cols: int) -> np.ndarray:
    """L^T L of the five-point grid Laplacian as three full Kronecker
    products, the formula the lap2d penalty builder reproduces byte for
    byte with its banded blocks."""
    path_r = np.diff(np.eye(rows), axis=0).T @ np.diff(np.eye(rows), axis=0)
    path_c = np.diff(np.eye(cols), axis=0).T @ np.diff(np.eye(cols), axis=0)
    return (
        np.kron(np.eye(rows), path_c @ path_c)
        + 2.0 * np.kron(path_r, path_c)
        + np.kron(path_r @ path_r, np.eye(cols))
    )


def load_tool(name: str):
    """Import ``tools/<name>.py`` of this repository as a module."""
    path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _central_difference(f, value: float) -> float:
    h = 1e-5 * (1.0 + abs(value))
    return (f(value + h) - f(value - h)) / (2.0 * h)


def finite_difference_residuals(state, data, hyper, penalty) -> dict:
    """Gradient norms of the objective per block, by central differences.

    Returns a dict with the same keys as ``FirstOrderResiduals.as_dict``,
    computed without any analytic derivative so the two can be compared.
    """
    lp_at = lambda s: log_posterior(s, data, hyper, penalty)

    def scalar_grad(name):
        return _central_difference(
            lambda v: lp_at(dataclasses.replace(state, **{name: v})),
            getattr(state, name),
        )

    def precision_grad():
        return _central_difference(
            lambda v: lp_at(dataclasses.replace(state, sigma2=1.0 / v)),
            1.0 / state.sigma2,
        )

    def array_grad(name):
        base = getattr(state, name)
        grad = np.zeros_like(base)
        for idx in np.ndindex(base.shape):
            def with_entry(v, idx=idx):
                changed = base.copy()
                changed[idx] = v
                return lp_at(dataclasses.replace(state, **{name: changed}))
            grad[idx] = _central_difference(with_entry, base[idx])
        return grad

    def sigma_w_grad():
        base = state.sigma_w.dense()
        p = base.shape[0]
        grad = np.zeros((p, p))
        for i in range(p):
            for j in range(i + 1):
                bump = np.zeros((p, p))
                bump[i, j] = bump[j, i] = 1.0
                derivative = _central_difference(
                    lambda t: lp_at(dataclasses.replace(
                        state, sigma_w=CholeskyForm(base + t * bump, penalty))),
                    0.0,
                )
                # symmetric bump picks up both entries off the diagonal
                value = derivative if i == j else derivative / 2.0
                grad[i, j] = grad[j, i] = value
        return grad

    return {
        "alpha1": abs(scalar_grad("alpha1")),
        "alpha2": abs(scalar_grad("alpha2")),
        "noise_precision": abs(precision_grad()),
        "x_max": float(np.max(np.linalg.norm(array_grad("x"), axis=1))),
        "mu_max": float(np.max(np.linalg.norm(array_grad("mu"), axis=1))),
        "sigma_w": float(np.linalg.norm(sigma_w_grad())),
    }


def two_class_separable(n_per_class: int, p: int, gap: float, seed: int = 0):
    """A simple labeled two-class dataset with a mean shift on every column."""
    rng = np.random.default_rng(seed)
    y1 = rng.standard_normal((n_per_class, p))
    y2 = rng.standard_normal((n_per_class, p)) + gap
    y = np.vstack([y1, y2])
    labels = np.repeat([1, 2], n_per_class)
    return LabeledFunctionalDataset(y=y, labels=labels, label_names=(1, 2))


def csv_module_read(path: str, has_header: bool = False):
    """Reference labeled-curve CSV reader: the csv module and ``float`` per cell.

    ``read_labeled_csv`` before its values came from NumPy's C reader;
    returns ``(labels, values)`` and raises the same ``ParseError``s.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            raw_rows = [
                row for row in csv.reader(fh) if row and any(cell.strip() for cell in row)
            ]
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    if has_header and raw_rows:
        raw_rows = raw_rows[1:]
    if not raw_rows:
        raise ParseError(f"{path}: no data rows")
    labels = []
    values = []
    expected = len(raw_rows[0])
    if expected < 2:
        raise ParseError(f"{path}: row 1 has no value columns", row=1)
    for r, row in enumerate(raw_rows, start=1):
        if len(row) != expected:
            raise ParseError(
                f"{path}: row {r} has {len(row)} columns, expected {expected}",
                row=r,
            )
        labels.append(row[0].strip())
        parsed = []
        for c, cell in enumerate(row[1:], start=2):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise ParseError(
                    f"{path}: row {r} column {c}: cannot parse {cell.strip()!r} as a number",
                    row=r,
                    column=c,
                ) from None
        values.append(parsed)
    return labels, np.asarray(values, dtype=float)


def csv_module_text(dataset: LabeledFunctionalDataset) -> str:
    """Reference labeled-curve CSV text: ``repr`` of each value, and labels
    quoted as ``csv.QUOTE_MINIMAL`` quotes them.

    ``save_dataset_csv`` before it streamed its rows, with the label
    quoting added.
    """
    lines = []
    names = list(dataset.label_names)
    for i in range(dataset.n):
        label = names[dataset.labels[i] - 1]
        cells = [f"{label}", *(repr(float(v)) for v in dataset.y[i])]
        text = io.StringIO()
        # The default dialect: its "\r\n" terminator makes a carriage
        # return in a cell as much a reason to quote as a line feed.
        csv.writer(text).writerow(cells)
        lines.append(text.getvalue().removesuffix("\r\n") + "\n")
    return "".join(lines)
