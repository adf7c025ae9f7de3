"""Shared construction helpers for the test suite."""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.linalg

from gplda import LabeledFunctionalDataset, PosteriorState, log_posterior


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
    """A random strictly feasible state for a given dataset."""
    return PosteriorState(
        x=data.y + 0.1 * rng.standard_normal(data.y.shape),
        mu=rng.standard_normal((data.c, data.p)),
        sigma_w=random_spd_matrix(rng, data.p),
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
        base = state.sigma_w
        p = base.shape[0]
        grad = np.zeros((p, p))
        for i in range(p):
            for j in range(i + 1):
                bump = np.zeros((p, p))
                bump[i, j] = bump[j, i] = 1.0
                derivative = _central_difference(
                    lambda t: lp_at(dataclasses.replace(state, sigma_w=base + t * bump)),
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
