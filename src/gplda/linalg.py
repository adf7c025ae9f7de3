"""Finite-difference roughness penalties and the shared eigensolver kernel.

The penalties are Gram matrices of discrete difference operators on a
regular grid.  They are symmetric positive semidefinite and annihilate
constant vectors, which is what makes them usable both as smoothing
penalties and as scale matrices for covariance priors.

The kernel routines solve symmetric positive definite systems and the
two-matrix symmetric eigenproblem that every discriminant method in this
package reduces to.  The eigenproblem's numerator is a between-class
scatter of rank at most c - 1, so the solver factors it with a pivoted
Cholesky decomposition and works on its r = numerical-rank factor rows:
beyond the Cholesky factor of the denominator, a solve for k directions
costs O(p^2 (r + k)) instead of the O(p^3) of a dense whitened
eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .exceptions import (
    DegenerateBetweenCovarianceError,
    DimensionError,
    SingularMatrixError,
)

FIRST_DIFF = "d1"
SECOND_DIFF = "d2"
LAPLACIAN_2D = "lap2d"

PENALTY_KINDS = (FIRST_DIFF, SECOND_DIFF, LAPLACIAN_2D)


@dataclass(frozen=True, eq=False)
class SmoothingPenalty:
    """Symmetric positive semidefinite roughness penalty on a grid.

    Attributes
    ----------
    matrix : ndarray of shape (p, p)
        The penalty Gram matrix.
    kind : str
        One of ``"d1"``, ``"d2"``, ``"lap2d"``.
    grid : tuple of (rows, cols), optional
        Grid shape for the two-dimensional kind, None otherwise.
    """

    matrix: np.ndarray
    kind: str
    grid: tuple[int, int] | None = None

    @property
    def p(self) -> int:
        return self.matrix.shape[0]

    @property
    def descriptor(self) -> str:
        """Compact text form, e.g. ``"d1"`` or ``"lap2d:4x8"``."""
        if self.kind == LAPLACIAN_2D:
            rows, cols = self.grid
            return f"{LAPLACIAN_2D}:{rows}x{cols}"
        return self.kind


def _difference_gram(p: int, order: int) -> np.ndarray:
    """Gram matrix D^T D of the order-th difference operator on p points."""
    d = np.diff(np.eye(p), n=order, axis=0)
    return d.T @ d


def build_penalty(kind: str, dims: int | tuple[int, int]) -> SmoothingPenalty:
    """Build the penalty Gram matrix for a grid.

    Parameters
    ----------
    kind : str
        ``"d1"`` (first differences, rows (-1, 1)), ``"d2"`` (second
        differences, rows (1, -2, 1)), or ``"lap2d"`` (five-point
        Laplacian on an image grid with replicate boundaries).
    dims : int or (rows, cols)
        Grid length for the one-dimensional kinds, grid shape for
        ``"lap2d"``.

    Returns
    -------
    SmoothingPenalty
        Penalty with ``matrix`` equal to the Gram matrix of the operator.
    """
    if kind in (FIRST_DIFF, SECOND_DIFF):
        if isinstance(dims, tuple):
            raise DimensionError("one-dimensional penalty takes a single grid length")
        p, order = int(dims), 1 if kind == FIRST_DIFF else 2
        if p <= order:
            raise DimensionError(
                f"order-{order} differences need at least {order + 1} grid points, got p={p}"
            )
        return SmoothingPenalty(matrix=_difference_gram(p, order), kind=kind)
    if kind == LAPLACIAN_2D:
        if not (isinstance(dims, tuple) and len(dims) == 2):
            raise DimensionError(
                "two-dimensional penalty needs dims given as a (rows, cols) pair"
            )
        rows, cols = int(dims[0]), int(dims[1])
        if rows < 2 or cols < 2:
            raise DimensionError(
                f"two-dimensional penalty needs a grid of at least 2x2, got {rows}x{cols}"
            )
        # The Laplacian is L = kron(I_r, P_c) + kron(P_r, I_c) with P the
        # path Laplacians; its two terms commute, so L^T L expands to three
        # Kronecker products.  All entries are small integers, so the
        # result is exact.
        path_r = _difference_gram(rows, 1)
        path_c = _difference_gram(cols, 1)
        matrix = (
            np.kron(np.eye(rows), path_c @ path_c)
            + 2.0 * np.kron(path_r, path_c)
            + np.kron(path_r @ path_r, np.eye(cols))
        )
        return SmoothingPenalty(matrix=matrix, kind=kind, grid=(rows, cols))
    raise DimensionError(f"unknown penalty kind {kind!r}, expected one of {PENALTY_KINDS}")


def cholesky_factor(a: np.ndarray):
    """Lower Cholesky factor of a symmetric positive definite matrix.

    Returns the scipy ``(factor, lower)`` pair that ``cho_solve`` takes.
    """
    try:
        return scipy.linalg.cho_factor(a, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"matrix is not positive definite: {exc}") from exc


def spd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b for symmetric positive definite a via Cholesky."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise DimensionError(
            f"right-hand side of length {b.shape[0]} does not match matrix of size {a.shape[0]}"
        )
    return scipy.linalg.cho_solve(cholesky_factor(a), b, check_finite=False)


def generalized_eig_top(
    between: np.ndarray, within: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top directions of the two-matrix symmetric eigenproblem.

    Finds the k leading vectors maximizing the ratio of the ``between``
    quadratic form to the ``within`` quadratic form, i.e. the leading
    solutions of ``between @ beta = value * within @ beta``.

    The route exploits the low rank of ``between`` (a scatter of c class
    means has rank at most c - 1).  With ``within = L L^T`` and the
    pivoted Cholesky factor ``between = R^T R`` (R has r = numerical-rank
    rows), the whitened problem is ``A A^T`` with ``A = L^{-1} R^T`` of
    shape (p, r).  The thin SVD ``A = U S V^T`` gives ``values = S**2`` and
    ``directions = (L^{-T} U[:, :k])^T``.  Beyond the Cholesky factor of
    ``within`` the cost is O(p^2 (r + k)), not O(p^3).  When k > r the missing
    values are zero and the extra directions span the rest of the
    ``within``-orthogonal complement.

    Parameters
    ----------
    between : ndarray of shape (p, p)
        Symmetric positive semidefinite numerator matrix.  The pivoted
        Cholesky factorization reads only its upper triangle and drops
        any negative part.
    within : ndarray of shape (p, p)
        Symmetric positive definite denominator matrix.
    k : int
        Number of leading directions to return, 1 <= k <= p.

    Returns
    -------
    eigenvalues : ndarray of shape (k,)
        Leading eigenvalues in descending order.
    directions : ndarray of shape (k, p)
        Row i is the i-th direction, normalized so its ``within`` quadratic
        form is 1, with the largest-magnitude entry made positive.

    Raises
    ------
    DegenerateBetweenCovarianceError
        If ``between`` is numerically zero relative to ``within``.
    SingularMatrixError
        If ``within`` cannot be Cholesky factorized.
    """
    between = np.asarray(between, dtype=float)
    within = np.asarray(within, dtype=float)
    if between.ndim != 2 or between.shape[0] != between.shape[1]:
        raise DimensionError(f"between matrix must be square, got shape {between.shape}")
    if within.shape != between.shape:
        raise DimensionError(
            f"within matrix shape {within.shape} does not match between shape {between.shape}"
        )
    p = between.shape[0]
    if not 1 <= k <= p:
        raise DimensionError(f"k={k} is outside the valid range 1..{p}")
    # Elementwise sums, not np.linalg.norm: on a p x p matrix that is one
    # BLAS ddot, which a threaded BLAS may split at a cost far above the sum.
    norm_b = np.sqrt(np.sum(between * between))
    norm_w = np.sqrt(np.sum(within * within))
    if norm_b <= 1e-12 * norm_w:
        raise DegenerateBetweenCovarianceError(
            "between-class covariance is numerically zero; class means coincide"
        )
    try:
        chol = scipy.linalg.cholesky(within, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SingularMatrixError(
            f"within matrix is not positive definite: {exc}"
        ) from exc
    # between = R^T R with R = U[:r] P^T, from P^T between P = U^T U.
    factor, piv, rank, _ = scipy.linalg.lapack.dpstrf(between, lower=0)
    root_t = np.empty((p, rank))
    root_t[piv - 1] = np.triu(factor[:rank]).T
    # Whiten the r factor columns only; A A^T is the whitened between matrix.
    whitened_root = scipy.linalg.solve_triangular(
        chol, root_t, lower=True, check_finite=False
    )
    vectors, singular, _ = scipy.linalg.svd(
        whitened_root, full_matrices=k > rank, check_finite=False
    )
    top_values = np.zeros(k)
    top_values[: min(k, rank)] = singular[:k] ** 2
    # Map back; whitened orthonormality turns into within-orthonormality.
    directions = scipy.linalg.solve_triangular(
        chol.T, vectors[:, :k], lower=False, check_finite=False
    ).T
    for row in directions:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    return top_values, directions
