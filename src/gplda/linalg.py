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
class DifferenceMatrix:
    """A banded finite-difference operator on a regular one-dimensional grid.

    Attributes
    ----------
    entries : ndarray of shape (p - order, p)
        Dense matrix applying the difference stencil to a length-p vector.
    order : int
        Order of the difference (1 or 2).
    p : int
        Number of grid points the operator acts on.
    """

    entries: np.ndarray
    order: int
    p: int


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


def build_first_difference(p: int) -> DifferenceMatrix:
    """First-order difference operator with rows (-1, +1).

    Parameters
    ----------
    p : int
        Grid length, at least 2.

    Returns
    -------
    DifferenceMatrix
        Operator of shape (p-1, p) mapping v to its adjacent differences.
    """
    if p < 2:
        raise DimensionError(f"first differences need at least 2 grid points, got p={p}")
    d = np.zeros((p - 1, p))
    idx = np.arange(p - 1)
    d[idx, idx] = -1.0
    d[idx, idx + 1] = 1.0
    return DifferenceMatrix(entries=d, order=1, p=p)


def build_second_difference(p: int) -> DifferenceMatrix:
    """Second-order difference operator with rows (1, -2, 1)."""
    if p < 3:
        raise DimensionError(f"second differences need at least 3 grid points, got p={p}")
    d = np.zeros((p - 2, p))
    idx = np.arange(p - 2)
    d[idx, idx] = 1.0
    d[idx, idx + 1] = -2.0
    d[idx, idx + 2] = 1.0
    return DifferenceMatrix(entries=d, order=2, p=p)


def build_laplacian_stencil(rows: int, cols: int) -> np.ndarray:
    """Five-point Laplacian on a rows-by-cols grid with replicate boundaries.

    Out-of-range neighbours are clamped to the boundary cell, so the centre
    weight of each row equals the number of in-bounds neighbours and
    constant images are annihilated.
    """
    if rows < 2 or cols < 2:
        raise DimensionError(
            f"two-dimensional penalty needs a grid of at least 2x2, got {rows}x{cols}"
        )
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


def build_penalty(kind: str, dims: int | tuple[int, int]) -> SmoothingPenalty:
    """Build the penalty Gram matrix for a grid.

    Parameters
    ----------
    kind : str
        ``"d1"`` (first differences), ``"d2"`` (second differences), or
        ``"lap2d"`` (five-point Laplacian on an image grid).
    dims : int or (rows, cols)
        Grid length for the one-dimensional kinds, grid shape for
        ``"lap2d"``.

    Returns
    -------
    SmoothingPenalty
        Penalty with ``matrix`` equal to the Gram matrix of the operator.
    """
    if kind == FIRST_DIFF:
        d = build_first_difference(_as_length(dims))
        return SmoothingPenalty(matrix=d.entries.T @ d.entries, kind=kind)
    if kind == SECOND_DIFF:
        d = build_second_difference(_as_length(dims))
        return SmoothingPenalty(matrix=d.entries.T @ d.entries, kind=kind)
    if kind == LAPLACIAN_2D:
        if not (isinstance(dims, tuple) and len(dims) == 2):
            raise DimensionError(
                "two-dimensional penalty needs dims given as a (rows, cols) pair"
            )
        rows, cols = int(dims[0]), int(dims[1])
        stencil = build_laplacian_stencil(rows, cols)
        return SmoothingPenalty(matrix=stencil.T @ stencil, kind=kind, grid=(rows, cols))
    raise DimensionError(f"unknown penalty kind {kind!r}, expected one of {PENALTY_KINDS}")


def _as_length(dims) -> int:
    if isinstance(dims, tuple):
        raise DimensionError("one-dimensional penalty takes a single grid length")
    return int(dims)


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
    try:
        factor = scipy.linalg.cho_factor(a, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"Cholesky factorization failed: {exc}") from exc
    return scipy.linalg.cho_solve(factor, b, check_finite=False)


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
