"""Finite-difference roughness penalties and the shared eigensolver kernel.

The penalties are Gram matrices of discrete difference operators on a
regular grid.  They are symmetric positive semidefinite and annihilate
constant vectors, which is what makes them usable both as smoothing
penalties and as scale matrices for covariance priors.  Each penalty has
an orthonormal eigenbasis (``SmoothingPenalty.basis``).  The orthonormal
DCT-II diagonalises the first-difference penalty exactly, and its
two-dimensional form the grid Laplacian's (Strang 1999, SIAM Rev.
41:135), so those bases rotate by fast transforms and hold no p x p
matrix; any other penalty takes its basis from ``eigh``.  The
first-difference and second-difference penalties hold their dense p x p
matrix.  The grid Laplacian's is 2 GiB at 128 x 128, so it keeps its
sparse Gram (``SparseGramPenalty``) and forms the matrix only when a
dense path first reads it.  ``SmoothingPenalty.add_to`` is the one way
to add a multiple of a penalty to a dense matrix.

The kernel routines solve symmetric positive definite systems and the
two-matrix symmetric eigenproblem that every discriminant method in this
package reduces to.  The eigenproblem's numerator is a between-class
scatter of rank at most c - 1, so the solver works on a (p, r) factor of
it: the c centred class means that every fit passes as a ``Gram``, or
the numerical-rank rows of a pivoted Cholesky factor of a p x p matrix.
Every solve takes one route: the r factor columns are solved against
the denominator and an r x r eigenproblem gives the directions.  A
denominator matrix is solved through its Cholesky factor, so beyond that
factor k directions cost O(p^2 r) instead of the O(p^3) of a dense
whitened eigendecomposition; one given as an operator with a ``solve``
(GPLDA's within-class covariance) needs no p x p matrix at all.

``blas_threads_for`` is the package's one BLAS thread policy: the public
fit and predict functions run on one BLAS thread, because at the sizes
they work with a second thread costs more in hand-offs than it saves.

SciPy is imported on first use, not with the package: ``scipy.linalg``
adds about 0.3 s to the start of every process, and neither generating
data nor predicting needs it.  ``scipy_linalg`` is the one way in.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    DegenerateBetweenCovarianceError,
    DimensionError,
    SingularMatrixError,
)

FIRST_DIFF = "d1"
SECOND_DIFF = "d2"
LAPLACIAN_2D = "lap2d"

PENALTY_KINDS = (FIRST_DIFF, SECOND_DIFF, LAPLACIAN_2D)

# Grids of fewer points keep their DCT-II basis as a dense p x p matrix.
# There a product with it is faster than a fast transform (on one core,
# 50 rows: 0.016 against 0.144 ms at p = 101, 0.040 against 0.063 ms at
# 12 x 12), and it needs no scipy.fft; from p = 160 the transform wins.
DENSE_DCT_BELOW_P = 150

# ``generalized_eig_top`` returns a value at or below this fraction of the
# first as zero.  Its r x r product carries a rounding of about 1e-16 of
# the first value (exactly collinear class means read 1e-16 on the
# benchmark fits), so a value under 1e-8 has fewer than half its digits
# above it.
RANK_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class PenaltyBasis:
    """Orthonormal eigenbasis Q of a penalty: ``matrix = Q diag(eigenvalues) Q^T``.

    ``rotate`` and ``unrotate`` act on rows, so for an (m, p) array they
    return ``rows @ Q`` and ``rows @ Q.T``.  Q is ``vectors`` when given.
    Otherwise a ``grid`` (one length, or rows x cols in row-major order)
    makes Q the orthonormal DCT-II on it, applied in O(m p log p) with no
    p x p matrix, and no grid makes Q the identity, whose rotations return
    the rows themselves.  ``grid`` is set exactly when Q is the closed-form
    DCT-II, also when a small grid keeps it as ``vectors``.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray | None = None
    grid: tuple[int, ...] = ()

    @classmethod
    def dct(cls, grid: tuple[int, ...]) -> "PenaltyBasis":
        """Basis of the first-difference penalty (one length) or the grid
        Laplacian (rows, cols): DCT-II vectors with the path-Laplacian
        eigenvalues 2 - 2 cos(pi k / m), squared sums of them in 2-D."""
        path = [2.0 - 2.0 * np.cos(np.pi * np.arange(m) / m) for m in grid]
        eigenvalues = path[0] if len(grid) == 1 else np.add.outer(*path).ravel() ** 2
        if eigenvalues.size >= DENSE_DCT_BELOW_P:
            return cls(eigenvalues=eigenvalues, grid=grid)
        vectors = functools.reduce(np.kron, map(_dct_ii, grid))
        return cls(eigenvalues=eigenvalues, vectors=vectors, grid=grid)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "PenaltyBasis":
        eigenvalues, vectors = np.linalg.eigh(matrix)
        return cls(eigenvalues=eigenvalues, vectors=vectors)

    def rotate(self, rows: np.ndarray) -> np.ndarray:
        if self.vectors is not None:
            return rows @ self.vectors
        return self._transform("dctn", rows) if self.grid else rows

    def unrotate(self, rows: np.ndarray) -> np.ndarray:
        if self.vectors is not None:
            return rows @ self.vectors.T
        return self._transform("idctn", rows) if self.grid else rows

    def _transform(self, name: str, rows: np.ndarray) -> np.ndarray:
        # Imported on first use: scipy.fft adds about 0.1 s to the start of
        # every process, and only low-rank covariance fits need it.
        import scipy.fft

        transform = getattr(scipy.fft, name)
        axes = tuple(range(1, len(self.grid) + 1))
        grids = np.reshape(rows, (-1, *self.grid))
        return transform(grids, type=2, norm="ortho", axes=axes).reshape(np.shape(rows))


def _dct_ii(m: int) -> np.ndarray:
    """Orthonormal DCT-II vectors of length m, as the columns of an m x m matrix."""
    q = np.sqrt(2.0 / m) * np.cos(np.pi * np.outer(2 * np.arange(m) + 1, np.arange(m)) / (2 * m))
    q[:, 0] /= np.sqrt(2.0)
    return q


@dataclass(frozen=True, eq=False)
class SmoothingPenalty:
    """Symmetric positive semidefinite roughness penalty on a grid.

    ``add_to(dense, weight)`` is the one way to add ``weight * matrix``
    to a dense matrix: the covariance update, the dense value of the
    low-rank covariance, its gradient and PDA's within matrix all call
    it, so a penalty that keeps no dense matrix never forms one there.

    Attributes
    ----------
    matrix : ndarray of shape (p, p)
        The penalty Gram matrix.  It must be exactly symmetric
        (``np.array_equal(matrix, matrix.T)``), as every ``build_penalty``
        matrix is: the covariance update and PDA's within matrix add it to
        an exactly symmetric scatter and do not symmetrize the sum, so a
        hand-built matrix that is symmetric only to rounding passes its
        asymmetry on to them.
    kind : str
        One of ``"d1"``, ``"d2"``, ``"lap2d"``.
    grid : tuple of (rows, cols), optional
        Grid shape for the two-dimensional kind, None otherwise.
    """

    # Left out of repr, which would form a lazy matrix to print it.
    matrix: np.ndarray = field(repr=False)
    kind: str
    grid: tuple[int, int] | None = None

    # Set by ``build_penalty`` on what it returns; see ``same_as``.
    _built = False

    @property
    def p(self) -> int:
        return self.matrix.shape[0]

    @functools.cached_property
    def basis(self) -> PenaltyBasis:
        """Orthonormal eigenbasis of ``matrix``, computed once.

        ``eigh`` of the matrix, unless ``build_penalty`` made the penalty
        and filled in its closed DCT-II form.
        """
        return PenaltyBasis.from_matrix(self.matrix)

    @property
    def closed_basis(self) -> bool:
        """Whether ``basis`` is the closed DCT-II form ``build_penalty``
        filled in, whose null-mode eigenvalues are exact zeros.  Never
        computes ``eigh``."""
        basis = self.__dict__.get("basis")
        return basis is not None and bool(basis.grid)

    def apply(self, rows: np.ndarray) -> np.ndarray:
        """``rows @ matrix``: each row times the penalty."""
        return rows @ self.matrix

    def add_to(self, dense: np.ndarray, weight: float) -> np.ndarray:
        """Add ``weight * matrix`` to the (p, p) array ``dense`` in place
        and return it."""
        dense += weight * self.matrix
        return dense

    @functools.cached_property
    def trace(self) -> float:
        return float(np.trace(self.matrix))

    def same_as(self, other: "SmoothingPenalty") -> bool:
        """Whether ``other`` is this penalty.  Two ``build_penalty``
        penalties are exactly when their kind, grid and length match, read
        without forming a matrix; any other pair when their matrices are
        equal."""
        if other is self:
            return True
        if self._built and other._built:
            return (self.kind, self.grid, self.p) == (other.kind, other.grid, other.p)
        return np.array_equal(self.matrix, other.matrix)

    def in_basis(self) -> "SmoothingPenalty":
        """This penalty in its own eigenbasis: the same eigenvalues on an
        identity basis (``EigenbasisPenalty``)."""
        return EigenbasisPenalty(self.basis.eigenvalues, self.kind, self.grid)

    def check_grid(self, p: int) -> None:
        """Raise ``DimensionError`` unless the penalty is built for p points."""
        if self.p != p:
            raise DimensionError(f"penalty is built for grid length {self.p}, data has p={p}")

    @property
    def descriptor(self) -> str:
        """Compact text form, e.g. ``"d1"`` or ``"lap2d:4x8"``."""
        if self.kind == LAPLACIAN_2D:
            rows, cols = self.grid
            return f"{LAPLACIAN_2D}:{rows}x{cols}"
        return self.kind


class EigenbasisPenalty(SmoothingPenalty):
    """A penalty written in its own eigenbasis: ``matrix`` is diag(lambda).

    Its basis is the identity, so rotations cost nothing, ``apply`` is
    ``rows * lambda`` and ``trace`` is ``sum(lambda)``.  The p x p
    ``matrix`` is formed only when a dense path reads it.
    """

    def __init__(self, eigenvalues: np.ndarray, kind: str, grid: tuple[int, int] | None = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "grid", grid)
        self.__dict__["basis"] = PenaltyBasis(eigenvalues=eigenvalues)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        return np.diag(self.basis.eigenvalues)

    @property
    def p(self) -> int:
        return self.basis.eigenvalues.size

    def apply(self, rows: np.ndarray) -> np.ndarray:
        return rows * self.basis.eigenvalues

    def add_to(self, dense: np.ndarray, weight: float) -> np.ndarray:
        dense[np.diag_indices(self.p)] += weight * self.basis.eigenvalues
        return dense

    @functools.cached_property
    def trace(self) -> float:
        return float(np.sum(self.basis.eigenvalues))


class SparseGramPenalty(SmoothingPenalty):
    """A penalty kept as its sparse Gram matrix, a symmetric SciPy CSR
    ``gram`` with its duplicates summed.

    ``apply`` is a sparse product, ``trace`` the sum of the stored
    diagonal, and ``add_to`` adds ``weight`` times each stored entry to
    its place, so none of them reads a p x p array.  The p x p ``matrix``
    is formed when a dense path first reads it, as ``gram.toarray()``.
    """

    def __init__(self, gram, kind: str, grid: tuple[int, int] | None = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "gram", gram)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        return self.gram.toarray()

    @property
    def p(self) -> int:
        return self.gram.shape[0]

    def apply(self, rows: np.ndarray) -> np.ndarray:
        return (self.gram @ rows.T).T

    def add_to(self, dense: np.ndarray, weight: float) -> np.ndarray:
        entries = self.gram.tocoo()
        dense[entries.row, entries.col] += weight * entries.data
        return dense

    @functools.cached_property
    def trace(self) -> float:
        return float(np.sum(self.gram.diagonal()))


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
        A ``"lap2d"`` penalty is a ``SparseGramPenalty``, which forms that
        matrix on its first read.
    """
    if kind in (FIRST_DIFF, SECOND_DIFF):
        if isinstance(dims, tuple):
            raise DimensionError("one-dimensional penalty takes a single grid length")
        p, order = int(dims), 1 if kind == FIRST_DIFF else 2
        if p <= order:
            raise DimensionError(
                f"order-{order} differences need at least {order + 1} grid points, got p={p}"
            )
        penalty = SmoothingPenalty(matrix=_difference_gram(p, order), kind=kind)
        return _as_built(penalty, PenaltyBasis.dct((p,)) if kind == FIRST_DIFF else None)
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
        penalty = SparseGramPenalty(_laplacian_gram(rows, cols), kind, grid=(rows, cols))
        return _as_built(penalty, PenaltyBasis.dct((rows, cols)))
    raise DimensionError(f"unknown penalty kind {kind!r}, expected one of {PENALTY_KINDS}")


def _laplacian_gram(rows: int, cols: int):
    """L^T L for the five-point grid Laplacian, as a sparse CSR matrix of
    (rows cols)^2 with at most 13 nonzeros per row.

    L = kron(I_r, P_c) + kron(P_r, I_c), the Kronecker sum of the path
    Laplacians P, is symmetric, so L^T L = L L, formed as a sparse product
    of two matrices with at most five nonzeros per row.  All entries are
    small integers, so it is exact.
    """
    # Imported on first use, as scipy.fft is: only lap2d penalties need it.
    import scipy.sparse

    laplacian = scipy.sparse.kronsum(_difference_gram(cols, 1), _difference_gram(rows, 1))
    gram = laplacian @ laplacian
    gram.sum_duplicates()
    return gram


def _as_built(penalty: SmoothingPenalty, basis: PenaltyBasis | None) -> SmoothingPenalty:
    # Marks a penalty this module just built, and pre-fills its cached
    # ``basis`` property with a closed form that diagonalises its matrix
    # exactly.  A penalty made any other way, whatever its kind, gets the
    # ``eigh`` basis and compares by its matrix.
    penalty.__dict__["_built"] = True
    if basis is not None:
        penalty.__dict__["basis"] = basis
    return penalty


@functools.cache
def scipy_linalg():
    """The ``scipy.linalg`` module, imported on the first call.

    SciPy loads its own OpenBLAS, which the thread controls looked up
    before it was mapped do not reach.  So the first call looks them up
    again and, inside a ``blas_threads_for`` block, lowers the new library
    to one thread too; the outermost block puts its count back.
    """
    import scipy.linalg

    _openblas_controls.cache_clear()
    if _active_blocks:
        _lower_to_one_thread(_active_blocks[0])
    return scipy.linalg


def cholesky_factor(a: np.ndarray):
    """Lower Cholesky factor of a symmetric positive definite matrix.

    Returns the scipy ``(factor, lower)`` pair that ``cho_solve`` takes.
    """
    try:
        return scipy_linalg().cho_factor(a, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"matrix is not positive definite: {exc}") from exc


def frobenius_norm(a: np.ndarray) -> float:
    """Frobenius norm of an array, as the square root of an elementwise sum.

    Not ``np.linalg.norm``: on a p x p matrix that is one BLAS ddot, which
    a threaded BLAS may split at a cost far above the sum.
    """
    return float(np.sqrt(np.sum(a * a)))


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
    return scipy_linalg().cho_solve(cholesky_factor(a), b, check_finite=False)


@dataclass(frozen=True, eq=False)
class Gram:
    """A between matrix given by a (p, r) factor: ``between = root_t @ root_t.T``.

    ``generalized_eig_top`` solves the r factor columns against ``within``
    and never forms the p x p matrix.  ``norm`` is the Frobenius norm of
    ``between``, taken as that of the r x r matrix ``root_t.T @ root_t``
    (the two share their nonzero eigenvalues) and computed once.
    """

    root_t: np.ndarray

    @functools.cached_property
    def norm(self) -> float:
        return frobenius_norm(self.root_t.T @ self.root_t)


def generalized_eig_top(
    between: np.ndarray | Gram, within, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top directions of the two-matrix symmetric eigenproblem.

    Finds the k leading vectors maximizing the ratio of the ``between``
    quadratic form to the ``within`` quadratic form, i.e. the leading
    solutions of ``between @ beta = value * within @ beta``.

    The route exploits the low rank of ``between`` (a scatter of c class
    means has rank at most c - 1) through a factor ``between = F F^T``, F
    of shape (p, r).  One solve ``within.solve(F^T)`` gives the rows of
    (W^-1 F)^T, the r x r eigendecomposition
    ``F^T W^-1 F = V diag(values) V^T`` follows, and
    ``directions = V_k^T (W^-1 F)^T / sqrt(values)``, so that
    ``D W D^T = I`` by construction.  Beyond the solve the cost is
    O(p r (r + k)); an operator ``within`` needs no p x p matrix at all.
    Values at or below ``RANK_RTOL`` of the first (k above the numerical
    rank of F) are returned as zero, and their directions complete the set
    with a ``within``-orthonormal basis of the null space of F^T, taken
    from the matrix of ``within``.

    Parameters
    ----------
    between : ndarray of shape (p, p), or Gram
        Symmetric positive semidefinite numerator.  A ``Gram`` gives its
        factor F directly (the discriminant fits pass their c centred
        class means).  A matrix is factored by pivoted Cholesky, which
        reads only its upper triangle, drops any negative part and keeps
        r = its numerical rank.
    within : ndarray of shape (p, p), or WithinCovariance
        Symmetric positive definite denominator: a matrix, which is
        Cholesky factored, or an operator of shape (p, p) with
        ``solve(rows)`` (``rows @ inv(W)``), a Frobenius ``norm`` and an
        ``__array__`` that gives its matrix, as ``model.WithinCovariance``
        has.
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
        If ``between`` has no positive part that is numerically nonzero
        relative to ``within``.
    SingularMatrixError
        If a ``within`` matrix cannot be Cholesky factorized.
    """
    if not isinstance(between, Gram):
        between = np.asarray(between, dtype=float)
        if between.ndim != 2 or between.shape[0] != between.shape[1]:
            raise DimensionError(f"between matrix must be square, got shape {between.shape}")
        # between = R^T R with R = U[:r] P^T, from P^T between P = U^T U.
        factor, piv, rank, _ = scipy_linalg().lapack.dpstrf(between, lower=0)
        root_t = np.empty((between.shape[0], rank))
        root_t[piv - 1] = np.triu(factor[:rank]).T
        between = Gram(root_t)
    elif np.ndim(between.root_t) != 2:
        raise DimensionError(
            f"between factor must be 2-D, got shape {np.shape(between.root_t)}"
        )
    root_t = between.root_t
    p = root_t.shape[0]
    if np.shape(within) != (p, p):
        raise DimensionError(
            f"within matrix shape {np.shape(within)} does not match between shape {(p, p)}"
        )
    if not 1 <= k <= p:
        raise DimensionError(f"k={k} is outside the valid range 1..{p}")
    operator = hasattr(within, "solve") and hasattr(within, "norm")
    within_norm = within.norm if operator else frobenius_norm(np.asarray(within, dtype=float))
    # sqrt(||B||_F) <= 1e-12 sqrt(||W||_F): a mean gap against a standard
    # deviation, not a squared gap against a variance.
    if between.norm <= 1e-24 * within_norm:
        raise DegenerateBetweenCovarianceError(
            "between-class covariance is numerically zero; class means coincide"
        )
    if operator:
        solved = within.solve(root_t.T)  # rows of (W^-1 F)^T
    else:
        factor = cholesky_factor(np.asarray(within, dtype=float))
        solved = scipy_linalg().cho_solve(factor, root_t, check_finite=False).T
    gram = solved @ root_t
    values, vectors = np.linalg.eigh(0.5 * (gram + gram.T))
    values, vectors = values[::-1][:k], vectors[:, ::-1][:, :k]
    rank = int(np.count_nonzero(values > RANK_RTOL * values[:1]))
    directions = (vectors[:, :rank].T @ solved) / np.sqrt(values[:rank])[:, None]
    if rank < k:
        # The rest of the set spans part of the complement of F V_rank, the
        # null space of F^T: zero between values, and within-orthogonal to
        # every kept direction.  They are made within-orthonormal.
        basis = np.linalg.qr(root_t @ vectors[:, :rank], mode="complete")[0][:, rank:k]
        factor = cholesky_factor(basis.T @ np.asarray(within, dtype=float) @ basis)[0]
        rest = scipy_linalg().solve_triangular(factor, basis.T, lower=True, check_finite=False)
        values = np.concatenate([values[:rank], np.zeros(k - rank)])
        directions = np.vstack([directions, rest])
    return values, _largest_entry_positive(directions)


def _largest_entry_positive(directions: np.ndarray) -> np.ndarray:
    for row in directions:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    return directions


@functools.cache
def _openblas_controls() -> tuple:
    """(get, set) thread-count functions of every OpenBLAS in the process.

    Looked up once, in the shared objects mapped into the process, under
    the ``scipy_openblas`` or the plain ``openblas`` prefix, with or
    without the ``64_`` suffix of the 64-bit-integer builds.  Empty when
    there is no ``/proc`` or no OpenBLAS is loaded (MKL, Accelerate, ...).
    """
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="surrogateescape") as fh:
            # The last field of a line is the mapped file, if any.
            mapped = {line.split(maxsplit=5)[-1].strip() for line in fh}
    except OSError:
        return ()
    paths = sorted(m for m in mapped if "openblas" in os.path.basename(m).lower())
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (
            ("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "64_"), ("openblas", "")
        ):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return tuple(controls)


# What each active ``blas_threads_for`` block lowered, as (set, count)
# pairs, outermost block first.  A library that ``scipy_linalg`` maps in
# during a block is recorded in the outermost one, which restores it.
_active_blocks: list[list] = []


def _lower_to_one_thread(lowered: list) -> None:
    for get, set_ in _openblas_controls():
        count = get()
        if count > 1:
            set_(1)
            lowered.append((set_, count))


@contextlib.contextmanager
def blas_threads_for():
    """Run the body on one BLAS thread.

    Every loaded OpenBLAS whose thread count is above 1 is set to 1, and
    each count is put back on exit, also when the body raises.  On a
    2-vCPU host a GPLDA plus PDA fit and predict took 0.05 to 0.59 of its
    2-thread time at 1 thread for grids of p = 101 to 1600 (README, "BLAS
    threads").  The manager only lowers counts, never raises
    them, so it does nothing under ``OPENBLAS_NUM_THREADS=1``, and nested
    managers leave the restoring to the outermost one that lowered.  An
    OpenBLAS that SciPy loads during the body is lowered when it loads
    and restored by the outermost manager.
    Without ``/proc`` or without OpenBLAS it does nothing.

    The count is process-global while the manager is active: BLAS calls
    that other Python threads make meanwhile also run on one thread, and
    when managers in two Python threads overlap, the first to exit
    restores the count for both.  Either way only speed changes; as with
    any change of BLAS thread count, results may differ in the last bits.
    """
    lowered = []
    _active_blocks.append(lowered)
    try:
        _lower_to_one_thread(lowered)
        yield
    finally:
        _active_blocks[:] = [block for block in _active_blocks if block is not lowered]
        for set_, count in reversed(lowered):
            set_(count)
