"""Core data model: labeled curves, hyperparameters, posterior state, and
the joint log-posterior objective.

The observation model treats each recorded curve as a noisy version of a
smooth latent curve drawn around its class mean, with a shared within-class
covariance.  Smoothness enters through a roughness penalty matrix that
plays the role of a prior precision pattern for the class means and of a
prior scale pattern for the within-class covariance.  The three precision
scalars carry gamma hyperpriors.

``log_posterior`` evaluates twice the unnormalized joint log-density of
all unknowns given the observations, with the additive constant fixed to
zero.  All block updates in the estimator maximize exactly this quantity
one block at a time.  It has no upper bound (see ``estimator.fit``).
It and ``estimator.first_order_residuals`` check a state and take the
pieces they share (y - x, the centred latent curves and their Sigma_w
solve, the class means' penalty quadratic) from one evaluation.

Every within-class covariance value is read through one operator,
``WithinCovariance``, in one of two forms.  The covariance update is
rho S + beta Omega + eps I, with S the scatter of n latent curves.  In
the penalty's eigenbasis that is a positive diagonal plus a term of rank
at most n, so when n < p the ``WoodburyForm`` works with n x n
capacitance matrices: O(p n^2) per operation plus the rotation of n
rows into the basis, O(n p log p) for the DCT-II bases and nothing for
the identity basis of a penalty written in its own eigenbasis, where
``estimator.fit`` sweeps.  The ``CholeskyForm`` factors the dense p x p
matrix: it serves n >= p and, in the backfit, a diagonal with a zero
(no jitter on a singular penalty).  ``estimator.update_sigma_w`` picks
the form and the jitter.  Each form implements one shifted solve, and
``solve`` and ``blend`` are written once on top of it.  PDA's within
matrix, scatter plus alpha Omega, is a ``WoodburyForm`` with zeros on
the penalty's null modes, which its unshifted solve eliminates.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .exceptions import (
    DimensionError,
    HyperParameterError,
    SingularMatrixError,
    ValidationError,
)
from .linalg import (
    FIRST_DIFF, SmoothingPenalty, blas_threads_for, build_penalty, cholesky_factor, frobenius_norm,
    scipy_linalg, spd_solve,
)

# A mode whose d lies below this fraction of the median d is a heavy row
# of ``WoodburyForm.gradient_norm``: its row of the gradient is formed
# whole, since in the Gram sum its diagonal term would cancel the rest.
_HEAVY_MODE = 1e-2


@dataclass(frozen=True, eq=False)
class LabeledFunctionalDataset:
    """Curves sampled on a common grid with class labels.

    Construction checks the invariants every fit relies on and raises
    ``ValidationError`` otherwise: ``y`` is 2-D with at least one curve
    and at least one value per curve, there is one label per curve, every
    value is finite and every label is a class index in 1..c (the first
    bad row is named, counting from 1).  Whether a within-class
    covariance is estimable is not checked here:
    ``check_within_estimable`` is a fit-time rule, since a test set may
    hold fewer curves, or curves without within-class variation.

    Attributes
    ----------
    y : ndarray of shape (n, p)
        One row per observed curve.
    labels : ndarray of shape (n,)
        Integer class indices in 1..c, in order of first appearance of the
        original label values.
    label_names : tuple
        Original label values; ``label_names[i - 1]`` is the value mapped
        to class index i.
    """

    y: np.ndarray
    labels: np.ndarray
    label_names: tuple

    def __post_init__(self):
        if self.y.ndim != 2:
            raise ValidationError(
                f"y must be a 2-D array with one curve per row, got shape {self.y.shape}"
            )
        if len(self.labels) != self.n:
            raise ValidationError(f"{self.n} value rows but {len(self.labels)} labels")
        if self.n == 0:
            raise ValidationError("dataset is empty")
        if self.p == 0:
            raise ValidationError("rows must contain at least one value")
        check_finite_rows(self.y)
        # i is the first row whose label is outside 1..c, or row 0 if none is
        i = int(np.argmax((self.labels < 1) | (self.labels > self.c)))
        if not 1 <= self.labels[i] <= self.c:
            raise ValidationError(f"row {i + 1} has label {self.labels[i]}, outside 1..{self.c}")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.y.shape[1]

    @property
    def c(self) -> int:
        return len(self.label_names)

    @property
    def class_counts(self) -> np.ndarray:
        """Number of curves per class, shape (c,)."""
        return np.bincount(self.labels, minlength=self.c + 1)[1:]

    def class_rows(self, index: int) -> np.ndarray:
        """Row positions of class ``index`` (1-based class indexing)."""
        return np.flatnonzero(self.labels == index)

    def class_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-class sums of the rows of ``values``, shape (c, p), each
        adding its class's rows in order.  ``values`` holds one row per
        curve, in the order of ``y``."""
        sums = np.zeros((self.c, values.shape[1]))
        for i in range(1, self.c + 1):
            sums[i - 1] = values[self.labels == i].sum(axis=0)
        return sums

    def class_means(self, values: np.ndarray | None = None) -> np.ndarray:
        """Per-class averages of the rows of ``values``, shape (c, p).

        ``values`` holds one row per curve, in the order of ``y``, and
        defaults to ``y`` itself, which gives the observed class means.
        """
        values = self.y if values is None else values
        return self.class_sums(values) / self.class_counts[:, None]

    def check_within_estimable(self) -> float:
        """Raise ``ValidationError`` unless a within-class covariance is
        estimable from these curves: every class must have a curve, there
        must be at least c + 1 curves, and some curve must differ from its
        class mean by more than rounding.  Every fit calls this before it
        factors a within matrix.

        Returns the within-class sum of squares, the sum over curves of
        the squared distances to their class means."""
        counts = self.class_counts
        if not counts.all():
            name = self.label_names[int(np.argmin(counts))]
            raise ValidationError(f"class {name!r} has no curves")
        if self.n < self.c + 1:
            raise ValidationError(
                f"need at least c + 1 = {self.c + 1} curves, more curves than classes, to "
                f"estimate a within-class covariance over {self.c} classes, got n={self.n}"
            )
        centered = self.y - self.class_means()[self.labels - 1]
        within = float(np.sum(centered**2))
        # The class means carry a rounding error of up to about n ulps, so
        # variation below that cannot be told from none.
        if within <= (self.n * np.finfo(float).eps) ** 2 * np.sum(self.y**2):
            raise ValidationError("no within-class variation: every curve equals its class mean")
        return within


def check_finite_rows(values: np.ndarray) -> None:
    """Raise ``ValidationError`` naming the first row of the 2-D array
    ``values``, counting from 1, that holds a NaN or an infinity."""
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise ValidationError(f"row {int(np.argmin(finite)) + 1} contains a non-finite value")


def validate_dataset(rows, labels) -> LabeledFunctionalDataset:
    """Build a training dataset from raw curves and labels.

    Checks what needs the raw rows, that every row has as many values as
    the first (rows numbered from 1 in error messages, as the CSV reader
    numbers data rows), remaps labels to 1..c in order of first
    appearance, and refuses curves from which no within-class covariance
    is estimable (``check_within_estimable``: fewer than c + 1 curves, or
    every curve equal to its class mean).  The dataset's own
    construction checks the rest (one label per row, no empty dataset or
    row, finite values).

    Parameters
    ----------
    rows : sequence of sequences of float
        Observed curves, one inner sequence per curve.
    labels : sequence
        Class label of each curve; any hashable values.

    Returns
    -------
    LabeledFunctionalDataset
    """
    rows = list(rows)
    labels = list(labels)
    width = len(rows[0]) if rows else 0
    for i, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ValidationError(f"row {i} has {len(row)} values, expected {width}")
    y = np.asarray(rows, dtype=float).reshape(len(rows), width)
    name_to_index: dict = {}
    mapped = np.zeros(len(labels), dtype=int)
    for i, name in enumerate(labels):
        if name not in name_to_index:
            name_to_index[name] = len(name_to_index) + 1
        mapped[i] = name_to_index[name]
    data = LabeledFunctionalDataset(y=y, labels=mapped, label_names=tuple(name_to_index))
    data.check_within_estimable()
    return data


@dataclass(frozen=True)
class HyperParams:
    """Gamma hyperprior constants and the prior degrees-of-freedom offset.

    ``(a1, b1)`` govern the class-mean precision scalar, ``(a2, b2)`` the
    covariance scale scalar, and ``(a3, b3)`` the noise precision.  The
    inverse-Wishart degrees of freedom are ``delta + p - 1`` on a grid of
    length p.  ``b3`` may be zero as a boundary test value; the remaining
    constants must be strictly positive.
    """

    a1: float = 1.0
    b1: float = 20.0
    a2: float = 1.0
    b2: float = 100.0
    a3: float = 1.0
    b3: float = 1e-3
    delta: float = 2.0

    def __post_init__(self):
        for name in ("a1", "b1", "a2", "b2", "a3", "delta"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise HyperParameterError(f"{name} must be strictly positive, got {value}")
        if not (np.isfinite(self.b3) and self.b3 >= 0):
            raise HyperParameterError(f"b3 must be non-negative, got {self.b3}")

    def nu(self, p: int) -> float:
        """Inverse-Wishart degrees of freedom on a grid of length p."""
        return self.delta + p - 1


@dataclass(frozen=True, eq=False)
class PosteriorState:
    """One point in the space of unknowns.

    Attributes
    ----------
    x : ndarray of shape (n, p)
        Latent smooth curves, one per observation.
    mu : ndarray of shape (c, p)
        Class mean curves.
    sigma_w : WithinCovariance
        Within-class covariance, symmetric positive definite, as an
        operator built on the fit's penalty (``np.asarray`` gives its
        matrix).  A p x p matrix enters as ``CholeskyForm(matrix,
        penalty)``.  ``fit`` returns the operator that its last sweep
        built.
    alpha1, alpha2 : float
        Precision scalars for the mean prior and the covariance scale.
    sigma2 : float
        Observation noise variance.
    """

    x: np.ndarray
    mu: np.ndarray
    sigma_w: WithinCovariance
    alpha1: float
    alpha2: float
    sigma2: float

    def is_finite(self) -> bool:
        """Whether every one of the six blocks holds only finite values."""
        return bool(np.all(np.isfinite((self.alpha1, self.alpha2, self.sigma2)))
                    and np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.mu))
                    and self.sigma_w.is_finite())

    def relative_change(self, old: "PosteriorState") -> float:
        """The largest relative change of a block from ``old``.

        A block's change is the norm of its difference divided by one plus
        the norm of its old value: the absolute value for the three
        scalars, the Frobenius norm for ``x`` and ``mu``, and the
        covariance's own ``relative_change`` for ``sigma_w``.
        """
        scalars = (abs(getattr(self, name) - getattr(old, name)) / (1.0 + abs(getattr(old, name)))
                   for name in ("alpha1", "alpha2", "sigma2"))
        arrays = (frobenius_norm(new - prev) / (1.0 + frobenius_norm(prev))
                  for new, prev in ((self.x, old.x), (self.mu, old.mu)))
        return max(*scalars, *arrays, self.sigma_w.relative_change(old.sigma_w))


class WithinCovariance:
    """One within-class covariance value S and the operations read from it.

    Rows are curves, and Omega is ``penalty.matrix``:

    - ``dense()``: the p x p matrix S;
    - ``log_det``, ``penalty_trace`` = tr(S^-1 Omega) and the Frobenius
      ``norm``, computed once (the low-rank form's ``norm`` forms no
      p x p matrix);
    - ``shifted_solve(rows, shift)``: ``rows @ inv(S + shift I)``, the one
      solve each form implements;
    - ``solve(rows)``: ``rows @ inv(S)``;
    - ``blend(y, m, shift)``: rows x solving (S + shift I) x = S y + shift m,
      taken as y - shift (S + shift I)^-1 (y - m);
    - ``smooth_means(xbar, scales)``: row i solves
      (I + scales[i] S Omega) mu_i = xbar[i];
    - ``gradient_norm(rows, solved, weight, count)``: the Frobenius norm
      of S^-1 (rows^T rows + weight Omega) S^-1 - count S^-1, given the
      rows and ``solved`` = ``solve(rows)``: the Cholesky form reads the
      rows, and the low-rank form the solved rows, whose norm it sums
      from 3n x 3n Grams in O(p n^2), forming no array larger than
      (p, 3n);
    - ``relative_change(old)``: ||S - old||_F / (1 + ||old||_F);
    - ``is_finite()``;
    - ``carried_to(penalty)``: the value on ``penalty``, a penalty with the
      same eigenvalues on another basis, that has in ``penalty``'s basis
      the coordinates S has in its own (``estimator.fit`` moves values in
      and out of the eigenbasis with it);
    - ``S - other``: the dense difference.

    Each value is built on one penalty, and ``check_penalty`` rejects
    any other.
    """

    penalty: SmoothingPenalty

    @property
    def shape(self) -> tuple[int, int]:
        return (self.p, self.p)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.dense(), dtype=dtype)

    def __sub__(self, other) -> np.ndarray:
        return self.dense() - np.asarray(other)

    def check_penalty(self, penalty: SmoothingPenalty) -> None:
        """Raise unless ``penalty`` is built for this grid and is the one
        this value was built on (``SmoothingPenalty.same_as``): the same
        object, a ``build_penalty`` penalty of the same kind and grid,
        or an equal matrix."""
        penalty.check_grid(self.p)
        if not penalty.same_as(self.penalty):
            raise ValidationError("sigma_w was built on a different penalty than the one given")

    @functools.cached_property
    def norm(self) -> float:
        return math.sqrt(self._squared_norm())

    def solve(self, rows: np.ndarray) -> np.ndarray:
        return self.shifted_solve(rows, 0.0)

    def blend(self, y: np.ndarray, m: np.ndarray, shift: float) -> np.ndarray:
        return y - shift * self.shifted_solve(y - m, shift)

    def relative_change(self, old: "WithinCovariance") -> float:
        return frobenius_norm(self.dense() - old.dense()) / (1.0 + frobenius_norm(old.dense()))


class CholeskyForm(WithinCovariance):
    """A dense Sigma_w and its Cholesky factor; operations cost up to O(p^3)."""

    def __init__(self, matrix: np.ndarray, penalty: SmoothingPenalty):
        self.matrix = matrix
        self.penalty = penalty
        self.p = matrix.shape[0]

    @functools.cached_property
    def factor(self):
        return cholesky_factor(self.matrix)

    @functools.cached_property
    def log_det(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self.factor[0]))))

    @functools.cached_property
    def penalty_trace(self) -> float:
        solved = scipy_linalg().cho_solve(self.factor, self.penalty.matrix, check_finite=False)
        return float(np.trace(solved))

    def dense(self) -> np.ndarray:
        return self.matrix

    def _squared_norm(self) -> float:
        return float(np.sum(self.matrix * self.matrix))

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.matrix)))

    def shifted_solve(self, rows, shift):
        if shift == 0:
            return scipy_linalg().cho_solve(self.factor, rows.T, check_finite=False).T
        shifted = self.matrix.copy()
        shifted[np.diag_indices(self.p)] += shift
        return spd_solve(shifted, rows.T).T

    def smooth_means(self, xbar, scales):
        smoothing = self.matrix @ self.penalty.matrix
        system = np.empty_like(smoothing)
        means = np.zeros_like(xbar)
        solve = scipy_linalg().solve
        for i, scale in enumerate(scales):
            # I + scale * smoothing, built in the one system array.
            np.multiply(scale, smoothing, out=system)
            system[np.diag_indices(self.p)] += 1.0
            try:
                means[i] = solve(system, xbar[i], check_finite=False)
            except np.linalg.LinAlgError as exc:
                raise SingularMatrixError(
                    f"mean smoothing system for class {i + 1} is singular: {exc}"
                ) from exc
        return means

    def gradient_norm(self, rows, solved, weight, count):
        inverse = scipy_linalg().cho_solve(self.factor, np.eye(self.p), check_finite=False)
        sandwich = inverse @ self.penalty.add_to(rows.T @ rows, weight) @ inverse
        return frobenius_norm(sandwich - count * inverse)

    def carried_to(self, penalty):
        def turn(rows):
            return penalty.basis.unrotate(self.penalty.basis.rotate(rows))

        matrix = turn(turn(self.matrix).T)
        return CholeskyForm(0.5 * (matrix + matrix.T), penalty)


def _halves(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of each value into a high part of 26 bits and the
    exact rest, so that the product of two halves is exact."""
    scaled = 134217729.0 * values  # 2**27 + 1
    high = scaled - (scaled - values)
    return high, values - high


def _exact_dot(a: np.ndarray, b: np.ndarray, start: float) -> float:
    """start + a . b, correctly rounded: each product a_i b_i as its
    rounded value plus its exact error, all summed by ``math.fsum``."""
    product = a * b
    (a_high, a_low), (b_high, b_low) = _halves(a), _halves(b)
    error = ((a_high * b_high - product) + a_high * b_low + a_low * b_high) + a_low * b_low
    return math.fsum((start, *product, *error))


class WoodburyForm(WithinCovariance):
    """Sigma_w = Q diag(d) Q^T + R^T R with d = beta lambda + eps >= 0.

    Q and lambda are the penalty's eigenbasis and eigenvalues, and R holds
    n < p rows; ``rotated`` is R~ = R Q, computed here unless the caller
    already holds it.  In the rotated basis every inverse is diag(1/d)
    less a rank-n correction through the n x n capacitance K = I + V R~^T,
    with V = R~ diag(1/d) (Woodbury identity), and
    log det Sigma_w = sum(log d) + log det K (determinant lemma).

    The backfit's values have d > 0.  PDA's within matrix, scatter plus
    alpha Omega, has eps = 0 and so d = 0 on the penalty's null modes N
    (the exact zeros of a closed-form basis); for it only ``solve``,
    ``norm`` and ``dense`` are defined.  Its solve eliminates the m = |N|
    null modes through the m x m Schur complement C = R~_N^T K^-1 R~_N,
    with K taken over the positive modes alone; a C that is not positive
    definite means Sigma_w is singular and raises ``SingularMatrixError``.
    """

    def __init__(self, root: np.ndarray, beta: float, eps: float, penalty: SmoothingPenalty,
                 rotated: np.ndarray | None = None):
        self.root = root
        self.beta = beta
        self.eps = eps
        self.penalty = penalty
        self.p = root.shape[1]
        self.basis = penalty.basis
        self.rotated = self.basis.rotate(root) if rotated is None else rotated
        self.d = beta * self.basis.eigenvalues + eps

    def _capacitance(self, diagonal: np.ndarray):
        # (V, K) for the diagonal; K = I + H H^T with H = R~ diag(d)^-1/2.
        root_d = np.sqrt(diagonal)
        half = self.rotated / root_d
        capacitance = half @ half.T
        capacitance[np.diag_indices_from(capacitance)] += 1.0
        return half / root_d, capacitance

    @functools.cached_property
    def _null(self) -> np.ndarray:
        return np.flatnonzero(self.d == 0)

    @functools.cached_property
    def _unshifted(self):
        # (diagonal, V, K).  A null mode enters as an infinite diagonal: a
        # zero column of V, and no part of K.
        diagonal = np.where(self.d > 0, self.d, np.inf)
        return diagonal, *self._capacitance(diagonal)

    @functools.cached_property
    def _null_elimination(self):
        # (K^-1 R~_N, Cholesky factor of C).
        columns = self.rotated[:, self._null]
        solved = spd_solve(self._unshifted[2], columns)
        return solved, cholesky_factor(columns.T @ solved)

    def _solve_rotated(self, rotated_rows, shift=0.0):
        if shift == 0:
            diagonal, scaled, capacitance = self._unshifted
        else:
            diagonal = self.d + shift
            scaled, capacitance = self._capacitance(diagonal)
        solved = rotated_rows / diagonal
        inner = spd_solve(capacitance, scaled @ rotated_rows.T)
        if shift == 0 and self._null.size:
            # x_N = C^-1 (b_N - R~_N^T K^-1 V b); x_P below then reads
            # K^-1 (V b + R~_N x_N) for K^-1 V b.  V's null columns are
            # zero, so the last step leaves x_N in place.
            null = self._null
            columns_solved, schur = self._null_elimination
            x_null = scipy_linalg().cho_solve(
                schur, rotated_rows[:, null].T - self.rotated[:, null].T @ inner,
                check_finite=False,
            )
            inner += columns_solved @ x_null
            solved[:, null] = x_null.T
        solved -= inner.T @ scaled
        return solved

    @functools.cached_property
    def log_det(self) -> float:
        factor = cholesky_factor(self._unshifted[2])[0]
        return float(np.sum(np.log(self.d))) + 2.0 * float(np.sum(np.log(np.diag(factor))))

    @functools.cached_property
    def penalty_trace(self) -> float:
        _, scaled, capacitance = self._unshifted
        lam = self.basis.eigenvalues
        inner = spd_solve(capacitance, (scaled * lam) @ scaled.T)
        return float(np.sum(lam / self.d)) - float(np.trace(inner))

    def dense(self) -> np.ndarray:
        # On one BLAS thread wherever it is called, ``np.asarray`` included,
        # so the matrix has the same bits inside and outside a fit.
        with blas_threads_for():
            matrix = self.penalty.add_to(self.root.T @ self.root, self.beta)
        matrix[np.diag_indices(self.p)] += self.eps
        return matrix

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.d)) and np.all(np.isfinite(self.root)))

    def shifted_solve(self, rows, shift):
        return self.basis.unrotate(self._solve_rotated(self.basis.rotate(rows), shift))

    def smooth_means(self, xbar, scales):
        # In the basis, (G + a R~^T R~ Lambda) m = xbar with G = 1 + a d lambda,
        # whose capacitance I + a R~ diag(lambda / G) R~^T is SPD.
        lam = self.basis.eigenvalues
        rotated = self.basis.rotate(xbar)
        means = np.empty_like(rotated)
        for i, scale in enumerate(scales):
            g = 1.0 + scale * self.d * lam
            base = rotated[i] / g
            capacitance = np.eye(self.rotated.shape[0]) + scale * (
                (self.rotated * (lam / g)) @ self.rotated.T
            )
            inner = spd_solve(capacitance, self.rotated @ (lam * base))
            means[i] = base - scale * (inner @ self.rotated) / g
        return self.basis.unrotate(means)

    def gradient_norm(self, rows, solved, weight, count):
        # With A = inv(Sigma_w) = diag(1/d) - V^T P in the basis, P = K^-1 V,
        # the gradient is G = diag(g) + E^T E + Z^T P + P^T Z = diag(g)
        # + L Pi L^T, where g = weight lambda / d^2 - count / d, E = rows~ A
        # (the solved rows, rotated), Z = count/2 V - weight V diag(lambda / d)
        # + 1/2 (weight V Lambda V^T) P, L = [E; Z; P]^T, p x 3n, and Pi
        # swaps the Z and P columns.  With delta_i = L_i . (Pi L_i), the
        # diagonal of L Pi L^T, the squared norm is sum_i (g_i + delta_i)^2
        # plus the off-diagonal mass <B, Pi B Pi> - sum_i delta_i^2 of the
        # 3n x 3n Gram B = L^T L: O(p n^2), no array larger than L.  That
        # difference cancels where a row's terms dwarf its entries of G (a
        # mode whose d lies far below the others, as a penalty null mode
        # that only the jitter holds up), so those heavy rows are formed
        # whole, at most 3n at a time, with each diagonal entry summed
        # exactly, and are left out of B.
        _, scaled, capacitance = self._unshifted
        lam = self.basis.eigenvalues
        projected = spd_solve(capacitance, scaled)
        solved = self.basis.rotate(solved)
        z = (
            (0.5 * count) * scaled
            - weight * scaled * (lam / self.d)
            + 0.5 * ((weight * (scaled * lam)) @ scaled.T) @ projected
        )
        g = weight * lam / self.d**2 - count / self.d
        left = np.concatenate((solved.T, z.T, projected.T), axis=1)
        m, k = len(solved), len(z)
        swap = np.r_[:m, m + k:m + 2 * k, m:m + k]
        del solved, z, projected
        heavy = np.flatnonzero(self.d < _HEAVY_MODE * np.median(self.d))
        total = 0.0
        for s in range(0, heavy.size, left.shape[1]):
            block = heavy[s:s + left.shape[1]]
            whole = left @ left[block][:, swap].T
            for column, row in enumerate(block):
                whole[row, column] = _exact_dot(left[row], left[row, swap], g[row])
            # Each heavy column counts twice, once more as a row, and the
            # heavy x heavy entries once.
            total += 2.0 * float(np.sum(whole * whole)) - float(np.sum(whole[heavy] ** 2))
        left[heavy] = 0.0
        g[heavy] = 0.0
        delta = (np.einsum("ij,ij->i", left[:, :m], left[:, :m])
                 + 2.0 * np.einsum("ij,ij->i", left[:, m:m + k], left[:, m + k:]))
        gram = left.T @ left
        total += float(np.sum((g + delta) ** 2)) + (
            float(np.sum(gram * gram[np.ix_(swap, swap)])) - float(np.sum(delta * delta)))
        return math.sqrt(max(total, 0.0))

    def _squared_norm(self) -> float:
        gram = self.rotated @ self.rotated.T
        return float(np.sum(self.d**2) + 2.0 * np.sum(self.d * np.sum(self.rotated**2, axis=0))
                     + np.sum(gram * gram))

    def relative_change(self, old):
        if not (isinstance(old, WoodburyForm) and old.basis is self.basis
                and old.rotated.shape == self.rotated.shape):
            return super().relative_change(old)
        # R_a^T R_a - R_b^T R_b = (P^T M + M^T P) / 2 with P = R_a + R_b and
        # M = R_a - R_b; built from these, the norm has no cancellation of
        # large terms when the two values are close.
        total = self.rotated + old.rotated
        diff = self.rotated - old.rotated
        step = self.d - old.d
        mixed = diff @ total.T
        low_rank = 0.5 * (np.sum((total @ total.T) * (diff @ diff.T)) + np.sum(mixed * mixed.T))
        squared = (np.sum(step**2) + 2.0 * np.sum(step * np.sum(total * diff, axis=0))
                   + low_rank)
        return math.sqrt(max(squared, 0.0)) / (1.0 + old.norm)

    def carried_to(self, penalty):
        return WoodburyForm(penalty.basis.unrotate(self.rotated), self.beta, self.eps, penalty,
                            rotated=self.rotated)


@dataclass(frozen=True, eq=False)
class FitConfig:
    """Settings for the backfitting estimator.

    ``penalty`` must match the grid length of the data.  ``rel_tol`` is
    compared against the largest per-block relative change in a sweep,
    where the relative change of a block is its norm change divided by one
    plus the block norm.  ``max_sweeps`` must be a non-negative integer,
    and ``rel_tol`` and ``jitter_scale`` finite and non-negative.
    """

    penalty: SmoothingPenalty
    max_sweeps: int = 500
    rel_tol: float = 1e-6
    jitter_scale: float = 1e-8

    def __post_init__(self):
        sweeps = self.max_sweeps
        if isinstance(sweeps, bool) or not (isinstance(sweeps, (int, np.integer)) and sweeps >= 0):
            raise ValidationError(f"max_sweeps must be a non-negative integer, got {sweeps!r}")
        for name in ("rel_tol", "jitter_scale"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and np.isfinite(value) and value >= 0):
                raise ValidationError(f"{name} must be finite and non-negative, got {value!r}")

    @classmethod
    def default(cls, p: int) -> "FitConfig":
        """The default settings on a p-point grid: a first-difference penalty."""
        return cls(penalty=build_penalty(FIRST_DIFF, p))


@dataclass(frozen=True)
class LogPosteriorTerms:
    """Additive decomposition of twice the joint log-posterior.

    The eight terms mirror the factorization of the joint density:
    observation likelihood, latent-curve likelihood, the two structural
    priors, the three gamma hyperpriors, and the constant (fixed to zero).
    ``data_fidelity`` is the quadratic part of ``obs_loglik`` alone and is
    provided for diagnostics; it is not an extra addend.
    """

    obs_loglik: float
    latent_loglik: float
    mean_prior: float
    cov_prior: float
    alpha1_prior: float
    alpha2_prior: float
    noise_precision_prior: float
    constant: float
    data_fidelity: float

    def total(self) -> float:
        total = 0.0
        for f in fields(self):
            if f.name != "data_fidelity":
                total += getattr(self, f.name)
        return total


def check_within(sigma_w, penalty: SmoothingPenalty | None = None) -> None:
    """Raise ``ValidationError`` unless ``sigma_w`` is a ``WithinCovariance``
    and, when ``penalty`` is given, one built on it (``check_penalty``)."""
    if not isinstance(sigma_w, WithinCovariance):
        raise ValidationError(
            f"sigma_w must be a WithinCovariance, got {type(sigma_w).__name__}; "
            "wrap a matrix in CholeskyForm(matrix, penalty)"
        )
    if penalty is not None:
        sigma_w.check_penalty(penalty)


def check_state(
    state: PosteriorState, data: LabeledFunctionalDataset, penalty: SmoothingPenalty
) -> None:
    """Raise unless ``state`` fits the data's shapes, its covariance is a
    ``WithinCovariance`` built on ``penalty`` and its scalars are positive."""
    n, p, c = data.n, data.p, data.c
    check_within(state.sigma_w)
    if state.x.shape != (n, p):
        raise DimensionError(f"x has shape {state.x.shape}, expected {(n, p)}")
    if state.mu.shape != (c, p):
        raise DimensionError(f"mu has shape {state.mu.shape}, expected {(c, p)}")
    if state.sigma_w.shape != (p, p):
        raise DimensionError(f"sigma_w has shape {state.sigma_w.shape}, expected {(p, p)}")
    state.sigma_w.check_penalty(penalty)
    for name in ("alpha1", "alpha2", "sigma2"):
        value = getattr(state, name)
        if not (np.isfinite(value) and value > 0):
            raise ValidationError(f"state.{name} must be strictly positive, got {value}")


def _state_terms(
    state: PosteriorState, data: LabeledFunctionalDataset, penalty: SmoothingPenalty
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Check ``state`` against the data and the penalty, and return the
    pieces the objective and its gradients share: y - x, the latent curves
    centred at their class means, those rows solved against Sigma_w, and
    the class means' penalty quadratic sum_i mu_i^T Omega mu_i.  A caller
    that evaluates both at one state (``estimator.fit`` at its last)
    hands them to each as ``shared``, so the state is solved once."""
    check_state(state, data, penalty)
    centered = state.x - state.mu[data.labels - 1]
    mean_quad = float(np.sum(state.mu * penalty.apply(state.mu)))
    return data.y - state.x, centered, state.sigma_w.solve(centered), mean_quad


def log_posterior_terms(
    state: PosteriorState,
    data: LabeledFunctionalDataset,
    hyper: HyperParams,
    penalty: SmoothingPenalty,
    shared: tuple | None = None,
) -> LogPosteriorTerms:
    """Evaluate the additive terms of twice the joint log-posterior.

    ``shared``, when given, is the state's ``_state_terms``, already
    checked and computed by the caller.

    Returns
    -------
    LogPosteriorTerms
        Terms summing (via ``total``) to the objective ascended by the
        backfitting estimator.
    """
    resid_y, centered, solved, mean_quad = shared or _state_terms(state, data, penalty)
    n, p, c = data.n, data.p, data.c
    within = state.sigma_w
    logdet_sw = within.log_det
    log_noise_prec = -math.log(state.sigma2)

    data_fidelity = -float(np.sum(resid_y * resid_y)) / state.sigma2
    obs_loglik = data_fidelity + n * p * log_noise_prec

    latent_quad = float(np.sum(centered * solved))
    latent_loglik = -latent_quad - n * logdet_sw

    mean_prior = -state.alpha1 * mean_quad + c * math.log(state.alpha1)

    trace_term = within.penalty_trace
    nu = hyper.nu(p)
    cov_prior = (
        -state.alpha2 * trace_term
        + p * math.log(state.alpha2)
        - (nu + p + 1) * logdet_sw
    )

    alpha1_prior = 2.0 * (hyper.a1 - 1.0) * math.log(state.alpha1) - 2.0 * hyper.b1 * state.alpha1
    alpha2_prior = 2.0 * (hyper.a2 - 1.0) * math.log(state.alpha2) - 2.0 * hyper.b2 * state.alpha2
    noise_precision_prior = (
        2.0 * (hyper.a3 - 1.0) * log_noise_prec - 2.0 * hyper.b3 / state.sigma2
    )

    return LogPosteriorTerms(
        obs_loglik=obs_loglik,
        latent_loglik=latent_loglik,
        mean_prior=mean_prior,
        cov_prior=cov_prior,
        alpha1_prior=alpha1_prior,
        alpha2_prior=alpha2_prior,
        noise_precision_prior=noise_precision_prior,
        constant=0.0,
        data_fidelity=data_fidelity,
    )


def log_posterior(
    state: PosteriorState,
    data: LabeledFunctionalDataset,
    hyper: HyperParams,
    penalty: SmoothingPenalty,
    shared: tuple | None = None,
) -> float:
    """Twice the unnormalized joint log-posterior at ``state``
    (``shared`` as in ``log_posterior_terms``)."""
    return log_posterior_terms(state, data, hyper, penalty, shared).total()


def pooled_within_scatter(
    values: np.ndarray, labels: np.ndarray, means: np.ndarray
) -> np.ndarray:
    """Average outer product of rows centered at their class means.

    Returns the p-by-p matrix (1/n) * sum_i (v_i - m_{label_i}) outer
    itself, the natural scatter scale for all covariance estimates here.
    """
    centered = values - means[labels - 1]
    scatter = centered.T @ centered
    scatter /= values.shape[0]
    return scatter
