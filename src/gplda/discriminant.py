"""Discriminant directions, baseline classifiers, and prediction.

Every method here reduces to the same two-matrix eigenproblem: maximize
the between-class quadratic form against a within-class covariance
estimate, and every fit builds its model in ``_assemble``, which hands
``generalized_eig_top`` the centred class means as the between factor.
The methods differ only in how the class means and the within
covariance are estimated:

* ``gplda_directions`` uses the posterior estimates from the backfitting
  estimator.
* ``pda_fit`` uses observed class means and the pooled scatter plus a
  scaled roughness penalty.  Its ``PdaPath`` solves that within matrix
  through its Cholesky factor, or, at n < p with a positive weight and
  a penalty that carries its closed-form DCT-II basis, as a
  ``WoodburyForm`` in that basis with no p x p factor.
* ``mle_lda_fit`` uses observed class means and the pooled scatter alone
  (optionally ridge-stabilized).
* ``pca_lda_fit`` first projects onto leading principal components, then
  applies ``mle_lda_fit`` in the reduced space.

Prediction assigns the nearest projected centroid; because directions are
normalized against the within covariance, Euclidean distance in the
projected space is the within-covariance distance in the original space.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .exceptions import DimensionError, ValidationError
from .linalg import Gram, SmoothingPenalty, blas_threads_for, generalized_eig_top
from .model import (
    FitConfig,
    HyperParams,
    LabeledFunctionalDataset,
    PosteriorState,
    WithinCovariance,
    WoodburyForm,
    check_finite_rows,
    pooled_within_scatter,
)

METHOD_GPLDA = "GPLDA"
METHOD_PDA = "PDA"
METHOD_MLE_LDA = "MLE_LDA"
METHOD_PCA_LDA = "PCA_LDA"


@dataclass(frozen=True, eq=False)
class DiscriminantModel:
    """A fitted linear discriminant.

    Attributes
    ----------
    method_tag : str
        One of ``"GPLDA"``, ``"PDA"``, ``"MLE_LDA"``, ``"PCA_LDA"``.
    directions : ndarray of shape (k, p)
        Discriminant directions, rows normalized so the within-covariance
        quadratic form of each is 1.
    projected_centroids : ndarray of shape (c, k)
        Class mean projections onto the directions.
    class_labels : tuple
        Original label values, position i holding the value of class i+1.
    within_cov_used : ndarray of shape (p, p), WithinCovariance, optional
        The within-covariance estimate the directions were normalized
        against: a matrix for the baselines, and for GPLDA the fit's
        ``WithinCovariance`` operator, whose matrix ``np.asarray`` gives.
        Absent on models restored from disk.
    eigenvalues : ndarray of shape (k,), optional
        Separation ratios of the directions, descending.
    penalty : str, optional
        Descriptor of the roughness penalty involved in the fit, if any.
    warnings : tuple of str
        Notes recorded during fitting, e.g. a clamped direction count.
    """

    method_tag: str
    directions: np.ndarray
    projected_centroids: np.ndarray
    class_labels: tuple
    within_cov_used: np.ndarray | WithinCovariance | None = None
    eigenvalues: np.ndarray | None = None
    penalty: str | None = None
    warnings: tuple[str, ...] = ()

    @property
    def k(self) -> int:
        return self.directions.shape[0]

    @property
    def p(self) -> int:
        return self.directions.shape[1]


def between_covariance(mu: np.ndarray) -> np.ndarray:
    """Scatter of class means around their unweighted average.

    Parameters
    ----------
    mu : ndarray of shape (c, p)
        One mean curve per class, c >= 2.

    Returns
    -------
    ndarray of shape (p, p)
        Sum over classes of the outer product of each centered mean; rank
        at most c - 1.
    """
    centered = _centred_means(mu)
    return centered.T @ centered


def _centred_means(mu: np.ndarray) -> np.ndarray:
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 2 or mu.shape[0] < 2:
        raise ValidationError(
            f"between-class covariance needs at least 2 class means, got shape {mu.shape}"
        )
    return mu - mu.mean(axis=0)


def _resolve_k(k: int | None, c: int, p: int) -> tuple[int, tuple[str, ...]]:
    limit = min(c - 1, p)
    if k is None:
        return limit, ()
    if k < 1:
        raise ValidationError(f"k must be at least 1, got {k}")
    if k > limit:
        return limit, (
            f"requested k={k} exceeds the identifiable maximum {limit}; clamped",
        )
    return k, ()


def _assemble(
    method_tag: str,
    mu: np.ndarray,
    within: np.ndarray | WithinCovariance,
    class_labels: tuple,
    k: int | None,
    penalty_descriptor: str | None = None,
    between: Gram | None = None,
    solve_with: WithinCovariance | None = None,
) -> DiscriminantModel:
    """The one model builder: solve for the directions with the centred
    class means as the between factor (``between``, when the caller
    already holds it) and project the class means onto them.  The
    solve is against ``solve_with`` when given, an operator for the
    matrix ``within``, and against ``within`` otherwise."""
    c, p = mu.shape
    k_used, warnings = _resolve_k(k, c, p)
    if between is None:
        between = Gram(_centred_means(mu).T)
    eigenvalues, directions = generalized_eig_top(
        between, within if solve_with is None else solve_with, k_used
    )
    return DiscriminantModel(
        method_tag=method_tag,
        directions=directions,
        projected_centroids=mu @ directions.T,
        class_labels=class_labels,
        within_cov_used=within,
        eigenvalues=eigenvalues,
        penalty=penalty_descriptor,
        warnings=warnings,
    )


def gplda_directions(
    state: PosteriorState,
    class_labels: tuple,
    k: int | None = None,
    penalty_descriptor: str | None = None,
) -> DiscriminantModel:
    """Discriminant directions from a fitted posterior state.

    The solver gets ``state.sigma_w`` itself, in either form, and takes
    the route of every fit: one solve of the c centred class means
    against Sigma_w and a c x c eigenproblem, here with no p x p matrix
    or factor (the Cholesky form reuses the factor its ``log_det``
    cached).  With c = 2 the direction is Sigma_w^-1 (mu_1 - mu_2), scaled.  The model's
    ``within_cov_used`` is that operator.

    Parameters
    ----------
    state : PosteriorState
        Estimates from the backfitting fit; class means and within
        covariance are taken from it.
    class_labels : tuple
        Original label values in class-index order.
    k : int, optional
        Number of directions; defaults to c - 1 and is clamped to the
        identifiable maximum with a recorded warning.
    """
    if len(class_labels) != state.mu.shape[0]:
        raise DimensionError(
            f"{len(class_labels)} class labels for {state.mu.shape[0]} mean curves"
        )
    with blas_threads_for():
        return _assemble(
            METHOD_GPLDA,
            state.mu,
            state.sigma_w,
            tuple(class_labels),
            k,
            penalty_descriptor=penalty_descriptor,
        )


def gplda_fit(
    data: LabeledFunctionalDataset,
    hyper: HyperParams | None = None,
    config: FitConfig | None = None,
    k: int | None = None,
):
    """Run the backfitting estimator and extract discriminant directions.

    Returns
    -------
    (DiscriminantModel, FitTrace)
    """
    from .estimator import fit

    config = config if config is not None else FitConfig.default(data.p)
    state, trace = fit(data, hyper=hyper, config=config)
    model = gplda_directions(
        state, data.label_names, k, penalty_descriptor=config.penalty.descriptor
    )
    return model, trace


def pda_fit(
    data: LabeledFunctionalDataset,
    penalty: SmoothingPenalty,
    alpha: float,
    k: int | None = None,
) -> DiscriminantModel:
    """Penalized discriminant baseline.

    Uses observed class means and the pooled within-class scatter plus
    ``alpha`` times the penalty as the within covariance.

    Parameters
    ----------
    alpha : float
        Non-negative penalty weight; 0 recovers the plain pooled-scatter
        discriminant.

    Needs curves from which a within-class covariance is estimable
    (``check_within_estimable``), as every fit does.  ``PdaPath`` does
    not check this, so a cross-validation fold too small to fit scores 1.
    """
    data.check_within_estimable()
    with blas_threads_for():
        return PdaPath.of(data, penalty).fit(alpha, k)


@dataclass(frozen=True, eq=False)
class PdaPath:
    """``pda_fit`` at many penalty weights on one dataset.

    Holds what does not depend on alpha: the class means, the pooled
    scatter, and the centred class means as the between factor, whose
    norm is computed once.  When n < p and the penalty has its closed-form
    basis, it also holds the centred curves over sqrt(n), R with
    R^T R = scatter, and R rotated into that basis once.  Each ``fit``
    then solves the c centred means against the within matrix: through
    a ``WoodburyForm`` with eps = 0 (n x n capacitance, no p x p factor)
    when it holds R and alpha > 0, through one Cholesky factor of the
    matrix otherwise.  Callers hold the one-thread BLAS policy themselves.
    """

    mu: np.ndarray
    scatter: np.ndarray
    between: Gram
    penalty: SmoothingPenalty
    class_labels: tuple
    low_rank: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def of(cls, data: LabeledFunctionalDataset, penalty: SmoothingPenalty) -> "PdaPath":
        penalty.check_grid(data.p)
        mu = data.class_means()
        low_rank = None
        if data.n < data.p and penalty.closed_basis:
            root = (data.y - mu[data.labels - 1]) / np.sqrt(data.n)
            low_rank = (root, penalty.basis.rotate(root))
        return cls(
            mu=mu,
            scatter=pooled_within_scatter(data.y, data.labels, mu),
            between=Gram(_centred_means(mu).T),
            penalty=penalty,
            class_labels=data.label_names,
            low_rank=low_rank,
        )

    def fit(self, alpha: float, k: int | None = None) -> DiscriminantModel:
        """The PDA model at weight ``alpha``: the within matrix is the
        pooled scatter plus ``alpha`` times the penalty, and it is the
        model's ``within_cov_used`` on either route."""
        if not (np.isfinite(alpha) and alpha >= 0):
            raise ValidationError(f"alpha must be finite and non-negative, got {alpha}")
        within = self.penalty.add_to(self.scatter.copy(), alpha)
        solve_with = None
        if self.low_rank is not None and alpha > 0:
            root, rotated = self.low_rank
            solve_with = WoodburyForm(root, alpha, 0.0, self.penalty, rotated=rotated)
        return _assemble(
            METHOD_PDA, self.mu, within, self.class_labels, k,
            penalty_descriptor=self.penalty.descriptor, between=self.between,
            solve_with=solve_with,
        )


def mle_lda_fit(
    data: LabeledFunctionalDataset,
    k: int | None = None,
    ridge: float | None = None,
) -> DiscriminantModel:
    """Plain pooled-covariance discriminant.

    Parameters
    ----------
    ridge : float, optional
        Diagonal stabilizer added to the pooled scatter.  When omitted it
        defaults to 0 for n > p and to 1e-6 times the mean diagonal for
        p >= n, where the pooled scatter is singular.
    """
    data.check_within_estimable()
    with blas_threads_for():
        mu = data.class_means()
        within = pooled_within_scatter(data.y, data.labels, mu)
        if ridge is None:
            ridge = 0.0 if data.n > data.p else 1e-6 * float(np.trace(within)) / data.p
        if not (np.isfinite(ridge) and ridge >= 0):
            raise ValidationError(f"ridge must be finite and non-negative, got {ridge}")
        if ridge > 0:
            within = within + ridge * np.eye(data.p)
        return _assemble(METHOD_MLE_LDA, mu, within, data.label_names, k)


def pca_lda_fit(
    data: LabeledFunctionalDataset,
    q: int,
    k: int | None = None,
    ridge: float | None = None,
) -> DiscriminantModel:
    """Principal components followed by the pooled-covariance discriminant.

    Projects the curves onto the top ``q`` eigenvectors of the total
    covariance (the leading right singular vectors of the centred curves,
    from a thin SVD), runs ``mle_lda_fit`` in the reduced space, and
    composes the result back to curve space.

    Parameters
    ----------
    q : int
        Number of components, 1 <= q <= min(n, p).
    """
    if not 1 <= q <= min(data.n, data.p):
        raise ValidationError(
            f"q={q} is outside the valid range 1..{min(data.n, data.p)}"
        )
    with blas_threads_for():
        centered = data.y - data.y.mean(axis=0)
        components = np.linalg.svd(centered, full_matrices=False)[2][:q].T
        reduced = LabeledFunctionalDataset(
            y=data.y @ components, labels=data.labels, label_names=data.label_names
        )
        submodel = mle_lda_fit(reduced, k=k, ridge=ridge)
        directions = submodel.directions @ components.T
        within = components @ submodel.within_cov_used @ components.T
        return replace(
            submodel, method_tag=METHOD_PCA_LDA, directions=directions, within_cov_used=within
        )


def predict(model: DiscriminantModel, x_new: np.ndarray):
    """Assign the nearest-projected-centroid class.

    Parameters
    ----------
    x_new : ndarray of shape (p,) or (m, p)
        One curve or a batch of curves.

    Returns
    -------
    label or ndarray of labels
        Original label values; ties resolve to the lowest class index.

    Raises
    ------
    DimensionError
        If the curves are not on the model's grid.
    ValidationError
        If a curve holds a NaN or an infinity, naming its row (from 1; a
        single curve is row 1).  The k projections are checked first,
        and the curves are read only when one of them is not finite.
    """
    with blas_threads_for():
        x_new = np.asarray(x_new, dtype=float)
        single = x_new.ndim == 1
        batch = x_new[None, :] if single else x_new
        if batch.ndim != 2 or batch.shape[1] != model.p:
            raise DimensionError(
                f"input of shape {x_new.shape} does not match grid length {model.p}"
            )
        projected = batch @ model.directions.T
        if not np.isfinite(projected).all():
            check_finite_rows(batch)
        deltas = projected[:, None, :] - model.projected_centroids[None, :, :]
        distances = np.sum(deltas * deltas, axis=2)
        indices = np.argmin(distances, axis=1)
        labels = np.asarray(model.class_labels)[indices]
        return labels[0] if single else labels


def error_rate(predicted, truth) -> float:
    """Fraction of mismatched labels between two equal-length sequences."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape:
        raise ValidationError(
            f"predicted labels have shape {predicted.shape}, truth {truth.shape}"
        )
    if predicted.size == 0:
        raise ValidationError("cannot compute an error rate over zero labels")
    return float(np.mean(predicted != truth))
