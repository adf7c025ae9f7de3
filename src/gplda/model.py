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
one block at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
import scipy.linalg

from .exceptions import DimensionError, HyperParameterError, ValidationError
from .linalg import SmoothingPenalty, cholesky_factor


@dataclass(frozen=True, eq=False)
class LabeledFunctionalDataset:
    """Curves sampled on a common grid with class labels.

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

    def class_means(self) -> np.ndarray:
        """Per-class mean curves, shape (c, p)."""
        means = np.zeros((self.c, self.p))
        for i in range(1, self.c + 1):
            means[i - 1] = self.y[self.labels == i].mean(axis=0)
        return means


def validate_dataset(rows, labels) -> LabeledFunctionalDataset:
    """Validate raw curves and labels and build a dataset.

    Checks rectangularity and finiteness of the value rows, remaps labels
    to 1..c in order of first appearance, and requires at least c + 1
    curves so that a within-class covariance is estimable.

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
    if len(rows) != len(labels):
        raise ValidationError(
            f"{len(rows)} value rows but {len(labels)} labels"
        )
    if not rows:
        raise ValidationError("dataset is empty")
    expected = len(rows[0])
    if expected < 1:
        raise ValidationError("rows must contain at least one value")
    for i, row in enumerate(rows):
        if len(row) != expected:
            raise ValidationError(
                f"row {i} has {len(row)} values, expected {expected}"
            )
    y = np.asarray(rows, dtype=float)
    finite = np.isfinite(y).all(axis=1)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise ValidationError(f"row {bad} contains a non-finite value")
    name_to_index: dict = {}
    mapped = np.zeros(len(labels), dtype=int)
    for i, name in enumerate(labels):
        if name not in name_to_index:
            name_to_index[name] = len(name_to_index) + 1
        mapped[i] = name_to_index[name]
    c = len(name_to_index)
    n = y.shape[0]
    if n < c + 1:
        raise ValidationError(
            f"need at least c + 1 = {c + 1} curves to estimate a within-class "
            f"covariance over {c} classes, got n={n}"
        )
    return LabeledFunctionalDataset(
        y=y, labels=mapped, label_names=tuple(name_to_index)
    )


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
    sigma_w : ndarray of shape (p, p)
        Within-class covariance, symmetric positive definite.
    alpha1, alpha2 : float
        Precision scalars for the mean prior and the covariance scale.
    sigma2 : float
        Observation noise variance.
    """

    x: np.ndarray
    mu: np.ndarray
    sigma_w: np.ndarray
    alpha1: float
    alpha2: float
    sigma2: float


@dataclass(frozen=True, eq=False)
class FitConfig:
    """Settings for the backfitting estimator.

    ``penalty`` must match the grid length of the data.  ``rel_tol`` is
    compared against the largest per-block relative change in a sweep,
    where the relative change of a block is its norm change divided by one
    plus the block norm.
    """

    penalty: SmoothingPenalty
    max_sweeps: int = 500
    rel_tol: float = 1e-6
    jitter_scale: float = 1e-8


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


def _check_state_shapes(
    state: PosteriorState, data: LabeledFunctionalDataset, penalty: SmoothingPenalty
) -> None:
    n, p, c = data.n, data.p, data.c
    if state.x.shape != (n, p):
        raise DimensionError(f"x has shape {state.x.shape}, expected {(n, p)}")
    if state.mu.shape != (c, p):
        raise DimensionError(f"mu has shape {state.mu.shape}, expected {(c, p)}")
    if state.sigma_w.shape != (p, p):
        raise DimensionError(
            f"sigma_w has shape {state.sigma_w.shape}, expected {(p, p)}"
        )
    if penalty.p != p:
        raise DimensionError(
            f"penalty is built for grid length {penalty.p}, data has p={p}"
        )
    for name in ("alpha1", "alpha2", "sigma2"):
        value = getattr(state, name)
        if not (np.isfinite(value) and value > 0):
            raise ValidationError(f"state.{name} must be strictly positive, got {value}")


def log_posterior_terms(
    state: PosteriorState,
    data: LabeledFunctionalDataset,
    hyper: HyperParams,
    penalty: SmoothingPenalty,
) -> LogPosteriorTerms:
    """Evaluate the additive terms of twice the joint log-posterior.

    Returns
    -------
    LogPosteriorTerms
        Terms summing (via ``total``) to the objective maximized by the
        backfitting estimator.
    """
    _check_state_shapes(state, data, penalty)
    n, p, c = data.n, data.p, data.c
    omega = penalty.matrix
    factor = cholesky_factor(state.sigma_w)
    logdet_sw = 2.0 * float(np.sum(np.log(np.diag(factor[0]))))
    log_noise_prec = -math.log(state.sigma2)

    resid_y = data.y - state.x
    data_fidelity = -float(np.sum(resid_y * resid_y)) / state.sigma2
    obs_loglik = data_fidelity + n * p * log_noise_prec

    centered = state.x - state.mu[data.labels - 1]
    solved = scipy.linalg.cho_solve(factor, centered.T, check_finite=False)
    latent_quad = float(np.sum(centered * solved.T))
    latent_loglik = -latent_quad - n * logdet_sw

    mean_quad = float(np.sum(state.mu * (state.mu @ omega)))
    mean_prior = -state.alpha1 * mean_quad + c * math.log(state.alpha1)

    trace_term = float(np.trace(scipy.linalg.cho_solve(factor, omega, check_finite=False)))
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
) -> float:
    """Twice the unnormalized joint log-posterior at ``state``."""
    return log_posterior_terms(state, data, hyper, penalty).total()


def pooled_within_scatter(
    values: np.ndarray, labels: np.ndarray, means: np.ndarray
) -> np.ndarray:
    """Average outer product of rows centered at their class means.

    Returns the p-by-p matrix (1/n) * sum_i (v_i - m_{label_i}) outer
    itself, the natural scatter scale for all covariance estimates here.
    """
    centered = values - means[labels - 1]
    return centered.T @ centered / values.shape[0]
