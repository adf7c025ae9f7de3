"""Blockwise maximum-a-posteriori estimation by backfitting.

Each update below is the exact maximizer of the joint log-posterior in
one block of unknowns with all other blocks held fixed, so a full sweep
never decreases the objective.  The sweep order is: the two precision
scalars, the noise variance, the latent curves, the class means, and the
within-class covariance, each update consuming the freshest values of the
other blocks.

Convergence is declared when the largest per-block relative change in a
sweep falls below ``rel_tol``, where the relative change of a block is
the norm of its change divided by one plus its norm.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
import scipy.linalg

from .exceptions import (
    DimensionError,
    HyperParameterError,
    NumericFailureError,
    SingularMatrixError,
    ValidationError,
)
from .linalg import (
    FIRST_DIFF, SmoothingPenalty, blas_threads_for, build_penalty, cholesky_factor,
    frobenius_norm, spd_solve,
)
from .model import (
    FitConfig,
    HyperParams,
    LabeledFunctionalDataset,
    PosteriorState,
    log_posterior,
    pooled_within_scatter,
)


@dataclass(frozen=True)
class FirstOrderResiduals:
    """Norms of the six stationarity conditions of the log-posterior.

    Each field is the norm of the gradient of the objective in one block:
    absolute values for the three scalars, the largest row norm over
    latent curves and over class means, and the Frobenius norm for the
    covariance block.  All six vanish at an interior stationary point.
    """

    alpha1: float
    alpha2: float
    noise_precision: float
    x_max: float
    mu_max: float
    sigma_w: float

    def as_dict(self) -> dict:
        return asdict(self)

    def max(self) -> float:
        return max(self.as_dict().values())


@dataclass(frozen=True)
class FitTrace:
    """Diagnostics of one backfitting run.

    ``log_posterior_per_sweep`` starts with the objective at the initial
    state, followed by one value per completed sweep.
    """

    sweeps_run: int
    converged: bool
    log_posterior_per_sweep: tuple[float, ...]
    final_residuals: FirstOrderResiduals


def update_alpha1(
    mu: np.ndarray, penalty: SmoothingPenalty, hyper: HyperParams
) -> float:
    """Maximizing value of the class-mean precision scalar.

    With c classes, the maximizer is (2 a1 + c - 2) divided by
    (2 b1 + total penalty quadratic of the class means).
    """
    c = mu.shape[0]
    numerator = 2.0 * hyper.a1 + c - 2.0
    if numerator <= 0:
        raise HyperParameterError(
            f"2*a1 + c - 2 = {numerator} must be positive (a1={hyper.a1}, c={c})"
        )
    quad = float(np.sum(mu * (mu @ penalty.matrix)))
    return numerator / (2.0 * hyper.b1 + quad)


def update_alpha2(
    sigma_w: np.ndarray, penalty: SmoothingPenalty, hyper: HyperParams
) -> float:
    """Maximizing value of the covariance scale scalar.

    Equals (2 a2 + p - 2) divided by (2 b2 + trace of the penalty times
    the covariance inverse).
    """
    p = sigma_w.shape[0]
    numerator = 2.0 * hyper.a2 + p - 2.0
    if numerator <= 0:
        raise HyperParameterError(
            f"2*a2 + p - 2 = {numerator} must be positive (a2={hyper.a2}, p={p})"
        )
    factor = cholesky_factor(sigma_w)
    trace_term = float(
        np.trace(scipy.linalg.cho_solve(factor, penalty.matrix, check_finite=False))
    )
    return numerator / (2.0 * hyper.b2 + trace_term)


def update_sigma2(
    x: np.ndarray, data: LabeledFunctionalDataset, hyper: HyperParams
) -> float:
    """Maximizing value of the observation noise variance.

    The stationarity condition in the noise precision gives
    (2 b3 + total squared residual) / (n p + 2 a3 - 2).
    """
    n, p = data.n, data.p
    if x.shape != (n, p):
        raise DimensionError(f"x has shape {x.shape}, expected {(n, p)}")
    denominator = n * p + 2.0 * hyper.a3 - 2.0
    if denominator <= 0:
        raise HyperParameterError(
            f"n*p + 2*a3 - 2 = {denominator} must be positive (a3={hyper.a3}, n*p={n * p})"
        )
    resid = data.y - x
    return (2.0 * hyper.b3 + float(np.sum(resid * resid))) / denominator


def update_x(
    data: LabeledFunctionalDataset,
    mu: np.ndarray,
    sigma_w: np.ndarray,
    sigma2: float,
) -> np.ndarray:
    """Maximizing latent curves given everything else.

    Each curve is the matrix-weighted blend of its observation and its
    class mean that solves (sigma_w + sigma2 I) x = sigma_w y + sigma2 mu.
    """
    p = data.p
    blend = sigma_w + sigma2 * np.eye(p)
    rhs = sigma_w @ data.y.T + sigma2 * mu[data.labels - 1].T
    return spd_solve(blend, rhs).T


def update_mu(
    x: np.ndarray,
    data: LabeledFunctionalDataset,
    sigma_w: np.ndarray,
    alpha1: float,
    penalty: SmoothingPenalty,
) -> np.ndarray:
    """Maximizing class means given everything else.

    For class i with n_i curves the mean solves
    (I + (alpha1 / n_i) sigma_w omega) mu_i = xbar_i, a smoothing of the
    within-class average of the latent curves.
    """
    c, p = data.c, data.p
    counts = data.class_counts
    eye = np.eye(p)
    smoothing = sigma_w @ penalty.matrix
    mu = np.zeros((c, p))
    for i in range(1, c + 1):
        rows = data.class_rows(i)
        xbar = x[rows].mean(axis=0)
        system = eye + (alpha1 / counts[i - 1]) * smoothing
        try:
            mu[i - 1] = scipy.linalg.solve(system, xbar, check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            raise SingularMatrixError(
                f"mean smoothing system for class {i} is singular: {exc}"
            ) from exc
    return mu


def update_sigma_w(
    x: np.ndarray,
    mu: np.ndarray,
    data: LabeledFunctionalDataset,
    alpha2: float,
    penalty: SmoothingPenalty,
    hyper: HyperParams,
    jitter_scale: float = FitConfig.jitter_scale,
) -> np.ndarray:
    """Maximizing within-class covariance given everything else.

    With rho = n / (n + nu + p + 1), the maximizer is rho times the
    pooled within-class scatter of the latent curves plus (rho / n) times
    alpha2 times the penalty.  The result is symmetrized and a relative
    jitter proportional to its mean eigenvalue is added to the diagonal.
    """
    n, p = data.n, data.p
    nu = hyper.nu(p)
    rho = n / (n + nu + p + 1.0)
    scatter = pooled_within_scatter(x, data.labels, mu)
    sigma_w = rho * scatter + (rho / n) * alpha2 * penalty.matrix
    sigma_w = 0.5 * (sigma_w + sigma_w.T)
    if jitter_scale > 0:
        sigma_w = sigma_w + jitter_scale * (np.trace(sigma_w) / p) * np.eye(p)
    return sigma_w


def initial_state(
    data: LabeledFunctionalDataset, hyper: HyperParams, config: FitConfig
) -> PosteriorState:
    """Starting point of the backfitting loop.

    Latent curves start at the observations, class means at the observed
    class averages, the precision scalars at their prior means, the noise
    variance at the average observed within-class variance per grid point,
    and the covariance at its own update formula evaluated at these
    starting values.
    """
    mu0 = data.class_means()
    x0 = data.y.copy()
    alpha1 = hyper.a1 / hyper.b1
    alpha2 = hyper.a2 / hyper.b2
    scatter = pooled_within_scatter(data.y, data.labels, mu0)
    sigma2 = float(np.trace(scatter)) / data.p
    sigma_w = update_sigma_w(
        x0, mu0, data, alpha2, config.penalty, hyper, config.jitter_scale
    )
    return PosteriorState(
        x=x0, mu=mu0, sigma_w=sigma_w, alpha1=alpha1, alpha2=alpha2, sigma2=sigma2
    )


def _relative_change(new, old) -> float:
    if np.isscalar(new):
        return abs(new - old) / (1.0 + abs(old))
    return frobenius_norm(new - old) / (1.0 + frobenius_norm(old))


def fit(
    data: LabeledFunctionalDataset,
    hyper: HyperParams | None = None,
    config: FitConfig | None = None,
    start: PosteriorState | None = None,
) -> tuple[PosteriorState, FitTrace]:
    """Backfit all blocks to a joint maximum of the log-posterior.

    Parameters
    ----------
    data : LabeledFunctionalDataset
        Observed curves; needs n >= c + 1.
    hyper : HyperParams, optional
        Defaults to ``HyperParams()``.
    config : FitConfig, optional
        Defaults to a first-difference penalty on the data grid with the
        standard sweep and tolerance settings.
    start : PosteriorState, optional
        Resume from a given state instead of the standard initializer.

    Returns
    -------
    (PosteriorState, FitTrace)
        The final state and the per-sweep diagnostics.

    Raises
    ------
    ValidationError
        If the dataset is too small to estimate a within-class covariance.
    NumericFailureError
        If any block becomes non-finite during a sweep.
    """
    hyper = hyper if hyper is not None else HyperParams()
    if config is None:
        config = FitConfig(penalty=build_penalty(FIRST_DIFF, data.p))
    if data.n < data.c + 1:
        raise ValidationError(
            f"need at least c + 1 = {data.c + 1} curves, got n={data.n}"
        )
    if config.penalty.p != data.p:
        raise DimensionError(
            f"penalty is built for grid length {config.penalty.p}, data has p={data.p}"
        )
    with blas_threads_for(data.p):
        state = start if start is not None else initial_state(data, hyper, config)
        x, mu = state.x, state.mu
        sigma_w = state.sigma_w
        alpha1, alpha2, sigma2 = state.alpha1, state.alpha2, state.sigma2
        penalty = config.penalty

        history = [log_posterior(state, data, hyper, penalty)]
        converged = False
        sweeps_run = 0
        for sweep in range(1, config.max_sweeps + 1):
            sweeps_run = sweep
            prev = (alpha1, alpha2, sigma2, x, mu, sigma_w)
            alpha1 = update_alpha1(mu, penalty, hyper)
            alpha2 = update_alpha2(sigma_w, penalty, hyper)
            sigma2 = update_sigma2(x, data, hyper)
            x = update_x(data, mu, sigma_w, sigma2)
            mu = update_mu(x, data, sigma_w, alpha1, penalty)
            sigma_w = update_sigma_w(
                x, mu, data, alpha2, penalty, hyper, config.jitter_scale
            )
            blocks = (alpha1, alpha2, sigma2, x, mu, sigma_w)
            for value in blocks:
                if not np.all(np.isfinite(value)):
                    raise NumericFailureError(
                        f"estimate became non-finite during sweep {sweep}", sweep=sweep
                    )
            state = PosteriorState(
                x=x, mu=mu, sigma_w=sigma_w, alpha1=alpha1, alpha2=alpha2, sigma2=sigma2
            )
            history.append(log_posterior(state, data, hyper, penalty))
            change = max(_relative_change(b, pb) for b, pb in zip(blocks, prev))
            if change < config.rel_tol:
                converged = True
                break

        residuals = first_order_residuals(state, data, hyper, penalty)
        trace = FitTrace(
            sweeps_run=sweeps_run,
            converged=converged,
            log_posterior_per_sweep=tuple(history),
            final_residuals=residuals,
        )
        return state, trace


def first_order_residuals(
    state: PosteriorState,
    data: LabeledFunctionalDataset,
    hyper: HyperParams,
    penalty: SmoothingPenalty,
) -> FirstOrderResiduals:
    """Gradient norms of the log-posterior in each block at ``state``.

    The gradients are exact derivatives of the objective evaluated by
    ``log_posterior``: scalars with respect to the two precision scalars
    and the noise precision, row gradients for latent curves and class
    means, and the symmetric matrix gradient for the covariance block.
    """
    n, p, c = data.n, data.p, data.c
    omega = penalty.matrix
    sw_inv = scipy.linalg.cho_solve(
        cholesky_factor(state.sigma_w), np.eye(p), check_finite=False
    )

    mean_quad = float(np.sum(state.mu * (state.mu @ omega)))
    g_alpha1 = -mean_quad + (2.0 * hyper.a1 + c - 2.0) / state.alpha1 - 2.0 * hyper.b1

    # tr(sw_inv @ omega), both symmetric.
    g_alpha2 = (
        -float(np.sum(sw_inv * omega))
        + (2.0 * hyper.a2 + p - 2.0) / state.alpha2
        - 2.0 * hyper.b2
    )

    resid_y = data.y - state.x
    g_noise_prec = (
        -float(np.sum(resid_y * resid_y))
        + (n * p + 2.0 * hyper.a3 - 2.0) * state.sigma2
        - 2.0 * hyper.b3
    )

    centered = state.x - state.mu[data.labels - 1]
    solved = centered @ sw_inv
    grad_x = 2.0 * resid_y / state.sigma2 - 2.0 * solved
    x_max = float(np.max(np.linalg.norm(grad_x, axis=1))) if n else 0.0

    # Class i: 2 sw_inv sum_{j in i} (x_j - mu_i) - 2 alpha1 omega mu_i.
    solved_sums = np.zeros((c, p))
    np.add.at(solved_sums, data.labels - 1, solved)
    grad_mu = 2.0 * solved_sums - 2.0 * state.alpha1 * (state.mu @ omega)
    mu_max = float(np.max(np.linalg.norm(grad_mu, axis=1)))

    scatter = centered.T @ centered
    nu = hyper.nu(p)
    sandwich = sw_inv @ (scatter + state.alpha2 * omega) @ sw_inv
    grad_sw = sandwich - (n + nu + p + 1.0) * sw_inv

    return FirstOrderResiduals(
        alpha1=abs(g_alpha1),
        alpha2=abs(g_alpha2),
        noise_precision=abs(g_noise_prec),
        x_max=x_max,
        mu_max=mu_max,
        sigma_w=frobenius_norm(grad_sw),
    )
