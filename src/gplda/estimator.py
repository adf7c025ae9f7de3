"""Blockwise ascent of the joint log-posterior by backfitting.

Each update below is the exact maximizer of the joint log-posterior in
one block of unknowns with all other blocks held fixed, so a full sweep
never decreases the objective.  The sweep order is: the two precision
scalars, the noise variance, the latent curves, the class means, and the
within-class covariance, each update consuming the freshest values of the
other blocks.  The objective itself has no maximum (see ``fit``), so a
fit is where the ascent stops, not a posterior mode.

``fit`` works on whole states: each sweep builds a new
``PosteriorState`` from the old one, ``PosteriorState.is_finite`` checks
it, and convergence is declared when ``PosteriorState.relative_change``,
the largest per-block relative change of the sweep (the norm of a
block's change divided by one plus its old norm), falls below
``rel_tol``.

``update_sigma_w`` builds every covariance value as a
``WithinCovariance`` operator: its low-rank form when there are fewer
curves than grid points and the jitter keeps its diagonal positive, its
Cholesky form otherwise.  When n < p ``fit`` sweeps in the penalty's
eigenbasis, against the penalty written there (diagonal, identity
basis): it rotates y once on the way in and x, mu and Sigma_w once on
the way out, so a sweep costs O(p n^2) instead of O(p^3), with no
rotation.  ``fit`` returns the operator of its last sweep, carried back
to the given penalty, without forming the p x p matrix.  Every function
here reads a covariance value only as such an operator, built on the
penalty it is given; a bare matrix raises ``ValidationError``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .exceptions import (
    DimensionError,
    HyperParameterError,
    NumericFailureError,
)
from .linalg import SmoothingPenalty, blas_threads_for
from .model import (
    CholeskyForm,
    FitConfig,
    HyperParams,
    LabeledFunctionalDataset,
    PosteriorState,
    WithinCovariance,
    WoodburyForm,
    _state_terms,
    check_state,
    check_within,
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
    quad = float(np.sum(mu * penalty.apply(mu)))
    return numerator / (2.0 * hyper.b1 + quad)


def update_alpha2(
    sigma_w: WithinCovariance, penalty: SmoothingPenalty, hyper: HyperParams
) -> float:
    """Maximizing value of the covariance scale scalar.

    Equals (2 a2 + p - 2) divided by (2 b2 + trace of the penalty times
    the covariance inverse).
    """
    check_within(sigma_w, penalty)
    p = sigma_w.shape[0]
    numerator = 2.0 * hyper.a2 + p - 2.0
    if numerator <= 0:
        raise HyperParameterError(
            f"2*a2 + p - 2 = {numerator} must be positive (a2={hyper.a2}, p={p})"
        )
    return numerator / (2.0 * hyper.b2 + sigma_w.penalty_trace)


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
    sigma_w: WithinCovariance,
    sigma2: float,
) -> np.ndarray:
    """Maximizing latent curves given everything else.

    Each curve is the matrix-weighted blend of its observation and its
    class mean that solves (sigma_w + sigma2 I) x = sigma_w y + sigma2 mu.
    """
    check_within(sigma_w)
    return sigma_w.blend(data.y, mu[data.labels - 1], sigma2)


def update_mu(
    x: np.ndarray,
    data: LabeledFunctionalDataset,
    sigma_w: WithinCovariance,
    alpha1: float,
    penalty: SmoothingPenalty,
) -> np.ndarray:
    """Maximizing class means given everything else.

    For class i with n_i curves the mean solves
    (I + (alpha1 / n_i) sigma_w omega) mu_i = xbar_i, a smoothing of the
    within-class average of the latent curves.
    """
    check_within(sigma_w, penalty)
    return sigma_w.smooth_means(data.class_means(x), alpha1 / data.class_counts)


def update_sigma_w(
    x: np.ndarray,
    mu: np.ndarray,
    data: LabeledFunctionalDataset,
    alpha2: float,
    penalty: SmoothingPenalty,
    hyper: HyperParams,
    jitter_scale: float = FitConfig.jitter_scale,
) -> WithinCovariance:
    """Maximizing within-class covariance given everything else.

    With rho = n / (n + nu + p + 1), the maximizer is rho times the
    pooled within-class scatter of the latent curves plus (rho / n) times
    alpha2 times the penalty, and a relative jitter proportional to its
    mean eigenvalue is added to the diagonal.  With R = sqrt(rho / n)
    (x - mu) that is R^T R + beta Omega + eps I, and this is the one place
    that picks its form: the low-rank ``WoodburyForm`` when n < p and
    every beta lambda + eps > 0, otherwise the Cholesky form of the dense
    matrix.
    """
    n, p = data.n, data.p
    rho = n / (n + hyper.nu(p) + p + 1.0)
    beta = (rho / n) * alpha2
    root = np.sqrt(rho / n) * (x - mu[data.labels - 1])
    eps = jitter_scale * (float(np.sum(root * root)) + beta * penalty.trace) / p
    if n < p and np.all(beta * penalty.basis.eigenvalues + eps > 0):
        return WoodburyForm(root, beta, eps, penalty)
    sigma_w = rho * pooled_within_scatter(x, data.labels, mu) + beta * penalty.matrix
    sigma_w[np.diag_indices(p)] += eps
    return CholeskyForm(sigma_w, penalty)


def initial_state(
    data: LabeledFunctionalDataset, hyper: HyperParams, config: FitConfig
) -> PosteriorState:
    """Starting point of the backfitting loop.

    Latent curves start at the observations, class means at the observed
    class averages, the precision scalars at their prior means, the noise
    variance at the average observed within-class variance per grid point,
    and the covariance at its own update formula evaluated at these
    starting values, as a ``WithinCovariance`` operator.

    Raises
    ------
    ValidationError
        From ``data.check_within_estimable()``: fewer than c + 1 curves,
        or curves that each equal their class mean, which would start the
        noise variance at zero.
    """
    data.check_within_estimable()
    mu0 = data.class_means()
    x0 = data.y.copy()
    alpha1 = hyper.a1 / hyper.b1
    alpha2 = hyper.a2 / hyper.b2
    centered = data.y - mu0[data.labels - 1]
    sigma2 = float(np.sum(centered * centered)) / (data.n * data.p)
    sigma_w = update_sigma_w(
        x0, mu0, data, alpha2, config.penalty, hyper, config.jitter_scale
    )
    return PosteriorState(
        x=x0, mu=mu0, sigma_w=sigma_w, alpha1=alpha1, alpha2=alpha2, sigma2=sigma2
    )


def fit(
    data: LabeledFunctionalDataset,
    hyper: HyperParams | None = None,
    config: FitConfig | None = None,
    start: PosteriorState | None = None,
) -> tuple[PosteriorState, FitTrace]:
    """Backfit all blocks, ascending the joint log-posterior until a sweep
    changes every block by less than ``rel_tol``.

    The objective has no maximum.  Along Sigma_w -> t Sigma_w,
    alpha2 -> t alpha2, x -> mu + sqrt(t) (x - mu) it rises by
    p (nu + p) + n p per unit of log(1/t) as t -> 0, so the returned state
    is where the ascent stopped (held back by the jitter, the noise
    variance's prior floor and ``rel_tol``), not a posterior mode.

    Parameters
    ----------
    data : LabeledFunctionalDataset
        Observed curves, from which a within-class covariance is
        estimable.
    hyper : HyperParams, optional
        Defaults to ``HyperParams()``.
    config : FitConfig, optional
        Defaults to a first-difference penalty on the data grid with the
        standard sweep and tolerance settings.
    start : PosteriorState, optional
        Resume from a given state instead of the standard initializer;
        its covariance must be built on ``config.penalty`` (the same
        object or an equal matrix), which is checked before the state is
        rotated.

    Returns
    -------
    (PosteriorState, FitTrace)
        The final state, with the covariance as the ``WithinCovariance``
        operator of the last sweep on ``config.penalty`` (``np.asarray``
        gives its matrix), and the per-sweep diagnostics, which do not
        change under the rotation.

    Raises
    ------
    ValidationError
        If a within-class covariance is not estimable from the data
        (``LabeledFunctionalDataset.check_within_estimable``, called here
        for a given ``start`` and by ``initial_state`` otherwise), or
        ``start`` does not fit the data's shapes, its covariance is a
        bare matrix or was built on another penalty, or one of its scalars
        is not positive.
    NumericFailureError
        If any block becomes non-finite during a sweep.
    """
    hyper = hyper if hyper is not None else HyperParams()
    if config is None:
        config = FitConfig.default(data.p)
    config.penalty.check_grid(data.p)
    if start is not None:
        data.check_within_estimable()
        check_state(start, data, config.penalty)
    with blas_threads_for():
        # With n < p the sweeps run in the penalty's eigenbasis, where it
        # is diagonal: y and the start go in once, x, mu and Sigma_w come
        # out once, and no update rotates.
        given = config.penalty
        basis = given.basis if data.n < data.p else None
        if basis is not None:
            config = replace(config, penalty=given.in_basis())
            data = replace(data, y=basis.rotate(data.y))
            if start is not None:
                start = _carried(start, basis.rotate, config.penalty)
        penalty = config.penalty
        state = start if start is not None else initial_state(data, hyper, config)
        history = [log_posterior(state, data, hyper, penalty)]
        converged = False
        sweeps_run = 0
        for sweep in range(1, config.max_sweeps + 1):
            sweeps_run = sweep
            old = state
            # Each update reads the freshest value of every other block.
            state = replace(old, alpha1=update_alpha1(old.mu, penalty, hyper),
                            alpha2=update_alpha2(old.sigma_w, penalty, hyper),
                            sigma2=update_sigma2(old.x, data, hyper))
            state = replace(state, x=update_x(data, state.mu, state.sigma_w, state.sigma2))
            state = replace(state, mu=update_mu(
                state.x, data, state.sigma_w, state.alpha1, penalty))
            state = replace(state, sigma_w=update_sigma_w(
                state.x, state.mu, data, state.alpha2, penalty, hyper, config.jitter_scale))
            if not state.is_finite():
                raise NumericFailureError(
                    f"estimate became non-finite during sweep {sweep}", sweep=sweep
                )
            history.append(log_posterior(state, data, hyper, penalty))
            if state.relative_change(old) < config.rel_tol:
                converged = True
                break

        trace = FitTrace(
            sweeps_run=sweeps_run,
            converged=converged,
            log_posterior_per_sweep=tuple(history),
            final_residuals=first_order_residuals(state, data, hyper, penalty),
        )
        if basis is not None:
            state = _carried(state, basis.unrotate, given)
        return state, trace


def _carried(state: PosteriorState, turn, penalty: SmoothingPenalty) -> PosteriorState:
    """``state`` with ``turn`` applied to the rows of x and mu, and Sigma_w
    carried to ``penalty``."""
    return replace(state, x=turn(state.x), mu=turn(state.mu),
                   sigma_w=state.sigma_w.carried_to(penalty))


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
    The state is checked as ``log_posterior`` checks it.
    """
    resid_y, centered, solved, mean_quad = _state_terms(state, data, penalty)
    n, p, c = data.n, data.p, data.c
    within = state.sigma_w

    g_alpha1 = -mean_quad + (2.0 * hyper.a1 + c - 2.0) / state.alpha1 - 2.0 * hyper.b1

    g_alpha2 = (
        -within.penalty_trace
        + (2.0 * hyper.a2 + p - 2.0) / state.alpha2
        - 2.0 * hyper.b2
    )

    g_noise_prec = (
        -float(np.sum(resid_y * resid_y))
        + (n * p + 2.0 * hyper.a3 - 2.0) * state.sigma2
        - 2.0 * hyper.b3
    )

    grad_x = 2.0 * resid_y / state.sigma2 - 2.0 * solved
    x_max = float(np.max(np.linalg.norm(grad_x, axis=1))) if n else 0.0

    # Class i: 2 inv(sigma_w) sum_{j in i} (x_j - mu_i) - 2 alpha1 omega mu_i.
    grad_mu = 2.0 * data.class_sums(solved) - 2.0 * state.alpha1 * penalty.apply(state.mu)
    mu_max = float(np.max(np.linalg.norm(grad_mu, axis=1)))

    # inv(sigma_w) (scatter + alpha2 omega) inv(sigma_w) - (n + nu + p + 1) inv(sigma_w).
    grad_sw = within.gradient_norm(centered, state.alpha2, n + hyper.nu(p) + p + 1.0)

    return FirstOrderResiduals(
        alpha1=abs(g_alpha1),
        alpha2=abs(g_alpha2),
        noise_precision=abs(g_noise_prec),
        x_max=x_max,
        mu_max=mu_max,
        sigma_w=grad_sw,
    )
