"""Tests for the blockwise updates and the backfitting loop."""

import dataclasses

import numpy as np
import pytest

from gplda import (
    FIRST_DIFF,
    DimensionError,
    FitConfig,
    HyperParameterError,
    HyperParams,
    LabeledFunctionalDataset,
    NumericFailureError,
    PosteriorState,
    SmoothingPenalty,
    ValidationError,
    build_penalty,
    first_order_residuals,
    fit,
    initial_state,
    log_posterior,
    pooled_within_scatter,
    update_alpha1,
    update_alpha2,
    update_mu,
    update_sigma2,
    update_sigma_w,
    update_x,
)
import gplda.estimator
from gplda import (
    LAPLACIAN_2D, SECOND_DIFF, SimSpec, generate, gplda_directions, gplda_fit, load_csv,
    mle_lda_fit, pca_lda_fit, pda_fit, predict, save_dataset_csv, select_pda_alpha,
)
from gplda.linalg import EigenbasisPenalty
from gplda.model import CholeskyForm, WithinCovariance, WoodburyForm

from helpers import (
    dense_fit,
    dense_sigma_w,
    finite_difference_residuals,
    lap2d_image_set,
    random_posterior_state,
    sample_well_posed_dataset,
    unrotated_fit,
)


def _identity_penalty(p: int) -> SmoothingPenalty:
    """A degenerate penalty used only to make update arithmetic transparent."""
    return SmoothingPenalty(matrix=np.eye(p), kind=FIRST_DIFF)


class TestUpdateAlpha1:
    def test_hand_value(self):
        # c=5 means with total roughness 10 under an identity penalty:
        # (2*1 + 5 - 2) / (2*20 + 10) = 5/50
        mu = np.zeros((5, 4))
        mu[0, 0] = np.sqrt(10.0)
        hyper = HyperParams(a1=1.0, b1=20.0)
        assert update_alpha1(mu, _identity_penalty(4), hyper) == pytest.approx(0.1)

    def test_constant_means_hit_prior_ceiling(self):
        # constants are roughness-free, so only the prior terms remain
        mu = np.full((2, 6), 3.7)
        penalty = build_penalty(FIRST_DIFF, 6)
        hyper = HyperParams(a1=1.0, b1=20.0)
        assert update_alpha1(mu, penalty, hyper) == pytest.approx(2.0 / 40.0)

    def test_invalid_numerator_rejected(self):
        mu = np.zeros((1, 4))  # c=1 with a1=0.5 makes 2a1 + c - 2 = 0
        with pytest.raises(HyperParameterError, match="must be positive"):
            update_alpha1(mu, _identity_penalty(4), HyperParams(a1=0.5))


class TestUpdateAlpha2:
    def test_hand_value(self):
        # p=2, trace term 100: (2*1 + 2 - 2) / (2*100 + 100) = 2/300
        penalty = build_penalty(FIRST_DIFF, 2)  # trace of its matrix is 2
        sigma_w = CholeskyForm(0.02 * np.eye(2), penalty)  # trace(penalty @ inverse) = 2 / 0.02
        hyper = HyperParams(a2=1.0, b2=100.0)
        assert update_alpha2(sigma_w, penalty, hyper) == pytest.approx(2.0 / 300.0)

    def test_identity_covariance_uses_penalty_trace(self):
        penalty = build_penalty(FIRST_DIFF, 8)
        hyper = HyperParams()
        expected = (2.0 * hyper.a2 + 8 - 2.0) / (
            2.0 * hyper.b2 + np.trace(penalty.matrix)
        )
        sigma_w = CholeskyForm(np.eye(8), penalty)
        assert update_alpha2(sigma_w, penalty, hyper) == pytest.approx(expected)


class TestUpdateSigma2:
    @staticmethod
    def _data(y):
        n = y.shape[0]
        return LabeledFunctionalDataset(
            y=y, labels=np.ones(n, dtype=int), label_names=(1,)
        )

    def test_hand_value(self):
        # one curve of 10 points, unit residual everywhere, a3=2, b3=0:
        # the stationarity condition gives (0 + 10) / (10 + 4 - 2)
        data = self._data(np.zeros((1, 10)))
        x = np.ones((1, 10))
        value = update_sigma2(x, data, HyperParams(a3=2.0, b3=0.0))
        assert value == pytest.approx(10.0 / 12.0)

    def test_zero_residual_leaves_prior_floor(self):
        data = self._data(np.ones((2, 5)))
        hyper = HyperParams(a3=2.0, b3=0.5)
        value = update_sigma2(data.y.copy(), data, hyper)
        assert value == pytest.approx(1.0 / (10 + 4 - 2))

    def test_linearity_in_residual(self):
        data = self._data(np.zeros((3, 4)))
        hyper = HyperParams(a3=1.0, b3=0.0)
        once = update_sigma2(np.full((3, 4), 1.0), data, hyper)
        scaled = update_sigma2(np.full((3, 4), np.sqrt(2.0)), data, hyper)
        assert scaled == pytest.approx(2.0 * once)

    def test_shape_mismatch_rejected(self):
        data = self._data(np.zeros((2, 4)))
        with pytest.raises(DimensionError, match="x has shape"):
            update_sigma2(np.zeros((2, 5)), data, HyperParams())

    def test_zeroes_the_matching_gradient(self):
        rng = np.random.default_rng(61)
        data = sample_well_posed_dataset(rng)
        state = random_posterior_state(rng, data)
        hyper = HyperParams()
        penalty = build_penalty(FIRST_DIFF, data.p)
        updated = dataclasses.replace(
            state, sigma2=update_sigma2(state.x, data, hyper)
        )
        residuals = first_order_residuals(updated, data, hyper, penalty)
        assert residuals.noise_precision == pytest.approx(0.0, abs=1e-8)


class TestUpdateX:
    @staticmethod
    def _two_point_data(y):
        return LabeledFunctionalDataset(
            y=y, labels=np.array([1]), label_names=(1,)
        )

    def test_hand_blend(self):
        data = self._two_point_data(np.array([[2.0, 0.0]]))
        mu = np.zeros((1, 2))
        x = update_x(data, mu, CholeskyForm(np.eye(2), _identity_penalty(2)), 1.0)
        np.testing.assert_allclose(x, [[1.0, 0.0]])

    def test_zero_noise_returns_observations(self):
        rng = np.random.default_rng(67)
        data = sample_well_posed_dataset(rng)
        mu = data.class_means()
        x = update_x(data, mu, CholeskyForm(np.eye(data.p), _identity_penalty(data.p)), 0.0)
        np.testing.assert_allclose(x, data.y, atol=1e-12)

    def test_dominant_covariance_trusts_observations(self):
        rng = np.random.default_rng(71)
        data = sample_well_posed_dataset(rng)
        mu = data.class_means()
        sigma_w = CholeskyForm(1e6 * np.eye(data.p), _identity_penalty(data.p))
        x = update_x(data, mu, sigma_w, 1.0)
        np.testing.assert_allclose(x, data.y, atol=1e-5)


class TestUpdateMu:
    def test_zero_alpha_returns_class_averages(self):
        rng = np.random.default_rng(73)
        data = sample_well_posed_dataset(rng)
        x = rng.standard_normal(data.y.shape)
        penalty = build_penalty(FIRST_DIFF, data.p)
        mu = update_mu(x, data, CholeskyForm(np.eye(data.p), penalty), 0.0, penalty)
        for i in range(1, data.c + 1):
            np.testing.assert_allclose(
                mu[i - 1], x[data.class_rows(i)].mean(axis=0), atol=1e-12
            )

    def test_hand_shrinkage(self):
        # one curve, identity covariance and penalty, alpha 1: half the average
        data = LabeledFunctionalDataset(
            y=np.array([[2.0, 2.0]]), labels=np.array([1]), label_names=(1,)
        )
        x = np.array([[2.0, 2.0]])
        penalty = _identity_penalty(2)
        mu = update_mu(x, data, CholeskyForm(np.eye(2), penalty), 1.0, penalty)
        np.testing.assert_allclose(mu, [[1.0, 1.0]])

    def test_constant_average_passes_through_difference_penalty(self):
        data = LabeledFunctionalDataset(
            y=np.zeros((2, 5)), labels=np.array([1, 1]), label_names=(1,)
        )
        x = np.full((2, 5), 4.0)
        penalty = build_penalty(FIRST_DIFF, 5)
        mu = update_mu(x, data, CholeskyForm(np.eye(5), penalty), 3.0, penalty)
        np.testing.assert_allclose(mu, np.full((1, 5), 4.0), atol=1e-12)


class TestUpdateSigmaW:
    def test_hand_value(self):
        # n=4, p=2, delta=2 gives nu=3 and shrink factor 4/10; unit scatter
        # and identity penalty then give 0.4 + 0.1 on the diagonal.
        root2 = np.sqrt(2.0)
        x = np.array([[root2, 0.0], [-root2, 0.0], [0.0, root2], [0.0, -root2]])
        data = LabeledFunctionalDataset(
            y=x.copy(), labels=np.ones(4, dtype=int), label_names=(1,)
        )
        mu = np.zeros((1, 2))
        scatter = pooled_within_scatter(x, data.labels, mu)
        np.testing.assert_allclose(scatter, np.eye(2), atol=1e-12)
        sigma_w = update_sigma_w(
            x, mu, data, 1.0, _identity_penalty(2), HyperParams(), jitter_scale=0.0
        )
        np.testing.assert_allclose(sigma_w, 0.5 * np.eye(2), atol=1e-12)

    def test_zero_scatter_leaves_scaled_penalty(self):
        data = LabeledFunctionalDataset(
            y=np.zeros((5, 4)), labels=np.ones(5, dtype=int), label_names=(1,)
        )
        mu = np.zeros((1, 4))
        penalty = build_penalty(FIRST_DIFF, 4)
        hyper = HyperParams()
        nu = hyper.nu(4)
        rho = 5.0 / (5.0 + nu + 4.0 + 1.0)
        sigma_w = update_sigma_w(
            data.y, mu, data, 2.0, penalty, hyper, jitter_scale=0.0
        )
        np.testing.assert_allclose(sigma_w, (rho / 5.0) * 2.0 * penalty.matrix)

    def test_output_symmetric_positive_definite(self):
        rng = np.random.default_rng(79)
        data = sample_well_posed_dataset(rng)
        x = rng.standard_normal(data.y.shape)
        mu = rng.standard_normal((data.c, data.p))
        sigma_w = np.asarray(update_sigma_w(
            x, mu, data, 0.7, build_penalty(FIRST_DIFF, data.p), HyperParams()
        ))
        np.testing.assert_allclose(sigma_w, sigma_w.T)
        assert np.linalg.eigvalsh(sigma_w).min() > 0


class TestInitialState:
    def test_construction(self):
        rng = np.random.default_rng(83)
        data = sample_well_posed_dataset(rng)
        hyper = HyperParams()
        config = FitConfig(penalty=build_penalty(FIRST_DIFF, data.p))
        state = initial_state(data, hyper, config)
        np.testing.assert_array_equal(state.x, data.y)
        np.testing.assert_allclose(state.mu, data.class_means())
        assert state.alpha1 == pytest.approx(hyper.a1 / hyper.b1)
        assert state.alpha2 == pytest.approx(hyper.a2 / hyper.b2)
        scatter = pooled_within_scatter(data.y, data.labels, state.mu)
        assert state.sigma2 == pytest.approx(np.trace(scatter) / data.p)
        expected_sw = dense_sigma_w(
            data.y, state.mu, data, state.alpha2, config.penalty, hyper,
            config.jitter_scale,
        )
        np.testing.assert_allclose(np.asarray(state.sigma_w), expected_sw)


def _no_within_variation(kind: str, per_class: int = 7, p: int = 20):
    labels = np.repeat([1, 2], per_class)
    curves = np.random.default_rng(727).standard_normal((2, p))
    if kind == "zeros":
        y = np.zeros((labels.size, p))
    elif kind == "constant":  # one flat curve per class, at levels whose means round
        y = np.repeat([[1.0 / 3.0], [-2.0 / 7.0]], per_class, axis=0) * np.ones(p)
    elif kind == "float-copies":  # copies of one curve per class; the means round
        y = curves[labels - 1]
    else:  # "int-copies": copies of one integer curve per class; the means are exact
        y = np.round(4.0 * curves)[labels - 1]
    return LabeledFunctionalDataset(y=y, labels=labels, label_names=(1, 2))


_NO_VARIATION_KINDS = ["zeros", "constant", "float-copies", "int-copies"]
# n = 12 curves on every grid, fewer than its p points
_GRIDS = {"d1": (FIRST_DIFF, 50), "d2": (SECOND_DIFF, 50), "lap2d": (LAPLACIAN_2D, (16, 16))}


def _gplda_from_a_start(data, penalty):
    # a start built on curves that vary, so that only the data is at fault
    config = FitConfig(penalty=penalty)
    noise = np.random.default_rng(3).standard_normal(data.y.shape)
    start = initial_state(dataclasses.replace(data, y=data.y + noise), HyperParams(), config)
    return fit(data, config=config, start=start)


# Every entry point that fits a within-class covariance, called on
# (data, penalty).
_FITS = {
    "gplda": lambda data, penalty: fit(data, config=FitConfig(penalty=penalty)),
    "gplda-start": _gplda_from_a_start,
    "initial-state": lambda data, penalty: initial_state(
        data, HyperParams(), FitConfig(penalty=penalty)),
    "pda": lambda data, penalty: pda_fit(data, penalty, 10.0),
    "pda-cv": lambda data, penalty: pda_fit(data, penalty, select_pda_alpha(data, penalty)),
    "mle": lambda data, penalty: mle_lda_fit(data),
    "pca-lda": lambda data, penalty: pca_lda_fit(data, q=2),
}


class TestNoWithinClassVariation:
    @pytest.mark.parametrize("kind", _NO_VARIATION_KINDS)
    def test_fit_names_the_data(self, kind):
        with pytest.raises(ValidationError, match="no within-class variation"):
            fit(_no_within_variation(kind))

    @pytest.mark.parametrize("method", list(_FITS))
    @pytest.mark.parametrize("grid", list(_GRIDS))
    @pytest.mark.parametrize("kind", _NO_VARIATION_KINDS)
    def test_every_fit_names_the_data(self, kind, grid, method):
        penalty = build_penalty(*_GRIDS[grid])
        data = _no_within_variation(kind, per_class=6, p=penalty.p)
        with pytest.raises(ValidationError, match="no within-class variation"):
            _FITS[method](data, penalty)

    @pytest.mark.parametrize("grid", list(_GRIDS))
    @pytest.mark.parametrize("kind", _NO_VARIATION_KINDS)
    def test_training_csv_is_refused_when_read(self, kind, grid, tmp_path):
        path = str(tmp_path / "train.csv")
        p = build_penalty(*_GRIDS[grid]).p
        save_dataset_csv(path, _no_within_variation(kind, per_class=6, p=p))
        with pytest.raises(ValidationError, match="no within-class variation"):
            load_csv(path)

    @pytest.mark.parametrize("per_class", [3, 7, 50, 999])
    def test_rounded_class_means_count_as_no_variation(self, per_class):
        # the class means of these constants round, so the centred sum of
        # squares is a few ulps rather than zero
        with pytest.raises(ValidationError, match="no within-class variation"):
            fit(_no_within_variation("constant", per_class=per_class))

    def test_small_real_variation_still_fits(self):
        data = _no_within_variation("constant")
        noise = 1e-9 * np.random.default_rng(5).standard_normal(data.y.shape)
        state, _ = fit(dataclasses.replace(data, y=data.y + noise))
        assert state.sigma2 > 0

    @pytest.mark.parametrize("method", ["pda", "pda-cv", "mle", "pca-lda"])
    def test_small_real_variation_still_fits_the_baselines(self, method):
        # the threshold sits at rounding level, so it is no tolerance
        data = _no_within_variation("constant")
        noise = 1e-9 * np.random.default_rng(5).standard_normal(data.y.shape)
        noisy = dataclasses.replace(data, y=data.y + noise)
        model = _FITS[method](noisy, build_penalty(FIRST_DIFF, data.p))
        assert np.all(np.isfinite(model.directions))

    @staticmethod
    def _one_curve_class():
        # one curve in class 1 beside six that vary: estimable, since
        # class 2 varies
        labels = np.repeat([1, 2], [1, 6])
        y = np.random.default_rng(11).standard_normal((7, 50))
        return LabeledFunctionalDataset(y=y, labels=labels, label_names=(1, 2))

    @pytest.mark.parametrize("method", ["gplda", "pda", "mle", "pca-lda"])
    def test_a_one_curve_class_still_fits(self, method):
        _FITS[method](self._one_curve_class(), build_penalty(FIRST_DIFF, 50))

    def test_a_one_curve_class_cannot_be_cross_validated(self):
        with pytest.raises(ValidationError, match="needs at least 2 curves per class"):
            select_pda_alpha(self._one_curve_class(), build_penalty(FIRST_DIFF, 50))


class TestBlockAscent:
    def test_single_updates_never_decrease_objective(self):
        # every block update is an exact conditional maximizer, so the
        # objective is non-decreasing along any single update; checked on
        # 100 random states with the exact (unjittered) covariance update
        rng = np.random.default_rng(97)
        hyper = HyperParams()
        tolerance = 1e-9
        for _ in range(100):
            data = sample_well_posed_dataset(rng)
            penalty = build_penalty(FIRST_DIFF, data.p)
            state = random_posterior_state(rng, data)
            lp = log_posterior(state, data, hyper, penalty)

            def check(new_state):
                nonlocal lp, state
                new_lp = log_posterior(new_state, data, hyper, penalty)
                assert new_lp >= lp - tolerance * (1.0 + abs(lp))
                state, lp = new_state, new_lp

            check(dataclasses.replace(
                state, alpha1=update_alpha1(state.mu, penalty, hyper)))
            check(dataclasses.replace(
                state, alpha2=update_alpha2(state.sigma_w, penalty, hyper)))
            check(dataclasses.replace(
                state, sigma2=update_sigma2(state.x, data, hyper)))
            check(dataclasses.replace(
                state, x=update_x(data, state.mu, state.sigma_w, state.sigma2)))
            check(dataclasses.replace(
                state,
                mu=update_mu(state.x, data, state.sigma_w, state.alpha1, penalty)))
            check(dataclasses.replace(
                state,
                sigma_w=update_sigma_w(
                    state.x, state.mu, data, state.alpha2, penalty, hyper,
                    jitter_scale=0.0,
                )))


class TestFit:
    def test_converges_with_vanishing_gradients(self):
        rng = np.random.default_rng(101)
        data = sample_well_posed_dataset(rng)
        penalty = build_penalty(FIRST_DIFF, data.p)
        config = FitConfig(penalty=penalty, rel_tol=1e-8, jitter_scale=0.0)
        state, trace = fit(data, config=config)
        assert trace.converged
        assert trace.sweeps_run <= 500
        lp = trace.log_posterior_per_sweep[-1]
        assert trace.final_residuals.max() <= 1e-5 * (1.0 + abs(lp))
        assert len(trace.log_posterior_per_sweep) == trace.sweeps_run + 1

    def test_objective_non_decreasing_per_sweep(self):
        rng = np.random.default_rng(103)
        data = sample_well_posed_dataset(rng)
        config = FitConfig(
            penalty=build_penalty(FIRST_DIFF, data.p), jitter_scale=0.0
        )
        _, trace = fit(data, config=config)
        seq = np.asarray(trace.log_posterior_per_sweep)
        drops = np.diff(seq) / (1.0 + np.abs(seq[:-1]))
        assert drops.min() >= -1e-9

    def test_refit_from_fixed_point_stops_immediately(self):
        rng = np.random.default_rng(107)
        data = sample_well_posed_dataset(rng)
        config = FitConfig(
            penalty=build_penalty(FIRST_DIFF, data.p), rel_tol=1e-8,
            jitter_scale=0.0,
        )
        state, _ = fit(data, config=config)
        _, trace = fit(data, config=config, start=state)
        assert trace.converged
        assert trace.sweeps_run == 1

    def test_reapplying_updates_at_fixed_point_changes_nothing(self):
        rng = np.random.default_rng(109)
        data = sample_well_posed_dataset(rng)
        penalty = build_penalty(FIRST_DIFF, data.p)
        hyper = HyperParams()
        config = FitConfig(penalty=penalty, rel_tol=1e-8, jitter_scale=0.0)
        state, _ = fit(data, config=config)

        def rel(new, old):
            return np.linalg.norm(np.atleast_1d(new - old)) / (
                1.0 + np.linalg.norm(np.atleast_1d(old))
            )

        assert rel(update_alpha1(state.mu, penalty, hyper), state.alpha1) <= 1e-6
        assert rel(update_alpha2(state.sigma_w, penalty, hyper), state.alpha2) <= 1e-6
        assert rel(update_sigma2(state.x, data, hyper), state.sigma2) <= 1e-6
        assert rel(
            update_x(data, state.mu, state.sigma_w, state.sigma2), state.x
        ) <= 1e-6
        assert rel(
            update_mu(state.x, data, state.sigma_w, state.alpha1, penalty),
            state.mu,
        ) <= 1e-6
        assert rel(
            update_sigma_w(
                state.x, state.mu, data, state.alpha2, penalty, hyper,
                jitter_scale=0.0,
            ),
            state.sigma_w,
        ) <= 1e-6

    def test_too_few_curves_rejected(self):
        data = LabeledFunctionalDataset(
            y=np.zeros((2, 4)), labels=np.array([1, 2]), label_names=(1, 2)
        )
        with pytest.raises(ValidationError, match="at least c \\+ 1"):
            fit(data)

    def test_penalty_grid_mismatch_rejected(self):
        rng = np.random.default_rng(113)
        data = sample_well_posed_dataset(rng)
        config = FitConfig(penalty=build_penalty(FIRST_DIFF, data.p + 1))
        with pytest.raises(DimensionError, match="penalty is built for"):
            fit(data, config=config)

    # A NaN smoothing weight makes SciPy warn of an ill-conditioned system.
    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    @pytest.mark.parametrize("update", [
        "update_alpha1", "update_alpha2", "update_sigma2", "update_x", "update_mu",
        "update_sigma_w",
    ])
    def test_non_finite_sweep_raises_with_sweep_index(self, monkeypatch, update):
        # One block of the first sweep comes back all NaN; the check after
        # the sweep must catch it whichever block it is.
        rng = np.random.default_rng(127)
        data = sample_well_posed_dataset(rng)
        real = getattr(gplda.estimator, update)
        calls = []

        def poisoned(*args, **kwargs):
            value = real(*args, **kwargs)
            calls.append(None)
            if update == "update_sigma_w" and len(calls) == 1:
                return value  # leave the initializer's call intact
            if isinstance(value, CholeskyForm):
                return CholeskyForm(np.full(value.shape, np.nan), value.penalty)
            return np.full_like(value, np.nan) if isinstance(value, np.ndarray) else np.nan

        monkeypatch.setattr(gplda.estimator, update, poisoned)
        with pytest.raises(NumericFailureError) as info:
            gplda.estimator.fit(data)
        assert info.value.sweep == 1


class TestFirstOrderResiduals:
    def test_perturbation_moves_gradient_off_zero(self):
        rng = np.random.default_rng(131)
        data = sample_well_posed_dataset(rng)
        penalty = build_penalty(FIRST_DIFF, data.p)
        config = FitConfig(penalty=penalty, rel_tol=1e-8, jitter_scale=0.0)
        state, trace = fit(data, config=config)
        assert trace.final_residuals.mu_max <= 1e-6
        nudged_mu = state.mu.copy()
        nudged_mu[0, 0] += 1.0
        nudged = dataclasses.replace(state, mu=nudged_mu)
        residuals = first_order_residuals(nudged, data, HyperParams(), penalty)
        assert residuals.mu_max > 0.1

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(137)
        # The last case has three classes of sizes 2, 3, 4 in shuffled
        # order, so the per-class gradient sums must index the classes right.
        for case in range(4):
            p, n = 5, 9
            if case < 3:
                labels = np.sort(
                    np.concatenate([np.arange(1, 3), rng.integers(1, 3, size=n - 2)])
                )
            else:
                labels = np.array([2, 3, 1, 3, 2, 3, 1, 2, 3])
            c = int(labels.max())
            data = LabeledFunctionalDataset(
                y=rng.standard_normal((n, p)) + labels[:, None] * 0.5,
                labels=labels,
                label_names=tuple(range(1, c + 1)),
            )
            state = random_posterior_state(rng, data)
            hyper = HyperParams()
            penalty = build_penalty(FIRST_DIFF, p)
            analytic = first_order_residuals(state, data, hyper, penalty).as_dict()
            numeric = finite_difference_residuals(state, data, hyper, penalty)
            for name, value in numeric.items():
                scale = max(abs(value), abs(analytic[name]), 1e-8)
                assert abs(analytic[name] - value) / scale <= 1e-4, name

    @pytest.mark.parametrize("case", ["short_mu", "short_x", "zero_alpha2", "wider_penalty"])
    def test_malformed_state_raises_a_typed_error(self, case):
        rng = np.random.default_rng(53)
        data = sample_well_posed_dataset(rng)
        state = random_posterior_state(rng, data)
        penalty = build_penalty(FIRST_DIFF, data.p)
        if case == "short_mu":
            state = dataclasses.replace(state, mu=state.mu[:-1])
        elif case == "short_x":
            state = dataclasses.replace(state, x=state.x[:-1])
        elif case == "zero_alpha2":
            state = dataclasses.replace(state, alpha2=0.0)
        else:
            penalty = build_penalty(FIRST_DIFF, data.p + 1)
        with pytest.raises((DimensionError, ValidationError)):
            first_order_residuals(state, data, HyperParams(), penalty)

    def test_as_dict_and_max(self):
        rng = np.random.default_rng(139)
        data = sample_well_posed_dataset(rng)
        state = random_posterior_state(rng, data)
        residuals = first_order_residuals(
            state, data, HyperParams(), build_penalty(FIRST_DIFF, data.p)
        )
        values = residuals.as_dict()
        assert set(values) == {
            "alpha1", "alpha2", "noise_precision", "x_max", "mu_max", "sigma_w"
        }
        assert residuals.max() == max(values.values())
        assert all(v >= 0 for v in values.values())


def _state_gap(a, b) -> float:
    """Largest relative change, in ``fit``'s own measure, between two states."""
    gaps = []
    for name in ("x", "mu", "sigma_w", "alpha1", "alpha2", "sigma2"):
        new = np.atleast_1d(np.asarray(getattr(a, name)))
        old = np.atleast_1d(np.asarray(getattr(b, name)))
        gaps.append(np.linalg.norm(new - old) / (1.0 + np.linalg.norm(old)))
    return max(gaps)


class TestCovarianceRoute:
    def test_more_curves_than_grid_points_take_the_cholesky_form(self):
        data = sample_well_posed_dataset(np.random.default_rng(701))
        assert data.n >= data.p
        config = FitConfig(penalty=build_penalty(FIRST_DIFF, data.p))
        assert isinstance(initial_state(data, HyperParams(), config).sigma_w, CholeskyForm)

    def test_fewer_curves_than_grid_points_take_the_woodbury_form(self):
        train, _ = generate(SimSpec("sim1", 50, 10, seed=0))
        config = FitConfig(penalty=build_penalty(FIRST_DIFF, train.p))
        assert isinstance(initial_state(train, HyperParams(), config).sigma_w, WoodburyForm)

    def test_zero_jitter_on_a_singular_penalty_takes_the_cholesky_form(self):
        # Constants are in the penalty's null space, so without jitter the
        # diagonal d = beta lambda has a zero.
        train, _ = generate(SimSpec("sim1", 50, 10, seed=0))
        config = FitConfig(penalty=build_penalty(FIRST_DIFF, train.p), jitter_scale=0.0)
        state = initial_state(train, HyperParams(), config)
        assert isinstance(state.sigma_w, CholeskyForm)
        expected = dense_sigma_w(
            state.x, state.mu, train, state.alpha2, config.penalty, HyperParams(), 0.0
        )
        np.testing.assert_array_equal(state.sigma_w.dense(), expected)

    def test_dense_start_matches_the_dense_first_sweep(self):
        rng = np.random.default_rng(703)
        train, _ = generate(SimSpec("sim1", 50, 10, seed=3))
        start = random_posterior_state(rng, train)
        config = FitConfig(penalty=build_penalty(FIRST_DIFF, train.p), max_sweeps=1)
        state, trace = fit(train, config=config, start=start)
        expected, expected_trace = dense_fit(train, config=config, start=start)
        assert isinstance(state.sigma_w, WithinCovariance)
        assert _state_gap(state, expected) <= 1e-12
        np.testing.assert_allclose(
            trace.log_posterior_per_sweep, expected_trace.log_posterior_per_sweep, rtol=1e-9
        )
        # The jitter leaves the covariance ill-conditioned, so its gradient
        # cancels to about four digits whichever form computes it.
        for name, value in expected_trace.final_residuals.as_dict().items():
            assert getattr(trace.final_residuals, name) == pytest.approx(value, rel=1e-4), name

    @pytest.mark.parametrize("n,jitter_scale,form", [
        (11, 1e-8, WoodburyForm), (12, 1e-8, CholeskyForm), (11, 0.0, CholeskyForm),
    ])
    def test_form_switches_at_n_equal_p(self, n, jitter_scale, form):
        rng = np.random.default_rng(707)
        data = LabeledFunctionalDataset(
            y=rng.standard_normal((n, 12)), labels=np.arange(n) % 2 + 1, label_names=(1, 2)
        )
        args = (data.y, data.class_means(), data, 0.3, build_penalty(FIRST_DIFF, 12),
                HyperParams(), jitter_scale)
        within, expected = update_sigma_w(*args), dense_sigma_w(*args)
        assert isinstance(within, form)
        assert np.linalg.norm(within.dense() - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("seed", range(10))
    def test_dense_form_fit_leaves_the_x_block_stationary(self, seed):
        # n = 200 >= p = 101.  The blend y - s (S + s I)^-1 (y - m) keeps the
        # x gradient at rounding level; solving for S y + s m does not.
        train, _ = generate(SimSpec("sim1", 200, 10, seed=seed))
        state, trace = fit(train)
        assert isinstance(state.sigma_w, CholeskyForm)
        assert trace.final_residuals.x_max <= 1e-6


class TestOneCovarianceBuilder:
    """``update_sigma_w`` builds every covariance value ``fit`` reads and returns."""

    @pytest.mark.parametrize("n_train", [50, 200])
    def test_fit_returns_the_last_built_operator(self, monkeypatch, n_train):
        train, _ = generate(SimSpec("sim1", n_train, 10, seed=0))
        low_rank = train.n < train.p
        real_update = gplda.estimator.update_sigma_w
        real_scatter = gplda.estimator.pooled_within_scatter
        built, scatters = [], []

        def update(*args, **kwargs):
            built.append(real_update(*args, **kwargs))
            return built[-1]

        def scatter(*args, **kwargs):
            scatters.append(None)
            return real_scatter(*args, **kwargs)

        def dense(self):
            raise AssertionError("fit formed a p x p low-rank covariance")

        monkeypatch.setattr(gplda.estimator, "update_sigma_w", update)
        monkeypatch.setattr(gplda.estimator, "pooled_within_scatter", scatter)
        monkeypatch.setattr(WoodburyForm, "dense", dense)
        state, trace = fit(train)
        assert len(built) == 1 + trace.sweeps_run
        assert isinstance(state.sigma_w, WoodburyForm if low_rank else CholeskyForm)
        if low_rank:
            # Built in the penalty's eigenbasis and carried out of it: the
            # same rotated rows and diagonal, with no rotation redone.
            assert state.sigma_w.rotated is built[-1].rotated
            np.testing.assert_array_equal(state.sigma_w.d, built[-1].d)
        else:
            assert state.sigma_w is built[-1]
        # n < p: no O(p^2 n) scatter; n >= p: one dense update per call.
        assert len(scatters) == (0 if low_rank else len(built))

    @pytest.mark.parametrize("n_train", [50, 200])
    def test_fit_never_compares_penalty_matrices_by_value(self, monkeypatch, n_train):
        # Every value fit builds is on config.penalty itself, so the O(p^2)
        # by-value branch of check_penalty is never reached.
        train, _ = generate(SimSpec("sim1", n_train, 10, seed=0))
        real, compared = np.array_equal, []

        def array_equal(*args, **kwargs):
            compared.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "array_equal", array_equal)
        state, _ = fit(train)
        monkeypatch.undo()
        assert isinstance(state.sigma_w, WoodburyForm if train.n < train.p else CholeskyForm)
        assert compared == []


class TestJitterResidual:
    """Sigma_w is the last block of a sweep, so a fitted state's Sigma_w is
    its own update: scatter + alpha2 Omega = k (Sigma_w - eps I) with
    k = n + nu + p + 1, and the Sigma_w gradient is exactly -k eps Sigma_w^-2.
    The Sigma_w residual a fit reports measures the jitter eps alone."""

    @pytest.mark.parametrize("n_train,form", [(50, WoodburyForm), (200, CholeskyForm)])
    def test_sigma_w_residual_is_the_jitter_term(self, n_train, form):
        train, _ = generate(SimSpec("sim1", n_train, 2, seed=0))
        hyper, config = HyperParams(), FitConfig.default(train.p)
        state, trace = fit(train, hyper, config)
        assert isinstance(state.sigma_w, form)
        n, p = train.n, train.p
        k = n + hyper.nu(p) + p + 1.0
        # eps as update_sigma_w takes it from R = sqrt(rho / n) (x - mu), rho = n / k.
        root = np.sqrt(1.0 / k) * (state.x - state.mu[train.labels - 1])
        beta = state.alpha2 / k
        eps = config.jitter_scale * (np.sum(root**2) + beta * np.trace(config.penalty.matrix)) / p
        eigenvalues = np.linalg.eigvalsh(np.asarray(state.sigma_w))
        expected = k * eps * np.sqrt(np.sum(eigenvalues**-4.0))
        assert trace.final_residuals.sigma_w == pytest.approx(expected, rel=1e-6)

    def test_zero_jitter_leaves_no_sigma_w_residual(self):
        rng = np.random.default_rng(0)
        labels = np.repeat([1, 2], 40)
        data = LabeledFunctionalDataset(
            y=rng.standard_normal((80, 10)) + 0.5 * labels[:, None], labels=labels,
            label_names=(1, 2),
        )
        config = FitConfig(penalty=build_penalty(FIRST_DIFF, 10), jitter_scale=0.0)
        state, trace = fit(data, config=config)
        assert isinstance(state.sigma_w, CholeskyForm)
        assert trace.final_residuals.sigma_w <= 1e-10


class TestUnboundedObjective:
    """The joint log-posterior has no maximum, so a fit is a stop of the ascent."""

    def test_shrinking_the_covariance_climbs_past_the_fit(self):
        # Along Sigma_w -> t Sigma_w, alpha2 -> t alpha2, x -> mu + sqrt(t) (x - mu),
        # with sigma2 re-taken, the objective rises by p (nu + p) + n p per
        # unit of log(1/t).  A change that bounds the objective fails this.
        train, _ = generate(SimSpec("sim1", 50, 10, seed=0))
        hyper = HyperParams()
        state, trace = fit(train, hyper)
        within = state.sigma_w
        assert isinstance(within, WoodburyForm)
        means = state.mu[train.labels - 1]

        def objective_at(t):
            x = means + np.sqrt(t) * (state.x - means)
            scaled = dataclasses.replace(
                state, x=x, alpha2=t * state.alpha2, sigma2=update_sigma2(x, train, hyper),
                sigma_w=WoodburyForm(
                    np.sqrt(t) * within.root, t * within.beta, t * within.eps, within.penalty
                ),
            )
            return log_posterior(scaled, train, hyper, within.penalty)

        assert objective_at(1e-8) > trace.log_posterior_per_sweep[-1]
        slope = (objective_at(1e-12) - objective_at(1e-8)) / np.log(1e4)
        p, n = train.p, train.n
        assert slope == pytest.approx(p * (hyper.nu(p) + p) + n * p, rel=1e-3)


class TestRouteAgreement:
    """Low-rank fits against the dense loop, on n < p benchmark data."""

    @staticmethod
    def _check(train, test, config):
        state, trace = fit(train, config=config)
        expected, expected_trace = dense_fit(train, config=config)
        assert trace.sweeps_run == expected_trace.sweeps_run
        assert _state_gap(state, expected) <= 1e-5
        np.testing.assert_allclose(
            trace.log_posterior_per_sweep, expected_trace.log_posterior_per_sweep, rtol=1e-5
        )
        labels = predict(gplda_directions(state, train.label_names), test.y)
        expected_labels = predict(gplda_directions(expected, train.label_names), test.y)
        np.testing.assert_array_equal(labels, expected_labels)

    @pytest.mark.parametrize("which,n_train", [("sim1", 50), ("sim2", 20)])
    @pytest.mark.parametrize("seed", range(10))
    def test_simulated_curves(self, which, n_train, seed):
        train, test = generate(SimSpec(which, n_train, 200, seed=seed))
        self._check(train, test, FitConfig(penalty=build_penalty(FIRST_DIFF, train.p)))

    def test_lap2d_images(self):
        rng = np.random.default_rng(705)
        train = lap2d_image_set(rng, 100, 40, 40)
        test = lap2d_image_set(rng, 400, 40, 40)
        self._check(train, test, FitConfig(penalty=build_penalty(LAPLACIAN_2D, (40, 40))))


def _eigenbasis_case(name):
    """(train, test, config) of an n < p fit on each kind of penalty basis:
    the dense DCT-II matrix (d1, p = 101), the fast 2-D transform (lap2d
    16 x 16) and ``eigh`` (d2)."""
    if name == "lap2d_16x16":
        rng = np.random.default_rng(709)
        train, test = lap2d_image_set(rng, 60, 16, 16), lap2d_image_set(rng, 200, 16, 16)
        return train, test, FitConfig(penalty=build_penalty(LAPLACIAN_2D, (16, 16)))
    which, n_train, kind = {"d1_p101": ("sim1", 50, FIRST_DIFF), "d2": ("sim2", 20, SECOND_DIFF)}[name]
    train, test = generate(SimSpec(which, n_train, 200, seed=11))
    return train, test, FitConfig(penalty=build_penalty(kind, train.p))


class TestEigenbasisFit:
    """At n < p ``fit`` sweeps in the penalty's eigenbasis; ``unrotated_fit``
    runs the same sweeps in the data's own coordinates."""

    @pytest.mark.parametrize("name", ["d1_p101", "lap2d_16x16", "d2"])
    def test_fit_matches_the_unrotated_loop(self, name):
        train, test, config = _eigenbasis_case(name)
        assert train.n < train.p
        state, trace = fit(train, config=config)
        expected, expected_trace = unrotated_fit(train, config=config)
        assert state.sigma_w.penalty is config.penalty
        assert trace.sweeps_run == expected_trace.sweeps_run
        for block in ("x", "mu", "sigma_w", "alpha1", "sigma2"):
            new, old = np.asarray(getattr(state, block)), np.asarray(getattr(expected, block))
            assert np.linalg.norm(new - old) <= 1e-12 * np.linalg.norm(old), block
        # alpha2 inverts tr(Sigma_w^-1 Omega), which cancels to about nine
        # digits at cond(Sigma_w) ~ 1e9 whichever basis computes it.
        assert state.alpha2 == pytest.approx(expected.alpha2, rel=1e-8)
        np.testing.assert_allclose(
            trace.log_posterior_per_sweep, expected_trace.log_posterior_per_sweep, rtol=1e-8
        )
        model, _ = gplda_fit(train, config=config)
        reference = gplda_directions(expected, train.label_names)
        moved = np.linalg.norm(model.directions - reference.directions, axis=1)
        assert np.all(moved <= 1e-8 * np.linalg.norm(reference.directions, axis=1))
        np.testing.assert_array_equal(predict(model, test.y), predict(reference, test.y))

    def test_a_zero_jitter_fit_carries_its_cholesky_form_back(self):
        # Without jitter the constant mode's diagonal is zero, so the
        # sweeps take the Cholesky form of the in-basis matrix.
        train, _ = generate(SimSpec("sim1", 50, 2, seed=0))
        config = FitConfig(
            penalty=build_penalty(FIRST_DIFF, train.p), jitter_scale=0.0, max_sweeps=3
        )
        state, trace = fit(train, config=config)
        expected, expected_trace = unrotated_fit(train, config=config)
        assert isinstance(state.sigma_w, CholeskyForm)
        assert state.sigma_w.penalty is config.penalty
        assert np.array_equal(state.sigma_w.matrix, state.sigma_w.matrix.T)
        for block in ("x", "mu", "sigma_w", "alpha1", "sigma2"):
            new, old = np.asarray(getattr(state, block)), np.asarray(getattr(expected, block))
            assert np.linalg.norm(new - old) <= 1e-12 * np.linalg.norm(old), block
        assert state.alpha2 == pytest.approx(expected.alpha2, rel=1e-7)
        np.testing.assert_allclose(
            trace.log_posterior_per_sweep, expected_trace.log_posterior_per_sweep, rtol=1e-8
        )

    def test_a_jittered_fit_forms_no_p_by_p_penalty_matrix(self, monkeypatch):
        train, _, config = _eigenbasis_case("lap2d_16x16")

        def no_matrix(self):
            raise AssertionError("the in-basis penalty formed its p x p matrix")

        monkeypatch.setattr(EigenbasisPenalty, "matrix", property(no_matrix))
        state, _ = fit(train, config=config)
        assert isinstance(state.sigma_w, WoodburyForm)
