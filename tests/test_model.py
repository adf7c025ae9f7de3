"""Tests for datasets, hyperparameters, and the log-posterior evaluator."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from gplda import (
    FIRST_DIFF,
    LAPLACIAN_2D,
    SECOND_DIFF,
    DimensionError,
    FitConfig,
    HyperParameterError,
    HyperParams,
    LabeledFunctionalDataset,
    PosteriorState,
    SimSpec,
    ValidationError,
    build_penalty,
    first_order_residuals,
    fit,
    generate,
    initial_state,
    log_posterior,
    log_posterior_terms,
    pooled_within_scatter,
    update_alpha2,
    update_mu,
    update_x,
    validate_dataset,
)
from gplda import model
from gplda.linalg import frobenius_norm
from gplda.model import CholeskyForm, WoodburyForm

from helpers import (
    dense_sigma_w, lap2d_image_set, random_posterior_state, sample_well_posed_dataset,
    stack_gradient_norm, two_gemm_gradient_norm,
)


class TestValidateDataset:
    def test_remaps_labels_in_first_appearance_order(self):
        rows = [[float(i), 2.0] for i in range(5)]
        data = validate_dataset(rows, ["b", "a", "b", "c", "a"])
        np.testing.assert_array_equal(data.labels, [1, 2, 1, 3, 2])
        assert data.label_names == ("b", "a", "c")
        assert (data.n, data.p, data.c) == (5, 2, 3)

    def test_class_bookkeeping(self):
        rows = np.arange(12.0).reshape(6, 2)
        data = validate_dataset(rows, [1, 1, 2, 2, 2, 1])
        np.testing.assert_array_equal(data.class_counts, [3, 3])
        np.testing.assert_array_equal(data.class_rows(2), [2, 3, 4])
        np.testing.assert_allclose(
            data.class_means()[0], rows[[0, 1, 5]].mean(axis=0)
        )

    def test_class_means_of_other_values(self):
        rows = np.arange(12.0).reshape(6, 2)
        data = validate_dataset(rows, [1, 1, 2, 2, 2, 1])
        values = np.arange(18.0).reshape(6, 3) ** 2
        means = data.class_means(values)
        assert means.shape == (2, 3)
        np.testing.assert_array_equal(means[0], values[[0, 1, 5]].mean(axis=0))
        np.testing.assert_array_equal(means[1], values[[2, 3, 4]].mean(axis=0))
        np.testing.assert_array_equal(data.class_means(data.y), data.class_means())

    def test_class_sums_match_add_at_bit_for_bit(self):
        rng = np.random.default_rng(24)
        labels = rng.permutation(np.arange(31) % 3 + 1)
        values = rng.standard_normal((31, 7))
        data = validate_dataset(values, labels)
        expected = np.zeros((3, 7))
        np.add.at(expected, data.labels - 1, values)
        assert data.class_sums(values).tobytes() == expected.tobytes()

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="3 value rows but 2 labels"):
            validate_dataset([[1.0]] * 3, [1, 2])

    def test_empty_dataset(self):
        with pytest.raises(ValidationError, match="dataset is empty"):
            validate_dataset([], [])

    def test_empty_rows(self):
        with pytest.raises(ValidationError, match="at least one value"):
            validate_dataset([[], []], [1, 2])

    def test_ragged_rows(self):
        with pytest.raises(ValidationError, match="row 2 has 3 values, expected 2"):
            validate_dataset([[1.0, 2.0], [1.0, 2.0, 3.0]], [1, 2])

    def test_non_finite_values(self):
        rows = [[1.0, 2.0], [np.nan, 0.0], [3.0, 4.0]]
        with pytest.raises(ValidationError, match="row 2 contains a non-finite value"):
            validate_dataset(rows, [1, 2, 1])

    def test_too_few_curves_for_covariance(self):
        with pytest.raises(ValidationError, match="at least c \\+ 1 = 3"):
            validate_dataset([[1.0], [2.0]], ["a", "b"])


class TestDatasetInvariants:
    @staticmethod
    def _build(y, labels=(1, 2, 1)):
        return LabeledFunctionalDataset(
            y=np.asarray(y, dtype=float), labels=np.asarray(labels), label_names=(1, 2)
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_raises_at_construction(self, bad):
        y = np.ones((3, 4))
        y[1, 2] = bad
        with pytest.raises(ValidationError, match="^row 2 contains a non-finite value$"):
            self._build(y)

    def test_one_dimensional_y_raises(self):
        with pytest.raises(ValidationError, match=r"y must be a 2-D array .* shape \(3,\)"):
            self._build(np.ones(3))

    def test_label_count_mismatch_raises(self):
        with pytest.raises(ValidationError, match="3 value rows but 2 labels"):
            self._build(np.ones((3, 4)), labels=(1, 2))

    def test_empty_dataset_and_empty_rows_raise(self):
        with pytest.raises(ValidationError, match="dataset is empty"):
            self._build(np.ones((0, 4)), labels=())
        with pytest.raises(ValidationError, match="at least one value"):
            self._build(np.ones((3, 0)))

    @pytest.mark.parametrize(
        "labels,message",
        [((0, 0, 0, 1, 1, 1), "row 1 has label 0"), ((1, 1, 1, 3, 3, 3), "row 4 has label 3")],
    )
    def test_label_outside_the_class_indices_raises(self, labels, message):
        # 0-based labels used to reach the fits and give NaN directions;
        # a label past c, NumPy's untyped broadcast error
        y = np.random.default_rng(0).standard_normal((6, 4))
        with pytest.raises(ValidationError, match=f"^{message}, outside 1\\.\\.2$"):
            self._build(y, labels=labels)

    def test_too_few_curves_for_a_covariance_is_a_fit_time_rule(self):
        # a test set may hold fewer than c + 1 curves
        data = self._build(np.ones((2, 4)), labels=(1, 2))
        with pytest.raises(ValidationError, match="more curves than classes"):
            data.check_within_estimable()


class TestHyperParams:
    def test_defaults(self):
        hyper = HyperParams()
        assert (hyper.a1, hyper.b1) == (1.0, 20.0)
        assert (hyper.a2, hyper.b2) == (1.0, 100.0)
        assert (hyper.a3, hyper.b3) == (1.0, 1e-3)
        assert hyper.delta == 2.0

    def test_prior_degrees_of_freedom_grow_with_grid(self):
        assert HyperParams().nu(101) == 2.0 + 101 - 1

    def test_zero_b3_allowed(self):
        assert HyperParams(b3=0.0).b3 == 0.0

    @pytest.mark.parametrize("field", ["a1", "b1", "a2", "b2", "a3", "delta"])
    def test_nonpositive_rejected(self, field):
        with pytest.raises(HyperParameterError, match=field):
            HyperParams(**{field: 0.0})

    def test_negative_b3_rejected(self):
        with pytest.raises(HyperParameterError, match="b3"):
            HyperParams(b3=-1.0)


class TestFitConfig:
    def test_defaults(self):
        config = FitConfig(penalty=build_penalty(FIRST_DIFF, 5))
        assert config.max_sweeps == 500
        assert config.rel_tol == 1e-6
        assert config.jitter_scale == 1e-8

    def test_default_builds_the_first_difference_penalty_on_the_grid(self):
        config = FitConfig.default(7)
        assert config.penalty.descriptor == FIRST_DIFF
        np.testing.assert_array_equal(config.penalty.matrix, build_penalty(FIRST_DIFF, 7).matrix)

    def test_boundary_values_accepted(self):
        config = FitConfig(
            penalty=build_penalty(FIRST_DIFF, 5), max_sweeps=np.int64(0), rel_tol=0.0,
            jitter_scale=0.0,
        )
        assert (config.max_sweeps, config.rel_tol, config.jitter_scale) == (0, 0.0, 0.0)

    @pytest.mark.parametrize("field,value", [
        ("max_sweeps", -1), ("max_sweeps", 2.5), ("max_sweeps", "3"), ("max_sweeps", True),
        ("rel_tol", np.nan), ("rel_tol", -1e-6), ("rel_tol", np.inf), ("rel_tol", "x"),
        ("jitter_scale", np.nan), ("jitter_scale", -1e-8), ("jitter_scale", np.inf),
        ("jitter_scale", None),
    ])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValidationError, match=field):
            FitConfig(penalty=build_penalty(FIRST_DIFF, 5), **{field: value})


class TestPooledWithinScatter:
    def test_matches_direct_computation(self):
        rng = np.random.default_rng(3)
        data = sample_well_posed_dataset(rng)
        means = data.class_means()
        scatter = pooled_within_scatter(data.y, data.labels, means)
        centered = data.y - means[data.labels - 1]
        np.testing.assert_allclose(scatter, centered.T @ centered / data.n)

    def test_zero_at_class_means(self):
        y = np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 6.0], [5.0, 6.0]])
        labels = np.array([1, 1, 2, 2])
        means = np.array([[1.0, 2.0], [5.0, 6.0]])
        np.testing.assert_allclose(
            pooled_within_scatter(y, labels, means), 0.0, atol=1e-15
        )

    @pytest.mark.parametrize("n,p,contiguous", [
        (20, 101, True), (200, 101, True), (100, 1600, True), (60, 40, False),
    ])
    def test_exactly_symmetric(self, n, p, contiguous):
        # The covariance update and PDA's within matrix add a multiple of
        # the penalty to this scatter without symmetrizing the sum.
        rng = np.random.default_rng(n + p)
        y = rng.standard_normal((n, p if contiguous else 2 * p))
        if not contiguous:
            y = y[:, ::2]
            assert not y.flags.c_contiguous
        labels = np.arange(n) % 3 + 1
        data = LabeledFunctionalDataset(y=y, labels=labels, label_names=(1, 2, 3))
        scatter = pooled_within_scatter(y, labels, data.class_means())
        assert np.array_equal(scatter, scatter.T)


def _independent_terms(state, data, hyper, penalty):
    """Recompute every objective term from first principles."""
    n, p, c = data.n, data.p, data.c
    sw_inv = np.linalg.inv(state.sigma_w)
    _, logdet_sw = np.linalg.slogdet(state.sigma_w)
    resid = data.y - state.x
    centered = state.x - state.mu[data.labels - 1]
    nu = hyper.delta + p - 1
    return {
        "obs_loglik": -np.sum(resid**2) / state.sigma2 - n * p * math.log(state.sigma2),
        "latent_loglik": -np.sum(centered * (centered @ sw_inv)) - n * logdet_sw,
        "mean_prior": -state.alpha1 * np.sum(state.mu * (state.mu @ penalty.matrix))
        + c * math.log(state.alpha1),
        "cov_prior": -state.alpha2 * np.trace(sw_inv @ penalty.matrix)
        + p * math.log(state.alpha2)
        - (nu + p + 1) * logdet_sw,
        "alpha1_prior": 2 * (hyper.a1 - 1) * math.log(state.alpha1)
        - 2 * hyper.b1 * state.alpha1,
        "alpha2_prior": 2 * (hyper.a2 - 1) * math.log(state.alpha2)
        - 2 * hyper.b2 * state.alpha2,
        "noise_precision_prior": -2 * (hyper.a3 - 1) * math.log(state.sigma2)
        - 2 * hyper.b3 / state.sigma2,
        "constant": 0.0,
        "data_fidelity": -np.sum(resid**2) / state.sigma2,
    }


class TestLogPosterior:
    def test_every_term_matches_independent_computation(self):
        rng = np.random.default_rng(41)
        data = sample_well_posed_dataset(rng)
        state = random_posterior_state(rng, data)
        hyper = HyperParams(a1=1.5, b1=3.0, a2=2.0, b2=7.0, a3=1.2, b3=0.4, delta=3.0)
        penalty = build_penalty(FIRST_DIFF, data.p)
        terms = log_posterior_terms(state, data, hyper, penalty)
        expected = _independent_terms(state, data, hyper, penalty)
        for name, value in expected.items():
            assert getattr(terms, name) == pytest.approx(value, rel=1e-10), name

    def test_total_sums_addends_but_not_the_diagnostic(self):
        rng = np.random.default_rng(43)
        data = sample_well_posed_dataset(rng)
        state = random_posterior_state(rng, data)
        penalty = build_penalty(FIRST_DIFF, data.p)
        terms = log_posterior_terms(state, data, HyperParams(), penalty)
        addends = [
            terms.obs_loglik,
            terms.latent_loglik,
            terms.mean_prior,
            terms.cov_prior,
            terms.alpha1_prior,
            terms.alpha2_prior,
            terms.noise_precision_prior,
            terms.constant,
        ]
        assert terms.total() == pytest.approx(sum(addends), rel=1e-12)
        assert log_posterior(state, data, HyperParams(), penalty) == terms.total()
        # the fidelity diagnostic is part of obs_loglik, not a ninth addend
        assert terms.data_fidelity == pytest.approx(
            terms.obs_loglik + data.n * data.p * math.log(state.sigma2), rel=1e-10
        )

    def test_perfect_fit_has_zero_fidelity_penalty(self):
        rng = np.random.default_rng(47)
        data = sample_well_posed_dataset(rng)
        state = random_posterior_state(rng, data)
        exact = dataclasses.replace(state, x=data.y.copy())
        terms = log_posterior_terms(exact, data, HyperParams(), build_penalty(FIRST_DIFF, data.p))
        assert terms.data_fidelity == 0.0

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(53)
        data = sample_well_posed_dataset(rng)
        state = random_posterior_state(rng, data)
        penalty = build_penalty(FIRST_DIFF, data.p)
        bad = dataclasses.replace(state, x=state.x[:, :-1])
        with pytest.raises(DimensionError, match="x has shape"):
            log_posterior_terms(bad, data, HyperParams(), penalty)
        bad = dataclasses.replace(state, mu=state.mu[:-1])
        with pytest.raises(DimensionError, match="mu has shape"):
            log_posterior_terms(bad, data, HyperParams(), penalty)

    def test_penalty_grid_mismatch_rejected(self):
        rng = np.random.default_rng(61)
        data = sample_well_posed_dataset(rng)
        state = random_posterior_state(rng, data)
        penalty = build_penalty(FIRST_DIFF, data.p + 1)
        message = f"penalty is built for grid length {data.p + 1}, data has p={data.p}"
        with pytest.raises(DimensionError, match=message):
            log_posterior(state, data, HyperParams(), penalty)

    def test_nonpositive_scalars_rejected(self):
        rng = np.random.default_rng(59)
        data = sample_well_posed_dataset(rng)
        state = random_posterior_state(rng, data)
        penalty = build_penalty(FIRST_DIFF, data.p)
        for name in ("alpha1", "alpha2", "sigma2"):
            bad = dataclasses.replace(state, **{name: 0.0})
            with pytest.raises(ValidationError, match=name):
                log_posterior_terms(bad, data, HyperParams(), penalty)


def _low_rank_case(rng, case):
    """An n < p dataset, its penalty, and a well-conditioned covariance.

    The covariance is the initial state's, with a prior mean alpha2 that
    makes beta = rho alpha2 / n near 1 and a jitter of 5 % of the mean
    eigenvalue.  Returns (data, penalty, hyper, jitter, state).
    """
    if case < 2:
        # 13 x 12 is past DENSE_DCT_BELOW_P, so it rotates by fast transforms.
        penalty = build_penalty(LAPLACIAN_2D, ((6, 7), (13, 12))[case])
    else:
        kind = (FIRST_DIFF, SECOND_DIFF)[case % 2]
        penalty = build_penalty(kind, int(rng.integers(12, 121)))
    p = penalty.p
    c = int(rng.integers(2, 5))
    n = int(rng.integers(c + 1, p))
    labels = np.concatenate([np.arange(1, c + 1), rng.integers(1, c + 1, size=n - c)])
    data = LabeledFunctionalDataset(
        y=rng.standard_normal((n, p)) + labels[:, None] * 0.5,
        labels=labels,
        label_names=tuple(range(1, c + 1)),
    )
    # n + nu + p + 1 under the default delta = 2, so beta = alpha2 / nu_total.
    nu_total = n + 2.0 + p - 1 + p + 1.0
    hyper = HyperParams(b2=1.0 / (float(rng.uniform(0.5, 2.0)) * nu_total))
    jitter = 0.05
    state = initial_state(data, hyper, FitConfig(penalty=penalty, jitter_scale=jitter))
    return data, penalty, hyper, jitter, state


def _rel(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


class TestWithinCovariance:
    """The low-rank form against the Cholesky form of the same matrix."""

    CASES = range(12)

    @pytest.mark.parametrize("case", CASES)
    def test_woodbury_operations_match_cholesky(self, case):
        rng = np.random.default_rng(300 + case)
        data, penalty, hyper, jitter, state = _low_rank_case(rng, case)
        low_rank = state.sigma_w
        assert isinstance(low_rank, WoodburyForm)
        dense = dense_sigma_w(state.x, state.mu, data, state.alpha2, penalty, hyper, jitter)
        full = CholeskyForm(dense, penalty)
        assert _rel(low_rank.dense(), dense) <= 1e-12
        np.testing.assert_array_equal(np.asarray(low_rank), low_rank.dense())

        rows = rng.standard_normal((5, data.p))
        means = rng.standard_normal((5, data.p))
        assert _rel(low_rank.solve(rows), full.solve(rows)) <= 1e-8
        for shift in (0.0, 1e-3, 0.7):
            assert _rel(low_rank.blend(rows, means, shift), full.blend(rows, means, shift)) <= 1e-8
        assert _rel(low_rank.log_det, full.log_det) <= 1e-8
        assert _rel(low_rank.penalty_trace, full.penalty_trace) <= 1e-8
        scales = rng.uniform(0.01, 3.0, size=data.c)
        xbar = rng.standard_normal((data.c, data.p))
        assert _rel(low_rank.smooth_means(xbar, scales), full.smooth_means(xbar, scales)) <= 1e-8
        weight, count = float(rng.uniform(0.1, 2.0)), float(rng.uniform(1.0, 50.0))
        assert _rel(
            low_rank.gradient_norm(rows, low_rank.solve(rows), weight, count),
            full.gradient_norm(rows, full.solve(rows), weight, count),
        ) <= 1e-8

    @pytest.mark.parametrize("case", CASES)
    def test_solve_and_blend_match_the_written_out_systems(self, case):
        # Both forms' solve and blend share one body over shifted_solve, so
        # each is checked against np.linalg.solve on the formula's matrix.
        rng = np.random.default_rng(350 + case)
        data, penalty, hyper, jitter, state = _low_rank_case(rng, case)
        dense = dense_sigma_w(state.x, state.mu, data, state.alpha2, penalty, hyper, jitter)
        rows = rng.standard_normal((5, data.p))
        means = rng.standard_normal((5, data.p))
        eye = np.eye(data.p)
        for form in (state.sigma_w, CholeskyForm(dense, penalty)):
            assert _rel(form.solve(rows), np.linalg.solve(dense, rows.T).T) <= 1e-8
            for shift in (1e-3, 0.7):
                expected = np.linalg.solve(dense + shift * eye, dense @ rows.T + shift * means.T)
                assert _rel(form.blend(rows, means, shift), expected.T) <= 1e-8

    @pytest.mark.parametrize("case", CASES)
    def test_relative_change_matches_dense(self, case):
        rng = np.random.default_rng(400 + case)
        data, penalty, hyper, jitter, state = _low_rank_case(rng, case)
        old = state.sigma_w
        for step in (1e-9, 1e-4, 0.3):
            root = old.root + step * rng.standard_normal(old.root.shape)
            beta = old.beta * (1.0 + step)
            eps = jitter * (np.sum(root**2) + beta * np.trace(penalty.matrix)) / data.p
            new = WoodburyForm(root, beta, eps, penalty)
            dense_change = (np.linalg.norm(new.dense() - old.dense())
                            / (1.0 + np.linalg.norm(old.dense())))
            assert new.relative_change(old) == pytest.approx(dense_change, rel=1e-6)
            assert CholeskyForm(new.dense(), penalty).relative_change(old) == pytest.approx(
                dense_change, rel=1e-12
            )

    @pytest.mark.parametrize("case", range(4))
    def test_objective_and_residuals_read_either_form(self, case):
        rng = np.random.default_rng(500 + case)
        data, penalty, hyper, jitter, state = _low_rank_case(rng, case)
        state = dataclasses.replace(
            state, x=state.x + 0.1 * rng.standard_normal(state.x.shape),
            mu=rng.standard_normal(state.mu.shape), sigma2=0.3,
        )
        dense = dataclasses.replace(state, sigma_w=CholeskyForm(state.sigma_w.dense(), penalty))
        low = log_posterior_terms(state, data, hyper, penalty)
        full = log_posterior_terms(dense, data, hyper, penalty)
        for name in ("latent_loglik", "cov_prior"):
            assert getattr(low, name) == pytest.approx(getattr(full, name), rel=1e-8), name
        low = first_order_residuals(state, data, hyper, penalty).as_dict()
        full = first_order_residuals(dense, data, hyper, penalty).as_dict()
        for name, value in full.items():
            assert low[name] == pytest.approx(value, rel=1e-8, abs=1e-9), name

    def test_a_value_built_on_another_penalty_is_rejected(self):
        rng = np.random.default_rng(600)
        data, penalty, hyper, jitter, state = _low_rank_case(rng, 2)
        other = build_penalty(SECOND_DIFF, penalty.p)
        sigma_w = state.sigma_w
        calls = (
            lambda: update_alpha2(sigma_w, other, hyper),
            lambda: update_mu(state.x, data, sigma_w, state.alpha1, other),
            lambda: log_posterior(state, data, hyper, other),
            lambda: first_order_residuals(state, data, hyper, other),
            lambda: fit(data, hyper, FitConfig(penalty=other, max_sweeps=1), start=state),
        )
        for call in calls:
            with pytest.raises(ValidationError, match="different penalty"):
                call()

    @pytest.mark.parametrize("entry", [
        "update_x", "update_alpha2", "update_mu", "log_posterior", "first_order_residuals",
        "fit",
    ])
    def test_a_bare_matrix_is_rejected_with_a_typed_error(self, entry):
        train, _ = generate(SimSpec("sim1", 50, 2, seed=0))
        hyper, config = HyperParams(), FitConfig.default(train.p)
        penalty, state = config.penalty, initial_state(train, hyper, config)
        matrix = np.eye(train.p)
        bare = dataclasses.replace(state, sigma_w=matrix)
        calls = {
            "update_x": lambda: update_x(train, state.mu, matrix, state.sigma2),
            "update_alpha2": lambda: update_alpha2(matrix, penalty, hyper),
            "update_mu": lambda: update_mu(state.x, train, matrix, state.alpha1, penalty),
            "log_posterior": lambda: log_posterior(bare, train, hyper, penalty),
            "first_order_residuals": lambda: first_order_residuals(bare, train, hyper, penalty),
            "fit": lambda: fit(train, hyper, config, start=bare),
        }
        message = r"got ndarray; wrap a matrix in CholeskyForm\(matrix, penalty\)"
        with pytest.raises(ValidationError, match=message):
            calls[entry]()

    @pytest.mark.parametrize("entry", ["update_alpha2", "log_posterior", "first_order_residuals"])
    @pytest.mark.parametrize("value", [None, [[1.0]]], ids=["None", "list"])
    def test_a_value_without_a_shape_is_rejected_with_a_typed_error(self, entry, value):
        # The type is checked before any shape is read.
        train, _ = generate(SimSpec("sim1", 50, 2, seed=0))
        hyper, config = HyperParams(), FitConfig.default(train.p)
        penalty, state = config.penalty, initial_state(train, hyper, config)
        bare = dataclasses.replace(state, sigma_w=value)
        calls = {
            "update_alpha2": lambda: update_alpha2(value, penalty, hyper),
            "log_posterior": lambda: log_posterior(bare, train, hyper, penalty),
            "first_order_residuals": lambda: first_order_residuals(bare, train, hyper, penalty),
        }
        with pytest.raises(ValidationError, match=f"got {type(value).__name__};"):
            calls[entry]()

    @pytest.mark.parametrize("case", [0, 1, 11])
    def test_norm_is_the_frobenius_norm_of_the_matrix(self, case):
        rng = np.random.default_rng(300 + case)
        state = _low_rank_case(rng, case)[-1]
        low_rank = state.sigma_w
        full = CholeskyForm(low_rank.dense(), low_rank.penalty)
        for within in (low_rank, full):
            assert within.norm == pytest.approx(frobenius_norm(within.dense()), rel=1e-12)
            assert within.__dict__["norm"] == within.norm  # computed once, then cached
        assert full.norm == frobenius_norm(full.matrix)

    def test_an_equal_penalty_matrix_is_accepted(self):
        rng = np.random.default_rng(601)
        data, penalty, hyper, jitter, state = _low_rank_case(rng, 2)
        twin = build_penalty(penalty.kind, penalty.p)
        assert twin is not penalty
        assert update_alpha2(state.sigma_w, twin, hyper) == update_alpha2(
            state.sigma_w, penalty, hyper)
        np.testing.assert_array_equal(
            update_mu(state.x, data, state.sigma_w, state.alpha1, twin),
            update_mu(state.x, data, state.sigma_w, state.alpha1, penalty),
        )
        assert log_posterior(state, data, hyper, twin) == log_posterior(
            state, data, hyper, penalty)
        assert first_order_residuals(state, data, hyper, twin) == first_order_residuals(
            state, data, hyper, penalty)
        config = FitConfig(penalty=twin, max_sweeps=1, jitter_scale=jitter)
        _, trace = fit(data, hyper, config, start=state)
        assert trace.sweeps_run == 1


def _fit_end_gradient_case(name):
    """What ``first_order_residuals`` hands ``gradient_norm`` at the end of
    a fit: the fitted Sigma_w, the centred latent curves, alpha2 and
    k = n + nu + p + 1.  ``lap2d_<side>`` fits n = 60 images, and
    ``lap2d_16_c3`` the same images relabelled into three classes."""
    if name.startswith("sim"):
        which, n_train = name.split("_N")
        data, _ = generate(SimSpec(which, int(n_train), 2, seed=0))
        config = FitConfig.default(data.p)
    else:
        side = int(name.split("_")[1])
        data = lap2d_image_set(np.random.default_rng(side), 60, side, side)
        if name.endswith("c3"):
            data = LabeledFunctionalDataset(y=data.y, labels=np.arange(data.n) % 3 + 1,
                                            label_names=(1, 2, 3))
        config = FitConfig(penalty=build_penalty(LAPLACIAN_2D, (side, side)))
    hyper = HyperParams()
    state, _ = fit(data, hyper, config)
    count = data.n + hyper.nu(data.p) + data.p + 1.0
    return state.sigma_w, state.x - state.mu[data.labels - 1], state.alpha2, count


def _heavy_modes(within):
    return np.flatnonzero(within.d < model._HEAVY_MODE * np.median(within.d))


class TestGramGradientNorm:
    """``WoodburyForm.gradient_norm`` sums the squared gradient from its
    diagonal and the 3n x 3n Gram of its stack, with the rows of heavy
    modes formed whole; the two-GEMM body that formed the whole p x p
    gradient is the oracle."""

    @pytest.mark.parametrize("name", ["sim1_N50", "sim2_N20", "lap2d_16", "lap2d_20",
                                      "lap2d_16_c3"])
    def test_fit_end_states(self, name):
        within, rows, weight, count = _fit_end_gradient_case(name)
        assert isinstance(within, WoodburyForm)
        assert within.gradient_norm(rows, within.solve(rows), weight, count) == pytest.approx(
            two_gemm_gradient_norm(within, rows, weight, count), rel=1e-12)

    @pytest.mark.parametrize("case", TestWithinCovariance.CASES)
    def test_low_rank_cases(self, case):
        rng = np.random.default_rng(300 + case)
        data, penalty, hyper, jitter, state = _low_rank_case(rng, case)
        within = state.sigma_w
        count = data.n + hyper.nu(data.p) + data.p + 1.0
        centered = state.x - state.mu[data.labels - 1]
        for rows in (centered, rng.standard_normal((5, data.p))):
            assert within.gradient_norm(rows, within.solve(rows), state.alpha2, count) == (
                pytest.approx(two_gemm_gradient_norm(within, rows, state.alpha2, count), rel=1e-12))

    @pytest.mark.parametrize("case", TestWithinCovariance.CASES)
    def test_heavy_modes_are_formed_whole(self, case):
        # A jitter of 1e-3 times the median d leaves the penalty's null
        # modes (and the next few) far below the rest: the heavy-row branch.
        rng = np.random.default_rng(300 + case)
        data, penalty, hyper, jitter, state = _low_rank_case(rng, case)
        low = state.sigma_w
        within = WoodburyForm(low.root, low.beta, 1e-3 * float(np.median(low.d)), penalty)
        assert np.argmin(within.d) in _heavy_modes(within)
        count = data.n + hyper.nu(data.p) + data.p + 1.0
        centered = state.x - state.mu[data.labels - 1]
        for rows in (centered, rng.standard_normal((5, data.p))):
            assert within.gradient_norm(rows, within.solve(rows), state.alpha2, count) == (
                pytest.approx(two_gemm_gradient_norm(within, rows, state.alpha2, count), rel=1e-12))

    def test_heavy_modes_past_one_block(self):
        # Two root rows and one row make a stack 5 columns wide, against
        # 17 heavy modes: they are formed in blocks of at most 5 rows.
        rng = np.random.default_rng(307)
        data, penalty, hyper, jitter, state = _low_rank_case(rng, 7)
        low = state.sigma_w
        within = WoodburyForm(low.root[:2], low.beta, 1e-3 * float(np.median(low.d)), penalty)
        assert _heavy_modes(within).size > 5
        rows = rng.standard_normal((1, data.p))
        assert within.gradient_norm(rows, within.solve(rows), state.alpha2, 7.0) == pytest.approx(
            two_gemm_gradient_norm(within, rows, state.alpha2, 7.0), rel=1e-12)

    @pytest.mark.parametrize("eps", [1e-8, 1e-6, 1e-4])
    def test_stiff_values_sum_no_worse_than_the_strip_sum(self, eps):
        # ROADMAP item 2's probe: rows, weight and count of a Sigma_w
        # update point (beta = 1), where the gradient is -k eps Sigma_w^-2
        # and each entry cancels terms near k / d.  Both float64 sums are
        # compared with the long-double sum of the same stack.
        penalty = build_penalty(FIRST_DIFF, 101)
        root = 0.3 * np.random.default_rng(0).standard_normal((20, 101))
        within = WoodburyForm(root, 1.0, eps, penalty)
        assert _heavy_modes(within).size > 0
        rows, weight, count = math.sqrt(500.0) * root, 500.0, 500.0
        solved = within.solve(rows)
        exact = stack_gradient_norm(within, solved, weight, count, np.longdouble)
        strip = stack_gradient_norm(within, solved, weight, count, np.float64)
        error = abs(within.gradient_norm(rows, solved, weight, count) - exact) / exact
        assert error <= max(2.0 * abs(strip - exact) / exact, 1e-9)

    def test_exact_dot_is_correctly_rounded(self):
        rng = np.random.default_rng(31)
        for scale in (1.0, 1e8, 1e-8):
            a = scale * rng.standard_normal(60)
            b = rng.standard_normal(60) / scale
            start = -float(a @ b)  # cancels all but the rounding error
            exact = Fraction(start) + sum(Fraction(x) * Fraction(y) for x, y in zip(a, b))
            assert model._exact_dot(a, b, start) == float(exact)

    def test_image_residuals_allocate_less_than_one_p_by_p_array(self):
        rng = np.random.default_rng(23)
        data = lap2d_image_set(rng, 40, 40, 40)
        hyper = HyperParams()
        config = FitConfig(penalty=build_penalty(LAPLACIAN_2D, (40, 40)))
        state, _ = fit(data, hyper, config)
        assert isinstance(state.sigma_w, WoodburyForm)
        tracemalloc.start()
        try:
            first_order_residuals(state, data, hyper, config.penalty)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * data.p**2

    def test_image_residuals_allocate_a_few_n_by_p_arrays(self):
        # 64 x 64 images with n = 100: the residuals hold y - x, the
        # centred curves, their solve and the (p, 3n) stack, and trace
        # less than twelve n x p arrays.
        rng = np.random.default_rng(23)
        data = lap2d_image_set(rng, 100, 64, 64)
        hyper = HyperParams()
        config = FitConfig(penalty=build_penalty(LAPLACIAN_2D, (64, 64)))
        state, _ = fit(data, hyper, config)
        assert isinstance(state.sigma_w, WoodburyForm)
        tracemalloc.start()
        try:
            first_order_residuals(state, data, hyper, config.penalty)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * data.n * data.p * 8


class TestPosteriorState:
    @pytest.mark.parametrize("block", ["x", "mu", "sigma_w", "alpha1", "alpha2", "sigma2"])
    def test_is_finite_reads_every_block(self, block):
        rng = np.random.default_rng(610)
        data = sample_well_posed_dataset(rng)
        state = random_posterior_state(rng, data)
        assert state.is_finite()
        value = getattr(state, block)
        if block == "sigma_w":
            matrix = value.dense().copy()
            matrix[1, 0] = np.inf
            bad = CholeskyForm(matrix, value.penalty)
        elif isinstance(value, np.ndarray):
            bad = value.copy()
            bad[-1, -1] = np.nan
        else:
            bad = np.nan
        assert not dataclasses.replace(state, **{block: bad}).is_finite()

    @pytest.mark.parametrize("n_train,form", [(50, WoodburyForm), (200, CholeskyForm)])
    def test_relative_change_is_the_largest_block_change(self, n_train, form):
        # Two fitted states one sweep apart, on each covariance form.
        train, _ = generate(SimSpec("sim1", n_train, 2, seed=0))
        config = FitConfig(penalty=build_penalty(FIRST_DIFF, train.p), max_sweeps=1)
        old, _ = fit(train, config=config)
        new, _ = fit(train, config=config, start=old)
        assert isinstance(new.sigma_w, form) and isinstance(old.sigma_w, form)

        def change(name):
            a, b = np.asarray(getattr(new, name)), np.asarray(getattr(old, name))
            return np.linalg.norm(a - b) / (1.0 + np.linalg.norm(b))

        names = ("alpha1", "alpha2", "sigma2", "x", "mu", "sigma_w")
        for name in names:  # each block moved alone
            alone = dataclasses.replace(old, **{name: getattr(new, name)})
            assert alone.relative_change(old) == pytest.approx(change(name), rel=1e-6), name
        assert new.relative_change(old) == pytest.approx(max(map(change, names)), rel=1e-6)


class TestDatasetDirect:
    def test_properties_reflect_arrays(self):
        data = LabeledFunctionalDataset(
            y=np.zeros((4, 3)),
            labels=np.array([1, 2, 1, 2]),
            label_names=("x", "y"),
        )
        assert (data.n, data.p, data.c) == (4, 3, 2)
        np.testing.assert_array_equal(data.class_counts, [2, 2])
