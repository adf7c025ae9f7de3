"""Tests for discriminant fitting, baselines, and prediction."""

from dataclasses import replace

import numpy as np
import pytest

from gplda import (
    DEFAULT_PDA_ALPHA_GRID,
    FIRST_DIFF,
    LAPLACIAN_2D,
    SECOND_DIFF,
    DimensionError,
    DiscriminantModel,
    FitConfig,
    HyperParams,
    LabeledFunctionalDataset,
    METHOD_GPLDA,
    METHOD_MLE_LDA,
    METHOD_PCA_LDA,
    METHOD_PDA,
    SimSpec,
    SingularMatrixError,
    ValidationError,
    between_covariance,
    build_penalty,
    error_rate,
    generalized_eig_top,
    generate,
    gplda_directions,
    gplda_fit,
    mle_lda_fit,
    pca_lda_fit,
    pda_fit,
    pooled_within_scatter,
    predict,
    select_pda_alpha,
)
from gplda import discriminant as discriminant_module
from gplda import estimator as estimator_module
from gplda import linalg as linalg_module
from gplda import model as model_module
from gplda.estimator import fit
from gplda.linalg import Gram, blas_threads_for
from gplda.model import CholeskyForm, WoodburyForm

from helpers import (
    lap2d_image_set,
    load_tool,
    random_posterior_state,
    sample_well_posed_dataset,
    two_class_separable,
)


class TestBetweenCovariance:
    def test_hand_case(self):
        mu = np.array([[1.0, 0.0], [-1.0, 0.0]])
        np.testing.assert_allclose(between_covariance(mu), np.diag([2.0, 0.0]))

    def test_rank_bounded_by_classes_minus_one(self):
        rng = np.random.default_rng(5)
        mu = rng.standard_normal((3, 10))
        b = between_covariance(mu)
        assert np.linalg.matrix_rank(b, tol=1e-10) <= 2

    def test_single_mean_rejected(self):
        with pytest.raises(ValidationError, match="at least 2 class means"):
            between_covariance(np.ones((1, 4)))


class TestGpldaDirections:
    def test_uses_state_estimates(self):
        rng = np.random.default_rng(7)
        data = sample_well_posed_dataset(rng)
        state = random_posterior_state(rng, data)
        model = gplda_directions(state, data.label_names)
        assert model.method_tag == METHOD_GPLDA
        assert model.k == data.c - 1
        values, directions = generalized_eig_top(
            between_covariance(state.mu), state.sigma_w, data.c - 1
        )
        np.testing.assert_allclose(model.directions, directions, atol=1e-10)
        np.testing.assert_allclose(model.eigenvalues, values, atol=1e-10)
        np.testing.assert_allclose(
            model.projected_centroids, state.mu @ directions.T, atol=1e-10
        )

    def test_label_count_mismatch_rejected(self):
        rng = np.random.default_rng(11)
        data = sample_well_posed_dataset(rng)
        state = random_posterior_state(rng, data)
        with pytest.raises(DimensionError, match="class labels"):
            gplda_directions(state, tuple(range(data.c + 1)))

    def test_requested_k_above_identifiable_is_clamped(self):
        rng = np.random.default_rng(13)
        data = sample_well_posed_dataset(rng)
        state = random_posterior_state(rng, data)
        model = gplda_directions(state, data.label_names, k=data.p + 5)
        assert model.k == data.c - 1
        assert any("clamped" in note for note in model.warnings)

    def test_k_below_one_rejected(self):
        rng = np.random.default_rng(17)
        data = sample_well_posed_dataset(rng)
        state = random_posterior_state(rng, data)
        with pytest.raises(ValidationError, match="k must be at least 1"):
            gplda_directions(state, data.label_names, k=0)


class TestGpldaFit:
    def test_end_to_end_separates_shifted_classes(self):
        train = two_class_separable(15, 8, gap=2.5, seed=0)
        test = two_class_separable(50, 8, gap=2.5, seed=1)
        config = FitConfig(penalty=build_penalty(FIRST_DIFF, 8))
        model, trace = gplda_fit(train, config=config)
        assert trace.converged
        assert model.penalty == "d1"
        predicted = predict(model, test.y)
        truth = np.asarray(test.label_names)[test.labels - 1]
        assert error_rate(predicted, truth) <= 0.05

    def test_directions_come_from_fitted_state(self):
        rng = np.random.default_rng(19)
        data = sample_well_posed_dataset(rng)
        config = FitConfig(penalty=build_penalty(FIRST_DIFF, data.p))
        model, _ = gplda_fit(data, config=config)
        state, _ = fit(data, config=config)
        expected = gplda_directions(state, data.label_names)
        np.testing.assert_allclose(model.directions, expected.directions, atol=1e-10)

    def test_default_config_is_built_once_and_named_in_the_model(self, monkeypatch):
        train = two_class_separable(15, 8, gap=2.5, seed=0)
        passed = []
        original = estimator_module.fit

        def spy(data, hyper=None, config=None):
            passed.append(config)
            return original(data, hyper=hyper, config=config)

        monkeypatch.setattr(estimator_module, "fit", spy)
        model, _ = gplda_fit(train)
        assert passed[0] is not None
        assert model.penalty == passed[0].penalty.descriptor == FIRST_DIFF


def _fit_calls():
    train, _ = generate(SimSpec(which="sim1", n_train=20, n_test=2, seed=0))
    d2 = build_penalty(SECOND_DIFF, train.p)
    return {
        "gplda_fit": lambda: gplda_fit(train),
        "pda_fit": lambda: pda_fit(train, d2, 1.0),
        "mle_lda_fit": lambda: mle_lda_fit(train),
        "pca_lda_fit": lambda: pca_lda_fit(train, q=3),
        "select_pda_alpha": lambda: select_pda_alpha(train, d2),
    }


class TestOneEigensolverRoute:
    @pytest.mark.parametrize(
        "entry", ["gplda_fit", "pda_fit", "mle_lda_fit", "pca_lda_fit", "select_pda_alpha"]
    )
    def test_every_fit_hands_the_solver_its_centred_class_means(self, entry, monkeypatch):
        seen = []
        original = discriminant_module.generalized_eig_top

        def spy(between, within, k):
            seen.append(between)
            return original(between, within, k)

        def dense_between(mu):
            raise AssertionError("a fit built the p x p between matrix")

        monkeypatch.setattr(discriminant_module, "generalized_eig_top", spy)
        monkeypatch.setattr(discriminant_module, "between_covariance", dense_between)
        _fit_calls()[entry]()
        assert seen and all(isinstance(between, Gram) for between in seen)
        # one solve per fit; the cross-validation solves 9 candidates x 5 folds
        assert len(seen) == (45 if entry == "select_pda_alpha" else 1)


def _operator_case(name):
    """(train, test, config) of a named GPLDA case: sim1 N=50 and sim2
    N=20 fit the low-rank Sigma_w, sim1 N=200 the Cholesky form, and the
    12 x 12 lap2d images with n = 60 are the fit of tools/fit_digest.py."""
    if name == "lap2d_12x12_N60":
        images = load_tool("fit_digest").lap2d_images
        config = FitConfig(penalty=build_penalty(LAPLACIAN_2D, (12, 12)))
        return images(60, 12, seed=0), images(200, 12, seed=1), config
    which, n_train = {"sim1_N50": ("sim1", 50), "sim1_N200": ("sim1", 200),
                      "sim2_N20": ("sim2", 20)}[name]
    train, test = generate(SimSpec(which, n_train, 200, seed=0))
    return train, test, FitConfig.default(train.p)


def _matrix_route(state, k):
    """The directions of ``state`` through the p x p matrix of Sigma_w."""
    with blas_threads_for():
        between = Gram((state.mu - state.mu.mean(axis=0)).T)
        return generalized_eig_top(between, np.asarray(state.sigma_w), k)


class TestOperatorRoute:
    """GPLDA's directions through the Sigma_w operator against those through
    its p x p matrix (``_matrix_route``)."""

    FORMS = {"sim1_N50": WoodburyForm, "sim1_N200": CholeskyForm, "sim2_N20": WoodburyForm,
             "lap2d_12x12_N60": WoodburyForm}

    @pytest.fixture(scope="class", params=sorted(FORMS))
    def fitted(self, request):
        train, test, config = _operator_case(request.param)
        state, _ = fit(train, config=config)
        assert isinstance(state.sigma_w, self.FORMS[request.param])
        model = gplda_directions(state, train.label_names)
        return state, model, test

    def test_directions_match_the_matrix_route(self, fitted):
        state, model, _ = fitted
        values, directions = _matrix_route(state, model.k)
        np.testing.assert_allclose(model.eigenvalues, values, rtol=1e-5)
        moved = np.linalg.norm(model.directions - directions, axis=1)
        assert np.all(moved <= 1e-5 * np.linalg.norm(directions, axis=1))

    def test_directions_are_orthonormal_against_the_operator_matrix(self, fitted):
        state, model, _ = fitted
        assert model.within_cov_used is state.sigma_w
        within = np.asarray(model.within_cov_used)
        gram = model.directions @ within @ model.directions.T
        np.testing.assert_allclose(gram, np.eye(model.k), rtol=0.0, atol=1e-6)

    def test_no_test_label_flips(self, fitted):
        state, model, test = fitted
        _, directions = _matrix_route(state, model.k)
        reference = replace(model, directions=directions,
                            projected_centroids=state.mu @ directions.T)
        assert test.n == 200
        np.testing.assert_array_equal(predict(model, test.y), predict(reference, test.y))

    @pytest.mark.parametrize("name", ["sim1_N50", "sim1_N200"])
    def test_collinear_means_take_the_matrix_route(self, name, monkeypatch):
        # c = 3 means on one line: the second value is rounding, so it is
        # returned as zero, and the operator is made dense once to complete
        # the set with a direction against its matrix.
        train, _, config = _operator_case(name)
        state, _ = fit(train, config=config)
        gap = state.mu[0] - state.mu[1]
        collinear = replace(state, mu=state.mu[1] + np.outer([-1.0, 0.5, 2.0], gap))
        expected_values, expected = _matrix_route(collinear, 2)
        within = np.asarray(state.sigma_w)
        densified = []
        form = type(state.sigma_w)
        original = form.dense

        def spy_dense(self):
            densified.append(self)
            return original(self)

        monkeypatch.setattr(form, "dense", spy_dense)
        model = gplda_directions(collinear, (1, 2, 3), k=2)
        assert densified == [state.sigma_w]
        assert model.eigenvalues[1] == 0.0
        np.testing.assert_allclose(model.eigenvalues[0], expected_values[0], rtol=1e-5)
        moved = np.linalg.norm(model.directions[0] - expected[0])
        assert moved <= 1e-5 * np.linalg.norm(expected[0])
        gram = model.directions @ within @ model.directions.T
        np.testing.assert_allclose(gram, np.eye(2), rtol=0.0, atol=1e-6)

    def test_a_matrix_between_takes_the_matrix_route(self, monkeypatch):
        # A p x p between is reduced to its pivoted Cholesky factor, which
        # is solved against the operator as given: Sigma_w stays low rank.
        train, _, config = _operator_case("sim1_N50")
        state, _ = fit(train, config=config)
        assert isinstance(state.sigma_w, WoodburyForm)
        between = between_covariance(state.mu)
        within = np.asarray(state.sigma_w)

        def no_dense(self):
            raise AssertionError("the p x p matrix of Sigma_w was formed")

        monkeypatch.setattr(WoodburyForm, "dense", no_dense)
        with blas_threads_for():
            values, directions = generalized_eig_top(between, state.sigma_w, 1)
            expected_values, expected = generalized_eig_top(between, within, 1)
        np.testing.assert_allclose(values, expected_values, rtol=1e-5)
        moved = np.linalg.norm(directions - expected, axis=1)
        assert np.all(moved <= 1e-5 * np.linalg.norm(expected, axis=1))

    def test_a_low_rank_fit_forms_no_p_by_p_matrix_or_factor(self, monkeypatch):
        train, test, config = _operator_case("lap2d_12x12_N60")
        p, factored = train.p, []
        original = linalg_module.cholesky_factor

        def no_dense(self):
            raise AssertionError("the p x p matrix of Sigma_w was formed")

        def small_factor(a):
            factored.append(np.shape(a))
            assert np.shape(a)[0] < p, "a p x p matrix was Cholesky factored"
            return original(a)

        monkeypatch.setattr(WoodburyForm, "dense", no_dense)
        for module in (linalg_module, model_module):
            monkeypatch.setattr(module, "cholesky_factor", small_factor)
        model, _ = gplda_fit(train, config=config)
        assert factored and isinstance(model.within_cov_used, WoodburyForm)
        truth = np.asarray(test.label_names)[test.labels - 1]
        assert error_rate(predict(model, test.y), truth) < 0.5


class TestPdaFit:
    def test_zero_alpha_recovers_plain_discriminant(self):
        rng = np.random.default_rng(23)
        data = sample_well_posed_dataset(rng)
        penalty = build_penalty(SECOND_DIFF, data.p)
        plain = mle_lda_fit(data, ridge=0.0)
        penalized = pda_fit(data, penalty, alpha=0.0)
        np.testing.assert_allclose(
            penalized.directions, plain.directions, atol=1e-8
        )

    def test_matches_generic_eigensolver(self):
        rng = np.random.default_rng(29)
        data = sample_well_posed_dataset(rng)
        penalty = build_penalty(SECOND_DIFF, data.p)
        alpha = 3.5
        model = pda_fit(data, penalty, alpha=alpha)
        mu = data.class_means()
        within = pooled_within_scatter(data.y, data.labels, mu) + alpha * penalty.matrix
        _, directions = generalized_eig_top(
            between_covariance(mu), within, data.c - 1
        )
        np.testing.assert_allclose(model.directions, directions, atol=1e-8)
        assert model.method_tag == METHOD_PDA
        assert model.penalty == "d2"

    def test_huge_alpha_drives_direction_into_penalty_nullspace(self):
        # first differences annihilate constants, so an overwhelming penalty
        # leaves only the constant direction affordable
        data = two_class_separable(20, 12, gap=1.0, seed=3)
        penalty = build_penalty(FIRST_DIFF, 12)
        model = pda_fit(data, penalty, alpha=1e6)
        direction = model.directions[0]
        constant = np.ones(12) / np.sqrt(12)
        cosine = abs(direction @ constant) / np.linalg.norm(direction)
        assert cosine >= 0.99

    @pytest.mark.parametrize("alpha", [-1.0, np.nan, np.inf])
    def test_negative_alpha_rejected(self, alpha):
        rng = np.random.default_rng(31)
        data = sample_well_posed_dataset(rng)
        with pytest.raises(ValidationError, match="non-negative"):
            pda_fit(data, build_penalty(SECOND_DIFF, data.p), alpha=alpha)

    def test_penalty_grid_mismatch_rejected(self):
        rng = np.random.default_rng(37)
        data = sample_well_posed_dataset(rng)
        with pytest.raises(DimensionError, match="penalty is built for"):
            pda_fit(data, build_penalty(SECOND_DIFF, data.p + 2), alpha=1.0)

    @pytest.mark.parametrize("kind", [FIRST_DIFF, SECOND_DIFF, LAPLACIAN_2D])
    def test_within_matrix_is_exactly_symmetric(self, kind):
        # The pooled scatter plus a multiple of the penalty, unsymmetrized.
        rng = np.random.default_rng(43)
        data = lap2d_image_set(rng, 60, 20, 20)
        dims = (20, 20) if kind == LAPLACIAN_2D else data.p
        within = pda_fit(data, build_penalty(kind, dims), alpha=0.37).within_cov_used
        assert np.array_equal(within, within.T)

    def test_too_few_curves_rejected(self):
        # One curve per class leaves a zero scatter, which the d2 penalty
        # alone cannot make positive definite.
        data = LabeledFunctionalDataset(
            y=np.arange(6.0).reshape(2, 3), labels=np.array([1, 2]), label_names=(1, 2)
        )
        with pytest.raises(ValidationError, match="more curves than classes"):
            pda_fit(data, build_penalty(SECOND_DIFF, 3), 1.0)

    def test_singular_scatter_rescued_by_penalty(self):
        # more grid points than curves: the scatter alone is singular, the
        # penalized within matrix is not
        data = two_class_separable(5, 40, gap=1.0, seed=5)
        penalty = build_penalty(SECOND_DIFF, 40)
        model = pda_fit(data, penalty, alpha=1.0)
        assert model.directions.shape == (1, 40)


def _pda_case(kind, c):
    """(train, test, penalty) with n = 60 < p: images of 10 x 20 under
    first differences (p = 200) or of 16 x 16 under the grid Laplacian,
    relabelled into c classes, each shifted by its own smooth curve."""
    rows, cols = (10, 20) if kind == FIRST_DIFF else (16, 16)
    rng = np.random.default_rng(719 + c)
    t = np.linspace(0.0, 1.0, rows * cols)
    sets = []
    for n in (60, 200):
        images = lap2d_image_set(rng, n, rows, cols)
        labels = np.arange(n) % c + 1
        shifts = 1.5 * np.cos(np.pi * np.outer(np.arange(1, c + 1), t))
        sets.append(LabeledFunctionalDataset(
            y=images.y + shifts[labels - 1], labels=labels, label_names=tuple(range(1, c + 1))))
    dims = (rows, cols) if kind == LAPLACIAN_2D else rows * cols
    return sets[0], sets[1], build_penalty(kind, dims)


def _factor_sizes(monkeypatch):
    """Record the size of every matrix the package Cholesky factors."""
    sizes, original = [], linalg_module.cholesky_factor

    def spy(a):
        sizes.append(np.shape(a)[0])
        return original(a)

    for module in (linalg_module, model_module):
        monkeypatch.setattr(module, "cholesky_factor", spy)
    return sizes


class TestPdaEigenbasisSolve:
    """PDA at n < p with a closed-form penalty basis solves its within
    matrix as a ``WoodburyForm`` with zeros on the null modes."""

    @pytest.mark.parametrize("kind", [FIRST_DIFF, LAPLACIAN_2D])
    @pytest.mark.parametrize("c", [2, 3])
    def test_matches_the_dense_solve_at_every_grid_weight(self, kind, c, monkeypatch):
        train, test, penalty = _pda_case(kind, c)
        assert train.n < train.p and penalty.closed_basis
        mu = train.class_means()
        scatter = pooled_within_scatter(train.y, train.labels, mu)
        sizes = _factor_sizes(monkeypatch)
        models = [pda_fit(train, penalty, alpha) for alpha in DEFAULT_PDA_ALPHA_GRID]
        assert sizes and max(sizes) < train.p
        monkeypatch.undo()
        for alpha, model in zip(DEFAULT_PDA_ALPHA_GRID, models):
            within = model.within_cov_used
            np.testing.assert_array_equal(within, scatter + alpha * penalty.matrix)
            with blas_threads_for():
                values, directions = generalized_eig_top(Gram((mu - mu.mean(axis=0)).T), within, c - 1)
            moved = np.linalg.norm(model.directions - directions, axis=1)
            assert np.all(moved <= 1e-8 * np.linalg.norm(directions, axis=1)), alpha
            gram = model.directions @ within @ model.directions.T
            np.testing.assert_allclose(gram, np.eye(c - 1), rtol=0.0, atol=1e-10)
            reference = replace(model, directions=directions, projected_centroids=mu @ directions.T)
            np.testing.assert_array_equal(predict(model, test.y), predict(reference, test.y))

    @pytest.mark.parametrize("kind,alpha", [(SECOND_DIFF, 10.0), (FIRST_DIFF, 0.0)])
    def test_other_fits_factor_the_within_matrix(self, kind, alpha, monkeypatch):
        # d2 has an eigh basis, whose null modes are not exact zeros, and
        # alpha = 0 leaves the scatter alone, singular at n < p.
        train, _, _ = _pda_case(FIRST_DIFF, 2)
        penalty = build_penalty(kind, train.p)
        sizes = _factor_sizes(monkeypatch)
        try:
            pda_fit(train, penalty, alpha)
        except SingularMatrixError:
            assert alpha == 0.0
        assert sizes == [train.p]

    def test_identical_curves_in_each_class_raise(self):
        # Integer curves and classes of eight: the class means are exact,
        # so the scatter is exactly zero and only the penalty would be
        # left, singular on constants; the dataset is refused before any
        # factor is tried.
        rng = np.random.default_rng(727)
        curves = rng.integers(-5, 6, size=(2, 256)).astype(float)
        labels = np.repeat([1, 2], 8)
        data = LabeledFunctionalDataset(y=curves[labels - 1], labels=labels, label_names=(1, 2))
        with pytest.raises(ValidationError, match="no within-class variation"):
            pda_fit(data, build_penalty(LAPLACIAN_2D, (16, 16)), 10.0)


class TestMleLdaFit:
    def test_two_class_closed_form(self):
        rng = np.random.default_rng(41)
        data = sample_well_posed_dataset(rng)
        if data.c != 2:
            labels = np.where(data.labels == data.c, 1, data.labels)
            data = LabeledFunctionalDataset(
                y=data.y, labels=labels, label_names=(1, 2)
            )
        model = mle_lda_fit(data, ridge=0.0)
        mu = data.class_means()
        scatter = pooled_within_scatter(data.y, data.labels, mu)
        closed_form = np.linalg.solve(scatter, mu[1] - mu[0])
        direction = model.directions[0]
        cosine = abs(direction @ closed_form) / (
            np.linalg.norm(direction) * np.linalg.norm(closed_form)
        )
        assert cosine == pytest.approx(1.0, abs=1e-8)

    def test_duplicating_every_curve_changes_nothing(self):
        rng = np.random.default_rng(43)
        data = sample_well_posed_dataset(rng)
        doubled = LabeledFunctionalDataset(
            y=np.vstack([data.y, data.y]),
            labels=np.concatenate([data.labels, data.labels]),
            label_names=data.label_names,
        )
        np.testing.assert_allclose(
            mle_lda_fit(doubled, ridge=0.0).directions,
            mle_lda_fit(data, ridge=0.0).directions,
            atol=1e-8,
        )

    def test_singular_scatter_without_ridge_raises(self):
        data = two_class_separable(4, 30, gap=1.0, seed=7)
        with pytest.raises(SingularMatrixError):
            mle_lda_fit(data, ridge=0.0)

    def test_automatic_ridge_rescues_singular_scatter(self):
        data = two_class_separable(4, 30, gap=1.0, seed=7)
        model = mle_lda_fit(data)  # ridge defaults on because p >= n
        assert model.directions.shape == (1, 30)

    @pytest.mark.parametrize("ridge", [-0.5, np.nan, np.inf])
    def test_negative_ridge_rejected(self, ridge):
        rng = np.random.default_rng(47)
        data = sample_well_posed_dataset(rng)
        with pytest.raises(ValidationError, match="ridge"):
            mle_lda_fit(data, ridge=ridge)

    def test_too_few_curves_rejected(self):
        data = LabeledFunctionalDataset(
            y=np.zeros((2, 3)), labels=np.array([1, 2]), label_names=(1, 2)
        )
        with pytest.raises(ValidationError, match="more curves than classes"):
            mle_lda_fit(data)


class TestPcaLdaFit:
    def test_full_component_count_is_a_change_of_basis(self):
        rng = np.random.default_rng(53)
        data = sample_well_posed_dataset(rng)
        full = pca_lda_fit(data, q=data.p, ridge=0.0)
        plain = mle_lda_fit(data, ridge=0.0)
        assert full.method_tag == METHOD_PCA_LDA
        for reduced_row, plain_row in zip(full.directions, plain.directions):
            cosine = abs(reduced_row @ plain_row) / (
                np.linalg.norm(reduced_row) * np.linalg.norm(plain_row)
            )
            assert cosine == pytest.approx(1.0, abs=1e-6)
        np.testing.assert_allclose(
            np.sort(full.eigenvalues), np.sort(plain.eigenvalues), rtol=1e-6
        )

    def test_single_component_projects_before_discriminating(self):
        data = two_class_separable(10, 25, gap=0.8, seed=11)
        model = pca_lda_fit(data, q=1)
        assert model.directions.shape == (1, 25)
        # with one component the direction must be that component (up to sign)
        centered = data.y - data.y.mean(axis=0)
        total_cov = centered.T @ centered / data.n
        _, vectors = np.linalg.eigh(total_cov)
        leading = vectors[:, -1]
        cosine = abs(model.directions[0] @ leading) / np.linalg.norm(
            model.directions[0]
        )
        assert cosine == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_matches_total_covariance_eigenvectors(self, q):
        # Oracle: components from eigh of the p x p total covariance.
        train, test = generate(SimSpec(which="sim2", n_train=20, n_test=200, seed=4))
        centered = train.y - train.y.mean(axis=0)
        components = np.linalg.eigh(centered.T @ centered / train.n)[1][:, ::-1][:, :q]
        reduced = LabeledFunctionalDataset(
            y=train.y @ components, labels=train.labels, label_names=train.label_names
        )
        submodel = mle_lda_fit(reduced)
        oracle = replace(submodel, directions=submodel.directions @ components.T)
        model = pca_lda_fit(train, q=q)
        signs = np.sign(np.sum(model.directions * oracle.directions, axis=1, keepdims=True))
        np.testing.assert_allclose(
            model.directions * signs, oracle.directions,
            rtol=0, atol=1e-10 * np.abs(oracle.directions).max(),
        )
        np.testing.assert_array_equal(predict(model, test.y), predict(oracle, test.y))

    def test_one_component_with_close_projected_means_fits(self):
        # The two projected class means differ by about 8e-6, far below
        # the noise but well above rounding, so one direction exists.
        train, _ = generate(SimSpec("sim2", 20, 200, seed=606000045))
        model = pca_lda_fit(train, q=1)
        assert model.directions.shape == (1, train.p)
        assert np.all(np.isfinite(model.directions))

    def test_non_finite_curves_stop_before_any_factorisation(self):
        data = two_class_separable(10, 25, gap=0.8, seed=11)
        y = data.y.copy()
        y[4, 3] = np.nan
        with pytest.raises(ValidationError, match="row 5 contains a non-finite value"):
            pca_lda_fit(replace(data, y=y), q=2)

    def test_component_count_out_of_range_rejected(self):
        rng = np.random.default_rng(59)
        data = sample_well_posed_dataset(rng)
        with pytest.raises(ValidationError, match="outside the valid range"):
            pca_lda_fit(data, q=0)
        with pytest.raises(ValidationError, match="outside the valid range"):
            pca_lda_fit(data, q=min(data.n, data.p) + 1)


@pytest.fixture(scope="module")
def class_two_curves_and_models():
    train, test = generate(SimSpec(which="sim1", n_train=20, n_test=20, seed=0))
    models = {
        METHOD_GPLDA: gplda_fit(train)[0],
        METHOD_PDA: pda_fit(train, build_penalty(SECOND_DIFF, train.p), 1.0),
        METHOD_MLE_LDA: mle_lda_fit(train),
        METHOD_PCA_LDA: pca_lda_fit(train, q=3),
    }
    return test.y[test.labels == 2][:3], models


class TestPredict:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "method", [METHOD_GPLDA, METHOD_PDA, METHOD_MLE_LDA, METHOD_PCA_LDA]
    )
    def test_non_finite_curve_rejected_naming_its_row(
        self, class_two_curves_and_models, method, bad
    ):
        curves, models = class_two_curves_and_models
        model = models[method]
        curves = curves.copy()
        curves[1, 7] = bad
        with pytest.raises(ValidationError, match="^row 2 contains a non-finite value$"):
            predict(model, curves)
        with pytest.raises(ValidationError, match="^row 1 contains a non-finite value$"):
            predict(model, curves[1])
        assert predict(model, curves[[0, 2]]).shape == (2,)

    @staticmethod
    def _line_model():
        return DiscriminantModel(
            method_tag=METHOD_MLE_LDA,
            directions=np.array([[1.0, 0.0]]),
            projected_centroids=np.array([[-1.0], [1.0]]),
            class_labels=("a", "b"),
        )

    def test_nearest_centroid_hand_case(self):
        model = self._line_model()
        assert predict(model, np.array([0.4, 99.0])) == "b"
        assert predict(model, np.array([-0.4, -99.0])) == "a"

    def test_tie_resolves_to_lowest_class_index(self):
        model = self._line_model()
        assert predict(model, np.array([0.0, 0.0])) == "a"

    def test_batch_shape_and_types(self):
        model = self._line_model()
        batch = np.array([[0.4, 0.0], [-2.0, 0.0], [3.0, 0.0]])
        predicted = predict(model, batch)
        np.testing.assert_array_equal(predicted, ["b", "a", "b"])

    def test_grid_length_mismatch_rejected(self):
        with pytest.raises(DimensionError, match="grid length"):
            predict(self._line_model(), np.ones(3))

    def test_whitened_distance_equals_mahalanobis(self):
        # directions are normalized against the within covariance, so the
        # projected Euclidean rule reproduces the Mahalanobis rule on the
        # discriminant subspace
        rng = np.random.default_rng(61)
        data = sample_well_posed_dataset(rng)
        model = mle_lda_fit(data, ridge=0.0)
        gram = model.directions @ model.within_cov_used @ model.directions.T
        np.testing.assert_allclose(gram, np.eye(model.k), atol=1e-8)


class TestErrorRate:
    def test_fraction_of_mismatches(self):
        assert error_rate([1, 2, 2, 1], [1, 2, 1, 1]) == pytest.approx(0.25)

    def test_string_labels(self):
        assert error_rate(["a", "b"], ["a", "a"]) == pytest.approx(0.5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="shape"):
            error_rate([1, 2], [1, 2, 3])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="zero labels"):
            error_rate([], [])
