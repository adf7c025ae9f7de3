"""Tests for the synthetic problems, CV selection, and the benchmark loop."""

import json

import numpy as np
import pytest

from gplda import (
    DEFAULT_PDA_ALPHA_GRID,
    DimensionError,
    LAPLACIAN_2D,
    LabeledFunctionalDataset,
    METHOD_MLE_LDA,
    METHOD_PCA_LDA,
    METHOD_PDA,
    NumericFailureError,
    RunConfig,
    SECOND_DIFF,
    SimSpec,
    SmoothingPenalty,
    ValidationError,
    build_penalty,
    error_rate,
    generate,
    normalize_method,
    pda_fit,
    predict,
    run_benchmark,
    select_pda_alpha,
    sim1_grid,
    sim2_grid,
    sim2_mean_difference,
    sim2_shared_component,
    triangular_bump,
)
from gplda import simulate as simulate_module

from helpers import lap2d_image_set, reference_pda_cv, two_class_separable


class TestGrids:
    def test_first_grid_spacing_and_range(self):
        t = sim1_grid()
        assert t.shape == (101,)
        assert t[0] == 1.0 and t[-1] == 21.0
        np.testing.assert_allclose(np.diff(t), 0.2)

    def test_second_grid_range(self):
        t = sim2_grid()
        assert t.shape == (100,)
        assert t[0] == 0.0 and t[-1] == 1.0


class TestCurveShapes:
    def test_bump_peaks(self):
        t = sim1_grid()
        centre = triangular_bump(t)
        right = triangular_bump(t - 4.0)
        left = triangular_bump(t + 4.0)
        assert centre[t == 11.0] == pytest.approx(6.0)
        assert right[t == 15.0] == pytest.approx(6.0)
        assert left[t == 7.0] == pytest.approx(6.0)
        assert centre.min() == 0.0
        # supports: [5, 17], [9, 21], [1, 13]
        assert np.all(centre[(t < 5.0) | (t > 17.0)] == 0.0)
        assert np.all(right[t < 9.0] == 0.0)
        assert np.all(left[t > 13.0] == 0.0)

    def test_noiseless_first_problem_respects_supports(self):
        train, _ = generate(SimSpec("sim1", 40, 2, seed=9), noise_scale=0.0)
        t = sim1_grid()
        class1 = train.y[train.labels == 1]
        class2 = train.y[train.labels == 2]
        # class 1 blends the centre and right bumps, class 2 centre and left
        assert np.all(np.abs(class1[:, t < 5.0]) < 1e-12)
        assert np.all(np.abs(class2[:, t > 17.0]) < 1e-12)
        assert train.y.min() >= 0.0
        assert train.y.max() <= 6.0 + 1e-12

    def test_mean_offset_value(self):
        assert sim2_mean_difference(0.25) == pytest.approx(0.25)
        assert sim2_shared_component(0.125) == pytest.approx(1.0)

    def test_second_problem_class_means_differ_by_offset(self):
        train, _ = generate(SimSpec("sim2", 4000, 2, seed=1))
        t = sim2_grid()
        gap = train.y[train.labels == 1].mean(axis=0) - train.y[
            train.labels == 2
        ].mean(axis=0)
        idx = np.argmin(np.abs(t - 0.25))
        assert gap[idx] == pytest.approx(0.25, abs=0.03)

    def test_second_problem_noise_variance(self):
        train, _ = generate(SimSpec("sim2", 4000, 2, seed=2))
        # at t=0 the shared component and the offset both vanish, leaving
        # pure observation noise for class 2
        class2_at_zero = train.y[train.labels == 2][:, 0]
        assert np.var(class2_at_zero) == pytest.approx(0.1, abs=0.02)


class TestGenerate:
    def test_deterministic_and_role_separated(self):
        spec = SimSpec("sim1", 20, 30, seed=5)
        train_a, test_a = generate(spec)
        train_b, test_b = generate(spec)
        np.testing.assert_array_equal(train_a.y, train_b.y)
        np.testing.assert_array_equal(test_a.y, test_b.y)
        assert train_a.n == 20 and test_a.n == 30
        assert not np.array_equal(train_a.y[:10], test_a.y[:10])

    def test_balanced_labels(self):
        train, _ = generate(SimSpec("sim2", 24, 2, seed=0))
        np.testing.assert_array_equal(train.class_counts, [12, 12])
        assert train.label_names == (1, 2)

    def test_different_seeds_differ(self):
        a, _ = generate(SimSpec("sim1", 10, 2, seed=0))
        b, _ = generate(SimSpec("sim1", 10, 2, seed=1))
        assert not np.array_equal(a.y, b.y)

    def test_spec_validation(self):
        with pytest.raises(ValidationError, match="unknown simulation"):
            SimSpec("sim3", 10, 10)
        with pytest.raises(ValidationError, match="even"):
            SimSpec("sim1", 9, 10)
        with pytest.raises(ValidationError, match="even"):
            SimSpec("sim1", 10, 0)

    def test_noiseless_first_problem_is_separable(self):
        # without noise the curves span only two directions, so the within
        # matrix needs a small ridge, carried here by the penalty, to be
        # factorizable at all
        train, test = generate(SimSpec("sim1", 200, 200, seed=3), noise_scale=0.0)
        d2 = build_penalty(SECOND_DIFF, train.p).matrix
        ridged = SmoothingPenalty(matrix=d2 + 1e-7 * np.eye(train.p), kind=SECOND_DIFF)
        model = pda_fit(train, ridged, alpha=0.1)
        predicted = predict(model, test.y)
        truth = np.asarray(test.label_names)[test.labels - 1]
        assert error_rate(predicted, truth) <= 0.01


class TestSelectPdaAlpha:
    def test_returns_grid_member_deterministically(self):
        data = two_class_separable(10, 15, gap=1.0, seed=13)
        penalty = build_penalty(SECOND_DIFF, 15)
        first = select_pda_alpha(data, penalty, seed=4)
        second = select_pda_alpha(data, penalty, seed=4)
        assert first == second
        assert first in DEFAULT_PDA_ALPHA_GRID

    def test_tie_resolves_to_smallest_candidate(self):
        # a huge gap makes every candidate error-free, so the tie rule decides
        data = two_class_separable(10, 8, gap=50.0, seed=17)
        penalty = build_penalty(SECOND_DIFF, 8)
        assert select_pda_alpha(data, penalty) == DEFAULT_PDA_ALPHA_GRID[0]
        alpha, errors = reference_pda_cv(data, penalty)
        assert errors == (0.0,) * len(DEFAULT_PDA_ALPHA_GRID)
        assert simulate_module.pda_cv_errors(data, penalty) == errors
        assert alpha == DEFAULT_PDA_ALPHA_GRID[0]

    @pytest.mark.parametrize(
        "sizes, named", [((1, 1), "a"), ((6, 1), "b")], ids=["one-each", "six-and-one"]
    )
    def test_class_with_one_curve_is_rejected(self, sizes, named):
        # a one-curve class is missing from the training part of its fold
        labels = np.repeat([1, 2], sizes)
        data = LabeledFunctionalDataset(
            y=np.random.default_rng(0).standard_normal((labels.size, 6)),
            labels=labels,
            label_names=("a", "b"),
        )
        penalty = build_penalty(SECOND_DIFF, 6)
        message = f"class '{named}' has 1 curve.*--alpha"
        with pytest.raises(ValidationError, match=message) as raised:
            select_pda_alpha(data, penalty)
        with pytest.raises(ValidationError) as expected:
            reference_pda_cv(data, penalty)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize(
        "which, n_train", [("sim1", 50), ("sim1", 200), ("sim2", 20)]
    )
    def test_matches_the_fit_per_fold_reference(self, which, n_train):
        for seed in range(20):
            train, _ = generate(SimSpec(which, n_train, 2, seed=seed))
            penalty = build_penalty(SECOND_DIFF, train.p)
            alpha, errors = reference_pda_cv(train, penalty, seed)
            assert simulate_module.pda_cv_errors(train, penalty, seed) == errors
            if seed == 0:
                assert select_pda_alpha(train, penalty, seed) == alpha

    @pytest.mark.parametrize("seed", range(3))
    def test_lap2d_images_match_the_dense_reference(self, seed):
        # Each fold trains on n < p images, so with the closed-form lap2d
        # basis every candidate takes the low-rank solve; the reference
        # factors every fold's p x p within matrix.
        train = lap2d_image_set(np.random.default_rng(seed), 40, 16, 16)
        penalty = build_penalty(LAPLACIAN_2D, (16, 16))
        alpha, errors = reference_pda_cv(train, penalty, seed)
        assert simulate_module.pda_cv_errors(train, penalty, seed) == errors
        assert select_pda_alpha(train, penalty, seed) == alpha

    def test_failing_candidates_score_one_as_in_the_reference(self):
        # an indefinite "penalty" makes S + alpha * Omega indefinite once
        # alpha is large, so those candidates' fold fits raise
        data = two_class_separable(20, 6, gap=0.7, seed=3)
        matrix = build_penalty(SECOND_DIFF, 6).matrix - 0.5 * np.eye(6)
        penalty = SmoothingPenalty(matrix=matrix, kind=SECOND_DIFF)
        alpha, errors = reference_pda_cv(data, penalty)
        assert errors[0] < 1.0 and errors[-1] == 1.0
        assert simulate_module.pda_cv_errors(data, penalty) == errors
        assert select_pda_alpha(data, penalty) == alpha

    def test_mismatched_penalty_fails_once_before_any_fold_model(self, monkeypatch):
        data = two_class_separable(10, 8, gap=1.0, seed=13)
        penalty = build_penalty(SECOND_DIFF, 9)
        with pytest.raises(DimensionError) as expected:
            reference_pda_cv(data, penalty)
        seen = []
        monkeypatch.setattr(simulate_module, "predict", lambda *args: seen.append(args))
        with pytest.raises(DimensionError) as raised:
            select_pda_alpha(data, penalty)
        assert str(raised.value) == str(expected.value)
        assert seen == []

    def test_default_grid_is_increasing_and_positive(self):
        grid = np.asarray(DEFAULT_PDA_ALPHA_GRID)
        assert np.all(grid > 0)
        assert np.all(np.diff(grid) > 0)


class TestNormalizeMethod:
    def test_cli_names_and_tags(self):
        assert normalize_method("gplda") == "GPLDA"
        assert normalize_method("pda") == METHOD_PDA
        assert normalize_method("mle") == METHOD_MLE_LDA
        assert normalize_method("pca-lda") == METHOD_PCA_LDA
        assert normalize_method("MLE_LDA") == METHOD_MLE_LDA

    def test_unknown_rejected(self):
        with pytest.raises(ValidationError, match="unknown method"):
            normalize_method("svm")


class TestRunBenchmark:
    def test_cells_errors_and_csv_shape(self):
        report = run_benchmark(
            which="sim1",
            methods=["mle", "pca-lda"],
            n_values=(20,),
            reps=3,
            base_seed=0,
            n_test=40,
            config=RunConfig(pca_q=2),
        )
        assert report.reps == 3 and report.base_seed == 0
        cell = report.cell("mle", 20)
        assert cell.method == METHOD_MLE_LDA
        assert len(cell.errors) + cell.failures == 3
        assert all(0.0 <= e <= 1.0 for e in cell.errors)
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "method,N,mean_pct,std_pct,failures,seconds"
        assert len(lines) == 3
        summary = report.to_summary()
        assert {c["method"] for c in summary["cells"]} == {
            METHOD_MLE_LDA, METHOD_PCA_LDA,
        }

    def test_replication_results_do_not_depend_on_rep_count(self):
        kwargs = dict(
            which="sim1", methods=["mle"], n_values=(20,), base_seed=7, n_test=30
        )
        short = run_benchmark(reps=2, **kwargs)
        long = run_benchmark(reps=3, **kwargs)
        assert short.cell("mle", 20).errors == long.cell("mle", 20).errors[:2]

    @pytest.mark.parametrize(
        "methods, n_values, repeated",
        [(["pda", "PDA"], (50,), "method 'PDA'"), (["pda"], (50, 50), "training size 50")],
        ids=["method", "size"],
    )
    def test_repeated_methods_or_sizes_rejected(self, methods, n_values, repeated):
        # A repeated cell would be reported as extra replications of one draw.
        with pytest.raises(ValidationError, match=f"{repeated} is listed more than once"):
            run_benchmark(which="sim1", methods=methods, n_values=n_values, reps=1, base_seed=0)

    def test_single_replication_has_zero_spread(self):
        report = run_benchmark(
            which="sim2", methods=["pca-lda"], n_values=(20,), reps=1,
            base_seed=0, n_test=30,
        )
        assert report.cell("pca-lda", 20).std_pct == 0.0

    def test_numeric_failures_counted_not_raised(self):
        # a hard-zero ridge makes the pooled scatter singular when p > n
        report = run_benchmark(
            which="sim2", methods=["mle"], n_values=(20,), reps=2,
            base_seed=0, n_test=10, config=RunConfig(mle_ridge=0.0),
        )
        cell = report.cell("mle", 20)
        assert cell.failures == 2
        assert cell.errors == ()
        assert np.isnan(cell.mean_pct)
        assert len(cell.failure_reasons) == 2
        assert all(r.startswith("SingularMatrixError: ") for r in cell.failure_reasons)

    def test_failure_reasons_reach_the_summary(self, monkeypatch):
        fit_method = simulate_module.fit_method

        def failing_second_replication(method, train, config, seed):
            if seed == 1:
                raise NumericFailureError("estimate became non-finite during sweep 3", sweep=3)
            return fit_method(method, train, config, seed)

        monkeypatch.setattr(simulate_module, "fit_method", failing_second_replication)
        report = run_benchmark(
            which="sim1", methods=["mle"], n_values=(20,), reps=3, base_seed=0, n_test=10
        )
        reason = "NumericFailureError: estimate became non-finite during sweep 3"
        cell = report.cell("mle", 20)
        assert (cell.failures, cell.replications) == (1, (0, 2))
        assert cell.failure_reasons == (reason,)
        summary = json.loads(json.dumps(report.to_summary()))
        assert summary["cells"][0]["failure_reasons"] == [reason]
        assert report.to_csv().splitlines()[0] == "method,N,mean_pct,std_pct,failures,seconds"

    def test_unknown_cell_rejected(self):
        report = run_benchmark(
            which="sim1", methods=["mle"], n_values=(20,), reps=1,
            base_seed=0, n_test=10,
        )
        with pytest.raises(KeyError):
            report.cell("pda", 20)

    def test_argument_validation(self):
        with pytest.raises(ValidationError, match="reps"):
            run_benchmark("sim1", ["mle"], (20,), reps=0, base_seed=0)
        with pytest.raises(ValidationError, match="methods"):
            run_benchmark("sim1", [], (20,), reps=1, base_seed=0)
        with pytest.raises(ValidationError, match="training sizes list is empty"):
            run_benchmark("sim1", ["mle"], (), reps=1, base_seed=0)
