"""Tests for difference operators, penalty matrices, and the eigensolver."""

import numpy as np
import pytest

from gplda import (
    FIRST_DIFF,
    LAPLACIAN_2D,
    SECOND_DIFF,
    DegenerateBetweenCovarianceError,
    DimensionError,
    SingularMatrixError,
    build_penalty,
    between_covariance,
    generalized_eig_top,
    spd_solve,
)

from helpers import (
    dense_generalized_eig_top,
    loop_difference_operator,
    loop_laplacian_stencil,
    random_spd_matrix,
)


class TestDifferenceOperators:
    def test_first_difference_entries(self):
        d = np.array(
            [
                [-1.0, 1.0, 0.0, 0.0],
                [0.0, -1.0, 1.0, 0.0],
                [0.0, 0.0, -1.0, 1.0],
            ]
        )
        np.testing.assert_array_equal(build_penalty(FIRST_DIFF, 4).matrix, d.T @ d)

    def test_first_difference_applies_adjacent_differences(self):
        omega = build_penalty(FIRST_DIFF, 5).matrix
        v = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        assert v @ omega @ v == pytest.approx(np.sum(np.diff(v) ** 2))

    def test_second_difference_entries(self):
        d = np.array(
            [
                [1.0, -2.0, 1.0, 0.0, 0.0],
                [0.0, 1.0, -2.0, 1.0, 0.0],
                [0.0, 0.0, 1.0, -2.0, 1.0],
            ]
        )
        np.testing.assert_array_equal(build_penalty(SECOND_DIFF, 5).matrix, d.T @ d)

    def test_second_difference_annihilates_lines(self):
        omega = build_penalty(SECOND_DIFF, 7).matrix
        line = 2.0 + 3.0 * np.arange(7)
        np.testing.assert_allclose(omega @ line, 0.0, atol=1e-12)

    def test_too_small_grids_rejected(self):
        with pytest.raises(DimensionError, match="at least 2 grid points"):
            build_penalty(FIRST_DIFF, 1)
        with pytest.raises(DimensionError, match="at least 3 grid points"):
            build_penalty(SECOND_DIFF, 2)

    @pytest.mark.parametrize(
        "kind,order,p",
        [(FIRST_DIFF, 1, p) for p in (2, 3, 30, 101, 400)]
        + [(SECOND_DIFF, 2, p) for p in (3, 4, 30, 101, 400)],
    )
    def test_gram_bytes_match_loop_operator(self, kind, order, p):
        d = loop_difference_operator(p, order)
        expected = d.T @ d
        assert build_penalty(kind, p).matrix.tobytes() == expected.tobytes()


class TestPenaltyMatrices:
    def test_first_difference_gram_3x3(self):
        penalty = build_penalty(FIRST_DIFF, 3)
        expected = np.array(
            [
                [1.0, -1.0, 0.0],
                [-1.0, 2.0, -1.0],
                [0.0, -1.0, 1.0],
            ]
        )
        np.testing.assert_allclose(penalty.matrix, expected)
        assert penalty.kind == FIRST_DIFF
        assert penalty.p == 3
        assert penalty.descriptor == "d1"

    def test_gram_matches_operator_product(self):
        d = loop_difference_operator(9, 2)
        penalty = build_penalty(SECOND_DIFF, 9)
        np.testing.assert_allclose(penalty.matrix, d.T @ d)

    @pytest.mark.parametrize("kind,p", [(FIRST_DIFF, 8), (SECOND_DIFF, 11)])
    def test_row_sums_vanish(self, kind, p):
        penalty = build_penalty(kind, p)
        np.testing.assert_allclose(penalty.matrix @ np.ones(p), 0.0, atol=1e-12)

    @pytest.mark.parametrize("kind,p", [(FIRST_DIFF, 6), (SECOND_DIFF, 10)])
    def test_positive_semidefinite_and_symmetric(self, kind, p):
        omega = build_penalty(kind, p).matrix
        np.testing.assert_allclose(omega, omega.T)
        assert np.linalg.eigvalsh(omega).min() >= -1e-10

    def test_quadratic_form_measures_roughness(self):
        penalty = build_penalty(FIRST_DIFF, 50)
        smooth = np.linspace(0.0, 1.0, 50)
        rough = np.resize([0.0, 1.0], 50)
        quad = lambda v: float(v @ penalty.matrix @ v)
        assert quad(smooth) < quad(rough)

    def test_one_dimensional_kinds_reject_tuple_dims(self):
        with pytest.raises(DimensionError, match="single grid length"):
            build_penalty(FIRST_DIFF, (8,))

    def test_unknown_kind_rejected(self):
        with pytest.raises(DimensionError, match="unknown penalty kind"):
            build_penalty("d3", 8)


class TestLaplacianStencil:
    def test_shape_symmetry_and_row_sums(self):
        omega = build_penalty(LAPLACIAN_2D, (3, 4)).matrix
        assert omega.shape == (12, 12)
        np.testing.assert_array_equal(omega, omega.T)
        np.testing.assert_allclose(omega @ np.ones(12), 0.0, atol=1e-12)

    def test_centre_weights_count_in_bounds_neighbours(self):
        # diag(L^T L) = deg^2 + deg for a node with deg in-bounds neighbours
        diag = np.diag(build_penalty(LAPLACIAN_2D, (3, 3)).matrix)
        # corner, edge, interior of a 3x3 grid
        assert diag[0] == 2.0 ** 2 + 2.0
        assert diag[1] == 3.0 ** 2 + 3.0
        assert diag[4] == 4.0 ** 2 + 4.0

    def test_two_dimensional_penalty_gram(self):
        penalty = build_penalty(LAPLACIAN_2D, (3, 4))
        stencil = loop_laplacian_stencil(3, 4)
        np.testing.assert_allclose(penalty.matrix, stencil.T @ stencil)
        assert penalty.grid == (3, 4)
        assert penalty.descriptor == "lap2d:3x4"
        assert np.linalg.eigvalsh(penalty.matrix).min() >= -1e-10

    @pytest.mark.parametrize("rows,cols", [(2, 2), (3, 5), (7, 4), (40, 40)])
    def test_gram_bytes_match_loop_stencil(self, rows, cols):
        stencil = loop_laplacian_stencil(rows, cols)
        expected = stencil.T @ stencil
        matrix = build_penalty(LAPLACIAN_2D, (rows, cols)).matrix
        assert matrix.tobytes() == expected.tobytes()

    def test_grid_shape_required(self):
        with pytest.raises(DimensionError, match="rows, cols"):
            build_penalty(LAPLACIAN_2D, 12)
        with pytest.raises(DimensionError, match="at least 2x2"):
            build_penalty(LAPLACIAN_2D, (1, 5))


class TestSpdSolve:
    def test_matches_generic_solver(self):
        rng = np.random.default_rng(7)
        a = random_spd_matrix(rng, 6)
        b = rng.standard_normal((6, 3))
        np.testing.assert_allclose(spd_solve(a, b), np.linalg.solve(a, b), atol=1e-10)

    def test_vector_right_hand_side(self):
        a = np.array([[4.0, 1.0], [1.0, 3.0]])
        b = np.array([1.0, 2.0])
        x = spd_solve(a, b)
        np.testing.assert_allclose(a @ x, b, atol=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError, match="square"):
            spd_solve(np.ones((2, 3)), np.ones(2))

    def test_rejects_length_mismatch(self):
        with pytest.raises(DimensionError, match="does not match"):
            spd_solve(np.eye(3), np.ones(2))

    def test_indefinite_matrix_raises(self):
        with pytest.raises(SingularMatrixError):
            spd_solve(np.diag([1.0, -1.0]), np.ones(2))


class TestGeneralizedEigTop:
    def test_identity_within_hand_case(self):
        between = np.diag([4.0, 0.0])
        values, directions = generalized_eig_top(between, np.eye(2), 1)
        np.testing.assert_allclose(values, [4.0], atol=1e-12)
        np.testing.assert_allclose(directions, [[1.0, 0.0]], atol=1e-12)

    def test_diagonal_within_hand_case(self):
        between = 2.0 * np.eye(2)
        within = np.diag([1.0, 4.0])
        values, directions = generalized_eig_top(between, within, 2)
        np.testing.assert_allclose(values, [2.0, 0.5], atol=1e-12)
        np.testing.assert_allclose(directions, [[1.0, 0.0], [0.0, 0.5]], atol=1e-12)

    def test_within_orthonormal_directions(self):
        rng = np.random.default_rng(11)
        within = random_spd_matrix(rng, 7)
        mu = rng.standard_normal((3, 7))
        centered = mu - mu.mean(axis=0)
        between = centered.T @ centered
        values, directions = generalized_eig_top(between, within, 2)
        gram = directions @ within @ directions.T
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-8)

    def test_eigen_residuals_vanish(self):
        rng = np.random.default_rng(13)
        within = random_spd_matrix(rng, 6)
        root = rng.standard_normal((6, 6))
        between = root @ root.T
        values, directions = generalized_eig_top(between, within, 3)
        for value, beta in zip(values, directions):
            np.testing.assert_allclose(between @ beta, value * (within @ beta), atol=1e-8)

    def test_eigenvalues_descend(self):
        rng = np.random.default_rng(17)
        within = random_spd_matrix(rng, 8)
        root = rng.standard_normal((8, 8))
        between = root @ root.T
        values, _ = generalized_eig_top(between, within, 8)
        assert np.all(np.diff(values) <= 1e-10)

    def test_between_scale_moves_eigenvalues_not_directions(self):
        rng = np.random.default_rng(19)
        within = random_spd_matrix(rng, 5)
        root = rng.standard_normal((5, 5))
        between = root @ root.T
        values, directions = generalized_eig_top(between, within, 2)
        scaled_values, scaled_directions = generalized_eig_top(
            7.5 * between, within, 2
        )
        np.testing.assert_allclose(scaled_values, 7.5 * values, rtol=1e-9)
        np.testing.assert_allclose(scaled_directions, directions, atol=1e-8)

    def test_within_scale_rescales_directions(self):
        rng = np.random.default_rng(23)
        within = random_spd_matrix(rng, 5)
        root = rng.standard_normal((5, 5))
        between = root @ root.T
        values, directions = generalized_eig_top(between, within, 2)
        scaled_values, scaled_directions = generalized_eig_top(
            between, 4.0 * within, 2
        )
        np.testing.assert_allclose(scaled_values, values / 4.0, rtol=1e-9)
        np.testing.assert_allclose(scaled_directions, directions / 2.0, atol=1e-8)

    def test_sign_convention_largest_entry_positive(self):
        rng = np.random.default_rng(29)
        within = random_spd_matrix(rng, 6)
        root = rng.standard_normal((6, 6))
        between = root @ root.T
        _, directions = generalized_eig_top(between, within, 4)
        for row in directions:
            assert row[np.argmax(np.abs(row))] > 0

    def test_rejects_bad_shapes_and_k(self):
        with pytest.raises(DimensionError, match="square"):
            generalized_eig_top(np.ones((2, 3)), np.eye(2), 1)
        with pytest.raises(DimensionError, match="does not match"):
            generalized_eig_top(np.eye(3), np.eye(2), 1)
        with pytest.raises(DimensionError, match="k=0"):
            generalized_eig_top(np.eye(2), np.eye(2), 0)
        with pytest.raises(DimensionError, match="k=3"):
            generalized_eig_top(np.eye(2), np.eye(2), 3)

    def test_zero_between_is_degenerate(self):
        with pytest.raises(DegenerateBetweenCovarianceError):
            generalized_eig_top(np.zeros((3, 3)), np.eye(3), 1)

    def test_singular_within_raises(self):
        between = np.eye(2)
        with pytest.raises(SingularMatrixError):
            generalized_eig_top(between, np.diag([1.0, 0.0]), 1)

    def test_rank_deficient_between_pads_with_zero_values(self):
        rng = np.random.default_rng(37)
        p = 9
        within = random_spd_matrix(rng, p)
        direction = rng.standard_normal(p)
        mu = np.outer([-1.0, 0.5, 2.0], direction)  # collinear: rank-1 scatter
        between = between_covariance(mu)
        values, directions = generalized_eig_top(between, within, 2)
        assert values.shape == (2,)
        assert directions.shape == (2, p)
        assert values[1] == 0.0
        assert values[0] >= values[1]
        np.testing.assert_allclose(
            directions @ within @ directions.T, np.eye(2), atol=1e-10
        )
        for value, beta in zip(values, directions):
            residual = between @ beta - value * (within @ beta)
            assert np.linalg.norm(residual) <= 1e-8

    def test_matches_dense_whitened_eigendecomposition(self):
        """The low-rank route agrees with the dense oracle on 120 random cases."""
        rng = np.random.default_rng(31)
        worst_values = worst_directions = 0.0
        for case in range(120):
            p = int(rng.integers(2, 121))
            within = random_spd_matrix(rng, p)
            if case % 6 == 5:  # full-rank numerator
                root = rng.standard_normal((p, p))
                between = root @ root.T
                k = min(3, p)
            else:  # rank c - 1 scatter of class means at scales 0.01..10
                c = int(rng.integers(2, 6))
                scale = float(10.0 ** rng.uniform(-2.0, 1.0))
                between = between_covariance(scale * rng.standard_normal((c, p)))
                k = min(c - 1, p)
            values, directions = generalized_eig_top(between, within, k)
            ref_values, ref_directions = dense_generalized_eig_top(between, within, k)
            worst_values = max(
                worst_values,
                float(np.max(np.abs(values - ref_values)) / np.max(np.abs(ref_values))),
            )
            worst_directions = max(
                worst_directions,
                float(np.max(
                    np.linalg.norm(directions - ref_directions, axis=1)
                    / np.linalg.norm(ref_directions, axis=1)
                )),
            )
        assert worst_values <= 1e-10
        assert worst_directions <= 1e-10
