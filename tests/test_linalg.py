"""Tests for difference operators, penalty matrices, and the eigensolver."""

import ast
import glob
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gplda
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
from gplda import discriminant as discriminant_module
from gplda import estimator as estimator_module
from gplda import linalg as linalg_module
from gplda.linalg import (
    Gram,
    PenaltyBasis,
    SmoothingPenalty,
    blas_threads_for,
    frobenius_norm,
)
from gplda.model import CholeskyForm, WoodburyForm

from helpers import (
    dense_generalized_eig_top,
    kron_laplacian_gram,
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


def _dense_basis(basis: PenaltyBasis, p: int) -> np.ndarray:
    """The basis as a p x p matrix Q, its columns the eigenvectors."""
    return basis.rotate(np.eye(p))


def _dct_matrix(m: int) -> np.ndarray:
    """Orthonormal DCT-II vectors as columns, from their defining formula."""
    j, k = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    q = np.cos(np.pi * k * (2 * j + 1) / (2 * m)) * np.sqrt(2.0 / m)
    q[:, 0] /= np.sqrt(2.0)
    return q


class TestPenaltyBasis:
    CASES = [(FIRST_DIFF, p) for p in (2, 3, 4, 101, 400)] + [
        (LAPLACIAN_2D, dims) for dims in ((2, 2), (3, 5), (7, 4), (40, 40))
    ] + [(SECOND_DIFF, p) for p in (3, 10, 101)]

    @pytest.mark.parametrize("kind,dims", CASES)
    def test_basis_reproduces_the_matrix(self, kind, dims):
        penalty = build_penalty(kind, dims)
        q = _dense_basis(penalty.basis, penalty.p)
        rebuilt = (q * penalty.basis.eigenvalues) @ q.T
        scale = np.abs(penalty.matrix).max()
        assert np.abs(rebuilt - penalty.matrix).max() <= 1e-12 * scale
        assert np.abs(q.T @ q - np.eye(penalty.p)).max() <= 1e-12
        np.testing.assert_allclose(
            penalty.basis.unrotate(q), np.eye(penalty.p), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("kind,dims", CASES)
    def test_large_closed_forms_hold_no_dense_basis(self, kind, dims):
        penalty = build_penalty(kind, dims)
        fast = kind != SECOND_DIFF and penalty.p >= linalg_module.DENSE_DCT_BELOW_P
        assert (penalty.basis.vectors is None) == fast

    @pytest.mark.parametrize("dims", [7, 64, 160, 401, (3, 5), (8, 6), (13, 12), (20, 31)])
    def test_dct_rotation_equals_dense_product(self, dims):
        rng = np.random.default_rng(211)
        if isinstance(dims, tuple):
            q = np.kron(_dct_matrix(dims[0]), _dct_matrix(dims[1]))
            penalty = build_penalty(LAPLACIAN_2D, dims)
        else:
            q = _dct_matrix(dims)
            penalty = build_penalty(FIRST_DIFF, dims)
        rows = rng.standard_normal((5, q.shape[0]))
        np.testing.assert_allclose(penalty.basis.rotate(rows), rows @ q, rtol=0, atol=1e-12)
        np.testing.assert_allclose(penalty.basis.unrotate(rows), rows @ q.T, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("p", [2, 6, 30])
    def test_hand_built_penalty_gets_its_own_eigenbasis(self, p):
        # The basis follows the matrix, not the kind: this "d1" penalty is
        # the identity, which the first-difference eigenvalues do not fit.
        penalty = SmoothingPenalty(matrix=np.eye(p), kind=FIRST_DIFF)
        assert penalty.basis.vectors is not None
        q = _dense_basis(penalty.basis, p)
        np.testing.assert_allclose(
            (q * penalty.basis.eigenvalues) @ q.T, np.eye(p), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("kind,dims", [
        (FIRST_DIFF, 101), (FIRST_DIFF, 400), (SECOND_DIFF, 101), (LAPLACIAN_2D, (16, 16)),
    ])
    def test_apply_and_trace_are_the_matrix_products(self, kind, dims):
        penalty = build_penalty(kind, dims)
        rows = np.random.default_rng(213).standard_normal((3, penalty.p))
        if kind == LAPLACIAN_2D:
            # A sparse product sums each entry's nonzero terms in another
            # order than the dense GEMM, so the two differ in the last bits.
            bound = 4 * np.finfo(float).eps * (np.abs(rows) @ np.abs(penalty.matrix))
            assert np.all(np.abs(penalty.apply(rows) - rows @ penalty.matrix) <= bound)
        else:
            np.testing.assert_array_equal(penalty.apply(rows), rows @ penalty.matrix)
        assert penalty.trace == np.trace(penalty.matrix)

    @pytest.mark.parametrize("kind,dims", [
        (FIRST_DIFF, 101), (FIRST_DIFF, 400), (SECOND_DIFF, 101), (LAPLACIAN_2D, (16, 16)),
    ])
    def test_in_basis_penalty_is_the_rotated_penalty(self, kind, dims):
        penalty = build_penalty(kind, dims)
        rotated = penalty.in_basis()
        lam = penalty.basis.eigenvalues
        assert (rotated.p, rotated.descriptor) == (penalty.p, penalty.descriptor)
        rows = np.random.default_rng(215).standard_normal((3, penalty.p))
        assert rotated.basis.rotate(rows) is rows and rotated.basis.unrotate(rows) is rows
        np.testing.assert_array_equal(rotated.apply(rows), rows * lam)
        assert rotated.trace == float(np.sum(lam))
        # In the basis the products are those of the penalty itself.
        scale = np.abs(penalty.matrix).max() * np.abs(rows).max()
        turned = penalty.basis.rotate(penalty.apply(rows))
        assert np.abs(rotated.apply(penalty.basis.rotate(rows)) - turned).max() <= 1e-12 * scale
        assert rotated.trace == pytest.approx(penalty.trace, rel=1e-12)
        assert "matrix" not in rotated.__dict__
        np.testing.assert_array_equal(rotated.matrix, np.diag(lam))

    def test_closed_basis_is_read_without_eigh(self, monkeypatch):
        def no_eigh(*args):
            raise AssertionError("eigh was computed")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        assert build_penalty(FIRST_DIFF, 12).closed_basis
        assert build_penalty(LAPLACIAN_2D, (40, 40)).closed_basis
        assert not build_penalty(SECOND_DIFF, 12).closed_basis
        monkeypatch.undo()
        # A basis from eigh is never closed, also once it is computed.
        hand_built = SmoothingPenalty(matrix=build_penalty(FIRST_DIFF, 12).matrix, kind=FIRST_DIFF)
        assert hand_built.basis.eigenvalues.size == 12
        assert not hand_built.closed_basis

    def test_basis_is_computed_once(self):
        penalty = SmoothingPenalty(matrix=build_penalty(SECOND_DIFF, 12).matrix, kind=SECOND_DIFF)
        assert penalty.basis is penalty.basis


class TestPenaltyAddTo:
    """``add_to`` is the one way to add a multiple of a penalty to a dense
    matrix; every kind gives the bits of ``dense + weight * matrix``."""

    PENALTIES = {
        "d1": lambda: build_penalty(FIRST_DIFF, 30),
        "d2": lambda: build_penalty(SECOND_DIFF, 30),
        "lap2d": lambda: build_penalty(LAPLACIAN_2D, (5, 9)),
        "lap2d-40x40": lambda: build_penalty(LAPLACIAN_2D, (40, 40)),
        "eigenbasis": lambda: build_penalty(LAPLACIAN_2D, (5, 9)).in_basis(),
        "hand-built": lambda: SmoothingPenalty(
            matrix=random_spd_matrix(np.random.default_rng(5), 12), kind=SECOND_DIFF),
    }

    @pytest.mark.parametrize("name", sorted(PENALTIES))
    @pytest.mark.parametrize("weight", [0.0, 0.37, 1e6])
    def test_add_to_is_the_dense_sum(self, name, weight):
        penalty = self.PENALTIES[name]()
        dense = np.random.default_rng(7).standard_normal((penalty.p, penalty.p))
        expected = dense + weight * penalty.matrix
        added = penalty.add_to(dense, weight)
        assert added is dense
        assert np.array_equal(added, expected)

    @pytest.mark.parametrize("name", sorted(PENALTIES))
    def test_trace_is_the_matrix_trace(self, name):
        penalty = self.PENALTIES[name]()
        assert penalty.trace == np.trace(penalty.matrix)

    @pytest.mark.parametrize("rows,cols", [(40, 40), (5, 9), (2, 50), (50, 2)])
    def test_lap2d_matrix_is_the_sparse_square_of_the_laplacian(self, rows, cols):
        import scipy.sparse

        def path(m):
            d = np.diff(np.eye(m), axis=0)
            return d.T @ d

        laplacian = scipy.sparse.kronsum(path(cols), path(rows))
        matrix = build_penalty(LAPLACIAN_2D, (rows, cols)).matrix
        assert matrix.tobytes() == (laplacian @ laplacian).toarray().tobytes()

    def test_lap2d_forms_its_matrix_on_first_read_only(self):
        penalty = build_penalty(LAPLACIAN_2D, (12, 20))
        rows = np.random.default_rng(9).standard_normal((3, penalty.p))
        assert penalty.p == 240 and penalty.closed_basis and penalty.trace > 0
        assert penalty.apply(rows).shape == penalty.basis.rotate(rows).shape == rows.shape
        assert penalty.add_to(np.zeros((240, 240)), 2.0).any()
        assert penalty.in_basis().p == 240
        assert repr(penalty) == "SparseGramPenalty(kind='lap2d', grid=(12, 20))"
        assert "matrix" not in penalty.__dict__
        assert penalty.matrix is penalty.matrix


class TestPenaltySameAs:
    def test_built_penalties_compare_kind_and_grid_without_a_matrix(self):
        first, second = build_penalty(LAPLACIAN_2D, (8, 6)), build_penalty(LAPLACIAN_2D, (8, 6))
        assert first.same_as(second) and second.same_as(first)
        assert not first.same_as(build_penalty(LAPLACIAN_2D, (6, 8)))
        assert not first.same_as(build_penalty(LAPLACIAN_2D, (4, 12)))
        assert "matrix" not in first.__dict__ and "matrix" not in second.__dict__
        assert build_penalty(FIRST_DIFF, 9).same_as(build_penalty(FIRST_DIFF, 9))
        assert not build_penalty(FIRST_DIFF, 9).same_as(build_penalty(SECOND_DIFF, 9))

    def test_hand_built_penalties_compare_matrices(self):
        built = build_penalty(SECOND_DIFF, 9)
        copied = SmoothingPenalty(matrix=built.matrix.copy(), kind=SECOND_DIFF)
        assert copied.same_as(built) and built.same_as(copied)
        other = SmoothingPenalty(matrix=2.0 * built.matrix, kind=SECOND_DIFF)
        assert not other.same_as(built) and not built.same_as(other)
        # The in-basis penalty is not the penalty, whatever its kind and grid.
        lap2d = build_penalty(LAPLACIAN_2D, (3, 4))
        assert not lap2d.in_basis().same_as(lap2d)


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

    @pytest.mark.parametrize("rows,cols", [(2, 2), (3, 5), (7, 4), (40, 40), (2, 9), (9, 2)])
    def test_gram_bytes_match_loop_stencil(self, rows, cols):
        stencil = loop_laplacian_stencil(rows, cols)
        expected = stencil.T @ stencil
        matrix = build_penalty(LAPLACIAN_2D, (rows, cols)).matrix
        assert matrix.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("rows,cols", [
        (2, 2), (3, 7), (5, 9), (12, 12), (40, 40), (64, 32), (2, 50), (50, 2), (2, 9), (9, 2),
    ])
    def test_banded_blocks_match_the_kronecker_formula_bytes(self, rows, cols):
        # Signed zeros included: the blocks repeat the products' own
        # elementwise operations in their order.
        matrix = build_penalty(LAPLACIAN_2D, (rows, cols)).matrix
        assert matrix.tobytes() == kron_laplacian_gram(rows, cols).tobytes()

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
        # A between matrix with no positive part has a zero factor too.
        for between in (np.zeros((3, 3)), -np.eye(3)):
            with pytest.raises(DegenerateBetweenCovarianceError):
                generalized_eig_top(between, np.eye(3), 1)

    def test_singular_within_raises(self):
        between = np.eye(2)
        with pytest.raises(SingularMatrixError):
            generalized_eig_top(between, np.diag([1.0, 0.0]), 1)

    @pytest.mark.parametrize("form", ["matrix", "CholeskyForm", "WoodburyForm"])
    def test_rank_deficient_between_pads_with_zero_values(self, form):
        rng = np.random.default_rng(37)
        p = 9
        within = _within_as(form, rng, p)
        direction = rng.standard_normal(p)
        mu = np.outer([-1.0, 0.5, 2.0], direction)  # collinear: rank-1 scatter
        between = between_covariance(mu)
        values, directions = generalized_eig_top(between, within, 2)
        assert values.shape == (2,)
        assert directions.shape == (2, p)
        assert values[1] == 0.0
        assert values[0] >= values[1]
        dense = np.asarray(within)
        np.testing.assert_allclose(
            directions @ dense @ directions.T, np.eye(2), atol=1e-10
        )
        for value, beta in zip(values, directions):
            residual = between @ beta - value * (dense @ beta)
            assert np.linalg.norm(residual) <= 1e-8

    def test_matches_dense_whitened_eigendecomposition(self):
        """The low-rank route agrees with the dense oracle on 120 random cases."""
        worst_values = worst_directions = 0.0
        for between, within, k in _eig_oracle_cases():
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



def _within_as(form, rng, p):
    """A random symmetric positive definite within covariance: a matrix,
    that matrix as a ``CholeskyForm``, or a ``WoodburyForm`` of rank p // 2
    plus a first-difference penalty and a ridge."""
    penalty = build_penalty(FIRST_DIFF, p)
    if form == "WoodburyForm":
        return WoodburyForm(rng.standard_normal((p // 2, p)), 0.5, 0.1, penalty)
    matrix = random_spd_matrix(rng, p)
    return matrix if form == "matrix" else CholeskyForm(matrix, penalty)


def _eig_oracle_cases():
    """120 seeded (between, within, k) cases: one in six with a full-rank
    numerator, the rest the rank c - 1 scatter of c = 2..5 class means."""
    rng = np.random.default_rng(31)
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
        yield between, within, k


def _centred_means_route(mu, within, k):
    """The fits' solve: the c centred means as the between factor."""
    return generalized_eig_top(Gram((mu - mu.mean(axis=0)).T), within, k)


class TestCentredMeansRoute:
    def test_agrees_with_the_pivoted_root(self):
        rng = np.random.default_rng(59)
        for _ in range(60):
            p = int(rng.integers(2, 121))
            c = int(rng.integers(2, 6))
            k = min(c - 1, p)
            within = random_spd_matrix(rng, p)
            mu = float(10.0 ** rng.uniform(-2.0, 1.0)) * rng.standard_normal((c, p))
            values, directions = _centred_means_route(mu, within, k)
            ref_values, ref_directions = generalized_eig_top(
                between_covariance(mu), within, k
            )
            np.testing.assert_allclose(values, ref_values, rtol=1e-10, atol=0.0)
            np.testing.assert_allclose(
                directions, ref_directions, rtol=0.0,
                atol=1e-10 * float(np.max(np.abs(ref_directions))),
            )
            np.testing.assert_allclose(
                directions @ within @ directions.T, np.eye(k), rtol=0.0, atol=1e-10
            )

    def test_coincident_means_are_degenerate_on_both_routes(self):
        mu = np.tile(np.random.default_rng(61).standard_normal(7), (3, 1))
        within = random_spd_matrix(np.random.default_rng(62), 7)
        with pytest.raises(DegenerateBetweenCovarianceError):
            generalized_eig_top(between_covariance(mu), within, 2)
        with pytest.raises(DegenerateBetweenCovarianceError):
            _centred_means_route(mu, within, 2)

    def test_non_positive_definite_within_fails_on_both_routes(self):
        mu = np.random.default_rng(63).standard_normal((3, 7))
        within = random_spd_matrix(np.random.default_rng(64), 7)
        within[0, 0] = -1.0
        with pytest.raises(SingularMatrixError):
            generalized_eig_top(between_covariance(mu), within, 2)
        with pytest.raises(SingularMatrixError):
            _centred_means_route(mu, within, 2)

    def test_rejects_k_out_of_range(self):
        mu = np.random.default_rng(65).standard_normal((3, 4))
        for k in (0, 5):
            with pytest.raises(DimensionError, match=f"k={k}"):
                _centred_means_route(mu, np.eye(4), k)

    def test_rejects_within_of_the_wrong_shape(self):
        mu = np.random.default_rng(66).standard_normal((3, 4))
        for within in (np.eye(5), np.ones((4, 3)), np.ones(4)):
            with pytest.raises(DimensionError, match="does not match"):
                _centred_means_route(mu, within, 1)

    def test_rejects_a_factor_that_is_not_2d(self):
        with pytest.raises(DimensionError, match="2-D"):
            generalized_eig_top(Gram(np.ones(4)), np.eye(4), 1)

    def test_zero_factor_is_degenerate(self):
        with pytest.raises(DegenerateBetweenCovarianceError):
            generalized_eig_top(Gram(np.zeros((4, 3))), np.eye(4), 1)

    def test_norm_is_that_of_the_between_matrix(self):
        root_t = np.random.default_rng(67).standard_normal((9, 3))
        gram = Gram(root_t)
        assert gram.norm == pytest.approx(frobenius_norm(root_t @ root_t.T), rel=1e-12)
        assert gram.__dict__["norm"] == gram.norm  # computed once, then cached


class TestMatrixNorms:
    def test_frobenius_norm_matches_numpy(self):
        a = np.random.default_rng(3).standard_normal((7, 5))
        assert frobenius_norm(a) == pytest.approx(np.linalg.norm(a), rel=1e-14)

    def test_package_takes_no_whole_array_norm(self):
        # np.linalg.norm without axis= is one BLAS ddot on a matrix, which a
        # threaded BLAS may split at great cost; frobenius_norm is the rule.
        offenders = []
        package = os.path.dirname(gplda.__file__)
        for path in sorted(glob.glob(os.path.join(package, "*.py"))):
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and ast.unparse(node.func).endswith("linalg.norm")
                    and not any(kw.arg == "axis" for kw in node.keywords)
                ):
                    offenders.append(f"{os.path.basename(path)}:{node.lineno}")
        assert offenders == []


def _blas_threads():
    return [get() for get, _ in linalg_module._openblas_controls()]


@pytest.fixture
def two_blas_threads():
    """Every loaded OpenBLAS at 2 threads during the test, then as it was.

    Raising the count first makes the checks below meaningful also in a
    process started with OPENBLAS_NUM_THREADS=1.
    """
    controls = linalg_module._openblas_controls()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in str(blas.get("name", "")).lower():
        pytest.skip("NumPy is not built on OpenBLAS")
    assert controls, "NumPy runs on OpenBLAS, but no thread controls were found"
    before = _blas_threads()
    for _, set_ in controls:
        set_(2)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, before):
            set_(count)


class _Curves:
    """Array-like that records the BLAS thread counts when it is read."""

    def __init__(self, values, seen):
        self.values, self.seen = values, seen

    def __array__(self, dtype=None, copy=None):
        self.seen.append(_blas_threads())
        return np.asarray(self.values, dtype=dtype)


def _line_model(p):
    return gplda.DiscriminantModel(
        method_tag="MLE_LDA",
        directions=np.ones((1, p)) / p,
        projected_centroids=np.array([[0.0], [1.0]]),
        class_labels=(1, 2),
    )


def _entry_point_calls(seen):
    """Entry point -> (module of a callee to spy on, callee name, call).

    The callee runs inside the entry point before any nested entry point;
    predict calls none, so its input records the counts when it is read.
    """
    train, _ = gplda.generate(gplda.SimSpec(which="sim1", n_train=20, n_test=2, seed=0))
    d2 = build_penalty(SECOND_DIFF, train.p)
    state, _ = gplda.fit(train)
    return {
        "fit": (estimator_module, "log_posterior", lambda: gplda.fit(train)),
        "gplda_directions": (
            discriminant_module, "generalized_eig_top",
            lambda: gplda.gplda_directions(state, train.label_names),
        ),
        "pda_fit": (
            discriminant_module, "pooled_within_scatter", lambda: gplda.pda_fit(train, d2, 1.0)
        ),
        "mle_lda_fit": (
            discriminant_module, "pooled_within_scatter", lambda: gplda.mle_lda_fit(train)
        ),
        "pca_lda_fit": (
            discriminant_module, "mle_lda_fit", lambda: gplda.pca_lda_fit(train, q=2)
        ),
        "predict": (
            None, None, lambda: gplda.predict(_line_model(train.p), _Curves(train.y, seen))
        ),
        "select_pda_alpha": (
            discriminant_module, "pooled_within_scatter",
            lambda: gplda.select_pda_alpha(train, d2),
        ),
    }


class TestBlasThreadPolicy:
    ENTRY_POINTS = (
        "fit", "gplda_directions", "pda_fit", "mle_lda_fit", "pca_lda_fit", "predict",
        "select_pda_alpha",
    )

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_entry_point_runs_on_one_thread_at_short_grids(
        self, entry, two_blas_threads, monkeypatch
    ):
        seen = []
        module, callee, call = _entry_point_calls(seen)[entry]
        if module is not None:
            original = getattr(module, callee)

            def spy(*args, **kwargs):
                seen.append(_blas_threads())
                return original(*args, **kwargs)

            monkeypatch.setattr(module, callee, spy)
        call()
        assert seen and all(counts == [1] * len(counts) for counts in seen)
        assert _blas_threads() == [2] * len(seen[0])

    def test_long_grid_runs_on_one_thread_too(self, two_blas_threads):
        seen = []
        gplda.predict(_line_model(1600), _Curves(np.zeros((3, 1600)), seen))
        assert seen and set(seen[0]) == {1}
        assert set(_blas_threads()) == {2}

    def test_count_restored_after_return_and_exception(self, two_blas_threads):
        before = _blas_threads()
        with blas_threads_for():
            assert set(_blas_threads()) == {1}
        assert _blas_threads() == before
        with pytest.raises(DimensionError):
            gplda.predict(_line_model(101), np.zeros(5))
        assert _blas_threads() == before
        with pytest.raises(RuntimeError):
            with blas_threads_for():
                raise RuntimeError("inside")
        assert _blas_threads() == before

    def test_nested_managers_restore_once_and_never_raise(self, two_blas_threads):
        before = _blas_threads()
        with blas_threads_for():
            with blas_threads_for():
                assert set(_blas_threads()) == {1}
            assert set(_blas_threads()) == {1}
            with blas_threads_for():
                assert set(_blas_threads()) == {1}
            assert set(_blas_threads()) == {1}
        assert _blas_threads() == before

    def test_without_openblas_the_manager_is_a_no_op(self, two_blas_threads, monkeypatch):
        controls = linalg_module._openblas_controls()
        monkeypatch.setattr(linalg_module, "_openblas_controls", lambda: ())
        with blas_threads_for():
            assert [get() for get, _ in controls] == [2] * len(controls)


def test_thread_control_stays_in_linalg():
    # ctypes and the OpenBLAS thread setters are linalg's alone, so that
    # one module owns the process-global thread count.
    offenders = []
    package = os.path.dirname(gplda.__file__)
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        if os.path.basename(path) == "linalg.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = [node.value]
            else:
                continue
            if any(
                name.split(".")[0] == "ctypes" or "set_num_threads" in name for name in names
            ):
                offenders.append(f"{os.path.basename(path)}:{node.lineno}")
    assert offenders == []


def test_spd_factorization_stays_in_cholesky_factor():
    # cholesky_factor is the one Cholesky call, so every SPD factorization
    # fails with the same SingularMatrixError text.
    offenders = []
    allowed = set()
    package = os.path.dirname(gplda.__file__)
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        name = os.path.basename(path)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        owner = [
            node for node in tree.body
            if name == "linalg.py"
            and isinstance(node, ast.FunctionDef) and node.name == "cholesky_factor"
        ]
        allowed.update(id(node) for root in owner for node in ast.walk(root))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in allowed:
                continue
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if called in ("cholesky", "cho_factor", "dpotrf"):
                offenders.append(f"{name}:{node.lineno}")
    assert allowed and offenders == []


def _run_fresh(script: str, **env) -> str:
    """Run ``script`` in a new interpreter that imports this gplda; return stdout."""
    source_root = os.path.dirname(os.path.dirname(gplda.__file__))
    environment = {
        key: value for key, value in os.environ.items()
        if key not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    environment.update(env, PYTHONPATH=os.pathsep.join(
        [source_root, *filter(None, [os.environ.get("PYTHONPATH")])]
    ))
    done = subprocess.run(
        [sys.executable, "-c", script], env=environment, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("module", ["gplda", "gplda.cli"])
def test_import_loads_no_scipy(module):
    loaded = _run_fresh(
        f"import sys, {module}\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert loaded.strip() == "[]"


def test_scipy_linalg_has_one_first_use_import():
    # No module imports scipy when it loads, and only linalg.scipy_linalg
    # imports scipy.linalg, so it alone decides when SciPy's OpenBLAS loads.
    offenders = []
    accessors = []
    package = os.path.dirname(gplda.__file__)
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        name = os.path.basename(path)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        functions = [
            node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        inside = {id(node): f.name for f in functions for node in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            for module in modules:
                if module.split(".")[0] != "scipy":
                    continue
                if id(node) not in inside:
                    offenders.append(f"{name}:{node.lineno} imports {module} at load")
                elif module.startswith("scipy.linalg"):
                    accessors.append(f"{name}:{inside[id(node)]}")
    assert offenders == []
    assert accessors == ["linalg.py:scipy_linalg"]


_LOAD_SCIPY_INSIDE_A_FIT = """
import json, sys
import numpy as np
import gplda
from gplda import estimator, linalg

def counts():
    # Every OpenBLAS mapped now, not the cached lookup.
    return [get() for get, _ in linalg._openblas_controls.__wrapped__()]

train, _ = gplda.generate(gplda.SimSpec(which="sim1", n_train=20, n_test=2, seed=0))
model = gplda.DiscriminantModel(
    method_tag="MLE_LDA", directions=np.ones((1, train.p)) / train.p,
    projected_centroids=np.array([[0.0], [1.0]]), class_labels=(1, 2),
)
gplda.predict(model, train.y)
cached_before_scipy = (
    linalg._openblas_controls.cache_info().currsize == 1 and "scipy" not in sys.modules
)
seen = []
log_posterior = estimator.log_posterior

def spy(*args, **kwargs):
    seen.append(["scipy.linalg" in sys.modules, counts()])
    return log_posterior(*args, **kwargs)

estimator.log_posterior = spy
gplda.fit(train)
print(json.dumps({"cached_before_scipy": cached_before_scipy, "seen": seen, "after": counts()}))
"""


def test_openblas_that_scipy_loads_inside_a_fit_runs_on_one_thread():
    # predict looks up the thread controls before SciPy is imported; the
    # fit that follows imports it inside its blas_threads_for block.
    report = json.loads(_run_fresh(_LOAD_SCIPY_INSIDE_A_FIT, OPENBLAS_NUM_THREADS="2"))
    assert report["cached_before_scipy"]
    after = report["after"]
    if max(after, default=1) < 2:
        pytest.skip("OpenBLAS does not run 2 threads on this host")
    with_scipy = [counts for loaded, counts in report["seen"] if loaded]
    assert with_scipy
    for counts in with_scipy:
        assert len(counts) == len(after) and set(counts) == {1}
    assert set(after) == {2}
