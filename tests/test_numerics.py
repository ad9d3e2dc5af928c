"""Checks for the dense linear algebra helpers.

Determinants are verified against two independent oracles: the Leibniz
permutation expansion (exact formula, exponential cost, fine at n <= 5)
and the product of eigenvalues from a different LAPACK path.
"""

import itertools

import numpy as np
import pytest

from grasskernels import numerics
from grasskernels.exceptions import (ConvergenceFailure, DimensionMismatch,
                                     NumericalOverflow, RankDeficient)


def leibniz_det(m):
    """Sum over permutations of signed entry products."""
    n = m.shape[0]
    total = 0.0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        product = 1.0
        for row, col in enumerate(perm):
            product *= m[row, col]
        total += (-1.0) ** inversions * product
    return total


class TestAsMatrix:
    def test_coerces_nested_lists(self):
        m = numerics.as_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.float64
        assert m.shape == (2, 2)

    def test_rejects_wrong_rank(self):
        with pytest.raises(DimensionMismatch):
            numerics.as_matrix([1.0, 2.0])
        with pytest.raises(DimensionMismatch):
            numerics.as_matrix(np.zeros((2, 2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatch):
            numerics.as_matrix(np.zeros((0, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            numerics.as_matrix([[1.0, np.nan]])
        with pytest.raises(ValueError):
            numerics.as_matrix([[np.inf, 1.0]])


class TestSvd:
    def test_reconstruction(self):
        rng = np.random.default_rng(11)
        for shape in ((5, 3), (3, 5), (4, 4), (7, 2)):
            m = rng.standard_normal(shape)
            u, s, v = numerics.svd(m)
            np.testing.assert_allclose(u @ np.diag(s) @ v.T, m, atol=1e-12)

    def test_singular_values_sorted_nonnegative(self):
        rng = np.random.default_rng(12)
        _, s, _ = numerics.svd(rng.standard_normal((6, 4)))
        assert np.all(s >= 0.0)
        assert np.all(np.diff(s) <= 0.0)

    def test_orthonormal_factors(self):
        rng = np.random.default_rng(13)
        m = rng.standard_normal((6, 3))
        u, s, v = numerics.svd(m)
        np.testing.assert_allclose(u.T @ u, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(v.T @ v, np.eye(3), atol=1e-12)

    def test_lapack_failure_raises_convergence_failure(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(ConvergenceFailure):
            numerics.svd(np.eye(3))


class TestOrthonormalize:
    def test_columns_become_orthonormal(self):
        rng = np.random.default_rng(21)
        for shape in ((5, 3), (8, 2), (4, 4)):
            q = numerics.orthonormalize(rng.standard_normal(shape))
            np.testing.assert_allclose(q.T @ q, np.eye(shape[1]), atol=1e-12)

    def test_span_preserved(self):
        # the column-space projector must be unchanged
        rng = np.random.default_rng(22)
        m = rng.standard_normal((6, 3))
        q = numerics.orthonormalize(m)
        reference = m @ np.linalg.pinv(m)
        np.testing.assert_allclose(q @ q.T, reference, atol=1e-10)

    def test_orthonormal_input_fixed_point(self):
        rng = np.random.default_rng(23)
        q0 = np.linalg.qr(rng.standard_normal((7, 3)))[0]
        q0 *= np.where(rng.random(3) < 0.5, -1.0, 1.0)  # any column signs
        q1 = numerics.orthonormalize(q0)
        np.testing.assert_allclose(q1, q0, atol=1e-13)

    def test_identity_block_exact(self):
        m = np.eye(4)[:, :2]
        assert np.array_equal(numerics.orthonormalize(m), m)

    def test_rank_deficient_raises(self):
        col = np.arange(1.0, 5.0).reshape(4, 1)
        with pytest.raises(RankDeficient):
            numerics.orthonormalize(np.hstack([col, 2.0 * col]))

    def test_zero_matrix_raises(self):
        with pytest.raises(RankDeficient):
            numerics.orthonormalize(np.zeros((4, 2)))

    def test_more_columns_than_rows_raises(self):
        with pytest.raises(RankDeficient):
            numerics.orthonormalize(np.ones((2, 3)))


class TestDeterminant:
    def test_hand_values(self):
        np.testing.assert_allclose(numerics.determinant([[3.0]]), 3.0,
                                   rtol=1e-14)
        np.testing.assert_allclose(
            numerics.determinant([[1.0, 2.0], [3.0, 4.0]]), -2.0, atol=1e-14)

    def test_matches_permutation_expansion(self):
        rng = np.random.default_rng(31)
        for n in (2, 3, 4, 5):
            for _ in range(5):
                m = rng.standard_normal((n, n))
                expected = leibniz_det(m)
                got = numerics.determinant(m)
                np.testing.assert_allclose(got, expected, rtol=1e-10,
                                           atol=1e-12)

    def test_matches_eigenvalue_product(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            m = rng.standard_normal((6, 6))
            expected = float(np.prod(np.linalg.eigvals(m)).real)
            np.testing.assert_allclose(numerics.determinant(m), expected,
                                       rtol=1e-9, atol=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            numerics.determinant(np.ones((2, 3)))


class TestSymmetricEigenvalues:
    def test_two_by_two_closed_form(self):
        a, b, c = 2.0, 0.5, -1.0
        m = np.array([[a, b], [b, c]])
        mid = (a + c) / 2.0
        radius = np.hypot((a - c) / 2.0, b)
        got = numerics.symmetric_eigenvalues(m)
        np.testing.assert_allclose(got, [mid - radius, mid + radius],
                                   atol=1e-14)

    def test_ascending(self):
        rng = np.random.default_rng(41)
        m = rng.standard_normal((6, 6))
        values = numerics.symmetric_eigenvalues(m + m.T)
        assert np.all(np.diff(values) >= 0.0)

    def test_symmetrizes_input(self):
        rng = np.random.default_rng(42)
        m = rng.standard_normal((5, 5))
        sym = (m + m.T) / 2.0
        np.testing.assert_allclose(numerics.symmetric_eigenvalues(m),
                                   np.linalg.eigvalsh(sym), atol=1e-13)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            numerics.symmetric_eigenvalues(np.ones((2, 3)))

    def test_halving_first_keeps_finite_results(self):
        """On Grams and their doubly centered products J K J with finite
        entries, some with a norm near half the largest float, halving
        before the sum gives the eigenvalues of (m + m.T) / 2 bit for
        bit."""
        rng = np.random.default_rng(43)
        for trial in range(100):
            n = int(rng.integers(2, 30))
            x = rng.standard_normal((n, int(rng.integers(1, 8))))
            gram = x @ x.T
            # the Frobenius norm bounds each entry and eigenvalue of both
            gram *= [1.0, 1e-150, 1e150,
                     8e307 / np.linalg.norm(gram)][trial % 4]
            centering = np.eye(n) - np.full((n, n), 1.0 / n)
            for m in (gram, centering @ gram @ centering):
                assert np.array_equal(numerics.symmetric_eigenvalues(m),
                                      np.linalg.eigvalsh((m + m.T) / 2.0))

    def test_entries_past_half_the_largest_float(self):
        """m + m.T overflows on both.  Halving first keeps the diagonal's
        eigenvalues exact, and the other's largest, 2e308, is reported as
        an overflow, not as the NaN eigenvalues of the unhalved sum."""
        np.testing.assert_array_equal(
            numerics.symmetric_eigenvalues(np.diag([1e308, 1e308])),
            [1e308, 1e308])
        with pytest.raises(NumericalOverflow, match="eigenvalues"):
            numerics.symmetric_eigenvalues(np.full((2, 2), 1e308))
