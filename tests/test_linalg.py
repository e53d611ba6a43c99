import numpy as np
import pytest

from oacal.errors import DimMismatch, NotPositiveDefinite
from oacal.linalg import (
    as_sym_matrix,
    cholesky,
    cholesky_inverse,
    inverse_upper_factor,
    symmetrize,
)


def random_spd(rng, dim):
    a = rng.standard_normal((dim, dim))
    return symmetrize(a @ a.T + dim * np.eye(dim))


class TestCholesky:
    def test_diagonal_case(self):
        lower = cholesky(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(lower, np.diag([2.0, 3.0]))

    def test_identity(self):
        lower = cholesky(np.eye(3))
        np.testing.assert_allclose(lower, np.eye(3))

    def test_two_by_two_analytic(self):
        # lower entries follow from l11 = sqrt(2), l21 = 1/l11, l22 = sqrt(2 - 1/2)
        lower = cholesky(np.array([[2.0, 1.0], [1.0, 2.0]]))
        expected = np.array([[1.41421356, 0.0], [0.70710678, 1.22474487]])
        np.testing.assert_allclose(lower, expected, atol=1e-8)
        np.testing.assert_allclose(
            lower @ lower.T, [[2.0, 1.0], [1.0, 2.0]], atol=1e-12
        )

    def test_recompose_corpus(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            dim = int(rng.integers(1, 33))
            m = random_spd(rng, dim)
            lower = cholesky(m)
            rec = lower @ lower.T
            rel = np.linalg.norm(rec - m) / np.linalg.norm(m)
            assert rel < 1e-8

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.zeros((3, 3)))  # singular

    def test_requires_exact_symmetry(self):
        with pytest.raises(DimMismatch):
            cholesky(np.array([[1.0, 0.1], [0.0, 1.0]]))


class TestCholeskyInverse:
    def test_identity(self):
        inv = cholesky_inverse(cholesky(np.eye(4)))
        np.testing.assert_allclose(inv, np.eye(4), atol=1e-12)

    def test_diagonal_reciprocal(self):
        inv = cholesky_inverse(cholesky(np.diag([4.0, 9.0])))
        np.testing.assert_allclose(inv, np.diag([0.25, 1.0 / 9.0]), atol=1e-14)

    def test_two_by_two_analytic(self):
        # inverse of [[2,1],[1,2]] is (1/3) [[2,-1],[-1,2]]
        inv = cholesky_inverse(cholesky(np.array([[2.0, 1.0], [1.0, 2.0]])))
        expected = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
        np.testing.assert_allclose(inv, expected, atol=1e-12)

    def test_inverse_corpus(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            dim = int(rng.integers(1, 33))
            m = random_spd(rng, dim)
            inv = cholesky_inverse(cholesky(m))
            err = np.max(np.abs(inv @ m - np.eye(dim)))
            assert err < 1e-6


class TestInverseUpperFactor:
    def test_reconstructs_inverse(self):
        rng = np.random.default_rng(3)
        m = random_spd(rng, 6)
        u = inverse_upper_factor(m)
        assert np.allclose(u, np.triu(u))
        np.testing.assert_allclose(u.T @ u, np.linalg.inv(m), atol=1e-9)
        # diag(inverse) is read off the factor as the column sums of U^2
        np.testing.assert_allclose(
            np.sum(u**2, axis=0),
            np.diag(cholesky_inverse(cholesky(m))),
            rtol=1e-12,
            atol=0,
        )

    def test_rows_encode_trailing_inverses(self):
        # For the active set {q..n}, inv(M[q:, q:])[0, k-q] == u[q,q] * u[q,k].
        rng = np.random.default_rng(4)
        m = random_spd(rng, 5)
        u = inverse_upper_factor(m)
        for q in range(5):
            trail_inv = np.linalg.inv(m[q:, q:])
            np.testing.assert_allclose(
                trail_inv[0, :], u[q, q] * u[q, q:], atol=1e-9
            )


def test_symmetrize_exact():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    s = symmetrize(a)
    assert np.array_equal(s, s.T)
    out = as_sym_matrix(s)
    assert out.shape == (2, 2)
