from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from reconstruct import numerics
from reconstruct.errors import DimensionMismatch, NotPositiveDefinite, SingularSystem
from reconstruct.estimators import DEFAULT_LAMBDA_GRID
from reconstruct.numerics import (
    BandedSpdMatrix,
    banded_spd_solve,
    fdp_hat_trace,
    fdp_system,
    hat_trace,
    second_difference_gram,
    spd_factor,
    spd_solve,
)

from conftest import fdp_trace_reference, random_spd


def second_difference_dense(n):
    M = np.zeros((n - 2, n))
    for i in range(n - 2):
        M[i, i : i + 3] = (1.0, -2.0, 1.0)
    return M


class TestSpdSolve:
    def test_hand_elimination(self):
        x = spd_solve(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([3.0, 3.0]))
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-12)

    def test_identity(self, rng):
        y = rng.normal(size=7)
        np.testing.assert_allclose(spd_solve(np.eye(7), y), y, atol=1e-14)

    def test_inverse_column(self, rng):
        A = random_spd(rng, 8)
        e1 = np.zeros(8)
        e1[0] = 1.0
        x = spd_solve(A, e1)
        assert np.linalg.norm(A @ x - e1) / np.linalg.norm(e1) < 1e-10
        np.testing.assert_allclose(x, np.linalg.inv(A)[:, 0], rtol=1e-8)

    @pytest.mark.parametrize("n", [3, 10, 25])
    def test_multiply_back(self, rng, n):
        A = random_spd(rng, n)
        rhs = rng.normal(size=(n, 2))
        X = spd_solve(A, rhs)
        assert np.linalg.norm(A @ X - rhs) / np.linalg.norm(rhs) < 1e-8

    def test_jitter_reported(self):
        # an exactly singular PSD matrix needs a nugget to factor
        A = np.ones((6, 6))
        x, jitter = spd_solve(A, np.ones(6), return_jitter=True)
        assert jitter > 0.0

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            spd_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([1.0, 1.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            spd_solve(np.eye(3), np.ones(4))
        with pytest.raises(DimensionMismatch):
            spd_solve(np.ones((2, 3)), np.ones(2))

    def test_factor_reproduces_input(self, rng):
        A = random_spd(rng, 12)
        fac = spd_factor(A)
        recon = fac.factor @ fac.factor.T - fac.jitter_applied * np.eye(12)
        assert np.max(np.abs(recon - A)) / np.max(np.abs(A)) < 1e-10


class TestGls:
    @staticmethod
    def dense_gls(A, G, Y):
        Ainv = np.linalg.inv(A)
        beta = np.linalg.solve(G.T @ Ainv @ G, G.T @ Ainv @ Y)
        return beta, Ainv @ (Y - G @ beta)

    @pytest.mark.parametrize("q", [0, 1, 3])
    @pytest.mark.parametrize("shape", [(), (4,)])
    def test_matches_dense_formula(self, rng, q, shape):
        n = 15
        A = random_spd(rng, n)
        G = rng.normal(size=(n, q))
        Y = rng.normal(size=(n, *shape))
        beta, w = spd_factor(A).gls(G, Y)
        assert beta.shape == (q, *shape) and w.shape == Y.shape
        ref_beta, ref_w = self.dense_gls(A, G, Y)
        for got, ref in ((beta, ref_beta), (w, ref_w)):
            # initial=0 covers the empty beta of q = 0
            err = np.max(np.abs(got - ref), initial=0.0)
            assert err <= 1e-10 * np.max(np.abs(ref), initial=0.0)

    def test_rank_deficient_trend(self, rng):
        A = random_spd(rng, 10)
        g = rng.normal(size=10)
        with pytest.raises(SingularSystem):
            spd_factor(A).gls(np.column_stack([g, 2.0 * g]), rng.normal(size=10))

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            spd_factor(np.eye(4)).gls(np.ones((3, 1)), np.ones(4))


class TestBandedSolve:
    def test_identity(self, rng):
        y = rng.normal(size=9)
        M = BandedSpdMatrix(dimension=9, bandwidth=0, ab=np.ones((1, 9)))
        np.testing.assert_allclose(banded_spd_solve(M, y), y, atol=1e-14)

    def test_lambda_zero_passthrough(self, rng):
        y = rng.normal(size=5)
        np.testing.assert_allclose(banded_spd_solve(fdp_system(5, 0.0), y), y,
                                   atol=1e-14)

    @pytest.mark.parametrize("n,lam", [(5, 0.3), (50, 0.01), (200, 0.1), (500, 2.0)])
    def test_matches_dense(self, rng, n, lam):
        y = rng.normal(size=n)
        M = second_difference_dense(n)
        dense = np.eye(n) + n * lam * M.T @ M
        banded = banded_spd_solve(fdp_system(n, lam), y)
        ref = spd_solve(dense, y)
        assert np.max(np.abs(banded - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 30])
    def test_gram_assembly(self, n):
        M = second_difference_dense(n)
        np.testing.assert_allclose(second_difference_gram(n).dense(), M.T @ M,
                                   atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            banded_spd_solve(fdp_system(6, 0.1), np.ones(5))


class TestInverseDiagonal:
    @pytest.mark.parametrize("n,lam", [(10, 0.5), (50, 0.07), (200, 0.07)])
    def test_matches_dense_inverse(self, n, lam):
        # the batched trace, over a grid around lam, against dense inverses
        M = second_difference_dense(n)
        lams = lam * np.array([1e-3, 1.0, 1e3])
        expect = [np.trace(np.linalg.inv(np.eye(n) + n * l * M.T @ M)) for l in lams]
        np.testing.assert_allclose(fdp_hat_trace(n, lams), expect, rtol=1e-10)
        assert fdp_hat_trace(n, lam) == pytest.approx(expect[1], rel=1e-10)


class TestHatTrace:
    def test_identity_case_closed_form(self, rng):
        n = 17
        for lam in (0.0, 1e-3, 0.5, 10.0):
            got = hat_trace(np.eye(n), np.eye(n), lam)
            assert abs(got - n / (1.0 + n * lam)) < 1e-12 * n

    def test_lambda_zero_square_b(self, rng):
        n = 12
        B = rng.normal(size=(n, n)) + np.eye(n) * 3
        Sigma = random_spd(rng, n)
        assert abs(hat_trace(B, Sigma, 0.0) - n) < 1e-8

    def test_matches_explicit_hat_matrix(self, rng):
        n, m = 40, 6
        B = rng.normal(size=(n, m))
        Sigma = random_spd(rng, m)
        lam = 0.05
        H = B @ np.linalg.solve(B.T @ B + n * lam * Sigma, B.T)
        assert abs(hat_trace(B, Sigma, lam) - np.trace(H)) < 1e-8

    def test_fdp_case_matches_dense(self):
        n, lam = 50, 0.02
        M = second_difference_dense(n)
        H = np.linalg.inv(np.eye(n) + n * lam * M.T @ M)
        got = fdp_hat_trace(n, lam)
        assert abs(got - np.trace(H)) / np.trace(H) < 1e-8
        # the same quantity through the dense op surface
        got_dense = hat_trace(np.eye(n), M.T @ M, lam)
        assert abs(got_dense - np.trace(H)) / np.trace(H) < 1e-8

    def test_fdp_grid_entries_equal_single_lambda_calls(self, rng):
        n, lams = 300, np.logspace(-6, 2, 7)
        y = rng.normal(size=n)
        rss, tr = numerics.fdp_residual_and_trace(y, lams)
        for j, lam in enumerate(lams):
            rss1, tr1 = numerics.fdp_residual_and_trace(y, lam)
            assert rss1.tobytes() == rss[j : j + 1].tobytes()
            assert tr1.tobytes() == tr[j : j + 1].tobytes()

    def test_fdp_exact_beyond_ten_thousand(self):
        n = 12_000
        lams = np.array([1e-8, 1e-3, 1e2])
        expect = [fdp_trace_reference(n, lam) for lam in lams]
        np.testing.assert_allclose(fdp_hat_trace(n, lams), expect, rtol=1e-10)


def takahashi_trace(n, lams):
    """trace((n*lam*M'M + I)^{-1}) by the Takahashi recurrence stepped point
    by point in Python and vectorized across lambda, the package's trace
    before it became one banded back-substitution per lambda."""
    k = lams.shape[0]
    l1, l2, dinv = np.zeros((n, k)), np.zeros((n, k)), np.empty((n, k))
    for j, lam in enumerate(lams):
        U = numerics._banded_factor(fdp_system(n, lam))
        dinv[:, j] = 1.0 / U[2] ** 2
        l1[:-1, j] = U[1, 1:] / U[2, :-1]
        l2[:-2, j] = U[0, 2:] / U[2, :-2]
    a = b = c = np.zeros(k)
    tr = np.zeros(k)
    for i in range(n - 1, -1, -1):
        p, q = l1[i], l2[i]
        z02 = -(p * b + q * c)
        z01 = -(p * a + q * b)
        a, b, c = dinv[i] - (p * z01 + q * z02), z01, a
        tr += a
    return tr


def exact_trace(n, lam):
    """trace(A^{-1}) in rational arithmetic for the float matrix
    A = fdp_system(n, lam), by Gauss-Jordan elimination (A is SPD, so no
    pivoting is needed)."""
    rows = [
        [Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(fdp_system(n, lam).dense())
    ]
    for k in range(n):
        pivot = rows[k] = [v / rows[k][k] for v in rows[k]]
        for i in range(n):
            if i != k and rows[i][k]:
                f = rows[i][k]
                rows[i] = [a - f * b for a, b in zip(rows[i], pivot)]
    return sum(rows[i][n + i] for i in range(n))


class TestFdpTrace:
    @pytest.mark.parametrize("n", [3, 4, 9])
    def test_matches_exact_rational_trace(self, n):
        nl = np.logspace(-3, 9, 13)
        got = fdp_hat_trace(n, nl / n)
        expect = np.array([float(exact_trace(n, lam)) for lam in nl / n])
        # a backward-stable solve is accurate to roundoff times the
        # condition number of A, which grows like n*lam
        eps = np.finfo(float).eps
        assert np.all(np.abs(got / expect - 1) <= 8 * eps * np.maximum(1.0, nl))

    def test_matches_point_recurrence_on_default_grid(self):
        n = 12_000
        np.testing.assert_allclose(
            fdp_hat_trace(n, DEFAULT_LAMBDA_GRID),
            takahashi_trace(n, DEFAULT_LAMBDA_GRID),
            rtol=1e-10,
        )

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(3, 2000), i=st.integers(0, DEFAULT_LAMBDA_GRID.shape[0] - 1))
    @example(n=3, i=0)
    @example(n=3, i=49)
    @example(n=4, i=25)
    def test_matches_point_recurrence(self, n, i):
        lams = DEFAULT_LAMBDA_GRID[i : i + 2]
        np.testing.assert_allclose(fdp_hat_trace(n, lams), takahashi_trace(n, lams), rtol=1e-10)
