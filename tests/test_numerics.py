from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import cho_solve

from reconstruct import numerics
from reconstruct.errors import DimensionMismatch, NotPositiveDefinite, SingularSystem
from reconstruct.estimators import DEFAULT_LAMBDA_GRID
from reconstruct.numerics import (
    banded_spd_solve,
    fdp_hat_trace,
    fdp_system,
    hat_trace,
    spd_factor,
)

from conftest import mp_residual_and_trace, random_spd


def band_dense(ab):
    """The dense symmetric matrix of a LAPACK upper band array ``ab``:
    ``ab[u - k, j]`` holds ``A[j - k, j]`` for bandwidth u."""
    u, n = ab.shape[0] - 1, ab.shape[1]
    A = np.zeros((n, n))
    for k in range(u + 1):
        for j in range(k, n):
            A[j - k, j] = A[j, j - k] = ab[u - k, j]
    return A


def second_difference_dense(n):
    M = np.zeros((n - 2, n))
    for i in range(n - 2):
        M[i, i : i + 3] = (1.0, -2.0, 1.0)
    return M


class TestSpdSolve:
    def test_hand_elimination(self):
        x = spd_factor(np.array([[2.0, 1.0], [1.0, 2.0]])).solve(np.array([3.0, 3.0]))
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-12)

    def test_identity(self, rng):
        y = rng.normal(size=7)
        np.testing.assert_allclose(spd_factor(np.eye(7)).solve(y), y, atol=1e-14)

    def test_inverse_column(self, rng):
        A = random_spd(rng, 8)
        e1 = np.zeros(8)
        e1[0] = 1.0
        x = spd_factor(A).solve(e1)
        assert np.linalg.norm(A @ x - e1) / np.linalg.norm(e1) < 1e-10
        np.testing.assert_allclose(x, np.linalg.inv(A)[:, 0], rtol=1e-8)

    @pytest.mark.parametrize("n", [3, 10, 25])
    def test_multiply_back(self, rng, n):
        A = random_spd(rng, n)
        rhs = rng.normal(size=(n, 2))
        X = spd_factor(A).solve(rhs)
        assert np.linalg.norm(A @ X - rhs) / np.linalg.norm(rhs) < 1e-8

    @pytest.mark.parametrize("shape", [(), (1,), (5,)])
    @pytest.mark.parametrize("n", [1, 9, 40])
    def test_bitwise_equal_to_cho_solve(self, rng, n, shape):
        A = random_spd(rng, n)
        rhs = rng.normal(size=(n, *shape))
        fac = spd_factor(A)
        got = fac.solve(rhs)
        assert got.shape == rhs.shape
        assert got.tobytes() == cho_solve((fac.factor, True), rhs).tobytes()

    def test_jitter_reported(self):
        # an exactly singular PSD matrix needs a nugget to factor
        A = np.ones((6, 6))
        fac = spd_factor(A)
        assert np.all(np.isfinite(fac.solve(np.ones(6))))
        assert fac.jitter_applied > 0.0

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            spd_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            spd_factor(np.eye(3)).solve(np.ones(4))
        with pytest.raises(DimensionMismatch):
            spd_factor(np.ones((2, 3)))

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
        np.testing.assert_allclose(banded_spd_solve(np.ones((1, 9)), y), y, atol=1e-14)

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
        ref = spd_factor(dense).solve(y)
        assert np.max(np.abs(banded - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 30])
    def test_gram_assembly(self, n):
        M = second_difference_dense(n)
        np.testing.assert_array_equal(band_dense(fdp_system(n, 1.0)), np.eye(n) + n * M.T @ M)

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
        expect = [mp_residual_and_trace(np.zeros(n), lam)[1] for lam in lams]
        np.testing.assert_allclose(fdp_hat_trace(n, lams), expect, rtol=1e-12)


def takahashi_trace(n, lams):
    """trace((n*lam*M'M + I)^{-1}) by the Takahashi recurrence on the float
    banded factor, stepped point by point in Python and vectorized across
    lambda."""
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
        for i, row in enumerate(band_dense(fdp_system(n, lam)))
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

    def test_matches_mp_reference_on_the_whole_default_grid(self):
        # the 40-digit reference costs about 0.2 s per lambda at this n
        n = 2000
        y = np.sin(6 * np.linspace(0, 1, n)) + 0.3 * np.random.default_rng(2).normal(size=n)
        expect = np.array([mp_residual_and_trace(y, lam) for lam in DEFAULT_LAMBDA_GRID])
        rss, tr = numerics.fdp_residual_and_trace(y, DEFAULT_LAMBDA_GRID)
        np.testing.assert_allclose(rss, expect[:, 0], rtol=1e-12)
        np.testing.assert_allclose(tr, expect[:, 1], rtol=1e-12)

    def test_matches_point_recurrence_on_default_grid(self):
        # every 12th grid lambda, 62.5 among them: the 40-digit reference
        # costs about a second per lambda at this n
        n = 12_000
        lams = DEFAULT_LAMBDA_GRID[::12]
        y = np.sin(6 * np.linspace(0, 1, n)) + 0.3 * np.random.default_rng(12).normal(size=n)
        expect = np.array([mp_residual_and_trace(y, lam) for lam in lams])
        rss, tr = numerics.fdp_residual_and_trace(y, lams)
        np.testing.assert_allclose(rss, expect[:, 0], rtol=1e-12)
        np.testing.assert_allclose(tr, expect[:, 1], rtol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(3, 400),
        log_lam=st.floats(-8.0, 10.0),
        slope=st.floats(-1e3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=3, log_lam=10.0, slope=0.0, seed=0)
    @example(n=400, log_lam=10.0, slope=1e3, seed=0)
    def test_matches_mp_reference(self, n, log_lam, slope, seed):
        # a linear trend is in the null space of M, so at large lambda the
        # residual is what is left after removing it
        y = np.random.default_rng(seed).normal(size=n) + slope * np.linspace(0, 1, n)
        lam = 10.0**log_lam
        rss, tr = numerics.fdp_residual_and_trace(y, lam)
        expect_rss, expect_tr = mp_residual_and_trace(y, lam)
        assert rss[0] == pytest.approx(expect_rss, rel=1e-10)
        assert tr[0] == pytest.approx(expect_tr, rel=1e-10)

    @pytest.mark.parametrize("n", [4, 50, 3000])
    def test_nan_exactly_where_the_banded_factor_fails(self, n):
        # below 64 * n*lam * eps = 1 the factor cannot fail; from there to
        # n*lam * eps = 1 a lambda counts only if the fit could solve it
        eps = np.finfo(float).eps
        lams = np.linspace(0.002, 0.999, 300) / eps / n
        fails = np.zeros(lams.shape[0], dtype=bool)
        for j, lam in enumerate(lams):
            try:
                banded_spd_solve(fdp_system(n, lam), np.ones(n))
            except NotPositiveDefinite:
                fails[j] = True
        assert fails.any() and not fails[64 * n * lams * eps < 1].any()
        np.testing.assert_array_equal(np.isnan(fdp_hat_trace(n, lams)), fails)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(3, 2000), i=st.integers(0, DEFAULT_LAMBDA_GRID.shape[0] - 1))
    @example(n=3, i=0)
    @example(n=3, i=49)
    @example(n=4, i=25)
    def test_matches_point_recurrence(self, n, i):
        lams = DEFAULT_LAMBDA_GRID[i : i + 2]
        np.testing.assert_allclose(fdp_hat_trace(n, lams), takahashi_trace(n, lams), rtol=1e-10)
