import time
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from reconstruct.baselines import (
    VarianceParams,
    estimate_variances,
    fit_empirical_bayes,
    fit_gpr,
    fit_nystrom,
    fit_spgp,
)
from reconstruct.benchmarks import _map_indexed
from reconstruct.errors import DegenerateData
from reconstruct.estimators import fit_gprr, fit_krr, predict
from reconstruct.interpolators import KnotSet
from reconstruct.kernels import default_gaussian, gaussian_kernel, kernel_matrix

from conftest import separated_points


def _nystrom_times_in_m(_config, _index):
    """Best of five fit_nystrom times at n = 30000 for m = 20 and 40 knots."""
    rng = np.random.default_rng(1234)  # the rng fixture's seed
    n = 30000
    X = rng.random((n, 4))
    y = rng.normal(size=n)
    spec = gaussian_kernel(np.full(4, 1.0))
    knots = {m: KnotSet(X[:m]) for m in (20, 40)}
    times = {m: np.inf for m in knots}
    for m, A in knots.items():
        fit_nystrom(X, y, A, spec, "constant+linear", 1e-3)  # warm
    # alternate the two sizes so drift in machine speed hits both alike
    for _ in range(5):
        for m, A in knots.items():
            t0 = time.perf_counter()
            fit_nystrom(X, y, A, spec, "constant+linear", 1e-3)
            times[m] = min(times[m], time.perf_counter() - t0)
    return times


class TestGpr:
    def test_constant_absorbed_by_trend(self, rng):
        X = rng.random((25, 2))
        y = np.full(25, 3.3)
        for lam in (1e-3, 0.1, 10.0):
            model = fit_gpr(X, y, default_gaussian(2), "constant", lam)
            xs = rng.random((30, 2))
            np.testing.assert_allclose(predict(model, xs), 3.3, atol=1e-7)

    def test_interpolates_at_zero(self, rng):
        X = separated_points(rng, 20, 2)
        y = rng.normal(size=20)
        model = fit_gpr(X, y, default_gaussian(2), "constant+linear", 0.0)
        assert np.max(np.abs(predict(model, X) - y)) <= 1e-8 * (1 + np.max(np.abs(y)))

    def test_none_equals_krr(self, rng):
        X = rng.random((30, 2))
        y = rng.normal(size=30)
        spec = default_gaussian(2)
        xs = rng.random((40, 2))
        a = predict(fit_gpr(X, y, spec, "none", 0.05), xs)
        b = predict(fit_krr(X, y, spec, 0.05), xs)
        np.testing.assert_allclose(a, b, atol=1e-8 * (1 + np.max(np.abs(b))))

    def test_gcv_policy_selects_from_grid(self, rng):
        X = rng.random((40, 2))
        y = X[:, 0] + rng.normal(size=40) * 0.2
        model = fit_gpr(X, y, default_gaussian(2), "constant+linear", "gcv")
        assert model.lam > 0 and model.diagnostics.gcv is not None


class TestNystrom:
    def test_full_knots_equal_gpr(self, rng):
        X = rng.random((60, 2))
        y = np.sin(3 * X[:, 0]) + rng.normal(size=60) * 0.3
        spec = default_gaussian(2)
        xs = rng.random((50, 2))
        for lam in (1e-2, 0.5):
            a = predict(fit_nystrom(X, y, X, spec, "constant+linear", lam), xs)
            b = predict(fit_gpr(X, y, spec, "constant+linear", lam), xs)
            np.testing.assert_allclose(a, b, atol=1e-8 * (1 + np.max(np.abs(b))))

    def test_full_knots_equal_gpr_with_gcv(self, rng):
        X = rng.random((50, 2))
        y = np.sin(4 * X[:, 1]) + rng.normal(size=50) * 0.3
        spec = default_gaussian(2)
        xs = rng.random((30, 2))
        a = fit_nystrom(X, y, X, spec, "constant+linear", "gcv")
        b = fit_gpr(X, y, spec, "constant+linear", "gcv")
        assert a.lam == pytest.approx(b.lam)
        np.testing.assert_allclose(
            predict(a, xs), predict(b, xs),
            atol=1e-6 * (1 + np.max(np.abs(predict(b, xs)))),
        )

    def test_fitted_values_not_stored(self, rng):
        # prediction needs only beta and w; the n fitted values would cost
        # an n x n kernel sweep at every n
        X = rng.random((40, 2))
        y = rng.normal(size=40)
        A = separated_points(rng, 8, 2)
        model = fit_nystrom(X, y, A, default_gaussian(2), "constant+linear", 0.05)
        assert model.gamma_hat is None

    def test_linear_in_y(self, rng):
        X = rng.random((50, 2))
        A = separated_points(rng, 6, 2)
        spec = default_gaussian(2)
        xs = rng.random((20, 2))
        y1, y2 = rng.normal(size=50), rng.normal(size=50)
        f = lambda y: predict(fit_nystrom(X, y, A, spec, "constant", 0.03), xs)
        np.testing.assert_allclose(
            f(y1 + y2), f(y1) + f(y2),
            atol=1e-8 * (1 + np.max(np.abs(f(y1) + f(y2)))),
        )

    def test_cost_scales_linearly_in_n(self, rng):
        spec = gaussian_kernel(np.full(4, 1.0))
        times = {}
        for n in (4000, 16000):
            X = rng.random((n, 4))
            y = rng.normal(size=n)
            A = X[:40]
            fit_nystrom(X, y, KnotSet(A), spec, "constant+linear", 1e-3)  # warm
            samples = []
            for _ in range(3):
                t0 = time.perf_counter()
                fit_nystrom(X, y, KnotSet(A), spec, "constant+linear", 1e-3)
                samples.append(time.perf_counter() - t0)
            times[n] = min(samples)
        # an n^3 path would scale 64x here; the low-rank path is ~linear
        assert times[16000] / times[4000] < 16.0

    def test_cost_scales_in_m(self):
        # one spawned worker on one BLAS thread: at two threads a single fit
        # swings by 3x within one process, more than the ratio measured here
        times = _map_indexed(_nystrom_times_in_m, None, 1, 1)[0]
        # between linear (2x) and quadratic (4x) growth, with slack
        assert 1.2 < times[40] / times[20] < 6.0


class TestSpgp:
    def test_full_knots_equal_krr_at_matched_lambda(self, rng):
        n = 30
        X = rng.random((n, 2))
        y = rng.normal(size=n)
        spec = default_gaussian(2)
        vp = VarianceParams(tau2=2.0, sigma2=0.5)
        xs = rng.random((40, 2))
        a = predict(fit_spgp(X, y, X, spec, vp), xs)
        b = predict(fit_krr(X, y, spec, vp.sigma2 / (n * vp.tau2)), xs)
        np.testing.assert_allclose(a, b, atol=1e-8 * (1 + np.max(np.abs(b))))

    def test_shrinkage_grows_as_signal_variance_drops(self, rng):
        X = rng.random((50, 2))
        y = rng.normal(size=50)
        A = separated_points(rng, 8, 2)
        spec = default_gaussian(2)
        norms = [
            np.linalg.norm(fit_spgp(X, y, A, spec, VarianceParams(t2, 1.0)).gamma_hat)
            for t2 in (10.0, 1.0, 0.1, 0.01)
        ]
        assert all(a >= b for a, b in zip(norms, norms[1:]))

    def test_zero_response(self, rng):
        X = rng.random((30, 2))
        A = separated_points(rng, 6, 2)
        model = fit_spgp(X, np.zeros(30), A, default_gaussian(2),
                         VarianceParams(1.0, 1.0))
        np.testing.assert_allclose(model.gamma_hat, 0.0, atol=1e-12)


class TestEmpiricalBayes:
    def test_equals_gprr_with_matched_penalty(self, rng):
        n = 40
        X = rng.random((n, 2))
        y = np.sin(5 * X[:, 0]) + rng.normal(size=n) * 0.2
        A = separated_points(rng, 9, 2)
        spec = default_gaussian(2)
        vp = VarianceParams(tau2=1.5, sigma2=0.3)
        xs = rng.random((50, 2))
        a = predict(fit_empirical_bayes(X, y, A, spec, vp), xs)
        b = predict(
            fit_gprr(X, y, A, spec, "none", vp.sigma2 / (n * vp.tau2)), xs
        )
        np.testing.assert_allclose(a, b, atol=1e-8 * (1 + np.max(np.abs(b))))

    def test_small_noise_interpolates_at_full_knots(self, rng):
        X = separated_points(rng, 25, 2)
        y = rng.normal(size=25)
        model = fit_empirical_bayes(X, y, X, default_gaussian(2),
                                    VarianceParams(1.0, 1e-10))
        assert np.max(np.abs(predict(model, X) - y)) <= 1e-6 * (1 + np.max(np.abs(y)))

    def test_equals_spgp_when_correction_vanishes(self, rng):
        X = rng.random((30, 2))
        y = rng.normal(size=30)
        spec = default_gaussian(2)
        vp = VarianceParams(2.0, 0.7)
        xs = rng.random((20, 2))
        a = predict(fit_empirical_bayes(X, y, X, spec, vp), xs)
        b = predict(fit_spgp(X, y, X, spec, vp), xs)
        np.testing.assert_allclose(a, b, atol=1e-8 * (1 + np.max(np.abs(b))))


class TestEstimateVariances:
    def test_pure_noise_recovers_sigma(self):
        hits = 0
        for s in range(100):
            r = np.random.default_rng(9000 + s)
            X = r.random((150, 2))
            y = r.normal(size=150) * 0.7
            A = X[:5]
            vp = estimate_variances(X, y, KnotSet(A), default_gaussian(2))
            if 0.49 / 3 <= vp.sigma2 <= 0.49 * 3:
                hits += 1
        assert hits >= 80

    def test_noiseless_smooth_response_hits_floor(self, rng):
        X = rng.random((120, 1))
        y = np.sin(2 * X[:, 0])
        A = separated_points(rng, 10, 1)
        vp = estimate_variances(X, y, KnotSet(A), default_gaussian(1))
        grid_floor = 1e-4 * np.var(y)
        assert vp.sigma2 == pytest.approx(grid_floor, rel=1e-9)

    def test_scale_equivariance_within_grid_step(self, rng):
        X = rng.random((100, 2))
        y = np.sin(4 * X[:, 0]) + 0.3 * rng.normal(size=100)
        A = separated_points(rng, 8, 2)
        spec = default_gaussian(2)
        v1 = estimate_variances(X, y, KnotSet(A), spec)
        v2 = estimate_variances(X, 10.0 * y, KnotSet(A), spec)
        step = 10 ** (8.0 / 19.0)  # one log-grid step
        assert 100.0 / step <= v2.tau2 / v1.tau2 <= 100.0 * step
        assert 100.0 / step <= v2.sigma2 / v1.sigma2 <= 100.0 * step

    def test_degenerate_data(self, rng):
        X = rng.random((20, 1))
        with pytest.raises(DegenerateData):
            estimate_variances(X, np.ones(20), KnotSet(X[:3]), default_gaussian(1))


def _dense_low_rank(X, A, spec, corrected):
    """K = R_XA, Q = K R_A^{-1} K' and the dropped variance r = diag(R_X - Q)
    (zero without the correction), formed densely and without the whitened
    cross-kernel the estimators use."""
    K = kernel_matrix(spec, X, A)
    Q = K @ np.linalg.solve(kernel_matrix(spec, A, A), K.T)
    r = np.diag(kernel_matrix(spec, X, X)) - np.diag(Q) if corrected else np.zeros(len(X))
    return K, Q, r


class TestDenseOracle:
    """SPGP, the quasi-posterior and the variance grid against n x n algebra
    in C(rho) = Q + diag(r) + rho I, at n <= 300."""

    @staticmethod
    def _problem(seed):
        r = np.random.default_rng(seed)
        n, d, m = int(r.integers(30, 301)), int(r.integers(1, 4)), int(r.integers(4, 16))
        noise = float(np.exp(r.uniform(np.log(0.01), np.log(3.0))))
        X = r.random((n, d))
        y = np.sin(4 * X[:, 0]) + X.sum(axis=1) ** 2 + noise * r.normal(size=n)
        return X, y, KnotSet(separated_points(r, m, d)), default_gaussian(d)

    @pytest.mark.parametrize("seed", range(6))
    def test_knot_values_solve_the_dense_system(self, seed):
        # the knot values are K'C(rho)^{-1} y at rho = sigma^2 / tau^2
        X, y, A, spec = self._problem(seed)
        for corrected, fitter in ((True, fit_spgp), (False, fit_empirical_bayes)):
            K, Q, r = _dense_low_rank(X, A.points, spec, corrected)
            for vp in (VarianceParams(1.0, 0.1), VarianceParams(0.5, 2.0)):
                C = Q + np.diag(r) + vp.ridge_weight * np.eye(len(y))
                expect = K.T @ np.linalg.solve(C, y)
                got = fitter(X, y, A, spec, vp).gamma_hat
                np.testing.assert_allclose(got, expect, rtol=0,
                                           atol=1e-8 * np.max(np.abs(expect)))

    @pytest.mark.parametrize("seed", range(6))
    def test_variance_pick_maximizes_dense_likelihood(self, seed):
        # cell (tau^2, sigma^2) scores log N(y; 0, tau^2 C(sigma^2 / tau^2)),
        # from one dense Cholesky factor per ratio; the pick's score must be
        # the maximum up to rounding, which is robust to near-ties
        X, y, A, spec = self._problem(seed)
        _, Q, r = _dense_low_rank(X, A.points, spec, True)
        n, k = len(y), 20
        grid = np.logspace(-4.0, 4.0, k) * np.var(y)
        ll = np.empty((k, k))
        for key in range(1 - k, k):  # sigma^2 index minus tau^2 index
            rho = grid[max(key, 0)] / grid[max(-key, 0)]
            L = np.linalg.cholesky(Q + np.diag(r) + rho * np.eye(n))
            z = solve_triangular(L, y, lower=True)
            logdet = 2.0 * np.sum(np.log(np.diag(L)))
            for i in range(max(-key, 0), min(k, k - key)):
                ll[i, i + key] = -0.5 * (n * np.log(2.0 * np.pi * grid[i]) + logdet
                                         + z @ z / grid[i])
        vp = estimate_variances(X, y, A, spec)
        picked = ll[np.argmin(np.abs(grid - vp.tau2)), np.argmin(np.abs(grid - vp.sigma2))]
        assert picked >= ll.max() - 1e-8 * abs(ll.max())


class TestLowRankMemory:
    def test_no_dense_n_by_n_allocation(self, rng):
        n, m = 100_000, 40
        X = rng.random((n, 2))
        y = rng.normal(size=n)
        A = KnotSet(X[:m])
        spec = default_gaussian(2)
        tracemalloc.start()
        fit_nystrom(X, y, A, spec, "constant+linear", 1e-3)
        fit_spgp(X, y, A, spec, VarianceParams(1.0, 0.5))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # an n x n double array alone would be 80 GB
        assert peak < 2e9


class TestBaselineLinearity:
    def test_spgp_and_eb_superposition(self, rng):
        X = rng.random((40, 2))
        A = separated_points(rng, 7, 2)
        spec = default_gaussian(2)
        vp = VarianceParams(1.0, 0.4)
        xs = rng.random((15, 2))
        y1, y2 = rng.normal(size=40), rng.normal(size=40)
        for fitter in (fit_spgp, fit_empirical_bayes):
            f = lambda y: predict(fitter(X, y, A, spec, vp), xs)
            lhs, rhs = f(y1 + y2), f(y1) + f(y2)
            np.testing.assert_allclose(
                lhs, rhs, atol=1e-8 * (1 + np.max(np.abs(rhs)))
            )
