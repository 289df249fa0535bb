import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reconstruct.baselines import (
    VarianceParams,
    _whitened_cross,
    estimate_variances,
    fit_empirical_bayes,
    fit_gpr,
    fit_nystrom,
    fit_spgp,
)
from reconstruct import baselines, estimators, interpolators, numerics
from reconstruct.benchmarks import simulate
from reconstruct.designs import equispaced_knots, replication_design
from reconstruct.errors import (
    BadSchema,
    DimensionMismatch,
    LengthMismatch,
    NonFiniteInput,
    NotPositiveDefinite,
    SingularSystem,
)
from reconstruct.estimators import (
    DEFAULT_LAMBDA_GRID,
    FittedModel,
    _gcv_curve,
    _kriging_spectrum,
    estimate_kernel_params,
    fdp_gcv,
    fit_fdp,
    fit_gprr,
    fit_krr,
    fit_replication,
    gcv,
    model_from_json,
    model_to_json,
    predict,
    ridge_reconstruct,
    roughness_penalty,
    select_lambda,
)
from reconstruct.interpolators import (
    KnotSet,
    design_matrix,
    gp_basis_build,
    kernel_interp_eval,
    lagrange_eval,
    regression_matrix,
)
from reconstruct.kernels import default_gaussian, gaussian_kernel, kernel_matrix

from conftest import f1d, mp_residual_and_trace, random_spd, separated_points


class TestRidgeReconstruct:
    def test_identity_shrinkage(self, rng):
        n = 10
        y = rng.normal(size=n)
        lam = 0.07
        got = ridge_reconstruct(np.eye(n), y, lam, np.eye(n))
        np.testing.assert_allclose(got, y / (1 + n * lam), atol=1e-12)

    def test_lambda_zero_exact(self, rng):
        n = 8
        B = rng.normal(size=(n, n)) + 4 * np.eye(n)
        y = rng.normal(size=n)
        got = ridge_reconstruct(B, y, 0.0, np.eye(n))
        np.testing.assert_allclose(got, np.linalg.solve(B, y), atol=1e-8)

    def test_first_order_condition(self, rng):
        # gradient of ||y - B g||^2/n + lam g'Sigma g vanishes at the solution
        n, m, lam = 30, 5, 0.1
        B = rng.normal(size=(n, m))
        y = rng.normal(size=n)
        Sigma = np.eye(m)
        g = ridge_reconstruct(B, y, lam, Sigma)
        grad = -2.0 / n * B.T @ (y - B @ g) + 2 * lam * Sigma @ g
        assert np.linalg.norm(grad) < 1e-6


class TestGcv:
    def test_identity_case_is_flat(self, rng):
        n = 25
        y = rng.normal(size=n)
        expect = float(y @ y) / n
        for lam in (1e-6, 1e-2, 1.0, 50.0):
            assert gcv(np.eye(n), y, lam, np.eye(n)) == pytest.approx(
                expect, rel=1e-10
            )

    def test_saturated_smoother_is_infinite(self, rng):
        n = 9
        B = rng.normal(size=(n, n)) + 3 * np.eye(n)
        assert gcv(B, rng.normal(size=n), 0.0, np.eye(n)) == math.inf

    def test_matches_explicit_hat_matrix(self, rng):
        n, m = 40, 6
        B = rng.normal(size=(n, m))
        y = rng.normal(size=n)
        Sigma = random_spd(rng, m)
        for lam in (1e-4, 0.05, 2.0):
            H = B @ np.linalg.solve(B.T @ B + n * lam * Sigma, B.T)
            r = y - H @ y
            expect = float(r @ r) / (n * (1 - np.trace(H) / n) ** 2)
            assert gcv(B, y, lam, Sigma) == pytest.approx(expect, rel=1e-8)


class TestSelectLambda:
    def test_singleton(self, rng):
        lam, curve = select_lambda(np.eye(4), rng.normal(size=4), np.eye(4), [0.25])
        assert lam == 0.25

    def test_flat_curve_takes_largest(self, rng):
        n = 15
        grid = np.logspace(-6, 1, 20)
        lam, curve = select_lambda(np.eye(n), rng.normal(size=n), np.eye(n), grid)
        assert lam == grid[-1]
        assert np.isfinite(curve).all()

    def test_consistent_with_pointwise_gcv(self, rng):
        n, m = 30, 5
        B = rng.normal(size=(n, m))
        y = rng.normal(size=n)
        Sigma = random_spd(rng, m)
        grid = np.logspace(-5, 1, 12)
        lam, curve = select_lambda(B, y, Sigma, grid)
        direct = np.array([gcv(B, y, g, Sigma) for g in grid])
        np.testing.assert_allclose(curve, direct, rtol=1e-8)
        assert curve[grid == lam][0] == pytest.approx(direct.min(), rel=1e-10)


class TestGprr:
    def test_interpolates_at_lambda_zero(self, rng):
        X = rng.random((30, 2))
        y = rng.normal(size=30)
        model = fit_gprr(X, y, None, default_gaussian(2), "none", 0.0)
        err = np.max(np.abs(predict(model, X) - y))
        assert err <= 1e-8 * (1 + np.max(np.abs(y)))

    @pytest.mark.parametrize("lam", [1e-4, 1e-2, 1.0])
    def test_equals_krr_via_collapsed_path(self, rng, lam):
        X = rng.random((30, 2))
        y = rng.normal(size=30)
        spec = default_gaussian(2)
        xs = rng.random((50, 2))
        a = predict(fit_gprr(X, y, None, spec, "none", lam), xs)
        b = predict(fit_krr(X, y, spec, lam), xs)
        np.testing.assert_allclose(a, b, atol=1e-8 * (1 + np.max(np.abs(b))))

    @pytest.mark.parametrize("lam", [1e-4, 1e-2, 1.0])
    def test_literal_basis_formula_equals_krr(self, rng, lam):
        # the ridge system assembled from the interpolation basis and its
        # kernel-part penalty, on a well-conditioned instance
        X = separated_points(rng, 25, 2, min_gap=0.08)
        y = rng.normal(size=25)
        spec = gaussian_kernel([4.0, 4.0])
        basis = gp_basis_build(X, spec, "none")
        B = design_matrix(basis, X)
        R = kernel_matrix(spec, X, X)
        Sigma = basis.V @ R @ basis.V.T
        gamma = ridge_reconstruct(B, y, lam, 0.5 * (Sigma + Sigma.T))
        xs = rng.random((50, 2))
        preds = kernel_matrix(spec, xs, X) @ (basis.V @ gamma)
        ref = predict(fit_krr(X, y, spec, lam), xs)
        np.testing.assert_allclose(preds, ref, atol=1e-8 * (1 + np.max(np.abs(ref))))

    def test_constant_response_reproduced(self, rng):
        X = rng.random((25, 2))
        y = np.full(25, 4.2)
        model = fit_gprr(X, y, None, default_gaussian(2), "constant", 0.0)
        xs = rng.random((40, 2))
        np.testing.assert_allclose(predict(model, xs), 4.2, atol=1e-8)

    def test_subset_knots_self_consistent(self, rng):
        X = rng.random((100, 2))
        y = np.sin(4 * X[:, 0]) + rng.normal(size=100) * 0.1
        A = separated_points(rng, 12, 2)
        model = fit_gprr(X, y, A, default_gaussian(2), "constant+linear", "auto")
        assert model.lam == 0.0  # m << n: no penalty by default
        np.testing.assert_allclose(
            predict(model, model.knots.points),
            model.gamma_hat,
            atol=1e-8 * (1 + np.max(np.abs(model.gamma_hat))),
        )

    def test_subset_gcv_policy(self, rng):
        X = rng.random((60, 1))
        y = f1d(X[:, 0]) + 0.1 * rng.normal(size=60)
        A = separated_points(rng, 20, 1, min_gap=0.03)
        model = fit_gprr(X, y, A, default_gaussian(1), "constant", "gcv")
        assert model.lam in DEFAULT_LAMBDA_GRID
        assert model.diagnostics.gcv is not None

    def test_subset_knot_values_match_augmented_qr(self):
        # gamma minimizes ||[B; sqrt(n lam) W] g - [y; 0]|| with Sigma = W'W,
        # and a thin QR of the stacked matrix gives the reference.  On this
        # draw the spectral formula without its refinement step is 6e-6 off.
        n, m = 4000, 100
        data = simulate("III", n, 2, 1.0, seed=11)
        A = KnotSet(data.X[np.sort(np.random.default_rng(111).choice(n, m, replace=False))])
        spec = default_gaussian(2)
        model = fit_gprr(data.X, data.y, A, spec, "constant+linear", "gcv")
        basis = gp_basis_build(A, spec, "constant+linear")
        W = basis.R_A_factor.factor.T @ basis.V
        Q, R = np.linalg.qr(np.vstack([design_matrix(basis, data.X), np.sqrt(n * model.lam) * W]))
        ref = np.linalg.solve(R, Q.T @ np.concatenate([data.y, np.zeros(m)]))
        assert np.max(np.abs(model.gamma_hat - ref)) <= 1e-6 * np.max(np.abs(ref))

    def test_superposition_in_y(self, rng):
        X = rng.random((40, 2))
        y1, y2 = rng.normal(size=40), rng.normal(size=40)
        A = separated_points(rng, 8, 2)
        spec = default_gaussian(2)
        xs = rng.random((20, 2))
        f = lambda y: predict(fit_gprr(X, y, A, spec, "constant", 0.01), xs)
        lhs = f(y1 + y2)
        rhs = f(y1) + f(y2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-8 * (1 + np.max(np.abs(rhs))))


class TestKrr:
    def test_heavy_shrinkage(self, rng):
        X = rng.random((25, 2))
        y = rng.normal(size=25) + 2
        model = fit_krr(X, y, default_gaussian(2), 1e6)
        xs = rng.random((30, 2))
        assert np.max(np.abs(predict(model, xs))) < 1e-3 * np.max(np.abs(y))

    def test_interpolates_at_zero(self, rng):
        X = separated_points(rng, 20, 2)
        y = rng.normal(size=20)
        model = fit_krr(X, y, default_gaussian(2), 0.0)
        err = np.max(np.abs(predict(model, X) - y))
        assert err <= 1e-8 * (1 + np.max(np.abs(y)))

    def test_knot_values_are_fitted_values(self, rng):
        X = rng.random((30, 1))
        y = rng.normal(size=30)
        model = fit_krr(X, y, default_gaussian(1), 0.05)
        np.testing.assert_allclose(predict(model, X), model.gamma_hat, atol=1e-8)


class TestFdp:
    def test_linear_sequences_pass_through(self):
        n = 60
        y = 0.3 + 1.7 * np.arange(n)
        for lam in (0.0, 1.0, 1e6):
            fit = fit_fdp(y, lam)
            np.testing.assert_allclose(fit.gamma_hat, y, atol=1e-8 * n)

    def test_lambda_zero_identity(self, rng):
        y = rng.normal(size=40)
        np.testing.assert_allclose(fit_fdp(y, 0.0).gamma_hat, y, atol=1e-12)

    def test_huge_lambda_gives_least_squares_line(self, rng):
        n = 100
        y = rng.normal(size=n) + np.linspace(0, 3, n)
        fit = fit_fdp(y, 1e9)
        i = np.arange(n)
        coef = np.polyfit(i, y, 1)
        line = np.polyval(coef, i)
        assert np.max(np.abs(fit.gamma_hat - line)) < 1e-3

    def test_objective_first_order_condition(self, rng):
        n, lam = 80, 0.03
        y = rng.normal(size=n)
        g = fit_fdp(y, lam).gamma_hat
        M = np.zeros((n - 2, n))
        for i in range(n - 2):
            M[i, i : i + 3] = (1.0, -2.0, 1.0)
        grad = 2.0 / n * (g - y) + 2 * lam * M.T @ (M @ g)
        assert np.linalg.norm(grad) < 1e-6 * n

    def test_gcv_matches_explicit_hat(self, rng):
        n = 120
        y = rng.normal(size=n)
        M = np.zeros((n - 2, n))
        for i in range(n - 2):
            M[i, i : i + 3] = (1.0, -2.0, 1.0)
        for lam in (1e-4, 0.1):
            H = np.linalg.inv(np.eye(n) + n * lam * M.T @ M)
            r = y - H @ y
            expect = float(r @ r) / (n * (1 - np.trace(H) / n) ** 2)
            assert fdp_gcv(y, lam) == pytest.approx(expect, rel=1e-8)

    def test_gcv_selection_near_oracle(self):
        rng = np.random.default_rng(7)
        n = 200
        x = np.linspace(0, 1, n)
        y = f1d(x) + 0.3 * rng.normal(size=n)
        grid = DEFAULT_LAMBDA_GRID
        fit = fit_fdp(y, "gcv")
        mise = lambda g: float(np.trapezoid((np.asarray(g) - f1d(x)) ** 2, x))
        selected = mise(fit.gamma_hat)
        oracle = min(mise(fit_fdp(y, lam).gamma_hat) for lam in grid)
        assert selected <= 1.5 * oracle

    def test_spline_reconstruction_matches_grid(self, rng):
        y = rng.normal(size=50)
        fit = fit_fdp(y, 0.05)
        np.testing.assert_allclose(fit.predict(fit.grid_x), fit.gamma_hat, atol=1e-10)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_predict_rejects_non_finite_queries(self, rng, bad):
        fit = fit_fdp(rng.normal(size=30), 0.05)
        with pytest.raises(NonFiniteInput, match="query points have 2 NaN or inf"):
            fit.predict(np.array([0.2, bad, 0.5, bad]))
        with pytest.raises(NonFiniteInput, match="query points have 1 NaN or inf"):
            fit.predict(bad)
        # finite points beyond the grid still extrapolate; a scalar gives a 0-d array
        assert np.isfinite(fit.predict(np.array([-0.5, 1.5]))).all()
        assert fit.predict(0.3).shape == ()

    def test_too_short(self):
        with pytest.raises(DimensionMismatch):
            fit_fdp(np.array([1.0, 2.0]), 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("policy", ["gcv", 0.1])
    def test_non_finite_y_raises_at_the_boundary(self, bad, policy):
        y = np.array([1.0, bad, 2.0, 3.0, bad, 4.0])
        with pytest.raises(NonFiniteInput, match="y has 2 NaN or inf entries"):
            fit_fdp(y, policy)
        lam = DEFAULT_LAMBDA_GRID if policy == "gcv" else policy
        with pytest.raises(NonFiniteInput, match="y has 2 NaN or inf entries"):
            fdp_gcv(y, lam)

    def test_failed_factor_scores_infinite_gcv(self):
        # the banded factor fails once n*lam reaches about 1e16; the search
        # skips those lambdas instead of aborting
        n = 10_000
        x = np.linspace(0, 1, n)
        y = f1d(x) + 0.3 * np.random.default_rng(1).normal(size=n)
        grid = np.logspace(-8, 12, 50)
        curve = fdp_gcv(y, grid)
        assert curve[-1] == math.inf
        assert np.all(np.isfinite(curve[:-1]))
        fit = fit_fdp(y, "gcv", grid)
        assert fit.lam < grid[-1]
        assert fit.diagnostics.gcv == np.min(curve)
        rss, tr = numerics.fdp_residual_and_trace(y, grid[-2:])
        assert np.isfinite(rss[0]) and np.isfinite(tr[0])
        assert np.isnan(rss[1]) and np.isnan(tr[1])

    def test_lambda_the_banded_factor_cannot_solve_scores_infinite_gcv(self):
        # on a noisy line GCV falls toward lambda = inf; close to
        # n*lam*eps = 1 the banded factor can fail (here at the last grid
        # point), and the curve is inf there, so the fit picks a lambda
        # it can solve
        n = 3000
        x = np.linspace(0, 1, n)
        y = x + 0.01 * np.random.default_rng(0).normal(size=n)
        grid = np.logspace(-8, np.log10(0.99 / np.finfo(float).eps / n), 40)
        with pytest.raises(NotPositiveDefinite):
            numerics.banded_spd_solve(numerics.fdp_system(n, grid[-1]), y)
        curve = fdp_gcv(y, grid)
        assert curve[-1] == math.inf
        assert np.all(np.isfinite(curve[:-1]))
        fit = fit_fdp(y, "gcv", grid)
        assert fit.lam == grid[-2]
        assert fit.diagnostics.gcv == np.min(curve)
        gamma = numerics.banded_spd_solve(numerics.fdp_system(n, fit.lam), y)
        np.testing.assert_array_equal(fit.gamma_hat, gamma)


class TestReplicationFit:
    def test_means(self):
        design = replication_design(np.array([0.2, 0.8]), 2)
        model = fit_replication(design, np.array([1.0, 3.0, 5.0, 7.0]), "spline")
        np.testing.assert_allclose(model.gamma_hat, [2.0, 6.0])

    def test_single_replication_passthrough(self, rng):
        design = replication_design(equispaced_knots(5), 1)
        y = rng.normal(size=5)
        model = fit_replication(design, y, "spline")
        np.testing.assert_allclose(model.gamma_hat, y)

    def test_noiseless_recovery(self):
        kn = equispaced_knots(6)
        design = replication_design(kn, 3)
        y = np.repeat(f1d(kn), 3)
        model = fit_replication(design, y, "lagrange")
        np.testing.assert_allclose(model.gamma_hat, f1d(kn), atol=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            fit_replication(replication_design(np.array([0.1, 0.9]), 2), np.ones(3), "spline")


class _MpObjective:
    """f(theta) = min_gamma ||y - B(theta) gamma||^2 / n in 40-digit arithmetic.

    B = G_X U' + R_XA V with [V; U'] the first m columns of the inverse of
    the bordered knot system [R_A G_A; G_A' 0], so it shares no code with
    the search: no Cholesky factor, no jitter, no blocking.
    """

    def __init__(self, X, y, A, g_kind):
        self.X, self.y, self.A = X, y, A
        self.G, self.GA = regression_matrix(g_kind, X), regression_matrix(g_kind, A)

    def __call__(self, x):
        with mpmath.workdps(40):
            theta = [mpmath.mpf(10) ** t for t in x]
            n, m, q = self.X.shape[0], self.A.shape[0], self.GA.shape[1]

            def corr(P, Q):
                return mpmath.matrix([[mpmath.exp(-sum(t * (mpmath.mpf(p[l]) - q_[l]) ** 2
                                                       for l, t in enumerate(theta)))
                                       for q_ in Q] for p in P])

            M = mpmath.zeros(m + q)
            RA = corr(self.A, self.A)
            for i in range(m):
                for k in range(m):
                    M[i, k] = RA[i, k]
                for k in range(q):
                    M[i, m + k] = M[m + k, i] = self.GA[i, k]
            C = mpmath.inverse(M)
            RX = corr(self.X, self.A)
            B = mpmath.matrix(n, m)
            for i in range(n):
                for k in range(m):
                    B[i, k] = (sum(RX[i, l] * C[l, k] for l in range(m))
                               + sum(self.G[i, l] * C[m + l, k] for l in range(q)))
            y = mpmath.matrix(list(self.y))
            gamma = mpmath.lu_solve(B.T * B, B.T * y)
            res = y - B * gamma
            return sum(v**2 for v in res) / n

    def slope(self, x, k, h=mpmath.mpf("1e-12")):
        with mpmath.workdps(40):
            up, down = ([mpmath.mpf(t) for t in x] for _ in range(2))
            up[k] += h
            down[k] -= h
            return (self(up) - self(down)) / (2 * h)


class TestKernelParamEstimation:
    def test_constant_response_is_exact_immediately(self, rng):
        X = rng.random((60, 2))
        y = np.full(60, 2.5)
        A = separated_points(rng, 6, 2)
        kp = estimate_kernel_params(X, y, A, "constant", max_iter=2)
        assert kp.objective_trace[0] < 1e-16

    def test_recovers_kernel_generated_surface(self, rng):
        A = np.linspace(0.03, 0.97, 15)[:, None]
        gam_true = np.sin(2 * np.pi * A[:, 0]) + 0.3 * np.cos(5 * A[:, 0])
        spec_true = gaussian_kernel([10.0])
        X = rng.random((500, 1))
        y = kernel_interp_eval(KnotSet(A), gam_true, spec_true, X)
        kp = estimate_kernel_params(X, y, KnotSet(A), "none", theta0=[1.0],
                                    max_iter=15, tol=1e-12)
        assert kp.objective_trace[-1] < 1e-6
        grid = np.linspace(0, 1, 401)[:, None]
        truth = kernel_interp_eval(KnotSet(A), gam_true, spec_true, grid)
        assert np.max(np.abs(predict(kp.model, grid) - truth)) < 1e-3

    def test_trace_non_increasing(self, rng):
        for s in range(3):
            r = np.random.default_rng(100 + s)
            X = r.random((80, 2))
            y = np.sin(3 * X[:, 0]) * X[:, 1] + 0.2 * r.normal(size=80)
            A = separated_points(r, 8, 2)
            kp = estimate_kernel_params(X, y, A, "constant+linear", max_iter=4)
            trace = np.array(kp.objective_trace)
            assert np.all(np.diff(trace) <= 1e-12)

    def test_evaluations_count_objective_calls(self, monkeypatch):
        # one gradient per evaluation, and one gamma-step per evaluation in
        # all: f(theta0) serves the first, and accepting an iterate reuses
        # the evaluation made there
        calls = []

        def counted(name):
            method = getattr(estimators._RateSearch, name)

            def wrapper(self, *args):
                calls.append(name)
                return method(self, *args)

            return wrapper

        for name in ("gradient", "gamma_step"):
            monkeypatch.setattr(estimators._RateSearch, name, counted(name))
        for s in range(3):
            r = np.random.default_rng(100 + s)
            X = r.random((80, 2))
            y = np.sin(3 * X[:, 0]) * X[:, 1] + 0.2 * r.normal(size=80)
            calls.clear()
            kp = estimate_kernel_params(X, y, separated_points(r, 8, 2), "constant+linear",
                                        max_iter=4)
            assert 0 < kp.evaluations == calls.count("gradient") == calls.count("gamma_step") < 40
            assert len(kp.objective_trace) <= 4 + 1

    def test_result_belongs_to_the_last_trace_entry(self):
        # the search's last evaluation may be a rejected line-search trial;
        # what is returned is the last accepted iterate, bit for bit
        X, y, A = self._borehole_draw()
        for max_iter, tol in ((2, 0.0), (5, 1e-3), (50, 0.0)):
            kp = estimate_kernel_params(X, y, A, "constant+linear", max_iter=max_iter, tol=tol)
            assert len(kp.objective_trace) - 1 <= max_iter
            f, gamma = estimators._RateSearch(X, y, KnotSet(A), "constant+linear").gamma_step(kp.theta)
            assert f == kp.objective_trace[-1]
            np.testing.assert_array_equal(gamma, kp.gamma_hat)
            np.testing.assert_array_equal(kp.model.kernel.theta, kp.theta)
            res = y - predict(kp.model, X)
            assert res @ res / len(y) == pytest.approx(f, rel=1e-8)

    def test_theta0_outside_the_box_kept_when_the_box_is_worse(self, rng):
        # y is exactly a rate-5000 kernel interpolant, which no rate in the
        # box reproduces
        A = np.linspace(0.03, 0.97, 15)[:, None]
        X = rng.random((300, 1))
        y = kernel_interp_eval(KnotSet(A), np.cos(6 * A[:, 0]), gaussian_kernel([5000.0]), X)
        kp = estimate_kernel_params(X, y, KnotSet(A), "none", theta0=[5000.0], max_iter=10)
        assert kp.objective_trace[0] < 1e-20
        assert len(kp.objective_trace) == 1
        np.testing.assert_array_equal(kp.theta, [5000.0])
        assert estimate_kernel_params(X, y, KnotSet(A), "none", theta0=[1e3], max_iter=10
                                      ).objective_trace[-1] > 1e6 * kp.objective_trace[0]

    @staticmethod
    def _borehole_draw():
        data = simulate("borehole", 300, seed=5)
        return data.X, data.y, data.X[np.sort(np.random.default_rng(6).choice(300, 20, replace=False))]

    def test_at_most_eight_evaluations_per_search(self):
        X, y, A = self._borehole_draw()
        kp = estimate_kernel_params(X, y, A, "constant+linear", max_iter=3, tol=0.0)
        assert not kp.converged
        assert kp.evaluations / (3 * 8) <= 8

    def test_search_does_not_depend_on_the_units_of_y(self):
        # f and f' scale with y**2; the search must not stop early on small y
        X, y, A = self._borehole_draw()
        ref = estimate_kernel_params(X, y, A, "constant+linear", max_iter=3, tol=0.0)
        for c in (1e-3, 1e3):
            kp = estimate_kernel_params(X, c * y, A, "constant+linear", max_iter=3, tol=0.0)
            assert kp.evaluations == ref.evaluations
            np.testing.assert_allclose(kp.theta, ref.theta, rtol=1e-8)
            np.testing.assert_allclose(kp.objective_trace, c**2 * np.array(ref.objective_trace),
                                       rtol=1e-8)

    def test_theta0_outside_the_bracket(self, rng):
        X = rng.random((60, 2))
        y = np.sin(3 * X[:, 0]) * X[:, 1]
        A = separated_points(rng, 6, 2)
        kp = estimate_kernel_params(X, y, A, "constant", theta0=[1e-5, 1e5], max_iter=2)
        assert np.all(np.isfinite(kp.objective_trace))
        assert np.all(np.diff(kp.objective_trace) <= 0)
        for theta0 in ([0.0, 1.0], [-1.0, 1.0], [np.nan, 1.0], [np.inf, 1.0]):
            with pytest.raises(ValueError, match="positive, finite"):
                estimate_kernel_params(X, y, A, "constant", theta0=theta0)

    def test_converged_when_tol_stops_the_sweeps(self, rng):
        X = rng.random((60, 2))
        A = separated_points(rng, 6, 2)
        kp = estimate_kernel_params(X, np.full(60, 2.5), A, "constant", max_iter=5)
        assert kp.converged and len(kp.objective_trace) < 7
        assert kp.evaluations > 0

    @pytest.mark.parametrize("g_kind", ["constant+linear", "none"])
    @pytest.mark.parametrize("block_rows", [7, None])
    def test_slope_matches_central_differences(self, monkeypatch, g_kind, block_rows):
        # the gradient of f(theta) = min_gamma ||y - B(theta) gamma||^2 / n
        # at gamma_hat(theta), each central difference redoing the gamma-step
        r = np.random.default_rng(21)
        X = r.random((150, 3))
        y = np.sin(3 * X[:, 0]) * X[:, 1] + 0.2 * r.normal(size=150)
        A = separated_points(r, 12, 3)
        if block_rows:
            monkeypatch.setattr(estimators, "CACHE_BLOCK_FLOATS", block_rows * 12)
        search = estimators._RateSearch(X, y, KnotSet(A), g_kind)
        G, GA = regression_matrix(g_kind, X), regression_matrix(g_kind, A)
        base = np.log10([3.0, 20.0, 0.5])
        for j in range(3):
            for t in (-1.99, -1.2, 0.4, 1.7, 2.99):  # near both bounds and inside
                x = base.copy()
                x[j] = t
                f, gamma = search.gamma_step(10.0**x)
                grad = search.gradient()
                spec = gaussian_kernel(10.0**x)
                u, w = numerics.spd_factor(kernel_matrix(spec, A, A)).gls(GA, gamma)
                res = y - G @ u - kernel_matrix(spec, X, A) @ w
                assert f == pytest.approx(res @ res / 150, rel=1e-10)
                h = 1e-5
                for k in range(3):
                    e = np.zeros(3)
                    e[k] = h
                    central = (search.gamma_step(10.0 ** (x + e))[0]
                               - search.gamma_step(10.0 ** (x - e))[0]) / (2 * h)
                    assert grad[k] == pytest.approx(central, rel=1e-6, abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 3),
        g_kind=st.sampled_from(["constant+linear", "constant", "none"]),
        log_theta=st.lists(st.floats(-2.0, 3.0), min_size=3, max_size=3),
    )
    def test_gradient_property(self, seed, d, g_kind, log_theta):
        # against central differences of f in 40-digit arithmetic, over the
        # whole box.  The knots are data points, so the basis rows there are
        # the identity and B has full column rank, which the gradient
        # formula needs.  Rounding in the float64 search grows with the
        # condition number of R_A (up to ~1e10 at the smallest rates), and
        # the bounds grow with it; at moderate conditioning they are the
        # fixed-seed test's rel 1e-10 and 1e-6 / abs 1e-9.
        r = np.random.default_rng(seed)
        n, m = 40, (4, 6, 8)[d - 1]
        A = separated_points(r, m, d, min_gap=0.15)
        X = np.vstack([A, r.random((n - m, d))])
        y = np.sin(3 * X[:, 0]) + X[:, -1] ** 2 + 0.2 * r.normal(size=n)
        x = np.array(log_theta[:d])
        search = estimators._RateSearch(X, y, KnotSet(A), g_kind)
        f = search.gamma_step(10.0**x)[0]
        grad = search.gradient()
        rounding = 10 * np.finfo(float).eps * np.linalg.cond(search._RA)
        reference = _MpObjective(X, y, A, g_kind)
        assert f == pytest.approx(float(reference([mpmath.mpf(t) for t in x])),
                                  rel=1e-10 + rounding)
        for k in range(d):
            assert grad[k] == pytest.approx(float(reference.slope(x, k)),
                                            rel=1e-6, abs=1e-9 + rounding * f)

    def test_model_is_well_formed(self, rng):
        X = rng.random((70, 2))
        y = X[:, 0] ** 2 + 0.1 * rng.normal(size=70)
        A = separated_points(rng, 7, 2)
        kp = estimate_kernel_params(X, y, A, "constant+linear", max_iter=3)
        assert kp.model.lam == 0.0
        assert kp.theta.shape == (2,)
        np.testing.assert_allclose(
            predict(kp.model, kp.model.knots.points), kp.gamma_hat,
            atol=1e-7 * (1 + np.max(np.abs(kp.gamma_hat))),
        )


# a stored-model field value that deletes the field
_ABSENT = object()


class TestPredictAndSerialization:
    def _models(self, rng):
        X = rng.random((25, 2))
        y = np.cos(3 * X[:, 0]) + rng.normal(size=25) * 0.1
        kn = equispaced_knots(6)
        rep = replication_design(kn, 2)
        y1 = np.repeat(f1d(kn), 2) + 0.05 * rng.normal(size=12)
        return [
            fit_gprr(X, y, None, default_gaussian(2), "constant+linear", 0.01),
            fit_gprr(X, y, separated_points(rng, 6, 2), default_gaussian(2),
                     "constant", 0.0),
            fit_krr(X, y, default_gaussian(2), 0.02),
            fit_replication(rep, y1, "spline"),
            fit_replication(rep, y1, "lagrange"),
        ]

    def test_predict_at_knots_returns_gamma(self, rng):
        for model in self._models(rng):
            scale = 1 + np.max(np.abs(model.gamma_hat))
            np.testing.assert_allclose(
                predict(model, model.knots.points), model.gamma_hat,
                atol=1e-8 * scale,
            )

    def test_lagrange_predicts_in_blocks(self, rng, monkeypatch):
        model = self._models(rng)[-1]
        xs = rng.random((50, 1))
        whole = lagrange_eval(model.knots.points[:, 0], model.gamma_hat, xs[:, 0])
        calls = []

        def counted(*args):
            calls.append(1)
            return lagrange_eval(*args)

        monkeypatch.setattr(estimators, "lagrange_eval", counted)
        monkeypatch.setattr(estimators, "_PREDICT_CHUNK_FLOATS", 10 * model.knots.m)
        np.testing.assert_array_equal(predict(model, xs), whole)
        assert len(calls) == 5

    def test_empty_input(self, rng):
        model = self._models(rng)[0]
        assert predict(model, np.zeros((0, 2))).shape == (0,)

    def test_dimension_check(self, rng):
        model = self._models(rng)[0]
        with pytest.raises(DimensionMismatch):
            predict(model, rng.random((3, 5)))

    def test_non_finite_query_points(self, rng):
        for model in self._models(rng):
            xs = rng.random((6, model.knots.d))
            xs[2, 0] = np.nan
            xs[4, -1] = -np.inf
            with pytest.raises(NonFiniteInput, match="query points have 2 NaN or inf"):
                predict(model, xs)

    def test_json_round_trip_is_prediction_identical(self, rng):
        xs2 = rng.random((40, 2))
        xs1 = rng.random((40, 1))
        for model in self._models(rng):
            blob = json.dumps(model_to_json(model), sort_keys=True)
            clone = model_from_json(json.loads(blob))
            xs = xs1 if clone.knots.d == 1 else xs2
            a, b = predict(model, xs), predict(clone, xs)
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * (1 + np.max(np.abs(a))))

    def test_round_trip_preserves_fields(self, rng):
        model = self._models(rng)[0]
        clone = model_from_json(model_to_json(model))
        assert clone.interpolator == model.interpolator
        assert clone.method == model.method
        assert clone.lam == model.lam
        assert clone.kernel == model.kernel
        np.testing.assert_array_equal(clone.gamma_hat, model.gamma_hat)


class TestIndependentOracle:
    def test_subset_fit_matches_plain_inverse_assembly(self, rng):
        """Rebuild the whole subset-knot estimator with raw dense algebra."""
        n, m, lam = 60, 9, 0.02
        X = rng.random((n, 2))
        y = np.sin(4 * X[:, 0]) + rng.normal(size=n) * 0.3
        A = separated_points(rng, m, 2, min_gap=0.15)
        spec = gaussian_kernel([3.0, 3.0])

        # oracle: textbook formulas with numpy.linalg only
        R = kernel_matrix(spec, A, A)
        G = np.hstack([np.ones((m, 1)), A])
        Rinv = np.linalg.inv(R)
        C = G.T @ Rinv @ G
        U = Rinv @ G @ np.linalg.inv(C)
        V = (np.eye(m) - U @ G.T) @ Rinv
        GX = np.hstack([np.ones((n, 1)), X])
        B = GX @ U.T + kernel_matrix(spec, X, A) @ V
        Sigma = V @ R @ V.T
        gamma = np.linalg.solve(B.T @ B + n * lam * Sigma, B.T @ y)
        xs = rng.random((30, 2))
        Gs = np.hstack([np.ones((30, 1)), xs])
        oracle = Gs @ (U.T @ gamma) + kernel_matrix(spec, xs, A) @ (V @ gamma)

        model = fit_gprr(X, y, A, spec, "constant+linear", lam)
        got = predict(model, xs)
        np.testing.assert_allclose(got, oracle, atol=1e-8 * (1 + np.max(np.abs(oracle))))

    def test_full_fit_matches_plain_inverse_assembly(self, rng):
        n, lam = 35, 0.05
        X = rng.random((n, 2))
        y = rng.normal(size=n)
        spec = gaussian_kernel([3.0, 3.0])
        R = kernel_matrix(spec, X, X)
        G = np.hstack([np.ones((n, 1)), X])
        K = R + n * lam * np.eye(n)
        Kinv = np.linalg.inv(K)
        beta = np.linalg.solve(G.T @ Kinv @ G, G.T @ Kinv @ y)
        c = Kinv @ (y - G @ beta)
        xs = rng.random((25, 2))
        oracle = np.hstack([np.ones((25, 1)), xs]) @ beta + kernel_matrix(spec, xs, X) @ c
        got = predict(fit_gprr(X, y, None, spec, "constant+linear", lam), xs)
        np.testing.assert_allclose(got, oracle, atol=1e-8 * (1 + np.max(np.abs(oracle))))


class TestMaternPaths:
    def test_matern_interpolation_and_reduction(self, rng):
        from reconstruct.kernels import matern_kernel
        from reconstruct.interpolators import (
            gp_basis_build,
            gp_interp_eval,
            kernel_interp_eval,
        )

        pts = separated_points(rng, 10, 2)
        g = rng.normal(size=10)
        spec = matern_kernel(1.5, 0.6)
        vals = kernel_interp_eval(pts, g, spec, pts)
        assert np.max(np.abs(vals - g)) <= 1e-8 * (1 + np.max(np.abs(g)))
        basis = gp_basis_build(pts, spec, "none")
        xs = rng.random((20, 2))
        a = gp_interp_eval(basis, g, xs)
        b = kernel_interp_eval(pts, g, spec, xs)
        np.testing.assert_allclose(a, b, atol=1e-9 * (1 + np.max(np.abs(b))))

    def test_matern_krr_fit(self, rng):
        from reconstruct.kernels import matern_kernel

        X = rng.random((40, 2))
        y = np.cos(3 * X[:, 0]) + 0.2 * rng.normal(size=40)
        model = fit_krr(X, y, matern_kernel(2.5, 0.8), 0.01)
        np.testing.assert_allclose(
            predict(model, X), model.gamma_hat,
            atol=1e-8 * (1 + np.max(np.abs(model.gamma_hat))),
        )


class TestFdpLargeGcv:
    def test_exact_trace_gcv_beyond_ten_thousand(self):
        rng = np.random.default_rng(5)
        n = 12_000
        x = np.linspace(0, 1, n)
        y = np.sin(6 * x) + 0.4 * rng.normal(size=n)
        grid = np.logspace(-6, 0, 5)
        fit = fit_fdp(y, "gcv", grid=grid)
        assert fit.lam in grid
        r = y - fit.gamma_hat
        trace = mp_residual_and_trace(y, fit.lam)[1]
        expect = float(r @ r) / (n * (1 - trace / n) ** 2)
        assert fit.diagnostics.gcv == pytest.approx(expect, rel=1e-12)
        # smoother output: kink energy well below the raw series
        d2 = np.diff(fit.gamma_hat, 2)
        assert np.sum(d2**2) < 0.01 * np.sum(np.diff(y, 2) ** 2)


class TestModelJsonSchema:
    def test_document_fields(self, rng):
        X = rng.random((20, 2))
        y = rng.normal(size=20)
        model = fit_gprr(X, y, None, default_gaussian(2), "constant+linear", 0.01)
        doc = model_to_json(model)
        assert set(doc) == {
            "interpolator", "method", "lambda", "g_kind", "kernel",
            "knots", "gamma_hat", "beta", "w", "diagnostics",
        }
        assert doc["interpolator"] == "gp"
        assert doc["kernel"] == {"family": "gaussian", "theta": [12.5, 12.5]}
        assert len(doc["knots"]) == 20 and len(doc["knots"][0]) == 2
        assert isinstance(doc["lambda"], float)


    def _stored(self, rng, **changes):
        """A stored model with ``changes`` applied; a change to ``_ABSENT``
        deletes the field."""
        X = rng.random((20, 2))
        model = fit_gprr(X, rng.normal(size=20), X[:6], default_gaussian(2), "constant+linear", 0.01)
        doc = model_to_json(model)
        doc.update(changes)
        return {k: v for k, v in doc.items() if v is not _ABSENT}

    @pytest.mark.parametrize("field,value", [
        ("w", [0.1] * 5),
        ("beta", [0.1] * 2),
        ("gamma_hat", [0.1] * 7),
        ("kernel", {"family": "gaussian", "theta": [12.5, 12.5, 12.5]}),
        ("w", None),
    ])
    def test_bad_field_is_named(self, rng, field, value):
        with pytest.raises(BadSchema, match=field):
            model_from_json(self._stored(rng, **{field: value}))

    @staticmethod
    def _stored_1d(interpolator, **changes):
        kn = equispaced_knots(5)
        model = fit_replication(replication_design(kn, 2), np.repeat(f1d(kn), 2), interpolator)
        doc = model_to_json(model)
        doc.update(changes)
        return doc

    @pytest.mark.parametrize("field,value", [
        ("w", [0.1, math.nan, 0.1, 0.1, 0.1, 0.1]),
        ("beta", [0.1, math.inf, 0.1]),
        ("gamma_hat", [-math.inf] + [0.1] * 5),
        ("interpolator", "wavelet"),
        ("interpolator", None),
        ("knots", [[math.nan, 0.5]] + [[0.1 * i, 0.2] for i in range(1, 6)]),
        ("knots", [[0.1, 0.2]] * 6),
        ("knots", [[0.1, 0.2, 0.3]] + [[0.1 * i, 0.2] for i in range(1, 6)]),
        ("knots", _ABSENT),
        ("lambda", _ABSENT),
        ("lambda", "small"),
        ("kernel", {"family": "gaussian"}),
        ("kernel", {"family": "gaussian", "theta": [0.0, 12.5]}),
        ("kernel", {"family": "gaussian", "theta": [-1.0, 12.5]}),
        ("kernel", {"family": "gaussian", "theta": [math.nan, 12.5]}),
        ("kernel", {"family": "gaussian", "theta": [math.inf, 12.5]}),
    ])
    def test_unusable_kernel_model_is_rejected_on_load(self, rng, field, value):
        with pytest.raises(BadSchema, match=f"'{field}'"):
            model_from_json(self._stored(rng, **{field: value}))

    @pytest.mark.parametrize("interpolator", ["lagrange", "spline"])
    def test_unusable_1d_model_is_rejected_on_load(self, interpolator):
        model_from_json(self._stored_1d(interpolator))
        with pytest.raises(BadSchema, match="'gamma_hat'"):
            model_from_json(self._stored_1d(interpolator, gamma_hat=None))
        with pytest.raises(BadSchema, match="'gamma_hat'"):
            model_from_json(self._stored_1d(interpolator, gamma_hat=[0.1, math.nan, 0.1, 0.1, 0.1]))
        with pytest.raises(BadSchema, match="'knots'"):
            model_from_json(self._stored_1d(interpolator, knots=[[0.1 * i, 0.5] for i in range(5)]))


_XY_SPEC = default_gaussian(2)
_XY_VP = VarianceParams(1.0, 0.5)

# every public fit that takes training data (X, y), with knots X[:6]
_XY_FITS = {
    "fit_gprr": lambda X, y: fit_gprr(X, y, X[:6], _XY_SPEC, "constant+linear", 0.01),
    "fit_krr": lambda X, y: fit_krr(X, y, _XY_SPEC),
    "fit_gpr": lambda X, y: fit_gpr(X, y, _XY_SPEC),
    "fit_nystrom": lambda X, y: fit_nystrom(X, y, X[:6], _XY_SPEC),
    "fit_spgp": lambda X, y: fit_spgp(X, y, X[:6], _XY_SPEC, _XY_VP),
    "fit_empirical_bayes": lambda X, y: fit_empirical_bayes(X, y, X[:6], _XY_SPEC, _XY_VP),
    "estimate_kernel_params": lambda X, y: estimate_kernel_params(X, y, X[:6], max_iter=1),
    "estimate_variances": lambda X, y: estimate_variances(X, y, X[:6], _XY_SPEC),
}


@pytest.mark.parametrize("name", sorted(_XY_FITS))
def test_training_data_checked_at_the_boundary(rng, name):
    fit = _XY_FITS[name]
    X = rng.random((30, 2))
    y = np.sin(3 * X[:, 0]) + 0.1 * rng.normal(size=30)
    fit(X, y)
    with pytest.raises(LengthMismatch):
        fit(X, y[:-1])
    y_nan = y.copy()
    y_nan[4] = np.nan
    with pytest.raises(NonFiniteInput, match="y"):
        fit(X, y_nan)
    X_inf = X.copy()
    X_inf[7, 1] = np.inf
    with pytest.raises(NonFiniteInput, match="X"):
        fit(X_inf, y)


# every lambda-tuned fit on 30 points; the subset fits estimate 12 > 30/5
# knot values, so "auto" means GCV for all of them
_TUNED_FITS = {
    "fit_krr": lambda X, y, p: fit_krr(X, y, _XY_SPEC, p),
    "fit_gpr": lambda X, y, p: fit_gpr(X, y, _XY_SPEC, "constant+linear", p),
    "fit_gprr": lambda X, y, p: fit_gprr(X, y, None, _XY_SPEC, "constant+linear", p),
    "fit_gprr_subset": lambda X, y, p: fit_gprr(X, y, X[:12], _XY_SPEC, "constant+linear", p),
    "fit_nystrom": lambda X, y, p: fit_nystrom(X, y, X[:12], _XY_SPEC, "constant+linear", p),
    "fit_fdp": lambda X, y, p: fit_fdp(y, p),
}


@pytest.fixture
def tuned_data(rng):
    X = rng.random((30, 2))
    return X, np.sin(3 * X[:, 0]) + 0.3 * rng.normal(size=30)


class TestLambdaPolicy:
    @pytest.mark.parametrize("name", sorted(_TUNED_FITS))
    def test_none_is_lambda_zero(self, tuned_data, name):
        fit = _TUNED_FITS[name]
        if name == "fit_nystrom":
            # the low-rank smoother has no unpenalized form
            with pytest.raises(SingularSystem):
                fit(*tuned_data, "none")
            return
        model = fit(*tuned_data, "none")
        assert model.lam == 0.0
        assert model.diagnostics.gcv is None
        np.testing.assert_array_equal(model.gamma_hat, fit(*tuned_data, 0.0).gamma_hat)

    @pytest.mark.parametrize("name", sorted(_TUNED_FITS))
    def test_auto_is_gcv_with_n_knot_values(self, tuned_data, name):
        auto = _TUNED_FITS[name](*tuned_data, "auto")
        by_gcv = _TUNED_FITS[name](*tuned_data, "gcv")
        assert auto.lam == by_gcv.lam
        assert auto.diagnostics.gcv == by_gcv.diagnostics.gcv is not None

    @pytest.mark.parametrize("name", sorted(_TUNED_FITS))
    def test_unknown_word_raises(self, tuned_data, name):
        with pytest.raises(ValueError, match="gvc"):
            _TUNED_FITS[name](*tuned_data, "gvc")

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -1e-3], ids=["nan", "inf", "negative"])
    @pytest.mark.parametrize("name", sorted(_TUNED_FITS))
    def test_bad_number_raises_naming_it(self, tuned_data, name, lam):
        with pytest.raises(ValueError, match=f"not {lam!r}$"):
            _TUNED_FITS[name](*tuned_data, lam)

    @pytest.mark.parametrize("entry", [math.nan, -math.inf, -1e-3])
    def test_bad_grid_entry_raises_naming_it(self, tuned_data, entry):
        X, y = tuned_data
        with pytest.raises(ValueError, match=f"not {entry!r}$"):
            fit_krr(X, y, _XY_SPEC, "gcv", [1e-3, entry, 1e-1])

    def test_auto_is_zero_with_few_knot_values(self, tuned_data):
        X, y = tuned_data
        assert fit_gprr(X, y, X[:6], _XY_SPEC, "constant+linear", "auto").lam == 0.0

    def test_subset_gcv_factors_twice(self, rng, monkeypatch):
        # R_A for the basis and B'B for the spectrum; the coefficients come
        # from the same spectrum, with no third factorization
        calls = []
        original = numerics.spd_factor

        def counting(A):
            calls.append(np.shape(A))
            return original(A)

        for module in (numerics, interpolators, estimators, baselines):
            if getattr(module, "spd_factor", None) is original:
                monkeypatch.setattr(module, "spd_factor", counting)
        X = rng.random((200, 2))
        y = np.sin(3 * X[:, 0]) + 0.3 * rng.normal(size=200)
        fit_gprr(X, y, X[:20], _XY_SPEC, "constant+linear", "gcv")
        assert calls == [(20, 20), (20, 20)]


def _brute_gcv(H, y):
    n = y.shape[0]
    r = y - H @ y
    return float(r @ r) / (n * (1 - np.trace(H) / n) ** 2)


def _kriging_hat(R, G, lam):
    """Fitted values G beta + R c of the bordered GLS system, column by column."""
    n, q = G.shape
    K = np.block([[R + n * lam * np.eye(n), G], [G.T, np.zeros((q, q))]])
    sol = np.linalg.solve(K, np.vstack([np.eye(n), np.zeros((q, n))]))
    return R @ sol[:n] + G @ sol[n:]


_GCV_GRID = np.logspace(-4, 0, 5)


def _kernel_curves(rng, n, g_kind):
    X = rng.random((n, 2))
    y = rng.normal(size=n)
    R = kernel_matrix(default_gaussian(2), X, X)
    G = regression_matrix(g_kind, X)
    spectrum, _ = _kriging_spectrum(R, G, y)
    curve = _gcv_curve(n, *spectrum.rss_and_dof(_GCV_GRID))
    return curve, [_brute_gcv(_kriging_hat(R, G, lam), y) for lam in _GCV_GRID]


def _subset_curves(rng, n):
    X = rng.random((n, 2))
    y = rng.normal(size=n)
    basis = gp_basis_build(separated_points(rng, n // 3, 2), default_gaussian(2),
                           "constant+linear")
    B = design_matrix(basis, X)
    Sigma = roughness_penalty(basis)
    brute = [_brute_gcv(B @ np.linalg.solve(B.T @ B + n * lam * Sigma, B.T), y)
             for lam in _GCV_GRID]
    return gcv(B, y, _GCV_GRID, Sigma), brute


def _nystrom_curves(rng, n):
    X = rng.random((n, 2))
    y = rng.normal(size=n)
    A = separated_points(rng, n // 3, 2)
    spec = default_gaussian(2)
    RXA = kernel_matrix(spec, X, A)
    Rlow = RXA @ np.linalg.solve(kernel_matrix(spec, A, A), RXA.T)
    G = regression_matrix("constant+linear", X)
    # fit_nystrom's route: the Demmler-Reinsch spectrum of [G, P], trend unpenalized
    _, _, P = _whitened_cross(X, A, spec)
    Sigma = np.diag(np.r_[np.zeros(G.shape[1]), np.ones(P.shape[1])])
    brute = [_brute_gcv(_kriging_hat(Rlow, G, lam), y) for lam in _GCV_GRID]
    return gcv(np.hstack([G, P]), y, _GCV_GRID, Sigma), brute


def _fdp_curves(rng, n):
    y = rng.normal(size=n)
    M = np.diff(np.eye(n), 2, axis=0)
    brute = [_brute_gcv(np.linalg.inv(np.eye(n) + n * lam * M.T @ M), y)
             for lam in _GCV_GRID]
    return fdp_gcv(y, _GCV_GRID), brute


class TestGcvEngineProperties:
    """Every smoother spectrum gives the brute-force hat-matrix GCV curve."""

    @pytest.mark.parametrize("builder", [
        lambda rng, n: _kernel_curves(rng, n, "none"),
        lambda rng, n: _kernel_curves(rng, n, "constant+linear"),
        _subset_curves,
        _nystrom_curves,
        _fdp_curves,
    ], ids=["krr", "gpr", "subset-gprr", "nystrom", "fdp"])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(12, 40))
    def test_curve_matches_brute_force(self, builder, seed, n):
        curve, brute = builder(np.random.default_rng(seed), n)
        np.testing.assert_allclose(curve, brute, rtol=1e-8)
