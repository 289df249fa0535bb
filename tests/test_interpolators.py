import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.interpolate import CubicSpline

from reconstruct import interpolators
from reconstruct.designs import chebyshev_knots, equispaced_knots
from reconstruct.errors import (
    DimensionMismatch,
    DuplicateKnots,
    RankDeficientRegression,
    UnsortedKnots,
)
from reconstruct.interpolators import (
    KnotSet,
    SplineCoefficients,
    design_matrix,
    fit_cubic_spline,
    fit_natural_spline,
    gp_basis_build,
    gp_interp_eval,
    interpolation_error,
    kernel_interp_eval,
    lagrange_eval,
    spline_eval,
)
from reconstruct.kernels import CACHE_BLOCK_FLOATS, default_gaussian, gaussian_kernel

from conftest import f1d, separated_points


class TestKnotSet:
    def test_duplicate_rows_rejected(self):
        with pytest.raises(DuplicateKnots):
            KnotSet(np.array([[0.1, 0.2], [0.1, 0.2]]))

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            KnotSet(np.array([[1.2, 0.0]]))

    @pytest.mark.parametrize("row", [[np.nan, 0.5], [0.5, -np.inf]])
    def test_non_finite_rejected(self, row):
        with pytest.raises(ValueError):
            KnotSet(np.array([[0.1, 0.2], row]))

    def test_shape(self):
        ks = KnotSet(np.array([[0.1], [0.9]]))
        assert (ks.m, ks.d) == (2, 1)

    @settings(max_examples=100, deadline=None)
    @given(pts=hnp.arrays(float, st.tuples(st.integers(1, 12), st.integers(1, 3)),
                          elements=st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0])))
    def test_duplicate_check_matches_unique(self, pts):
        # grid values make repeated rows common; -0.0 and 0.0 are one point
        if np.unique(pts, axis=0).shape[0] == pts.shape[0]:
            assert KnotSet(pts).m == pts.shape[0]
        else:
            with pytest.raises(DuplicateKnots):
                KnotSet(pts)


class TestLagrange:
    def test_line_through_origin(self):
        assert lagrange_eval([0.0, 1.0], [0.0, 1.0], 0.3) == pytest.approx(0.3)

    def test_exact_at_knots(self):
        kn = chebyshev_knots(3)
        g = f1d(kn)
        assert lagrange_eval(kn, g, kn[1]) == g[1]

    def test_quadratic(self):
        # unique parabola through (0,0), (.5,.25), (1,1) is x^2
        assert lagrange_eval([0.0, 0.5, 1.0], [0.0, 0.25, 1.0], 0.75) == pytest.approx(
            0.5625, abs=1e-12
        )

    def test_duplicate_knots(self):
        with pytest.raises(DuplicateKnots):
            lagrange_eval([0.2, 0.2, 0.9], [1.0, 2.0, 3.0], 0.5)

    def test_single_knot_is_constant(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(lagrange_eval([0.4], [2.5], [0.1, 0.4, 0.9]), 2.5)

    def test_independent_of_global_random_state(self):
        rng = np.random.default_rng(3)
        kn, g = np.sort(rng.random(30)), rng.standard_normal(30)
        grid = np.linspace(0, 1, 201)
        outs = []
        for seed in (0, 1):
            np.random.seed(seed)
            before = np.random.get_state()
            outs.append(lagrange_eval(kn, g, grid))
            after = np.random.get_state()
            np.testing.assert_array_equal(after[1], before[1])
            assert after[2] == before[2]
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_chebyshev_error_small(self):
        kn = chebyshev_knots(8)
        grid = np.linspace(0, 1, 2001)
        err = np.max(np.abs(lagrange_eval(kn, f1d(kn), grid) - f1d(grid)))
        assert err < 0.05


class TestSpline:
    def test_reproduces_linear(self):
        kn = np.linspace(0, 1, 9)
        coeffs = fit_natural_spline(kn, 2 * kn + 1)
        grid = np.linspace(0, 1, 101)
        assert np.max(np.abs(spline_eval(coeffs, grid) - (2 * grid + 1))) < 1e-10

    def test_two_knots_is_segment(self):
        coeffs = fit_natural_spline([0.0, 1.0], [1.0, 3.0])
        assert spline_eval(coeffs, 0.25) == pytest.approx(1.5)

    def test_exact_at_knots(self, rng):
        kn = np.sort(rng.random(12))
        g = rng.normal(size=12)
        coeffs = fit_natural_spline(kn, g)
        np.testing.assert_allclose(spline_eval(coeffs, kn), g, atol=1e-10)

    def test_f1d_eight_knots_sup_error(self):
        kn = equispaced_knots(8)
        coeffs = fit_natural_spline(kn, f1d(kn))
        grid = np.linspace(0, 1, 2001)
        assert np.max(np.abs(spline_eval(coeffs, grid) - f1d(grid))) < 0.2

    @pytest.mark.parametrize("boundary", ["natural", "not-a-knot"])
    @pytest.mark.parametrize("m", [3, 5, 9, 40])
    def test_matches_scipy(self, rng, boundary, m):
        kn = np.sort(rng.random(m))
        kn[0], kn[-1] = 0.0, 1.0
        g = rng.normal(size=m)
        grid = np.linspace(0, 1, 501)
        mine = spline_eval(fit_cubic_spline(kn, g, boundary), grid)
        ref = CubicSpline(kn, g, bc_type=boundary)(grid)
        np.testing.assert_allclose(mine, ref, atol=1e-10)

    def test_natural_boundary_second_derivative(self, rng):
        kn = np.linspace(0, 1, 10)
        g = rng.normal(size=10)
        c = fit_natural_spline(kn, g).coeffs
        h_last = kn[-1] - kn[-2]
        assert abs(2.0 * c[0, 2]) < 1e-10
        assert abs(2.0 * c[-1, 2] + 6.0 * c[-1, 3] * h_last) < 1e-10

    def test_interior_continuity(self, rng):
        kn = np.sort(rng.random(9))
        g = rng.normal(size=9)
        sc = fit_natural_spline(kn, g)
        h = np.diff(kn)
        a, b, c, e = sc.coeffs.T
        for i in range(len(kn) - 2):
            t = h[i]
            val = a[i] + b[i] * t + c[i] * t**2 + e[i] * t**3
            d1 = b[i] + 2 * c[i] * t + 3 * e[i] * t**2
            d2 = 2 * c[i] + 6 * e[i] * t
            assert abs(val - a[i + 1]) < 1e-10
            assert abs(d1 - b[i + 1]) < 1e-10
            assert abs(d2 - 2 * c[i + 1]) < 1e-10

    def test_unsorted_and_duplicate(self):
        with pytest.raises(UnsortedKnots):
            fit_natural_spline([0.0, 0.6, 0.3], [1.0, 2.0, 3.0])
        with pytest.raises(DuplicateKnots):
            fit_natural_spline([0.0, 0.3, 0.3], [1.0, 2.0, 3.0])

    def test_fourth_order_boundary_beats_natural_on_smooth_target(self):
        # the free-end condition caps the rate when the target's second
        # derivative does not vanish at the ends
        grid = np.linspace(0, 1, 4001)

        def sup_err(m, boundary):
            kn = equispaced_knots(m)
            sc = fit_cubic_spline(kn, f1d(kn), boundary)
            return np.max(np.abs(spline_eval(sc, grid) - f1d(grid)))

        assert sup_err(16, "not-a-knot") / sup_err(8, "not-a-knot") < 1.0 / 8.0
        assert sup_err(128, "not-a-knot") < sup_err(128, "natural")


def _spline_eval_whole_array(coeffs, x):
    """The whole-array spline formula: searchsorted intervals, then Horner."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    idx = np.clip(np.searchsorted(coeffs.knots, xs, side="right") - 1, 0,
                  coeffs.knots.shape[0] - 2)
    t = xs - coeffs.knots[idx]
    a, b, c, e = (coeffs.coeffs[idx, k] for k in range(4))
    out = a + t * (b + t * (c + t * e))
    return float(out[0]) if np.isscalar(x) or np.asarray(x).ndim == 0 else out


def _bits(v):
    # signed zeros and NaN payloads count too
    return np.asarray(v, dtype=float).view(np.int64)


def _evaluated(f, *args):
    """f(*args) and the set of floating-point warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = f(*args)
    return out, {str(w.message) for w in caught}


def _assert_same_as_whole_array(coeffs, x):
    """spline_eval gives the whole-array formula's bits and warnings (an
    overflowing cubic warns, a NaN cast to an index would too)."""
    got, got_warned = _evaluated(spline_eval, coeffs, x)
    want, want_warned = _evaluated(_spline_eval_whole_array, coeffs, x)
    assert type(got) is type(want)
    np.testing.assert_array_equal(_bits(got), _bits(want))
    assert got_warned == want_warned
    return got


def _spline_knots(kind, m, lo, span, rng):
    if kind == "two":
        u = np.array([0.0, 1.0])
    elif kind == "even":
        u = np.linspace(0.0, 1.0, m)
    elif kind == "chebyshev":
        u = 0.5 - 0.5 * np.cos(np.pi * np.arange(m) / (m - 1))
    elif kind == "clustered":
        # most knots packed near one point, a few spread out
        u = np.unique(np.concatenate([[0.0, 1.0], rng.random(m // 3),
                                      0.4 + 1e-3 * rng.random(m - m // 3)]))
    else:
        u = np.unique(np.concatenate([[0.0, 1.0], rng.random(m)]))
    kn = lo + span * u
    return kn[np.concatenate([[True], np.diff(kn) > 0.0])]


def _spline_queries(kn, count, rng):
    """Queries drawn from knots, their float neighbours, points between and
    beyond the knots, signed zeros, +-inf and NaN."""
    span = kn[-1] - kn[0]
    pool = np.concatenate([
        kn,
        np.nextafter(kn, -np.inf),
        np.nextafter(kn, np.inf),
        0.5 * (kn[:-1] + kn[1:]),
        kn[0] + span * rng.random(64),
        kn[0] - span * rng.random(8),
        kn[-1] + span * rng.random(8),
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e300, -1e300],
    ])
    return rng.choice(pool, count)


class TestSplineEvalBlocked:
    """spline_eval in blocks, guessing intervals, equals the whole-array
    formula bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["two", "even", "chebyshev", "clustered", "random"]),
        m=st.integers(3, 60),
        lo=st.sampled_from([0.0, -0.5, 3.0]),
        span=st.sampled_from([1.0, 1e-300, 1e-12, 1e12, 1e300]),
        count=st.integers(0, 40),
        block=st.sampled_from([1, 2, 7, None]),
        sort=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_whole_array_formula(self, kind, m, lo, span, count, block, sort, seed):
        rng = np.random.default_rng(seed)
        kn = _spline_knots(kind, m, lo * span, span, rng)
        coeffs = SplineCoefficients(kn, rng.standard_normal((kn.shape[0] - 1, 4)), "natural")
        x = _spline_queries(kn, count, rng)
        if sort:
            x = np.sort(x)
        floats = interpolators.CACHE_BLOCK_FLOATS if block is None else block
        with mock.patch.object(interpolators, "CACHE_BLOCK_FLOATS", floats):
            batch = _assert_same_as_whole_array(coeffs, x)
            # scalar and 0-d queries give floats equal to the batch entry
            for j in range(min(count, 5)):
                for q in (float(x[j]), np.array(x[j])):
                    got = _assert_same_as_whole_array(coeffs, q)
                    assert type(got) is float
                    np.testing.assert_array_equal(_bits(got), _bits(batch[j]))
            if count % 2 == 0:
                grid = x.reshape(2, -1)
                rows = _assert_same_as_whole_array(coeffs, grid)
                assert rows.shape == grid.shape
                np.testing.assert_array_equal(_bits(rows), _bits(batch.reshape(2, -1)))
                # a row alone equals the same row inside the batch
                for row, vals in zip(grid, rows):
                    np.testing.assert_array_equal(_bits(_evaluated(spline_eval, coeffs, row)[0]),
                                                  _bits(vals))

    @pytest.mark.parametrize("kind", ["even", "chebyshev", "random"])
    @pytest.mark.parametrize("n", [CACHE_BLOCK_FLOATS - 1, CACHE_BLOCK_FLOATS,
                                   CACHE_BLOCK_FLOATS + 1, 2 * CACHE_BLOCK_FLOATS + 3])
    def test_matches_whole_array_formula_at_real_blocks(self, kind, n):
        rng = np.random.default_rng(n)
        kn = _spline_knots(kind, 500, 0.0, 1.0, rng)
        coeffs = fit_natural_spline(kn, np.sin(7.0 * kn))
        for x in (np.linspace(-0.1, 1.1, n), _spline_queries(kn, n, rng)):
            _assert_same_as_whole_array(coeffs, x)
            # the first and the last queries alone
            _assert_same_as_whole_array(coeffs, x[:10])
            _assert_same_as_whole_array(coeffs, x[-10:])

    def test_nan_gives_nan_without_warning(self):
        coeffs = fit_natural_spline(np.linspace(0.0, 1.0, 9), np.arange(9.0) ** 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = spline_eval(coeffs, np.array([np.nan, 0.5, -np.nan]))
            assert math.isnan(spline_eval(coeffs, np.nan))
        assert np.isnan(got[0]) and np.isnan(got[2]) and got[1] == spline_eval(coeffs, 0.5)

    def test_knot_span_beyond_the_largest_float(self, rng):
        # t_(m-1) - t_0 overflows: every guess is interval 0, checked as usual
        kn = np.array([-1e308, -5e307, 0.0, 5e307, 1e308])
        coeffs = SplineCoefficients(kn, rng.standard_normal((4, 4)), "natural")
        x = np.concatenate([kn, np.nextafter(kn, np.inf), 1e308 * rng.uniform(-1, 1, 50),
                            [np.inf, -np.inf, np.nan]])
        _assert_same_as_whole_array(coeffs, x)

    def test_infinite_queries_match_whole_array_formula(self):
        # t = +-inf makes the end cubic inf or NaN (inf * 0, inf - inf), and
        # spline_eval gives the same bits and the same warnings
        kn = np.linspace(0.0, 1.0, 9)
        for gamma in (2.0 * kn + 1.0, np.sin(7.0 * kn), kn**3):
            _assert_same_as_whole_array(fit_natural_spline(kn, gamma),
                                        np.array([np.inf, -np.inf, 0.5]))


class TestKernelInterp:
    def test_single_knot_closed_form(self):
        spec = gaussian_kernel([3.0])
        val = kernel_interp_eval([[0.4]], [2.5], spec, np.array([[0.9]]))
        expect = 2.5 * np.exp(-3.0 * 0.25)
        assert val[0] == pytest.approx(expect, rel=1e-12)

    def test_exact_at_knots(self, rng):
        pts = separated_points(rng, 12, 2)
        g = rng.normal(size=12)
        spec = default_gaussian(2)
        vals = kernel_interp_eval(pts, g, spec, pts)
        assert np.max(np.abs(vals - g)) <= 1e-8 * (1 + np.max(np.abs(g)))

    def test_zero_gamma(self, rng):
        pts = separated_points(rng, 6, 1)
        xs = rng.random((20, 1))
        vals = kernel_interp_eval(pts, np.zeros(6), default_gaussian(1), xs)
        np.testing.assert_allclose(vals, 0.0, atol=1e-14)


class TestGpBasis:
    def test_none_reduces_to_kernel_interpolator(self, rng):
        pts = separated_points(rng, 10, 2)
        basis = gp_basis_build(pts, default_gaussian(2), "none")
        g = rng.normal(size=10)
        xs = rng.random((30, 2))
        a = gp_interp_eval(basis, g, xs)
        b = kernel_interp_eval(pts, g, default_gaussian(2), xs)
        np.testing.assert_allclose(a, b, atol=1e-10 * (1 + np.max(np.abs(b))))

    def test_constant_reproduction(self, rng):
        pts = separated_points(rng, 8, 1)
        basis = gp_basis_build(pts, default_gaussian(1), "constant")
        xs = np.linspace(0, 1, 50)[:, None]
        vals = gp_interp_eval(basis, np.full(8, 3.7), xs)
        np.testing.assert_allclose(vals, 3.7, atol=1e-8)

    def test_annihilation(self, rng):
        for g_kind in ("constant", "constant+linear"):
            pts = separated_points(rng, 9, 2)
            basis = gp_basis_build(pts, default_gaussian(2), g_kind)
            assert np.max(np.abs(basis.V @ basis.G_A)) < 1e-8

    def test_basis_is_standard_at_knots(self, rng):
        pts = separated_points(rng, 7, 2)
        basis = gp_basis_build(pts, default_gaussian(2), "constant+linear")
        b = design_matrix(basis, pts[2][None, :])[0]
        expect = np.zeros(7)
        expect[2] = 1.0
        np.testing.assert_allclose(b, expect, atol=1e-8)

    def test_partition_of_unity_with_constant(self, rng):
        pts = separated_points(rng, 8, 2)
        basis = gp_basis_build(pts, default_gaussian(2), "constant")
        for _ in range(10):
            b = design_matrix(basis, rng.random(2)[None, :])[0]
            assert np.sum(b) == pytest.approx(1.0, abs=1e-8)

    def test_single_knot_no_regression(self):
        basis = gp_basis_build([[0.3]], gaussian_kernel([2.0]), "none")
        b = design_matrix(basis, np.array([0.8])[None, :])[0]
        assert b[0] == pytest.approx(np.exp(-2.0 * 0.25), rel=1e-10)

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficientRegression):
            gp_basis_build([[0.1], [0.9]], gaussian_kernel([1.0]), "constant+linear")


class TestDesignMatrix:
    def test_identity_at_knots(self, rng):
        pts = separated_points(rng, 9, 2)
        basis = gp_basis_build(pts, default_gaussian(2), "constant+linear")
        np.testing.assert_allclose(design_matrix(basis, pts), np.eye(9), atol=1e-8)

    def test_single_row(self, rng):
        # one point given as a 1-D array is read as one row
        pts = separated_points(rng, 5, 1)
        basis = gp_basis_build(pts, default_gaussian(1), "constant")
        x = rng.random((1, 1))
        np.testing.assert_allclose(
            design_matrix(basis, x)[0], design_matrix(basis, x[0])[0], atol=1e-12
        )

    def test_rows_match_pointwise(self, rng):
        pts = separated_points(rng, 5, 2)
        basis = gp_basis_build(pts, default_gaussian(2), "constant+linear")
        X = rng.random((20, 2))
        B = design_matrix(basis, X)
        for i in range(20):
            np.testing.assert_allclose(B[i], design_matrix(basis, X[i : i + 1])[0], atol=1e-12)

    def test_dimension_mismatch(self, rng):
        pts = separated_points(rng, 5, 2)
        basis = gp_basis_build(pts, default_gaussian(2), "none")
        with pytest.raises(DimensionMismatch):
            design_matrix(basis, rng.random((4, 3)))

    def test_peak_memory_is_under_two_and_a_half_n_by_m_arrays(self, rng):
        # G_X U' is added into R_XA V in place, so at most two whole n x m
        # arrays are held at once
        n, m = 20000, 40
        basis = gp_basis_build(separated_points(rng, m, 4), default_gaussian(4),
                               "constant+linear")
        X = rng.random((n, 4))
        tracemalloc.start()
        try:
            design_matrix(basis, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * n * m * 8


class TestSharedInvariants:
    """Exactness, linearity, and permutation invariance across all kinds."""

    def _interpolators(self, rng, m):
        kn1 = np.sort(separated_points(rng, m, 1, min_gap=0.03).ravel())
        pts2 = separated_points(rng, m, 2)
        spec1, spec2 = default_gaussian(1), default_gaussian(2)
        basis = gp_basis_build(pts2, spec2, "constant")
        return [
            ("lagrange", kn1[:, None], lambda g, x: lagrange_eval(kn1, g, x[:, 0])),
            (
                "spline",
                kn1[:, None],
                lambda g, x: spline_eval(fit_natural_spline(kn1, g), x[:, 0]),
            ),
            ("kernel", pts2, lambda g, x: kernel_interp_eval(pts2, g, spec2, x)),
            ("gp", pts2, lambda g, x: gp_interp_eval(basis, g, x)),
        ]

    def test_exact_at_knots(self, rng):
        for name, knots, interp in self._interpolators(rng, 9):
            g = rng.normal(size=9)
            vals = np.asarray(interp(g, knots))
            assert np.max(np.abs(vals - g)) <= 1e-8 * (1 + np.max(np.abs(g))), name

    def test_linearity(self, rng):
        for name, knots, interp in self._interpolators(rng, 7):
            g1, g2 = rng.normal(size=7), rng.normal(size=7)
            xs = rng.random((15, knots.shape[1]))
            lhs = np.asarray(interp(2.0 * g1 - 0.5 * g2, xs))
            rhs = 2.0 * np.asarray(interp(g1, xs)) - 0.5 * np.asarray(interp(g2, xs))
            scale = 1 + np.max(np.abs(rhs))
            assert np.max(np.abs(lhs - rhs)) <= 1e-8 * scale, name

    def test_knot_permutation_invariance(self, rng):
        pts = separated_points(rng, 8, 2)
        g = rng.normal(size=8)
        xs = rng.random((10, 2))
        spec = default_gaussian(2)
        perm = rng.permutation(8)
        a = kernel_interp_eval(pts, g, spec, xs)
        b = kernel_interp_eval(pts[perm], g[perm], spec, xs)
        np.testing.assert_allclose(a, b, atol=1e-10 * (1 + np.max(np.abs(a))))
        basis = gp_basis_build(pts, spec, "constant")
        basis_p = gp_basis_build(pts[perm], spec, "constant")
        np.testing.assert_allclose(
            gp_interp_eval(basis, g, xs),
            gp_interp_eval(basis_p, g[perm], xs),
            atol=1e-10 * (1 + np.max(np.abs(a))),
        )


class TestInterpolationError:
    def test_zero_against_itself(self):
        f = lambda pts: np.sin(pts[:, 0])
        assert interpolation_error(f, f, d=1) == 0.0

    def test_spline_error_ratio(self):
        # fourth-order decay: doubling the knots cuts the error by >= 8x
        def spline_err(m):
            kn = equispaced_knots(m)
            sc = fit_cubic_spline(kn, f1d(kn), "not-a-knot")
            return interpolation_error(
                lambda pts: spline_eval(sc, pts[:, 0]),
                lambda pts: f1d(pts[:, 0]),
                d=1,
                grid_size=2001,
            )

        assert spline_err(8) / spline_err(16) > 8.0

    def test_lagrange_chebyshev_m8(self):
        kn = chebyshev_knots(8)
        err = interpolation_error(
            lambda pts: lagrange_eval(kn, f1d(kn), pts[:, 0]),
            lambda pts: f1d(pts[:, 0]),
            d=1,
            grid_size=2001,
        )
        assert err < 0.05

    def test_monte_carlo_above_2d(self, rng):
        f = lambda pts: np.sum(pts, axis=1)
        g = lambda pts: np.sum(pts, axis=1) + 0.25
        err = interpolation_error(f, g, d=4, mc_points=2000)
        assert err == pytest.approx(0.25, abs=1e-12)


class TestNotAKnotDefiningProperty:
    def test_third_derivative_continuous_at_first_and_last_interior(self, rng):
        kn = np.sort(rng.random(8))
        kn[0], kn[-1] = 0.0, 1.0
        g = rng.normal(size=8)
        c = fit_cubic_spline(kn, g, "not-a-knot").coeffs
        # s''' on interval i is 6 * d_i; continuity across knots 1 and m-2
        assert abs(c[0, 3] - c[1, 3]) < 1e-8 * (1 + abs(c[0, 3]))
        assert abs(c[-1, 3] - c[-2, 3]) < 1e-8 * (1 + abs(c[-1, 3]))
