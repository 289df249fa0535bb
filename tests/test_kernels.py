import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gamma as gamma_fn, kv

from reconstruct import kernels
from reconstruct.errors import DimensionMismatch, UnsupportedNu
from reconstruct.kernels import (
    KernelSpec,
    default_gaussian,
    gaussian_kernel,
    kernel_matrix,
    kernel_matvec,
    kernel_value,
    matern_kernel,
    spec_from_json,
    spec_to_json,
)
from reconstruct.numerics import spd_factor

from conftest import separated_points


def matern_reference(nu, phi, h):
    """Bessel-function form of the product Matern correlation."""
    out = 1.0
    for hj in np.atleast_1d(h):
        z = 2.0 * math.sqrt(nu) * abs(hj) / phi
        if z == 0.0:
            continue
        out *= z**nu * kv(nu, z) / (gamma_fn(nu) * 2 ** (nu - 1.0))
    return out


class TestKernelValue:
    def test_gaussian_hand_value(self):
        # theta=12.5, h=0.2 -> exp(-0.5)
        spec = gaussian_kernel([12.5])
        assert abs(kernel_value(spec, [0.2]) - math.exp(-0.5)) < 1e-12

    @pytest.mark.parametrize(
        "spec",
        [gaussian_kernel([1.0, 3.0]), matern_kernel(0.5, 1.0), matern_kernel(2.5, 0.7)],
    )
    def test_unit_at_zero(self, spec):
        d = 2 if spec.family == "gaussian" else 3
        assert kernel_value(spec, np.zeros(d)) == pytest.approx(1.0, abs=1e-14)

    def test_matern_half_closed_form(self):
        spec = matern_kernel(0.5, 1.0)
        got = kernel_value(spec, [0.5])
        assert abs(got - math.exp(-math.sqrt(2.0) * 0.5)) < 1e-12

    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5])
    def test_matern_matches_bessel_form(self, rng, nu):
        phi = 0.8
        spec = matern_kernel(nu, phi)
        for _ in range(20):
            h = rng.normal(size=3) * 0.5
            assert kernel_value(spec, h) == pytest.approx(
                matern_reference(nu, phi, h), rel=1e-10
            )

    def test_symmetry_and_bounds(self, rng):
        for spec in (gaussian_kernel([2.0, 9.0, 0.3]), matern_kernel(1.5, 0.5)):
            for _ in range(25):
                h = rng.normal(size=3)
                v = kernel_value(spec, h)
                assert v == pytest.approx(kernel_value(spec, -h), rel=1e-13)
                assert 0.0 < v < 1.0  # h != 0 almost surely

    def test_gaussian_product_structure(self, rng):
        theta = [1.5, 7.0, 0.2]
        spec = gaussian_kernel(theta)
        for _ in range(25):
            h = rng.normal(size=3)
            prod = np.prod(
                [kernel_value(gaussian_kernel([t]), [hj]) for t, hj in zip(theta, h)]
            )
            assert kernel_value(spec, h) == pytest.approx(prod, rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "spec",
        [gaussian_kernel([12.5, 0.5]), matern_kernel(0.5, 0.5), matern_kernel(1.5, 0.5),
         matern_kernel(2.5, 0.5)],
    )
    def test_far_lags_are_zero(self, spec):
        # lags too large to square or to scale give exactly 0, with no warning
        for h in ([1e308, 0.0], [-1e308, 0.3], [1e200, 1e300]):
            assert kernel_value(spec, h) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            kernel_value(gaussian_kernel([1.0, 1.0]), [0.1])

    def test_unsupported_nu(self):
        with pytest.raises(UnsupportedNu):
            matern_kernel(2.0, 1.0)


class TestKernelMatrix:
    def test_single_point(self):
        spec = gaussian_kernel([4.0])
        np.testing.assert_allclose(
            kernel_matrix(spec, [[0.3]], [[0.3]]), [[1.0]], atol=1e-15
        )

    def test_symmetric_unit_diagonal(self, rng):
        P = rng.random((3, 2))
        K = kernel_matrix(gaussian_kernel([1.0, 2.0]), P, P)
        np.testing.assert_allclose(K, K.T, atol=1e-15)
        np.testing.assert_allclose(np.diag(K), 1.0, atol=1e-15)

    def test_hand_value_2d(self):
        K = kernel_matrix(gaussian_kernel([1.0, 1.0]), [[0.0, 0.0]], [[1.0, 1.0]])
        assert K[0, 0] == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_matches_kernel_value(self, rng):
        for spec in (gaussian_kernel([3.0, 1.0]), matern_kernel(1.5, 0.9)):
            P, Q = rng.random((4, 2)), rng.random((5, 2))
            K = kernel_matrix(spec, P, Q)
            for i in range(4):
                for j in range(5):
                    assert K[i, j] == pytest.approx(
                        kernel_value(spec, P[i] - Q[j]), rel=1e-12
                    )

    def test_positive_semidefinite(self, rng):
        for m in (5, 15, 30):
            pts = separated_points(rng, m, 2, min_gap=0.02)
            K = kernel_matrix(default_gaussian(2), pts, pts)
            assert np.linalg.eigvalsh(K).min() > -1e-10

    def test_empty_rejected(self):
        with pytest.raises(DimensionMismatch):
            kernel_matrix(gaussian_kernel([1.0]), np.zeros((0, 1)), [[0.1]])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5])
    def test_matern_far_lags_are_zero(self, nu):
        # lags too large to scale or to square give the correct 0, not NaN,
        # and leave the finite entries as they are
        spec = matern_kernel(nu, 0.5)
        P = np.array([[1e200, 0.0], [1e308, 0.5], [-1e308, 0.2], [0.3, 0.4]])
        Q = np.array([[0.0, 0.0], [1e308, 0.5]])
        expect = np.zeros((4, 2))
        expect[1, 1] = 1.0
        expect[3, 0] = kernel_matrix(spec, P[3:], Q[:1])[0, 0]
        np.testing.assert_array_equal(kernel_matrix(spec, P, Q), expect)
        np.testing.assert_array_equal(kernel_matvec(spec, P, Q, [1.0, 0.0]), expect[:, 0])


def _kernel_matrix_broadcast(spec, P, Q):
    """The whole-array formula kernel_matrix must reproduce bit for bit."""
    d = P.shape[1]
    if spec.family == "gaussian":
        acc = np.zeros((P.shape[0], Q.shape[0]))
        for j in range(d):
            acc += spec.theta[j] * (P[:, j, None] - Q[None, :, j]) ** 2
        return np.exp(-acc)
    out = np.ones((P.shape[0], Q.shape[0]))
    c = 2.0 * math.sqrt(spec.nu) / spec.phi
    for j in range(d):
        z = c * np.abs(P[:, j, None] - Q[None, :, j])
        if spec.nu == 0.5:
            out *= np.exp(-z)
        elif spec.nu == 1.5:
            out *= (1.0 + z) * np.exp(-z)
        else:
            out *= (1.0 + z + z**2 / 3.0) * np.exp(-z)
    return out


def _spec(family, d, rng):
    if family == "gaussian":
        return gaussian_kernel(10.0 ** rng.uniform(-2.0, 3.0, d))
    return matern_kernel(family, rng.uniform(0.05, 2.0))


def _assert_bitwise_equal(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


class TestBlockedKernelMatrix:
    @settings(max_examples=80, deadline=None)
    @given(
        k=st.integers(1, 40),
        l=st.integers(1, 50),
        d=st.integers(1, 4),
        family=st.sampled_from(["gaussian", 0.5, 1.5, 2.5]),
        block=st.sampled_from([1, 7, 64, None]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_broadcast_formula(self, k, l, d, family, block, seed):
        rng = np.random.default_rng(seed)
        P, Q = rng.random((k, d)), rng.random((l, d))
        spec = _spec(family, d, rng)
        floats = kernels.CACHE_BLOCK_FLOATS if block is None else block
        with mock.patch.object(kernels, "CACHE_BLOCK_FLOATS", floats):
            K = kernel_matrix(spec, P, Q)
        _assert_bitwise_equal(K, _kernel_matrix_broadcast(spec, P, Q))

    @pytest.mark.parametrize("family", ["gaussian", 0.5, 1.5, 2.5])
    @pytest.mark.parametrize("k, l", [(1, 300), (1, 2**15 + 3), (3, 2**15 + 3), (410, 80), (2000, 97)])
    def test_matches_broadcast_formula_at_real_blocks(self, family, k, l):
        # one row; more columns than a block holds; a few rows past a block
        rng = np.random.default_rng(k + l)
        P, Q = rng.random((k, 3)), rng.random((l, 3))
        spec = _spec(family, 3, rng)
        _assert_bitwise_equal(kernel_matrix(spec, P, Q), _kernel_matrix_broadcast(spec, P, Q))


def _matvec(spec, P, Q, w, rows=None):
    """kernel_matvec with row blocks of ``rows`` rows (None: the real size)."""
    floats = kernels.CACHE_BLOCK_FLOATS if rows is None else rows * Q.shape[0]
    with mock.patch.object(kernels, "CACHE_BLOCK_FLOATS", floats):
        return kernel_matvec(spec, P, Q, w)


def _gaussian_matvec_bound(spec, P, Q, w):
    """The module docstring's bound on |kernel_matvec - kernel_matrix @ w|:
    c eps sum_k |w_k| (1 + sum_l theta_l span_l^2), c = 2m + 8d + 32."""
    m, d = Q.shape
    both = np.vstack([P, Q])
    span = both.max(axis=0) - both.min(axis=0)
    c = 2 * m + 8 * d + 32
    return c * np.finfo(float).eps * np.sum(np.abs(w)) * (1.0 + np.sum(np.array(spec.theta) * span**2))


class TestKernelMatvec:
    @settings(max_examples=150, deadline=None)
    @given(
        k=st.integers(1, 40),
        l=st.integers(1, 50),
        d=st.integers(1, 8),
        family=st.sampled_from(["gaussian", 0.5, 1.5, 2.5]),
        rows=st.sampled_from([1, 7, None]),
        where=st.sampled_from(["cube", "knots", "far"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_kernel_matrix_product(self, k, l, d, family, rows, where, seed):
        rng = np.random.default_rng(seed)
        P, Q = rng.random((k, d)), rng.random((l, d))
        if where == "knots":
            P = Q[rng.integers(0, l, size=k)]
        elif where == "far":
            P = P + rng.choice([-1.0, 1.0], size=(k, d)) * 10.0 ** rng.uniform(0.5, 3.0, (k, d))
        spec = _spec(family, d, rng)
        w = rng.standard_normal(l) * 10.0 ** rng.uniform(-3.0, 3.0)
        got = _matvec(spec, P, Q, w, rows)
        whole = kernel_matrix(spec, P, Q) @ w
        assert np.all(np.isfinite(got))
        if family == "gaussian":
            assert np.max(np.abs(got - whole)) <= _gaussian_matvec_bound(spec, P, Q, w)
            return
        # Matern: kernel_matrix rows times w, block by block.  BLAS sums a
        # row's product in an order that depends on where the row sits in
        # the call, so only a single block is bitwise the whole product.
        r = max(1, kernels.CACHE_BLOCK_FLOATS // l) if rows is None else rows
        blocks = np.concatenate([kernel_matrix(spec, P[s : s + r], Q) @ w for s in range(0, k, r)])
        _assert_bitwise_equal(got, blocks)
        if r >= k:
            _assert_bitwise_equal(got, whole)
        assert np.max(np.abs(got - whole)) <= 2 * l * np.finfo(float).eps * np.sum(np.abs(w))

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 30),
        l=st.integers(1, 40),
        d=st.integers(1, 8),
        rows=st.sampled_from([1, 7, None]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_unit_vector_entries_never_exceed_one(self, k, l, d, rows, seed):
        # query points on the knots give exponents of exactly zero in the
        # difference form; the product form rounds them and clamps at 0
        rng = np.random.default_rng(seed)
        Q = rng.random((l, d)) * 10.0 ** rng.uniform(-3.0, 0.0)
        P = np.vstack([Q, rng.random((k, d))])
        spec = gaussian_kernel(10.0 ** rng.uniform(-2.0, 3.0, d))
        for j in range(l):
            col = _matvec(spec, P, Q, np.eye(l)[j], rows)
            assert np.max(col) <= 1.0
            assert col[j] >= 1.0 - _gaussian_matvec_bound(spec, P, Q, np.eye(l)[j])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("offset", [1e3, 1e200])
    @pytest.mark.parametrize("rows", [1, 7, None])
    def test_far_points_underflow_to_zero(self, rng, offset, rows):
        # at 1e200 the squared norms overflow and the difference form takes over
        Q = rng.random((30, 3))
        P = np.vstack([Q[:2] + offset, Q[:2] - offset, rng.random((3, 3)) * offset])
        spec = gaussian_kernel([1e-2, 1.0, 1e3])
        got = _matvec(spec, P, Q, rng.standard_normal(30), rows)
        assert np.all(got[:4] == 0.0) and np.all(np.isfinite(got))

    @pytest.mark.parametrize("family", ["gaussian", 1.5])
    @pytest.mark.parametrize("k, l", [(1, 2**15 + 3), (410, 80), (2000, 97), (700, 5000)])
    def test_real_blocks(self, family, k, l):
        # one row; more knots than a block holds; several blocks; 6-row blocks
        rng = np.random.default_rng(k + l)
        P, Q, w = rng.random((k, 8)), rng.random((l, 8)), rng.standard_normal(l)
        spec = _spec(family, 8, rng)
        got, whole = kernel_matvec(spec, P, Q, w), kernel_matrix(spec, P, Q) @ w
        if family == "gaussian":
            assert np.max(np.abs(got - whole)) <= _gaussian_matvec_bound(spec, P, Q, w)
        else:
            assert np.max(np.abs(got - whole)) <= 2 * l * np.finfo(float).eps * np.sum(np.abs(w))

    def test_shape_checks(self):
        spec = gaussian_kernel([1.0, 2.0])
        with pytest.raises(DimensionMismatch):
            kernel_matvec(spec, np.zeros((3, 2)), np.zeros((4, 2)), np.ones(3))
        with pytest.raises(DimensionMismatch):
            kernel_matvec(spec, np.zeros((3, 1)), np.zeros((4, 1)), np.ones(4))
        with pytest.raises(DimensionMismatch):
            kernel_matvec(spec, np.zeros((0, 2)), np.zeros((4, 2)), np.ones(4))


class TestFactoredCorrelation:
    def test_single_knot(self):
        fac = spd_factor(kernel_matrix(gaussian_kernel([2.0]), [[0.5]], [[0.5]]))
        np.testing.assert_allclose(fac.factor, [[1.0]], atol=1e-14)

    def test_two_knots_hand_value(self):
        pts = [[0.0], [1.0]]
        fac = spd_factor(kernel_matrix(gaussian_kernel([1.0]), pts, pts))
        R = fac.factor @ fac.factor.T
        np.testing.assert_allclose(
            R, [[1.0, math.exp(-1)], [math.exp(-1), 1.0]], atol=1e-12
        )

    def test_clustered_knots_need_jitter(self, rng):
        pts = (0.5 + 1e-4 * rng.random((40, 1))).clip(0, 1)
        fac = spd_factor(kernel_matrix(default_gaussian(1), pts, pts))
        assert fac.jitter_applied > 0.0


class TestSerialization:
    def test_round_trip(self):
        for spec in (gaussian_kernel([1.0, 2.5]), matern_kernel(0.5, 1.25)):
            blob = json.dumps(spec_to_json(spec))
            assert spec_from_json(json.loads(blob)) == spec

    def test_shape(self):
        obj = spec_to_json(gaussian_kernel([1.0, 2.0]))
        assert obj == {"family": "gaussian", "theta": [1.0, 2.0]}
        obj = spec_to_json(matern_kernel(0.5, 1.0))
        assert obj == {"family": "matern", "nu": 0.5, "phi": 1.0}

    def test_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(family="gaussian", theta=(1.0, -2.0))
        with pytest.raises(ValueError):
            KernelSpec(family="wavelet")
        # NaN passes a plain t <= 0 test, so it is checked as well as inf
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="positive finite theta"):
                KernelSpec(family="gaussian", theta=(1.0, bad))
            with pytest.raises(ValueError, match="positive finite phi"):
                KernelSpec(family="matern", nu=1.5, phi=bad)
