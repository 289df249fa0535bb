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
    correlation_matrix_factored,
    default_gaussian,
    gaussian_kernel,
    kernel_matrix,
    kernel_value,
    matern_kernel,
    spec_from_json,
    spec_to_json,
)

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


class TestFactoredCorrelation:
    def test_single_knot(self):
        fac = correlation_matrix_factored(gaussian_kernel([2.0]), [[0.5]])
        np.testing.assert_allclose(fac.factor, [[1.0]], atol=1e-14)

    def test_two_knots_hand_value(self):
        fac = correlation_matrix_factored(gaussian_kernel([1.0]), [[0.0], [1.0]])
        R = fac.factor @ fac.factor.T
        np.testing.assert_allclose(
            R, [[1.0, math.exp(-1)], [math.exp(-1), 1.0]], atol=1e-12
        )

    def test_clustered_knots_need_jitter(self, rng):
        pts = (0.5 + 1e-4 * rng.random((40, 1))).clip(0, 1)
        fac = correlation_matrix_factored(default_gaussian(1), pts)
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
