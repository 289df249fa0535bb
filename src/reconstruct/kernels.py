"""Stationary correlation functions and the matrices built from them.

Inputs are assumed pre-scaled to the unit hypercube; kernels never rescale.
The Gaussian family carries one rate per coordinate, the Matern family a
shared (nu, phi) pair with nu restricted to {1/2, 3/2, 5/2} so that the
modified Bessel function collapses to a closed form.

Two evaluations, for two uses:

* :func:`kernel_matrix` forms every lag as a difference p - q.  Every
  matrix that is factored, eigendecomposed or solved against comes from it
  (knot correlations, the full-knot R, design matrices) or from the same
  difference form: the kernel-rate search stores the squared lags
  (p_l - q_l)**2 once and takes a row block's exponents from one
  matrix-vector product with the rates.  The zero lag is exact, so such a
  matrix has an exact unit diagonal and is exactly symmetric.
* :func:`kernel_matvec` is ``kernel_matrix(spec, P, Q) @ w`` for products
  that only feed a vector, as in prediction.  For the Gaussian family it
  centres both point sets on the mean of Q and scales coordinate l by
  sqrt(theta_l), to points a and z; the exponent
  -sum_l theta_l (p_l - q_l)**2 = 2 a'z - |a|**2 - |z|**2 of a row block
  is then one matrix product of the rows [2a, -|a|**2, -1] and
  [z, 1, |z|**2], clamped at 0 so that no entry exceeds 1.  That exponent
  is within about (3d + 12) * eps * (|a|**2 + |z|**2) of the exact one.
  With s_l the span of coordinate l over P and Q, each result is within
  c * eps * sum_k |w_k| * (1 + sum_l theta_l s_l**2) of the difference
  form's product, c = 2m + 8d + 32 for m points in Q in d coordinates; c
  includes the summation error of both products.  Matern blocks are
  :func:`kernel_matrix` rows times w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, UnsupportedNu

DEFAULT_GAUSSIAN_RATE = 12.5

_SUPPORTED_NU = (0.5, 1.5, 2.5)
_MATERN_Z_MAX = 1e3

#: Entries per row block of the n x m passes (256 KiB of floats): a block
#: and its temporaries stay in cache however large the whole matrix is.
CACHE_BLOCK_FLOATS = 2**15


@dataclass(frozen=True)
class KernelSpec:
    """A stationary correlation family with its parameters.

    Parameters
    ----------
    family : {"gaussian", "matern"}
    theta : tuple of float, optional
        Per-coordinate decay rates of the Gaussian family,
        R(h) = exp(-sum_j theta_j * h_j**2).
    nu, phi : float, optional
        Smoothness and range of the Matern family, applied as a product
        over coordinates with z = 2*sqrt(nu)*|h_j|/phi.
    """

    family: str
    theta: tuple[float, ...] | None = None
    nu: float | None = None
    phi: float | None = None

    def __post_init__(self):
        if self.family == "gaussian":
            # NaN fails 0 < t, so the chained test also rejects it
            if not self.theta or not all(0.0 < t < math.inf for t in self.theta):
                raise ValueError(
                    f"gaussian kernel needs positive finite theta values, not {self.theta}"
                )
        elif self.family == "matern":
            if self.nu is None or self.phi is None or not 0.0 < self.phi < math.inf:
                raise ValueError(f"matern kernel needs nu and a positive finite phi, not {self.phi}")
            if self.nu not in _SUPPORTED_NU:
                raise UnsupportedNu(
                    f"matern nu={self.nu} unsupported; choose one of {_SUPPORTED_NU}"
                )
        else:
            raise ValueError(f"unknown kernel family {self.family!r}")

    @property
    def d(self) -> int | None:
        """Input dimension implied by the parameters (None for Matern)."""
        return len(self.theta) if self.family == "gaussian" else None


def gaussian_kernel(theta) -> KernelSpec:
    """Gaussian correlation with per-coordinate rates."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    return KernelSpec(family="gaussian", theta=tuple(float(t) for t in theta))


def default_gaussian(d: int) -> KernelSpec:
    """The package default: Gaussian with every rate set to 12.5."""
    return gaussian_kernel(np.full(d, DEFAULT_GAUSSIAN_RATE))


def matern_kernel(nu: float, phi: float) -> KernelSpec:
    """Matern correlation with half-integer smoothness."""
    return KernelSpec(family="matern", nu=float(nu), phi=float(phi))


def _matern_1d(z: np.ndarray, nu: float, out=None, tmp=None) -> np.ndarray:
    # closed forms of the half-integer Matern profile at z >= 0, written to
    # ``out`` with ``tmp`` as scratch; each entry follows the formula's order
    if nu not in _SUPPORTED_NU:
        raise UnsupportedNu(f"matern nu={nu} unsupported")
    out = np.empty_like(z) if out is None else out
    if nu == 0.5:
        np.negative(z, out=out)
        return np.exp(out, out=out)
    tmp = np.empty_like(z) if tmp is None else tmp
    # exp(-z) is 0 from z of about 745 on; clamping the polynomial's z there
    # keeps it finite at any lag, so the product is 0 and not inf * 0
    np.minimum(z, _MATERN_Z_MAX, out=tmp)
    np.add(1.0, tmp, out=out)
    if nu == 2.5:
        np.square(tmp, out=tmp)
        tmp /= 3.0
        out += tmp
    np.negative(z, out=tmp)
    np.exp(tmp, out=tmp)
    out *= tmp
    return out


def kernel_value(spec: KernelSpec, h) -> float:
    """Correlation R(h) for a single lag vector h."""
    h = np.atleast_1d(np.asarray(h, dtype=float))
    if spec.family == "gaussian":
        if h.shape[0] != len(spec.theta):
            raise DimensionMismatch(
                f"lag has {h.shape[0]} coordinates, kernel expects {len(spec.theta)}"
            )
        # a lag too large to square gives exp(-inf) = 0, as in kernel_matrix
        with np.errstate(over="ignore"):
            return float(np.exp(-np.sum(np.asarray(spec.theta) * h**2)))
    with np.errstate(over="ignore"):
        z = 2.0 * math.sqrt(spec.nu) * np.abs(h) / spec.phi
    return float(np.prod(_matern_1d(z, spec.nu)))


def _point_sets(spec: KernelSpec, P, Q):
    """P and Q as nonempty 2-D float arrays of one width that the kernel takes."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    if P.size == 0 or Q.size == 0:
        raise DimensionMismatch("point sets must be nonempty")
    if P.shape[1] != Q.shape[1]:
        raise DimensionMismatch(
            f"point sets have {P.shape[1]} and {Q.shape[1]} columns"
        )
    if spec.family == "gaussian" and P.shape[1] != len(spec.theta):
        raise DimensionMismatch(
            f"points have {P.shape[1]} coordinates, kernel expects {len(spec.theta)}"
        )
    return P, Q


def kernel_matrix(spec: KernelSpec, P, Q) -> np.ndarray:
    """Cross-correlation matrix with entries R(p_i - q_j).

    Parameters
    ----------
    P : (k, d) array
    Q : (l, d) array

    Returns
    -------
    (k, l) array; symmetric with unit diagonal when P is Q.
    """
    P, Q = _point_sets(spec, P, Q)
    d = P.shape[1]
    # Row blocks of about CACHE_BLOCK_FLOATS entries stay in cache while the
    # d coordinate terms accumulate; every entry sees the same operations in
    # the same order as a whole-array broadcast, so the result is identical.
    out = np.empty((P.shape[0], Q.shape[0]))
    QT = np.ascontiguousarray(Q.T)
    rows = max(1, CACHE_BLOCK_FLOATS // Q.shape[0])
    c = None if spec.family == "gaussian" else 2.0 * math.sqrt(spec.nu) / spec.phi
    # one temporary per block; Matern also needs two for _matern_1d
    bufs = np.empty((1 if c is None else 3, min(rows, P.shape[0]), Q.shape[0]))
    for s in range(0, P.shape[0], rows):
        Pb, acc = P[s : s + rows], out[s : s + rows]
        k = acc.shape[0]
        tb = bufs[0, :k]
        # a lag too large to form or to square gives inf, and the kernel
        # value there is the correct 0: exp(-inf), or _matern_1d's clamp
        with np.errstate(over="ignore"):
            if c is None:
                # acc = sum_j theta_j (p_j - q_j)^2, then exp(-acc)
                acc.fill(0.0)
                for j in range(d):
                    np.subtract(Pb[:, j, None], QT[j], out=tb)
                    np.square(tb, out=tb)
                    np.multiply(spec.theta[j], tb, out=tb)
                    acc += tb
                np.negative(acc, out=acc)
                np.exp(acc, out=acc)
            else:
                acc.fill(1.0)
                for j in range(d):
                    np.subtract(Pb[:, j, None], QT[j], out=tb)
                    np.abs(tb, out=tb)
                    np.multiply(c, tb, out=tb)
                    acc *= _matern_1d(tb, spec.nu, out=bufs[1, :k], tmp=bufs[2, :k])
    return out


def kernel_matvec(spec: KernelSpec, P, Q, w) -> np.ndarray:
    """``kernel_matrix(spec, P, Q) @ w`` without building the matrix.

    Evaluated in row blocks of about CACHE_BLOCK_FLOATS entries.  Gaussian
    blocks take their exponent from one matrix product (module docstring:
    how, and its error bound); Matern blocks, and Gaussian points so far out
    that their squared norms overflow, are :func:`kernel_matrix` rows times w.

    Parameters
    ----------
    P : (k, d) array
    Q : (l, d) array
    w : (l,) array

    Returns
    -------
    (k,) array
    """
    P, Q = _point_sets(spec, P, Q)
    w = np.asarray(w, dtype=float).ravel()
    if w.shape[0] != Q.shape[0]:
        raise DimensionMismatch(f"w has {w.shape[0]} entries, Q has {Q.shape[0]} rows")
    k, m = P.shape[0], Q.shape[0]
    rows = max(1, CACHE_BLOCK_FLOATS // m)
    out = np.empty(k)
    if spec.family == "gaussian":
        root = np.sqrt(spec.theta)
        centre = Q.mean(axis=0)
        with np.errstate(over="ignore"):
            a, z = (P - centre) * root, (Q - centre) * root
            a2, z2 = np.sum(a * a, axis=1), np.sum(z * z, axis=1)
        # |2 a'z| <= |a|^2 + |z|^2, so no partial sum of the product exceeds
        # 2 (|a|^2 + |z|^2) in size: if that is finite, nothing overflows
        if np.isfinite(2.0 * (a2.max() + z2.max())):
            # rows [2a, -|a|^2, -1] and [z, 1, |z|^2]: their products are the
            # exponents 2 a'z - |a|^2 - |z|^2
            A = np.column_stack([2.0 * a, -a2, np.full(k, -1.0)])
            Z = np.column_stack([z, np.ones(m), z2])
            E = np.empty((min(rows, k), m))
            for s in range(0, k, rows):
                Eb = E[: min(rows, k - s)]
                np.matmul(A[s : s + rows], Z.T, out=Eb)
                np.minimum(Eb, 0.0, out=Eb)
                np.exp(Eb, out=Eb)
                out[s : s + rows] = Eb @ w
            return out
    for s in range(0, k, rows):
        out[s : s + rows] = kernel_matrix(spec, P[s : s + rows], Q) @ w
    return out


def spec_to_json(spec: KernelSpec) -> dict:
    if spec.family == "gaussian":
        return {"family": "gaussian", "theta": [float(t) for t in spec.theta]}
    return {"family": "matern", "nu": float(spec.nu), "phi": float(spec.phi)}


def spec_from_json(obj: dict) -> KernelSpec:
    family = obj.get("family")
    if family == "gaussian":
        return gaussian_kernel(obj["theta"])
    if family == "matern":
        return matern_kernel(obj["nu"], obj["phi"])
    raise ValueError(f"unknown kernel family {family!r}")
