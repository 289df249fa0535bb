"""Stationary correlation functions and the matrices built from them.

Inputs are assumed pre-scaled to the unit hypercube; kernels never rescale.
The Gaussian family carries one rate per coordinate, the Matern family a
shared (nu, phi) pair with nu restricted to {1/2, 3/2, 5/2} so that the
modified Bessel function collapses to a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, UnsupportedNu
from .numerics import SpdFactorization, spd_factor

DEFAULT_GAUSSIAN_RATE = 12.5

_SUPPORTED_NU = (0.5, 1.5, 2.5)

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
            if not self.theta or any(t <= 0 for t in self.theta):
                raise ValueError("gaussian kernel needs strictly positive theta values")
        elif self.family == "matern":
            if self.nu is None or self.phi is None or self.phi <= 0:
                raise ValueError("matern kernel needs nu and a positive phi")
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
    np.add(1.0, z, out=out)
    if nu == 2.5:
        np.square(z, out=tmp)
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
        return float(np.exp(-np.sum(np.asarray(spec.theta) * h**2)))
    z = 2.0 * math.sqrt(spec.nu) * np.abs(h) / spec.phi
    return float(np.prod(_matern_1d(z, spec.nu)))


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
    P = np.atleast_2d(np.asarray(P, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    if P.size == 0 or Q.size == 0:
        raise DimensionMismatch("point sets must be nonempty")
    if P.shape[1] != Q.shape[1]:
        raise DimensionMismatch(
            f"point sets have {P.shape[1]} and {Q.shape[1]} columns"
        )
    d = P.shape[1]
    if spec.family == "gaussian" and d != len(spec.theta):
        raise DimensionMismatch(
            f"points have {d} coordinates, kernel expects {len(spec.theta)}"
        )
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


def correlation_matrix_factored(spec: KernelSpec, A) -> SpdFactorization:
    """Factorization of the knot correlation matrix, jitter ladder applied."""
    points = getattr(A, "points", A)
    R = kernel_matrix(spec, points, points)
    return spd_factor(R)


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
