"""Dense and banded SPD linear algebra with an explicit jitter policy, and
the smoother spectra and traces that GCV is evaluated from.

Every dense Cholesky factorization in the package goes through
:func:`spd_factor`, so conditioning behaviour is uniform: a factorization
is attempted with no jitter first, then with 1e-10 and 1e-8 times the
mean diagonal added to the diagonal.  Solves go through the factor:
:meth:`SpdFactorization.gls` is the one generalized-least-squares trend
solve, and the low-rank fits work in coordinates whitened by the knot
factor, so no inverse of a correlation matrix or of a GLS system is formed.

A ridge-type smoother is diagonalized once into a :class:`SmootherSpectrum`,
from which its residual and trace at every lambda of a grid follow in
O(len(d)) each.  The pentadiagonal finite-difference smoother gets its
exact trace in O(n) per lambda: a banded Cholesky factor, then one LAPACK
back-substitution for the band of the inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import (
    cho_factor,
    cho_solve,
    cho_solve_banded,
    cholesky_banded,
    eigh,
    solve_triangular,
)
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dtbtrs

from .errors import DimensionMismatch, NotPositiveDefinite, SingularSystem

JITTER_LADDER = (0.0, 1e-10, 1e-8)
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class SpdFactorization:
    """Lower-triangular Cholesky factor of a (possibly jittered) SPD matrix."""

    dimension: int
    factor: np.ndarray
    jitter_applied: float

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.dimension:
            raise DimensionMismatch(
                f"rhs has {rhs.shape[0]} rows, factorization is {self.dimension}-dimensional"
            )
        return cho_solve((self.factor, True), rhs)

    def logdet(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self.factor))))

    def gls(self, G: np.ndarray, Y: np.ndarray):
        """Generalized least squares in the metric of A = LL'.

        Returns beta = (G'A^{-1}G)^{-1} G'A^{-1} Y and w = A^{-1}(Y - G beta).
        [G | Y] is whitened by one triangular solve with L, beta comes from a
        thin QR of L^{-1}G and w from one back-solve with L', so neither
        A^{-1} nor G'A^{-1}G is formed.  ``Y`` may be a vector or a matrix.
        """
        G = np.asarray(G, dtype=float)
        Y = np.asarray(Y, dtype=float)
        if G.shape[0] != self.dimension or Y.shape[0] != self.dimension:
            raise DimensionMismatch(
                f"G has {G.shape[0]} and Y {Y.shape[0]} rows, "
                f"factorization is {self.dimension}-dimensional"
            )
        q = G.shape[1]
        # BLAS trsm, not LAPACK trtrs: OpenBLAS threads trtrs even for a few
        # right-hand sides, and with more busy threads than cores that made a
        # BCD objective evaluation five times slower.  The factor is finite
        # by construction; only [G | Y] needs the check.
        Z = dtrsm(1.0, self.factor, np.asarray_chkfinite(np.column_stack([G, Y])), lower=1)
        Gw, Yw = Z[:, :q], Z[:, q:]
        beta = np.zeros((q, Yw.shape[1]))
        if q:
            Q, Rg = np.linalg.qr(Gw)
            r = np.abs(Rg.diagonal())
            if not r.min() > self.dimension * _EPS * r.max():
                raise SingularSystem(f"GLS trend matrix of rank < {q}")
            QtY = Q.T @ Yw
            beta = dtrsm(1.0, Rg, QtY)
            Yw = Yw - Q @ QtY
        w = dtrsm(1.0, self.factor, Yw, lower=1, trans_a=1)
        if Y.ndim == 1:
            return beta[:, 0], w[:, 0]
        return beta, w


def spd_factor(A: np.ndarray) -> SpdFactorization:
    """Cholesky-factor a symmetric matrix, escalating jitter as needed."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[0]
    scale = float(np.mean(np.diag(A)))
    if not np.isfinite(scale) or scale <= 0.0:
        scale = 1.0
    for level in JITTER_LADDER:
        jitter = level * scale
        try:
            M = A if jitter == 0.0 else A + jitter * np.eye(n)
            c, _ = cho_factor(M, lower=True)
            # cho_factor leaves the unused triangle as-is; keep a clean factor
            return SpdFactorization(dimension=n, factor=np.tril(c), jitter_applied=jitter)
        except np.linalg.LinAlgError:
            continue
    raise NotPositiveDefinite(
        f"matrix of dimension {n} failed Cholesky at all jitter levels {JITTER_LADDER}"
    )


def spd_solve(A: np.ndarray, rhs: np.ndarray, return_jitter: bool = False):
    """Solve (A + jitter*I) X = rhs for symmetric positive definite A."""
    A = np.asarray(A, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    if rhs.shape[0] != A.shape[0]:
        raise DimensionMismatch(
            f"rhs has {rhs.shape[0]} rows but matrix is {A.shape[0]}x{A.shape[1]}"
        )
    fac = spd_factor(A)
    X = fac.solve(rhs)
    if return_jitter:
        return X, fac.jitter_applied
    return X


@dataclass(frozen=True)
class BandedSpdMatrix:
    """Symmetric banded matrix in upper-banded storage.

    ``ab`` has shape (bandwidth + 1, n) in the LAPACK upper form used by
    :func:`scipy.linalg.solveh_banded`: ``ab[bandwidth - k, j]`` holds the
    k-th superdiagonal entry ``A[j - k, j]``.
    """

    dimension: int
    bandwidth: int
    ab: np.ndarray

    def dense(self) -> np.ndarray:
        A = np.zeros((self.dimension, self.dimension))
        for k in range(self.bandwidth + 1):
            for j in range(k, self.dimension):
                v = self.ab[self.bandwidth - k, j]
                A[j - k, j] = v
                A[j, j - k] = v
        return A


def second_difference_gram(n: int) -> BandedSpdMatrix:
    """Gram matrix M'M of the (n-2) x n second-difference operator M."""
    if n < 3:
        raise DimensionMismatch("second differences need at least 3 points")
    ab = np.zeros((3, n))
    d = np.full(n, 6.0)
    d[0] = d[-1] = 1.0
    if n >= 2:
        d[1] = d[-2] = 5.0
    if n == 3:
        d[1] = 4.0
    o1 = np.full(n - 1, -4.0)
    o1[0] = o1[-1] = -2.0
    o2 = np.full(n - 2, 1.0)
    ab[2, :] = d
    ab[1, 1:] = o1
    ab[0, 2:] = o2
    return BandedSpdMatrix(dimension=n, bandwidth=2, ab=ab)


def fdp_system(n: int, lam: float) -> BandedSpdMatrix:
    """The pentadiagonal system n*lam*M'M + I on an n-point grid."""
    gram = second_difference_gram(n)
    ab = n * lam * gram.ab
    ab[2, :] += 1.0
    return BandedSpdMatrix(dimension=n, bandwidth=2, ab=ab)


def banded_spd_solve(M: BandedSpdMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve M x = rhs in O(n) for a banded SPD matrix."""
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[0] != M.dimension:
        raise DimensionMismatch(
            f"rhs has {rhs.shape[0]} rows but matrix dimension is {M.dimension}"
        )
    return cho_solve_banded((_banded_factor(M), False), rhs)


def _banded_factor(M: BandedSpdMatrix) -> np.ndarray:
    """Upper banded Cholesky factor U (U'U = M) in the storage of ``M.ab``."""
    try:
        return cholesky_banded(M.ab)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"banded factorization failed: {exc}") from exc


@dataclass(frozen=True)
class SmootherSpectrum:
    """A family of linear smoothers H(lam) on n points, diagonalized once.

    On an orthonormal basis of R^n, I - H(lam) is diagonal: it is
    s_i = n*lam / (d_i + n*lam) on the directions where y has coordinates
    ``z``, 1 on ``k0`` further directions that hold residual energy ``e0``,
    and 0 on the rest.  So at every lambda the residual sum of squares and
    the residual degrees of freedom are

        rss = sum_i (s_i z_i)^2 + e0,    n - trace(H) = sum_i s_i + k0,

    the latter free of the cancellation in n - trace(H) when H is near I.
    """

    n: int
    d: np.ndarray
    z: np.ndarray
    e0: float = 0.0
    k0: int = 0

    def rss_and_dof(self, lam):
        """rss and n - trace(H), each an array over lam."""
        nl = self.n * np.atleast_1d(np.asarray(lam, dtype=float))[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            s = nl / (self.d + nl)
        rss = np.sum((s * self.z) ** 2, axis=1) + self.e0
        return rss, np.sum(s, axis=1) + self.k0


def demmler_reinsch(B, Sigma, y):
    """Spectrum of the ridge smoother H(lam) = B (B'B + n*lam*Sigma)^{-1} B'
    and its coefficients.

    Demmler & Reinsch (1975): with B'B = LL' and L^{-1} Sigma L^{-T} =
    V diag(mu) V', the columns of B W, W = L^{-T} V, are orthonormal and H
    scales them by 1 / (1 + n*lam*mu_i), so d_i = 1/mu_i (infinite on the
    null space of Sigma); the n - m directions outside the column space of
    B are pure residual.  A B'B that is not positive definite gets the
    jitter ladder of :func:`spd_factor`.

    Returns the spectrum, ``coefficients(lam) -> gamma`` with
    gamma = (B'B + n*lam*Sigma)^{-1} B'y = W z / (1 + n*lam*mu), z = W'B'y,
    and the jitter put on B'B.
    """
    B = np.asarray(B, dtype=float)
    Sigma = np.asarray(Sigma, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if B.ndim != 2:
        raise DimensionMismatch("B must be a 2-D array")
    n, m = B.shape
    if Sigma.shape != (m, m):
        raise DimensionMismatch(
            f"Sigma has shape {Sigma.shape}, expected ({m}, {m})"
        )
    try:
        fac = spd_factor(B.T @ B)
    except NotPositiveDefinite as exc:
        raise SingularSystem(str(exc)) from exc
    L = fac.factor
    S = solve_triangular(L, solve_triangular(L, Sigma, lower=True).T, lower=True)
    mu, V = eigh(0.5 * (S + S.T))
    mu = np.clip(mu, 0.0, None)
    W = solve_triangular(L, V, lower=True, trans="T")  # L^{-T} V
    z = W.T @ (B.T @ y)
    r = y - B @ (W @ z)
    with np.errstate(divide="ignore"):
        d = 1.0 / mu

    def coefficients(lam):
        nl = n * lam
        gamma = W @ (z / (1.0 + nl * mu))
        # one refinement step on B'(y - B gamma) = n*lam*Sigma gamma: W is
        # as ill-conditioned as L, and the residual taken from B brings
        # gamma back to the accuracy of a direct solve or better
        r = B.T @ (y - B @ gamma) - nl * (Sigma @ gamma)
        return gamma + W @ ((W.T @ r) / (1.0 + nl * mu))

    spectrum = SmootherSpectrum(n=n, d=d, z=z, e0=float(r @ r), k0=n - m)
    return spectrum, coefficients, fac.jitter_applied


def hat_trace(B: np.ndarray, Sigma: np.ndarray, lam):
    """trace(B (B'B + n*lam*Sigma)^{-1} B') for dense B and Sigma.

    ``lam`` may be a number or an array; the result has the same shape.
    """
    B = np.asarray(B, dtype=float)
    dof = demmler_reinsch(B, Sigma, np.zeros(B.shape[0]))[0].rss_and_dof(lam)[1]
    tr = B.shape[0] - dof
    return tr if np.ndim(lam) else float(tr[0])


def fdp_residual_and_trace(y, lam):
    """||y - A^{-1} y||^2 and trace(A^{-1}) for A = n*lam*M'M + I, each an
    array over ``lam``.

    Exact for every n (Hutchinson & de Hoog 1985).  One banded Cholesky
    factor A = L D L' per lambda gives the residual and the multipliers
    p_i = L[i+1, i], q_i = L[i+2, i] of the Takahashi recurrence for the
    band of Z = A^{-1}.  With a_i, b_i, c_i = Z[i, i], Z[i, i+1], Z[i, i+2]
    the recurrence is the unit upper-triangular system

        a_i + p_i b_i + q_i c_i = 1/D_i,
        b_i + p_i a_{i+1} + q_i b_{i+1} = 0,
        c_i + p_i b_{i+1} + q_i a_{i+2} = 0

    in the 3n unknowns (a_i, b_i, c_i) point by point, of bandwidth 4, so
    one LAPACK back-substitution per lambda gives the diagonal of A^{-1}.
    A lambda whose factor fails gets NaN for both, which GCV scores as +inf.
    """
    y = np.asarray(y, dtype=float).ravel()
    n = y.shape[0]
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    rss, tr = np.full(lams.shape[0], np.nan), np.full(lams.shape[0], np.nan)
    # the system in upper band storage, its (r, c) entry at ab[4 + r - c, c];
    # Fortran order, as dtbtrs reads it, so no call copies it
    ab = np.zeros((5, 3 * n), order="F")
    ab[4] = 1.0
    for j, lam_j in enumerate(lams):
        try:
            U = _banded_factor(fdp_system(n, lam_j))
        except NotPositiveDefinite:
            # n*lam beyond about 1e16: no residual or trace at this lambda
            continue
        r = y - cho_solve_banded((U, False), y)
        rss[j] = r @ r
        p = U[1, 1:] / U[2, :-1]
        q = U[0, 2:] / U[2, :-2]
        # p_i at (3i, 3i+1), (3i+1, 3i+3), (3i+2, 3i+4);
        # q_i at (3i, 3i+2), (3i+1, 3i+4), (3i+2, 3i+6)
        ab[3, 1:-3:3] = ab[2, 3::3] = ab[2, 4::3] = p
        ab[2, 2:-6:3] = ab[1, 4:-3:3] = ab[0, 6::3] = q
        rhs = np.zeros(3 * n)
        rhs[0::3] = 1.0 / U[2] ** 2
        x, _ = dtbtrs(ab, rhs, overwrite_b=1, diag="U")
        tr[j] = x[0::3].sum()
    return rss, tr


def fdp_hat_trace(n: int, lam):
    """trace((n*lam*M'M + I)^{-1}) for the pentadiagonal smoothing system.

    Exact for every n; ``lam`` may be a number or an array, each lambda
    costing O(n) (see :func:`fdp_residual_and_trace`).
    """
    tr = fdp_residual_and_trace(np.zeros(n), lam)[1]
    return tr if np.ndim(lam) else float(tr[0])
