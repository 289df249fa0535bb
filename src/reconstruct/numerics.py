"""Dense and banded SPD linear algebra with an explicit jitter policy, and
the smoother spectra and traces that GCV is evaluated from.

Every dense Cholesky factorization in the package goes through
:func:`spd_factor`, so conditioning behaviour is uniform: a factorization
is attempted with no jitter first, then with 1e-10 and 1e-8 times the
mean diagonal added to the diagonal.  Solves go through the factor:
:meth:`SpdFactorization.gls` is the one generalized-least-squares trend
solve, whose thin QR :func:`_trend_qr` holds the one rank rule for trends,
and :meth:`SpdFactorization.solve` is that solve with no trend.  Every
triangular solve is a BLAS ``dtrsm`` call, so an SPD solve is a pair of them.
The low-rank fits work in coordinates whitened by the knot factor.  The one
inverse formed is the kriging basis's V = R_A^{-1}(I - G_A U'), and only to
assemble a subset fit's design matrix B and penalty factor W = L_A'V; the
coefficients (beta, w) of every kriging model are a GLS solve of its knot
values.  A least-squares normal matrix that no jitter level makes factorable
raises ``SingularSystem``.
Banded systems are LAPACK upper band arrays of shape (bandwidth + 1, n).

A ridge-type smoother is diagonalized once into a :class:`SmootherSpectrum`,
from which its residual and trace at every lambda of a grid follow in
O(len(d)) each.  A ridge fit on an n x m basis B with penalty factor W
reads B only in the lambda = 0 step :func:`_least_squares`, as the
kernel-rate search does: its spectrum is one m x m SVD against the step's
factor of B'B, and its coefficients one m-column stacked QR (none at 0).
The pentadiagonal finite-difference smoother is
diagonalized the same way, up to one rank-1 term per parity, by the
discrete cosine transform: one DCT of y (``scipy.fft``, imported at the
first such call, so importing the package does not load it), then its
exact residual and trace in O(n) per lambda, accurate to about 1e-15
relative.  They are NaN from n*lam * eps = 1 on and, above 1/64 of that,
wherever the banded factor of the float system fails, so GCV never picks a
lambda the fit cannot solve; only those lambdas are factored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        """A^{-1} rhs: :meth:`gls` with no trend columns."""
        rhs = np.asarray(rhs, dtype=float)
        return self.gls(np.empty((rhs.shape[0], 0)), rhs)[1]

    def logdet(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self.factor))))

    def gls(self, G: np.ndarray, Y: np.ndarray):
        """Generalized least squares in the metric of A = LL'.

        Returns beta = (G'A^{-1}G)^{-1} G'A^{-1} Y and w = A^{-1}(Y - G beta).
        [G | Y] is whitened by one triangular solve with L, beta comes from a
        thin QR of L^{-1}G and w from one back-solve with L', so neither
        A^{-1} nor G'A^{-1}G is formed.  ``Y`` may be a vector or a matrix.
        """
        from scipy.linalg.blas import dtrsm  # deferred: ~0.3 s, ~26 MiB to import scipy.linalg

        G = np.asarray(G, dtype=float)
        Y = np.asarray(Y, dtype=float)
        if G.shape[0] != self.dimension or Y.shape[0] != self.dimension:
            raise DimensionMismatch(
                f"G has {G.shape[0]} and Y {Y.shape[0]} rows, "
                f"factorization is {self.dimension}-dimensional"
            )
        q = G.shape[1]
        # BLAS trsm, not LAPACK trtrs: OpenBLAS threads trtrs even for a few
        # right-hand sides, and with more busy threads than cores that made
        # an evaluation of the kernel-rate objective five times slower.  The
        # factor is finite by construction; only [G | Y] needs the check.
        Z = dtrsm(1.0, self.factor, np.asarray_chkfinite(np.column_stack([G, Y])), lower=1)
        Gw, Yw = Z[:, :q], Z[:, q:]
        beta = np.zeros((q, Yw.shape[1]))
        if q:
            Q, Rg = _trend_qr(Gw)
            QtY = Q.T @ Yw
            beta = dtrsm(1.0, Rg, QtY)
            Yw = Yw - Q @ QtY
        w = dtrsm(1.0, self.factor, Yw, lower=1, trans_a=1)
        if Y.ndim == 1:
            return beta[:, 0], w[:, 0]
        return beta, w


def _trend_qr(G: np.ndarray):
    """Thin QR of n x q trend columns G, of full rank: min |R_ii| > n eps max |R_ii|."""
    Q, R = np.linalg.qr(G)
    r = np.abs(R.diagonal())
    if not r.min() > G.shape[0] * _EPS * r.max():
        raise SingularSystem(f"GLS trend matrix of rank < {G.shape[1]}")
    return Q, R


def _normal_factor(N: np.ndarray) -> SpdFactorization:
    """:func:`spd_factor` of a least-squares normal matrix; one that fails
    at every jitter level makes the least-squares problem singular."""
    try:
        return spd_factor(N)
    except NotPositiveDefinite as exc:
        raise SingularSystem(str(exc)) from exc


def spd_factor(A: np.ndarray) -> SpdFactorization:
    """Cholesky-factor a symmetric matrix, escalating jitter as needed."""
    from scipy.linalg import cho_factor  # deferred: ~0.3 s, ~26 MiB to import scipy.linalg

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


def fdp_system(n: int, lam: float) -> np.ndarray:
    """The pentadiagonal system n*lam*M'M + I on an n-point grid, M the
    (n-2) x n second-difference operator, as the (3, n) LAPACK upper band
    array of :func:`scipy.linalg.cholesky_banded`: ``ab[2 - k, j]`` holds
    the k-th superdiagonal entry ``A[j - k, j]``.

    Each band of M'M is constant away from the two ends, so each row of the
    band storage is one fill and a few end entries.
    """
    if n < 3:
        raise DimensionMismatch("second differences need at least 3 points")
    sig = n * lam
    ab = np.empty((3, n))
    ab[0].fill(sig)
    ab[1].fill(-4.0 * sig)
    ab[2].fill(6.0 * sig + 1.0)
    # the corner of the band storage outside the matrix
    ab[0, :2] = ab[1, 0] = 0.0 * sig
    ab[1, 1] = ab[1, -1] = -2.0 * sig
    ab[2, 0] = ab[2, -1] = sig + 1.0
    ab[2, 1] = ab[2, -2] = (4.0 if n == 3 else 5.0) * sig + 1.0
    return ab


def banded_spd_solve(ab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs in O(n) for a banded SPD matrix A in LAPACK upper
    band storage ``ab`` of shape (bandwidth + 1, n)."""
    from scipy.linalg import cho_solve_banded  # deferred: ~0.3 s, ~26 MiB to import scipy.linalg

    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[0] != ab.shape[1]:
        raise DimensionMismatch(
            f"rhs has {rhs.shape[0]} rows but matrix dimension is {ab.shape[1]}"
        )
    return cho_solve_banded((_banded_factor(ab), False), rhs)


def _banded_factor(ab: np.ndarray) -> np.ndarray:
    """Upper banded Cholesky factor U (U'U = A) in the storage of ``ab``."""
    from scipy.linalg import cholesky_banded  # deferred: ~0.3 s, ~26 MiB to import scipy.linalg

    try:
        return cholesky_banded(ab)
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


def _least_squares(B, y):
    """The lambda = 0 step on an n x m basis B, the one place B'B is formed:
    the factor of B'B = LL' (:func:`spd_factor`'s ladder), c = L^{-1}B'y,
    gamma0 = L^{-T}c and y - B gamma0, by :meth:`SpdFactorization.solve`'s dtrsm pair."""
    from scipy.linalg.blas import dtrsm  # deferred: ~0.3 s, ~26 MiB to import scipy.linalg

    fac = _normal_factor(B.T @ B)
    c = dtrsm(1.0, fac.factor, (B.T @ y)[:, None], lower=1)
    gamma0 = dtrsm(1.0, fac.factor, c, lower=1, trans_a=1)[:, 0]
    return fac, c[:, 0], gamma0, y - B @ gamma0


def demmler_reinsch(B, W, y):
    """Spectrum of the ridge smoother of min ||B g - y||^2 + n*lam*||W g||^2,
    H(lam) = B (B'B + n*lam*W'W)^{-1} B', and its coefficients.

    The generalized SVD of (B, W) (Van Loan 1976; Paige & Saunders 1981)
    from :func:`_least_squares`' B'B = LL' and c = L^{-1}B'y: with the SVD
    W L^{-T} = U diag(s) V', the columns of B L^{-T} V are orthonormal and
    H scales them by 1 / (1 + n*lam*mu_i), mu = s^2 padded with zeros when
    W has fewer than m rows, so d_i = 1/mu_i (infinite on the null space of
    W) and z = V'c; the n - m directions outside the column space of B are
    pure residual.

    Returns the spectrum, ``coefficients(lam) -> gamma``, the least-squares
    solution of [L'; sqrt(n*lam) W] gamma = [c; 0] from one thin QR of that
    stack, which reads nothing of B (at lam = 0, L'gamma = c: the step's
    gamma0), and the jitter put on B'B.
    """
    from scipy.linalg.blas import dtrsm  # deferred: ~0.3 s, ~26 MiB to import scipy.linalg

    B = np.asarray(B, dtype=float)
    W = np.asarray(W, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if B.ndim != 2 or W.ndim != 2 or W.shape[1] != B.shape[1]:
        raise DimensionMismatch(f"B has shape {B.shape} and W {W.shape}; need (n, m) and (k, m)")
    n, m = B.shape
    fac, c, gamma0, r = _least_squares(B, y)
    L = fac.factor
    _, s, Vt = np.linalg.svd(dtrsm(1.0, L, W, side=1, lower=1, trans_a=1),  # W L^{-T}
                             full_matrices=W.shape[0] < m)
    mu = np.zeros(m)
    mu[: s.size] = s * s
    z = Vt @ c
    with np.errstate(divide="ignore"):
        d = 1.0 / mu

    def coefficients(lam):
        if lam == 0.0:
            return gamma0
        Q, R = np.linalg.qr(np.vstack([L.T, np.sqrt(n * lam) * W]))
        return dtrsm(1.0, R, Q[:m].T @ c[:, None])[:, 0]  # R^{-1} Q'[c; 0]

    spectrum = SmootherSpectrum(n=n, d=d, z=z, e0=float(r @ r), k0=n - m)
    return spectrum, coefficients, fac.jitter_applied


def _penalty_factor(Sigma) -> np.ndarray:
    """A W with W'W = Sigma for a symmetric positive semidefinite Sigma:
    diag(sqrt(ev)) V' from its eigendecomposition, negative rounding in
    the eigenvalues taken as 0."""
    Sigma = np.asarray(Sigma, dtype=float)
    if Sigma.ndim != 2 or Sigma.shape[0] != Sigma.shape[1]:
        raise DimensionMismatch(f"Sigma has shape {Sigma.shape}, expected a square matrix")
    ev, V = np.linalg.eigh(Sigma)
    return np.sqrt(np.clip(ev, 0.0, None))[:, None] * V.T


def hat_trace(B: np.ndarray, Sigma: np.ndarray, lam):
    """trace(B (B'B + n*lam*Sigma)^{-1} B') for dense B and Sigma.

    ``lam`` may be a number or an array; the result has the same shape.
    """
    B = np.asarray(B, dtype=float)
    dof = demmler_reinsch(B, _penalty_factor(Sigma), np.zeros(B.shape[0]))[0].rss_and_dof(lam)[1]
    tr = B.shape[0] - dof
    return tr if np.ndim(lam) else float(tr[0])


def fdp_residual_and_trace(y, lam):
    """||y - A^{-1} y||^2 and trace(A^{-1}) for A = n*lam*M'M + I, each an
    array over ``lam``.

    Exact for every n (Hutchinson & de Hoog 1985), from one DCT of y and no
    factorization.  With D the first-difference operator, M'M = L^2 - UU'
    where L = D'D is the Neumann Laplacian and U = [e_1 - e_0, e_{n-1} -
    e_{n-2}].  The orthonormal DCT-II C diagonalizes L, with eigenvalues
    l_k = 4 sin^2(pi k / 2n) (Garcia 2010).  Mirror symmetry makes the even
    modes (symmetric vectors) and the odd modes (antisymmetric ones)
    invariant, and UU' is one rank-1 term g g' on each, with
    g_k^2 / l_k^2 = (4/n) cos^2(pi k / 2n).  So on each parity
    C A C' = diag(d) - s g g', s = n*lam, d = 1 + s l^2, and
    Sherman-Morrison gives trace and residual from sums over n-vectors,
    with the capacitance s (1/s - g' diag(1/d) g) = E + sum_k w_k / d_k,
    w = g^2 / l^2, a sum of positive terms: E = 0 on the odd modes, where
    sum w = 1 and the linear null vector of M lives, and E = 2/n on the
    even modes k >= 2.  Mode 0, the constant, is an eigenvector of A with
    eigenvalue 1.

    Residual and trace agree with a 40-digit LDL' and Takahashi reference
    to a few eps relative wherever measured (n from 3 to 12000, n*lam up
    to 3.6e15).  Both are NaN, which GCV scores as +inf, for a negative
    or non-finite lambda, from ``n*lam * eps >= 1`` on, where the unit
    diagonal is below the rounding of the n*lam*M'M entries, and wherever
    the banded Cholesky factor of the float system :func:`fdp_system`,
    which the fit solves at the chosen lambda, fails.  That factor is certain to succeed while
    ``64 * n*lam * eps < 1``: there Demmel's condition for a band of
    half-width 2 (Demmel 1989; Higham 2002, sec. 10.1), lambda_min(H) >
    5 gamma_3 / (1 - gamma_3), about 7.5 eps, holds for H the unit-diagonal
    scaling of the float system, whose lambda_min(H) is at least about
    (1 - 6 n*lam eps) / (6 n*lam + 1).  So only a lambda between the two
    bounds is factored, to see whether it can be solved; in practice the
    first failures come at n*lam * eps = 1/3, where the interior diagonal
    6 n*lam + 1 rounds to 6 n*lam.  Lambdas are taken one at a time, so
    each entry of a grid equals a call with that lambda alone.
    """
    from scipy.fft import dct  # deferred: ~0.25 s, ~24 MiB to import scipy.fft

    y = np.asarray(y, dtype=float).ravel()
    n = y.shape[0]
    if n < 3:
        raise DimensionMismatch("second differences need at least 3 points")
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    rss, tr = np.full(lams.shape[0], np.nan), np.full(lams.shape[0], np.nan)
    theta = 0.5 * np.pi / n * np.arange(n)
    sin = np.sin(theta)
    l2 = (4.0 * sin * sin) ** 2
    w = 4.0 / n * np.cos(theta) ** 2
    g = 4.0 / np.sqrt(n) * np.sin(2.0 * theta) * sin
    yc = dct(y, norm="ortho")
    # (l^2, w, g, Cy, l^2 Cy, E) on the even modes k >= 2, then the odd ones
    parities = [
        (l2[p], w[p], g[p], yc[p], l2[p] * yc[p], e)
        for p, e in ((slice(2, None, 2), 2.0 / n), (slice(1, None, 2), 0.0))
    ]
    for j, lam_j in enumerate(lams):
        s = n * lam_j
        if not (0.0 <= s and s * _EPS < 1.0):
            continue
        if 64.0 * s * _EPS >= 1.0:
            try:
                _banded_factor(fdp_system(n, lam_j))
            except NotPositiveDefinite:
                continue
        rss_j, tr_j = 0.0, 1.0
        for l2p, wp, gp, yp, l2y, e in parities:
            q = 1.0 / (1.0 + s * l2p)
            gq = gp * q
            cap = e + wp @ q
            # diag(q) plus the Sherman-Morrison term s (g q)(g q)' / cap
            tr_j += q.sum() + s * (gq @ gq) / cap
            # C(y - A^{-1} y) = s (q l^2 Cy - g q (g q)'Cy / cap), formed
            # without subtracting A^{-1} y from y
            r = q * l2y - gq * ((gq @ yp) / cap)
            rss_j += s * s * (r @ r)
        rss[j], tr[j] = rss_j, tr_j
    return rss, tr


def fdp_hat_trace(n: int, lam):
    """trace((n*lam*M'M + I)^{-1}) for the pentadiagonal smoothing system.

    Exact for every n; ``lam`` may be a number or an array, each lambda
    costing O(n) (see :func:`fdp_residual_and_trace`).
    """
    tr = fdp_residual_and_trace(np.zeros(n), lam)[1]
    return tr if np.ndim(lam) else float(tr[0])
