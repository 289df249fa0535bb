"""Comparator methods: full GPR with regression terms, the Nystrom
low-rank speed-up, the sparse pseudo-input GP, and the quasi-posterior
estimator that coincides with reconstruction regression.

The low-rank paths (Nystrom, SPGP, quasi-posterior, variance search)
all start from one whitened cross-kernel P = R_XA L_A^{-T} and work
entirely with n x m and m x m arrays; no n x n matrix and no inverse of
R_A is formed.  Nystrom's spectrum and coefficients come from the
triangular factor of B'B, B = [G_X, P], and the penalty factor [0 | I_m]
that leaves the trend unpenalized; SPGP, the quasi-posterior and each
noise-to-signal ratio the variance search solves factor one m x m system,
I + P'diag(1/(r + rho))P, formed by one BLAS ``dsyrk``.  The variance
search solves only the ratios that a monotonicity bound on its likelihood
cannot rule out, best first, and picks the cell a scan of all of them
would.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateData, SingularSystem
from .estimators import (
    FitDiagnostics,
    FittedModel,
    _as_xy,
    _kriging_full_model,
    _lambda_plan,
    _tune,
)
from .interpolators import KnotSet, as_knots, regression_matrix
from .kernels import KernelSpec, kernel_matrix
from .numerics import _normal_factor, demmler_reinsch, spd_factor

@dataclass(frozen=True)
class VarianceParams:
    """Process and noise variances of the working GP model."""

    tau2: float
    sigma2: float

    def __post_init__(self):
        if self.tau2 <= 0 or self.sigma2 <= 0:
            raise ValueError("variances must be strictly positive")

    @property
    def ridge_weight(self) -> float:
        """The equivalent penalty weight sigma^2 / tau^2 (before the 1/n)."""
        return self.sigma2 / self.tau2


def fit_gpr(
    X,
    y,
    spec: KernelSpec,
    g_kind: str = "constant+linear",
    lambda_policy="gcv",
    grid=None,
) -> FittedModel:
    """Kriging smoother with GLS trend on all n points, lambda by GCV."""
    X, y = _as_xy(X, y)
    return _kriging_full_model(X, y, spec, g_kind, lambda_policy, grid, "gpr")


def _whitened_cross(X, A, spec):
    """The knots, the factor L_A of R_A = L_A L_A', and P = R_XA L_A^{-T}.

    P P' = R_XA R_A^{-1} R_XA' is the low-rank surrogate of the Gram matrix
    that every low-rank baseline uses.  P, Fortran-ordered, is solved in place.
    """
    from scipy.linalg.blas import dtrsm  # deferred: ~0.3 s, ~26 MiB to import scipy.linalg

    knots = as_knots(A)
    facA = spd_factor(kernel_matrix(spec, knots.points, knots.points))
    R_XA = kernel_matrix(spec, knots.points, X).T
    P = dtrsm(1.0, facA.factor, R_XA, side=1, lower=1, trans_a=1, overwrite_b=1)
    return knots, facA, P


def _residual_diag(P):
    """Diagonal of R_X - P P', the variance the low-rank surrogate drops."""
    return np.clip(1.0 - np.einsum("ij,ij->i", P, P), 0.0, None)


def fit_nystrom(
    X,
    y,
    A,
    spec: KernelSpec,
    g_kind: str = "constant+linear",
    lambda_policy="gcv",
    grid=None,
) -> FittedModel:
    """Low-rank GPR (Williams & Seeger 2001): lambda is tuned by GCV on the
    smoother whose Gram matrix is the m-rank surrogate P P' = R_XA R_A^{-1}
    R_XA' (see :func:`_whitened_cross`), and prediction keeps the exact
    cross-kernel values, g(x)'beta + r_X(x)'alpha.

    By Henderson's mixed-model identity that smoother is the ridge fit
    min ||y - G beta - P v||^2 + n*lam*||v||^2 with the trend unpenalized,
    so its spectrum is that of B = [G_X, P] with the penalty factor
    W = [0 | I_m] (see :func:`~reconstruct.numerics.demmler_reinsch`), in
    O(m^2 n); at lambda, c = (beta, v) and alpha = (y - B c) / (n*lam).
    The jitter reported is the larger of R_A's and B'B's.
    """
    X, y = _as_xy(X, y)
    n = X.shape[0]
    _, facA, P = _whitened_cross(X, A, spec)
    G = regression_matrix(g_kind, X)
    q = G.shape[1]
    B = np.hstack([G, P])
    spectrum, coefficients, jitter = demmler_reinsch(B, np.eye(B.shape[1])[q:], y)
    lam, tuned = _tune(_lambda_plan(lambda_policy, grid, n), n, spectrum.rss_and_dof)
    if n * lam <= 0.0:
        raise SingularSystem(f"low-rank system unsolvable at lambda={lam}")
    c = coefficients(lam)
    beta, alpha = c[:q], (y - B @ c) / (n * lam)
    return FittedModel(
        interpolator="gp",
        knots=KnotSet(X),
        gamma_hat=None,
        lam=lam,
        kernel=spec,
        g_kind=g_kind,
        beta=beta,
        w=alpha,
        method="nystrom",
        diagnostics=replace(tuned, jitter=max(jitter, facA.jitter_applied)),
    )


def _ratio_system(P, r, rho, y):
    """u = 1 / (r + rho), the factor of N = I + P'diag(u)P and h = P'(u*y).

    N is S'S + I with S = sqrt(u) * P: numpy forms a product of an array
    with its own transpose by one BLAS ``dsyrk``, half the work of a GEMM.
    """
    u = 1.0 / (r + rho)
    S = np.sqrt(u)[:, None] * P
    N = S.T @ S
    N.flat[:: N.shape[0] + 1] += 1.0
    return u, _normal_factor(N), P.T @ (u * y)


def _sparse_gp_fit(X, y, A, spec, vp: VarianceParams, method) -> FittedModel:
    """Knot values of the sparse GP ("spgp") or the quasi-posterior ("eb").

    With residual weights W = diag(1 / (tau^2 r + sigma^2)), r the dropped
    variance of :func:`_residual_diag` for the sparse GP and zero for the
    quasi-posterior, the knot values minimize the W-weighted least squares
    plus the kernel-norm penalty gamma'R_A^{-1}gamma / tau^2: in whitened
    coordinates gamma = L_A v and (P'WP + I/tau^2) v = P'Wy.  That system
    is 1/tau^2 times :func:`_ratio_system`'s at rho = sigma^2 / tau^2 (the
    FITC identity of Snelson & Ghahramani 2006).  The kernel interpolant's
    w = R_A^{-1} gamma is one solve on R_A's factor.
    """
    X, y = _as_xy(X, y)
    knots, facA, P = _whitened_cross(X, A, spec)
    r = _residual_diag(P) if method == "spgp" else np.zeros(X.shape[0])
    _, fac, h = _ratio_system(P, r, vp.ridge_weight, y)
    gamma_hat = facA.factor @ fac.solve(h)
    return FittedModel(
        interpolator="kernel",
        knots=knots,
        gamma_hat=gamma_hat,
        lam=vp.ridge_weight / X.shape[0],
        kernel=spec,
        g_kind="none",
        beta=None,
        w=facA.solve(gamma_hat),
        method=method,
        diagnostics=FitDiagnostics(jitter=max(facA.jitter_applied, fac.jitter_applied)),
    )


def fit_spgp(X, y, A, spec: KernelSpec, vp: VarianceParams) -> FittedModel:
    """Sparse pseudo-input GP with the diagonal residual correction (FITC);
    prediction is the kernel interpolant through the estimated knot values."""
    return _sparse_gp_fit(X, y, A, spec, vp, "spgp")


def fit_empirical_bayes(X, y, A, spec: KernelSpec, vp: VarianceParams) -> FittedModel:
    """Quasi-posterior mode: like the sparse GP but without the diagonal
    correction, so the residual weight is constant 1/sigma^2."""
    return _sparse_gp_fit(X, y, A, spec, vp, "eb")


# log-spaced values per variance in the marginal-likelihood grid search
_VARIANCE_GRID_POINTS = 20
# A ratio interval is dropped only when its bound stays below the best score
# by more than this fraction of the size of the terms the bound adds up; it
# covers the rounding of log det C and y'C^{-1}y (see estimate_variances).
_BOUND_MARGIN = 1e-6


def estimate_variances(X, y, A, spec: KernelSpec) -> VarianceParams:
    """Grid search maximizing the sparse-GP marginal likelihood of y.

    Both variances run over ``_VARIANCE_GRID_POINTS`` log-spaced values
    spanning [1e-4, 1e4] times var(y).  Cell (grid[i], grid[j]) scores
    -(n log 2 pi + n log tau^2 + log det C + y'C^{-1}y / tau^2) / 2 and sees
    the ratio rho = grid[j] / grid[i], key j - i, only through
    C = P P' + diag(r) + rho I, whose y'C^{-1}y and log det C come from
    :func:`_ratio_system` (Woodbury and the determinant lemma).

    C grows with rho in the Loewner order, so log det C rises with the key
    and y'C^{-1}y falls: every cell whose key lies strictly between two
    solved keys a < b scores at most the bound that takes log det C from a
    and y'C^{-1}y from b, maximized over the rows such cells occupy.  The
    keys -19, 0 and 19 are solved first; then the interval with the highest
    bound is bisected, best first, until every interval left has a bound
    below the best score found by more than ``_BOUND_MARGIN`` times the size
    of the bound's terms.  That margin is about 1e10 rounding units; over
    random, noiseless, repeated-input and borehole draws, rounding made
    y'C^{-1}y rise from one key to the next by at most 8e-9 of itself and
    never made log det C fall.  An interval with an end whose system is
    singular or whose y'C^{-1}y is not finite is never dropped.  The
    400-cell scan reads the solved keys in row-major order and the first
    maximum wins, so the pick, its ties and the undefined-grid error are
    those of a scan of all 39 keys.
    """
    X, y = _as_xy(X, y)
    n = X.shape[0]
    vy = float(np.var(y))
    if vy <= 0.0:
        raise DegenerateData("response has zero variance")
    _, _, P = _whitened_cross(X, A, spec)
    r = _residual_diag(P)
    k = _VARIANCE_GRID_POINTS
    grid = np.logspace(-4.0, 4.0, k) * vy
    stats = {}  # j - i -> (quad, logdet); NaN where undefined

    def loglik(i, key):
        quad, logdet = stats[key]
        t2 = grid[i]
        return -0.5 * (n * math.log(2.0 * math.pi) + n * math.log(t2) + logdet + quad / t2)

    def solve(key):
        """Solve the key's ratio system; return its cells' best score."""
        i = max(0, -key)  # the ratio as its first cell in row-major order has it
        rho = grid[i + key] / grid[i]
        try:
            u, fac, h = _ratio_system(P, r, rho, y)
        except SingularSystem:
            stats[key] = (math.nan, math.nan)
            return -math.inf
        quad = float(y * u @ y) - float(h @ fac.solve(h))
        logdet = float(np.sum(np.log(r + rho))) + fac.logdet()
        if not np.isfinite(quad):
            stats[key] = (math.nan, logdet)
            return -math.inf
        stats[key] = (quad, logdet)
        return max(loglik(i, key) for i in range(max(0, -key), min(k, k - key)))

    def bound(a, b):
        """The highest score a cell with key in (a, b) can have, each term of
        the score moved toward zero by the margin; inf at an undefined end."""
        if any(map(math.isnan, stats[a] + stats[b])):
            return math.inf
        t2 = grid[max(0, 1 - b) : min(k, k - 1 - a)]  # rows those cells occupy
        terms = (n * math.log(2.0 * math.pi), n * np.log(t2), stats[a][1], stats[b][0] / t2)
        return float(np.max(-0.5 * sum(t * (1.0 - _BOUND_MARGIN * np.sign(t)) for t in terms)))

    heap = []  # (-bound, a, b): the interval of highest bound first

    def push(a, b):
        if b - a > 1:
            heapq.heappush(heap, (-bound(a, b), a, b))

    top = max(solve(key) for key in (1 - k, 0, k - 1))
    push(1 - k, 0)
    push(0, k - 1)
    while heap and -heap[0][0] >= top:
        _, a, b = heapq.heappop(heap)
        mid = (a + b) // 2
        top = max(top, solve(mid))
        push(a, mid)
        push(mid, b)
    best = (-math.inf, 0, 0)  # a NaN log-likelihood never compares greater
    for i in range(k):  # tau^2
        for j in range(k):  # sigma^2
            if j - i in stats:
                ll = loglik(i, j - i)
                if ll > best[0]:
                    best = (ll, i, j)
    if not np.isfinite(best[0]):
        raise SingularSystem("marginal likelihood undefined on the whole grid")
    return VarianceParams(tau2=float(grid[best[1]]), sigma2=float(grid[best[2]]))
