"""Comparator methods: full GPR with regression terms, the Nystrom
low-rank speed-up, the sparse pseudo-input GP, and the quasi-posterior
estimator that coincides with reconstruction regression.

The low-rank paths (Nystrom, SPGP, quasi-posterior, variance search)
all start from one whitened cross-kernel P = R_XA L_A^{-T} and work
entirely with n x m and m x m arrays; no n x n matrix and no inverse of
R_A is formed.  Nystrom's spectrum is the Demmler-Reinsch spectrum of the
basis [G_X, P]; SPGP, the quasi-posterior and every noise-to-signal ratio
of the variance search solve one m x m system, I + P'diag(1/(r + rho))P.
"""

from __future__ import annotations

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
    that every low-rank baseline uses.
    """
    from scipy.linalg import solve_triangular  # deferred: ~0.3 s, ~26 MiB to import scipy.linalg

    knots = as_knots(A)
    facA = spd_factor(kernel_matrix(spec, knots.points, knots.points))
    P = solve_triangular(facA.factor, kernel_matrix(spec, X, knots.points).T, lower=True).T
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
    so its spectrum is the Demmler-Reinsch spectrum of B = [G_X, P] with
    Sigma = diag(0_q, I_m), in O(m^2 n); at lambda, c = (beta, v) and
    alpha = (y - B c) / (n*lam).  The jitter reported is the larger of
    R_A's and B'B's.
    """
    X, y = _as_xy(X, y)
    n = X.shape[0]
    _, facA, P = _whitened_cross(X, A, spec)
    G = regression_matrix(g_kind, X)
    q = G.shape[1]
    B = np.hstack([G, P])
    Sigma = np.diag(np.r_[np.zeros(q), np.ones(P.shape[1])])
    spectrum, coefficients, jitter = demmler_reinsch(B, Sigma, y)
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
    """u = 1 / (r + rho), the factor of I + P'diag(u)P and h = P'(u*y)."""
    u = 1.0 / (r + rho)
    fac = _normal_factor(np.eye(P.shape[1]) + (P * u[:, None]).T @ P)
    return u, fac, P.T @ (u * y)


def _sparse_gp_fit(X, y, A, spec, vp: VarianceParams, method) -> FittedModel:
    """Knot values of the sparse GP ("spgp") or the quasi-posterior ("eb").

    With residual weights W = diag(1 / (tau^2 r + sigma^2)), r the dropped
    variance of :func:`_residual_diag` for the sparse GP and zero for the
    quasi-posterior, the knot values minimize the W-weighted least squares
    plus the kernel-norm penalty gamma'R_A^{-1}gamma / tau^2: in whitened
    coordinates gamma = L_A v, (P'WP + I/tau^2) v = P'Wy and w = L_A^{-T} v.
    That system is 1/tau^2 times :func:`_ratio_system`'s at rho = sigma^2 /
    tau^2 (the FITC identity of Snelson & Ghahramani 2006).
    """
    from scipy.linalg import solve_triangular  # deferred: ~0.3 s, ~26 MiB to import scipy.linalg

    X, y = _as_xy(X, y)
    knots, facA, P = _whitened_cross(X, A, spec)
    r = _residual_diag(P) if method == "spgp" else np.zeros(X.shape[0])
    _, fac, h = _ratio_system(P, r, vp.ridge_weight, y)
    v = fac.solve(h)
    return FittedModel(
        interpolator="kernel",
        knots=knots,
        gamma_hat=facA.factor @ v,
        lam=vp.ridge_weight / X.shape[0],
        kernel=spec,
        g_kind="none",
        beta=None,
        w=solve_triangular(facA.factor, v, lower=True, trans="T"),
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


def estimate_variances(X, y, A, spec: KernelSpec) -> VarianceParams:
    """Grid search maximizing the sparse-GP marginal likelihood of y.

    Both variances run over ``_VARIANCE_GRID_POINTS`` log-spaced values
    spanning [1e-4, 1e4] times var(y).  Cell (grid[i], grid[j]) sees the
    ratio rho = grid[j] / grid[i] only through y'C^{-1}y and log det C,
    C = P P' + diag(r) + rho I, which one loop over the 2 * 20 - 1 ratios
    takes from :func:`_ratio_system` (Woodbury and the determinant lemma).
    The 400-cell search reads them; the first maximum wins.
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
    stats = {}  # j - i -> (quad, logdet); quad is NaN where undefined
    for key in range(1 - k, k):
        i = max(0, -key)  # the ratio as its first cell in row-major order has it
        rho = grid[i + key] / grid[i]
        try:
            u, fac, h = _ratio_system(P, r, rho, y)
        except SingularSystem:
            stats[key] = (math.nan, math.nan)
            continue
        quad = float(y * u @ y) - float(h @ fac.solve(h))
        logdet = float(np.sum(np.log(r + rho))) + fac.logdet()
        stats[key] = (quad if np.isfinite(quad) else math.nan, logdet)
    best = (-math.inf, 0, 0)  # a NaN log-likelihood never compares greater
    for i, t2 in enumerate(grid):  # tau^2
        for j in range(k):  # sigma^2
            quad, logdet = stats[j - i]
            ll = -0.5 * (n * math.log(2.0 * math.pi) + n * math.log(t2) + logdet + quad / t2)
            if ll > best[0]:
                best = (ll, i, j)
    if not np.isfinite(best[0]):
        raise SingularSystem("marginal likelihood undefined on the whole grid")
    return VarianceParams(tau2=float(grid[best[1]]), sigma2=float(grid[best[2]]))
