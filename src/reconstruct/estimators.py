"""Reconstruction estimators.

A fitted model is a knot set plus estimated knot values and the
interpolator that rebuilds the curve or surface.  Generic machinery:

* ridge solution  gamma = (B'B + n*lam*Sigma)^{-1} B'y
* GCV(lam) = ||y - H y||^2 / (n (1 - trace(H)/n)^2),  H the smoother
* kernel-rate estimation by one joint L-BFGS-B search on the
  variable-projection form of the unpenalized least-squares objective.

Every lambda search runs through one GCV engine: a fit decomposes its
smoother once (a :class:`~reconstruct.numerics.SmootherSpectrum`, or the
exact finite-difference traces of a whole grid), the residuals and traces
over the grid give the curve, and one plateau rule picks lambda.  The fit
keeps the grid and the curve it searched in its diagnostics
(``FitDiagnostics.gcv_curve``), outside the stored model.

Kernel-kind models store, besides the knot values, the trend/kernel
coefficients (beta, w) of the interpolant, so prediction never has to
re-invert an ill-conditioned correlation matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .designs import ReplicationDesign
from .errors import (
    BadSchema,
    DimensionMismatch,
    LengthMismatch,
    NonFiniteInput,
    RankDeficientRegression,
    ReconstructError,
    SingularSystem,
)
from .interpolators import (
    G_KINDS,
    GPBasis,
    KnotSet,
    SplineCoefficients,
    as_knots,
    design_matrix,
    fit_natural_spline,
    gp_basis_build,
    lagrange_eval,
    regression_matrix,
    spline_eval,
)
from .kernels import (
    DEFAULT_GAUSSIAN_RATE,
    KernelSpec,
    default_gaussian,
    gaussian_kernel,
    kernel_matrix,
    kernel_matvec,
    spec_from_json,
    spec_to_json,
)
from .numerics import (
    SmootherSpectrum,
    _normal_factor,
    banded_spd_solve,
    demmler_reinsch,
    fdp_residual_and_trace,
    fdp_system,
    spd_factor,
)

#: 50 log-spaced candidates; the data decide where on it GCV settles.
DEFAULT_LAMBDA_GRID = np.logspace(-8.0, 2.0, 50)

_GCV_PLATEAU_RTOL = 1e-8
# Lagrange prediction in blocks of 2e6 floats (16 MB): scipy's barycentric
# evaluation holds a few (rows, m) temporaries, and the block bounds them.
# Kernel models need no such block: kernels.kernel_matvec works in
# cache-sized row blocks and never holds a (rows, m) kernel matrix.
_PREDICT_CHUNK_FLOATS = 2_000_000


@dataclass(frozen=True)
class FitDiagnostics:
    gcv: Optional[float] = None
    jitter: float = 0.0
    iterations: int = 0
    # (grid, GCV over it) of the lambda search, None when lambda was fixed;
    # kept for reporting, and not part of to_dict or of equality
    gcv_curve: Optional[tuple] = field(default=None, compare=False)

    def to_dict(self) -> dict:
        return {
            "gcv": None if self.gcv is None else float(self.gcv),
            "jitter": float(self.jitter),
            "iterations": int(self.iterations),
        }


@dataclass(frozen=True)
class FittedModel:
    """A pure prediction function: knots, estimated knot values, interpolator."""

    interpolator: str  # lagrange | spline | kernel | gp
    knots: KnotSet
    gamma_hat: Optional[np.ndarray]
    lam: float
    kernel: Optional[KernelSpec] = None
    g_kind: Optional[str] = None
    beta: Optional[np.ndarray] = None
    w: Optional[np.ndarray] = None
    method: Optional[str] = None
    diagnostics: FitDiagnostics = field(default_factory=FitDiagnostics)


def _as_xy(X, y):
    """Training inputs as an (n, d) array and n responses, all finite."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] != X.shape[0]:
        raise LengthMismatch(f"y has {y.shape[0]} entries, X has {X.shape[0]} rows")
    _require_finite("X", X)
    _require_finite("y", y)
    return X, y


def _require_finite(name, a):
    if not np.all(np.isfinite(a)):
        raise NonFiniteInput(f"{name} has {np.count_nonzero(~np.isfinite(a))} NaN or inf entries")


def _require_finite_queries(X):
    bad = np.count_nonzero(~np.isfinite(X))
    if bad:
        raise NonFiniteInput(f"query points have {bad} NaN or inf entries")


def predict(model: FittedModel, Xstar) -> np.ndarray:
    """Evaluate the fitted surface at each row of Xstar."""
    Xstar = np.asarray(Xstar, dtype=float)
    if Xstar.size == 0:
        return np.zeros(0)
    if Xstar.ndim == 1:
        if model.knots.d == 1:
            Xstar = Xstar[:, None]
        else:
            Xstar = Xstar[None, :]
    if Xstar.shape[1] != model.knots.d:
        raise DimensionMismatch(
            f"points have {Xstar.shape[1]} coordinates, model has {model.knots.d}"
        )
    _require_finite_queries(Xstar)
    if model.interpolator == "spline":
        coeffs = fit_natural_spline(model.knots.points[:, 0], model.gamma_hat)
        return np.asarray(spline_eval(coeffs, Xstar[:, 0]))
    if model.interpolator in ("kernel", "gp"):
        out = kernel_matvec(model.kernel, Xstar, model.knots.points, model.w)
        if model.beta is not None and model.beta.size:
            out += regression_matrix(model.g_kind or "none", Xstar) @ model.beta
        return out
    if model.interpolator != "lagrange":
        raise ValueError(f"unknown interpolator kind {model.interpolator!r}")
    out = np.empty(Xstar.shape[0])
    chunk = max(1, _PREDICT_CHUNK_FLOATS // model.knots.m)
    for s in range(0, Xstar.shape[0], chunk):
        out[s : s + chunk] = lagrange_eval(
            model.knots.points[:, 0], model.gamma_hat, Xstar[s : s + chunk, 0]
        )
    return out


def model_to_json(model: FittedModel) -> dict:
    def arr(a):
        return None if a is None else np.asarray(a).tolist()

    return {
        "interpolator": model.interpolator,
        "method": model.method,
        "lambda": float(model.lam),
        "g_kind": model.g_kind,
        "kernel": None if model.kernel is None else spec_to_json(model.kernel),
        "knots": model.knots.points.tolist(),
        "gamma_hat": arr(model.gamma_hat),
        "beta": arr(model.beta),
        "w": arr(model.w),
        "diagnostics": model.diagnostics.to_dict(),
    }


_INTERPOLATORS = ("lagrange", "spline", "kernel", "gp")


def model_from_json(obj: dict) -> FittedModel:
    """Rebuild a stored model, checking every field that prediction reads:
    the interpolator's name, each array's shape against the knots and its
    entries for NaN or inf, and the fields each interpolator needs.  A bad
    field raises ``BadSchema`` naming it."""
    if not isinstance(obj, dict):
        raise BadSchema("model file must hold a JSON object")
    interpolator = obj.get("interpolator")
    if interpolator not in _INTERPOLATORS:
        raise BadSchema(
            f"model field 'interpolator' is {interpolator!r}; expected one of {_INTERPOLATORS}"
        )

    def read(name, convert):
        # a missing field, or one that convert rejects, is named
        if name not in obj:
            raise BadSchema(f"model field {name!r} is missing")
        try:
            return convert(obj[name])
        except (LookupError, TypeError, ValueError, AttributeError, ReconstructError) as exc:
            detail = f"no {exc}" if isinstance(exc, KeyError) else exc
            raise BadSchema(f"model field {name!r}: {detail}") from exc

    knots = read("knots", lambda v: KnotSet(np.asarray(v, dtype=float)))
    kernel = None if obj.get("kernel") is None else read("kernel", spec_from_json)
    if kernel is not None and kernel.d not in (None, knots.d):
        raise BadSchema(f"model field 'kernel' has {kernel.d} rates, knots have {knots.d} coordinates")
    g_kind = obj.get("g_kind")
    if g_kind not in (None, *G_KINDS):
        raise BadSchema(f"model field 'g_kind' is {g_kind!r}; expected one of {G_KINDS}")
    q = regression_matrix(g_kind or "none", knots.points[:1]).shape[1]

    def arr(name, size):
        v = obj.get(name)
        if v is None:
            return None
        a = read(name, lambda v: np.asarray(v, dtype=float))
        if a.shape != (size,):
            raise BadSchema(f"model field {name!r} has shape {a.shape}, expected ({size},)")
        bad = np.count_nonzero(~np.isfinite(a))
        if bad:
            raise BadSchema(f"model field {name!r} has {bad} NaN or inf entries")
        return a

    w = arr("w", knots.m)
    gamma_hat = arr("gamma_hat", knots.m)
    if interpolator in ("kernel", "gp") and (w is None or kernel is None):
        raise BadSchema("a kernel model needs the fields 'w' and 'kernel'")
    if interpolator in ("lagrange", "spline"):
        if gamma_hat is None:
            raise BadSchema(f"a {interpolator} model needs the field 'gamma_hat'")
        if knots.d != 1:
            raise BadSchema(
                f"model field 'knots' has {knots.d} coordinates; a {interpolator} model has 1"
            )
    diag = {} if obj.get("diagnostics") is None else obj["diagnostics"]
    if not isinstance(diag, dict):
        raise BadSchema("model field 'diagnostics' must hold a JSON object")

    def entry(name, default, valid, expected):
        # a JSON number (true and false are not) in the entry's range
        v = diag.get(name, default)
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not valid(v):
            raise BadSchema(f"model field 'diagnostics.{name}' is {v!r}; expected {expected}")
        return v

    return FittedModel(
        interpolator=interpolator,
        knots=knots,
        gamma_hat=gamma_hat,
        lam=read("lambda", float),
        kernel=kernel,
        g_kind=g_kind,
        beta=arr("beta", q),
        w=w,
        method=obj.get("method"),
        diagnostics=FitDiagnostics(
            gcv=None if diag.get("gcv") is None else entry(
                "gcv", None, lambda v: -math.inf < v < math.inf, "null or a finite number"),
            jitter=entry("jitter", 0.0, lambda v: 0.0 <= v < math.inf,
                         "a finite non-negative number"),
            iterations=entry("iterations", 0, lambda v: isinstance(v, int) and v >= 0,
                             "a non-negative integer"),
        ),
    )


def roughness_penalty(basis: GPBasis) -> np.ndarray:
    """The kernel-part squared-norm penalty matrix V R_A V'.

    Assembled as the Gram matrix (L'V)'(L'V) with L the knot-correlation
    Cholesky factor, which keeps it positive semidefinite even when the
    correlation matrix is nearly singular.
    """
    W = basis.R_A_factor.factor.T @ basis.V
    Sigma = W.T @ W
    return 0.5 * (Sigma + Sigma.T)


# ---------------------------------------------------------------------------
# the lambda policy and the GCV engine
# ---------------------------------------------------------------------------


def _lambda_plan(lambda_policy, grid, n, m=None):
    """The one reading of a lambda policy for a fit of m knot values to n
    points (m defaults to n): (lam, None) fixes lambda, (None, grid) asks
    GCV to search the grid.

    * a number is lambda itself, and "none" is lambda = 0;
    * "gcv" searches ``grid`` (the default grid when None); a one-point
      grid fixes lambda to its point without evaluating the criterion;
    * "auto" is lambda = 0 when at most n/5 knot values are estimated and
      "gcv" otherwise, so it is "gcv" for every fit with n knot values;
    * any other string raises ``ValueError``, and so does a negative or
      non-finite lambda or grid entry.
    """
    if not isinstance(lambda_policy, str):
        lam = float(lambda_policy)
        if not 0.0 <= lam < math.inf:
            raise ValueError(f"lambda must be nonnegative and finite, not {lam!r}")
        return lam, None
    if lambda_policy == "auto":
        lambda_policy = "none" if (n if m is None else m) <= n / 5 else "gcv"
    if lambda_policy == "none":
        return 0.0, None
    if lambda_policy != "gcv":
        raise ValueError(
            f"unknown lambda policy {lambda_policy!r}; use gcv, auto, none or a number"
        )
    # a copy: the fit keeps the grid in its diagnostics
    grid = np.array(DEFAULT_LAMBDA_GRID if grid is None else grid, dtype=float, ndmin=1)
    if grid.size == 0:
        raise ValueError("lambda grid must be nonempty")
    bad = grid[~((grid >= 0.0) & (grid < math.inf))]
    if bad.size:
        entry = float(bad[0])
        raise ValueError(f"lambda grid entries must be nonnegative and finite, not {entry!r}")
    if grid.size == 1:
        return float(grid[0]), None
    return None, grid


def _gcv_curve(n, rss, dof) -> np.ndarray:
    """GCV = rss / (n (1 - tr/n)^2) over arrays of residual sums of squares
    and residual degrees of freedom dof = n - tr; +inf where the smoother
    saturates or its residual and trace are undefined (NaN)."""
    dof = np.asarray(dof, dtype=float)
    ratio = 1.0 - dof / n
    with np.errstate(divide="ignore", invalid="ignore"):
        curve = np.asarray(rss, dtype=float) / (n * (dof / n) ** 2)
    return np.where(ratio < 1.0 - 1e-12, curve, math.inf)


def _gcv_select(grid, curve):
    """The plateau rule: (lam, GCV at lam) for the largest lambda on the
    minimum plateau of the curve."""
    finite = np.isfinite(curve)
    if not np.any(finite):
        raise SingularSystem("GCV is undefined on the whole grid")
    gmin = np.min(curve[finite])
    ok = np.nonzero(finite & (curve <= gmin + abs(gmin) * _GCV_PLATEAU_RTOL))[0]
    idx = ok[np.argmax(grid[ok])]
    return float(grid[idx]), float(curve[idx])


def _tune(plan, n, rss_and_dof):
    """Every fit's lambda from its :func:`_lambda_plan` and the diagnostics
    of its search: empty ones when the plan fixes lambda, else the GCV pick
    with its GCV and ``gcv_curve`` = (grid, curve), the curve made from
    ``rss_and_dof(grid) -> (rss, n - tr)``."""
    lam, grid = plan
    if grid is None:
        return lam, FitDiagnostics()
    curve = _gcv_curve(n, *rss_and_dof(grid))
    lam, gval = _gcv_select(grid, curve)
    return lam, FitDiagnostics(gcv=gval, gcv_curve=(grid, curve))


def gcv(B, y, lam, Sigma):
    """The trace-corrected residual criterion; +inf when the smoother saturates.

    ``lam`` may be a number or an array; the result has the same shape.
    """
    spectrum = demmler_reinsch(B, Sigma, y)[0]
    curve = _gcv_curve(spectrum.n, *spectrum.rss_and_dof(lam))
    return curve if np.ndim(lam) else float(curve[0])


def select_lambda(B, y, Sigma, grid):
    """argmin of GCV over a grid, ties resolved toward the larger lambda.

    Returns the chosen lambda and the full curve for reporting.  A
    singleton grid is taken as-is without evaluating the criterion.
    """
    lam, grid = _lambda_plan("gcv", grid, len(y))
    if grid is None:
        return lam, np.array([math.nan])
    curve = gcv(B, y, grid, Sigma)
    return _gcv_select(grid, curve)[0], curve


# ---------------------------------------------------------------------------
# kriging-type fits with A = X (shared by GPRR at full knots and by GPR)
# ---------------------------------------------------------------------------


def _kriging_spectrum(R, G, y):
    """Spectrum of the full-knot kriging smoother and its coefficients.

    The smoother is H = I - n*lam*P, with P the inverse of K = R + n*lam*I
    restricted to the orthogonal complement of the trend columns G.  With
    a thin QR of G, the trend directions of the projected R are given the
    eigenvalue 1 + trace(R), above all others, which keeps them apart from
    the near-null directions of R; the complement's eigenvalues d are then
    the first n - q eigenvalues of the projected matrix Rp.  With no trend
    Rp is R.

    The eigenvectors V of Rp are never formed: GCV needs only d and
    z = V'y, and the coefficients only V times one vector.  Householder
    tridiagonalization (LAPACK ``dsytrd``) gives Rp = Q T Q', with Q the
    product of n - 1 reflectors; divide and conquer on T (``stevd``) gives
    T = S diag(evals) S'.  So V = Q S, and z = S'(Q'y) and V u = Q(S u)
    each apply the reflectors to one vector (``dormqr``) in O(n^2), where
    forming V would cost about 2n^3.  The MRRR kernel of ``eigh``
    (``stemr``) puts less error on the eigenvalues near n*lam, which shows
    in GCV at the grid's low end, but took twice as long at n = 200.

    Returns the spectrum and ``coefficients(lam) -> (beta, c, gamma)``:
    the prediction is g(x)'beta + r_X(x)'c and gamma are the fitted values.
    """
    from scipy.linalg import eigh_tridiagonal, lapack, solve_triangular  # deferred: ~0.3 s, ~26 MiB to import scipy.linalg

    n, q = G.shape
    Rp = R
    if q:
        Q1, Rg = np.linalg.qr(G)
        RQ = R @ Q1
        shift = (1.0 + np.trace(R)) * np.eye(q)
        Rp = R - RQ @ Q1.T - Q1 @ RQ.T + Q1 @ (Q1.T @ RQ + shift) @ Q1.T
    lwork = int(lapack.dsytrd_lwork(n, lower=1)[0])
    packed, diag, offdiag, tau, _ = lapack.dsytrd(Rp, lower=1, lwork=lwork)
    evals, S = eigh_tridiagonal(diag, offdiag, lapack_driver="stevd")
    d = np.clip(evals[: n - q], 0.0, None)
    S = S[:, : n - q]
    # Q = diag(1, Q'') with the reflectors of Q'' stored below the diagonal
    # of the trailing block, as in the QR factor of that block
    reflectors = np.asfortranarray(packed[1:, : n - 1])

    def apply_q(v, trans):
        out = v.copy()
        if n > 1:
            # lwork 1 selects the unblocked kernel: on one column it took a
            # third of the blocked kernel's time
            out[1:] = lapack.dormqr("L", trans, reflectors, tau, v[1:, None], 1)[0][:, 0]
        return out

    z = S.T @ apply_q(y, "T")

    def coefficients(lam):
        nl = n * lam
        c = apply_q(S @ (z / (d + nl)), "N")
        gamma = y - nl * c
        # y - K c lies in the column space of G: it is G beta
        beta = solve_triangular(Rg, Q1.T @ (gamma - R @ c)) if q else np.zeros(0)
        return beta, c, gamma

    return SmootherSpectrum(n=n, d=d, z=z), coefficients


def _kriging_full_model(X, y, spec, g_kind, lambda_policy, grid, method) -> FittedModel:
    """GLS trend + kernel smoother on all n points; lambda fixed or by GCV.

    The prediction is g(x)'beta + r_X(x)'c and the knot values are the
    fitted values.  A fixed lambda takes one Cholesky factor and its GLS
    solve, which also covers lambda = 0 interpolation; a GCV search takes
    the spectrum.  Kernel ridge ("krr") is stored as a trend-free kernel
    interpolant.
    """
    n = X.shape[0]
    G = regression_matrix(g_kind, X)
    if 0 < n <= G.shape[1]:
        raise RankDeficientRegression(
            f"need more knots ({n}) than regression functions ({G.shape[1]})"
        )
    R = kernel_matrix(spec, X, X)
    lam, grid = _lambda_plan(lambda_policy, grid, n)
    tuned, jitter = FitDiagnostics(), 0.0
    if grid is None:
        fac = spd_factor(R if lam == 0.0 else R + n * lam * np.eye(n))
        beta, c = fac.gls(G, y)
        gamma, jitter = y - n * lam * c, fac.jitter_applied
    else:
        spectrum, coefficients = _kriging_spectrum(R, G, y)
        lam, tuned = _tune((lam, grid), n, spectrum.rss_and_dof)
        beta, c, gamma = coefficients(lam)
    krr = method == "krr"
    return FittedModel(
        interpolator="kernel" if krr else "gp",
        knots=KnotSet(X),
        gamma_hat=gamma,
        lam=lam,
        kernel=spec,
        g_kind=g_kind,
        beta=None if krr else beta,
        w=c,
        method=method,
        diagnostics=replace(tuned, jitter=jitter),
    )


# ---------------------------------------------------------------------------
# the reconstruction fits
# ---------------------------------------------------------------------------


def _basis_model(basis: GPBasis, gamma, lam, tuned=FitDiagnostics(), jitter=0.0,
                 iterations=0) -> FittedModel:
    """The gprr model with knot values gamma on a kriging basis and the
    diagnostics ``tuned`` of its lambda search; the jitter reported is the
    larger of ``jitter`` and the basis's own."""
    return FittedModel(
        interpolator="gp",
        knots=basis.knots,
        gamma_hat=gamma,
        lam=lam,
        kernel=basis.spec,
        g_kind=basis.g_kind,
        beta=basis.U.T @ gamma,
        w=basis.V @ gamma,
        method="gprr",
        diagnostics=replace(tuned, jitter=max(jitter, basis.R_A_factor.jitter_applied),
                            iterations=iterations),
    )


def _subset_spectrum(X, y, knots: KnotSet, spec, g_kind):
    """The kriging basis on the knots and the Demmler-Reinsch spectrum of
    its ridge smoother (see :func:`~reconstruct.numerics.demmler_reinsch`)."""
    basis = gp_basis_build(knots, spec, g_kind)
    return (basis, *demmler_reinsch(design_matrix(basis, X), roughness_penalty(basis), y))


def fit_gprr(
    X,
    y,
    A=None,
    spec: Optional[KernelSpec] = None,
    g_kind: str = "constant+linear",
    lambda_policy="auto",
    grid=None,
) -> FittedModel:
    """Reconstruction regression with the kriging interpolator.

    With ``A`` equal to (or omitted for) the full design, the estimator
    collapses to a kernel smoother on the training points and is computed
    in that stable form.  With fewer knots the ridge smoother is built from
    the design matrix of the interpolation basis and the roughness penalty
    induced by its kernel part, and the knot values at the chosen lambda
    come from the same spectrum GCV searched.  ``lambda_policy`` is read by
    :func:`_lambda_plan`.
    """
    X, y = _as_xy(X, y)
    n, d = X.shape
    if spec is None:
        spec = default_gaussian(d)
    knots = KnotSet(X) if A is None else as_knots(A)
    if knots.m == n and np.array_equal(knots.points, X):
        return _kriging_full_model(X, y, spec, g_kind, lambda_policy, grid, "gprr")
    basis, spectrum, coefficients, jitter = _subset_spectrum(X, y, knots, spec, g_kind)
    lam, tuned = _tune(_lambda_plan(lambda_policy, grid, n, knots.m), n, spectrum.rss_and_dof)
    return _basis_model(basis, coefficients(lam), lam, tuned, jitter=jitter)


def fit_krr(X, y, spec: Optional[KernelSpec] = None, lambda_policy="gcv", grid=None) -> FittedModel:
    """Kernel ridge regression, stored in reconstruction form.

    The knot values are the fitted values at the training points and the
    stored kernel coefficients reproduce y'(R_X + n*lam*I)^{-1} r_X(x).
    """
    X, y = _as_xy(X, y)
    if spec is None:
        spec = default_gaussian(X.shape[1])
    return _kriging_full_model(X, y, spec, "none", lambda_policy, grid, "krr")


# ---------------------------------------------------------------------------
# finite-difference penalization on the equispaced 1-D grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FdpFit:
    """Second-difference ridge fit on an equispaced grid plus its spline."""

    gamma_hat: np.ndarray
    lam: float
    grid_x: np.ndarray
    spline: SplineCoefficients
    diagnostics: FitDiagnostics = field(default_factory=FitDiagnostics)

    def predict(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        _require_finite_queries(x)
        return np.asarray(spline_eval(self.spline, x))


def _fdp_rss_and_dof(y, lam):
    rss, tr = fdp_residual_and_trace(y, lam)
    return rss, y.shape[0] - tr


def fdp_gcv(y, lam):
    """GCV of the second-difference ridge at one lambda or an array of them."""
    y = np.asarray(y, dtype=float).ravel()
    _require_finite("y", y)
    curve = _gcv_curve(y.shape[0], *_fdp_rss_and_dof(y, lam))
    return curve if np.ndim(lam) else float(curve[0])


def fit_fdp(y, lambda_policy="gcv", grid=None) -> FdpFit:
    """Ridge on second differences of the fitted values, solved in O(n).

    The full curve is rebuilt by a natural cubic spline through the
    estimated grid values.
    """
    y = np.asarray(y, dtype=float).ravel()
    n = y.shape[0]
    if n < 3:
        raise DimensionMismatch("the finite-difference fit needs at least 3 points")
    _require_finite("y", y)
    lam, tuned = _tune(_lambda_plan(lambda_policy, grid, n), n, lambda g: _fdp_rss_and_dof(y, g))
    gamma = banded_spd_solve(fdp_system(n, lam), y)
    x = np.linspace(0.0, 1.0, n)
    return FdpFit(
        gamma_hat=gamma,
        lam=lam,
        grid_x=x,
        spline=fit_natural_spline(x, gamma),
        diagnostics=tuned,
    )


# ---------------------------------------------------------------------------
# replication designs
# ---------------------------------------------------------------------------


def fit_replication(design: ReplicationDesign, y, interpolator_kind: str) -> FittedModel:
    """Per-knot response means, reconstructed by the requested interpolator."""
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] != design.n:
        raise LengthMismatch(
            f"y has {y.shape[0]} entries, design expects {design.n}"
        )
    if interpolator_kind not in ("lagrange", "spline"):
        raise ValueError("replication reconstruction is lagrange or spline")
    gamma = y.reshape(design.m, design.replications).mean(axis=1)
    return FittedModel(
        interpolator=interpolator_kind,
        knots=as_knots(design.knots),
        gamma_hat=gamma,
        lam=0.0,
        method="replication",
    )


# ---------------------------------------------------------------------------
# kernel-rate estimation: one search on the variable-projection objective
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelParamsFit:
    """Estimated rates and knot values, with how the search ended.

    ``objective_trace`` holds f(theta0), then f at each accepted iterate,
    and never increases; ``theta``, ``gamma_hat`` and ``model`` belong to
    its last entry.  ``converged`` is false only when ``max_iter`` stopped
    the search; ``evaluations`` counts objective-and-gradient evaluations.
    """

    theta: np.ndarray
    gamma_hat: np.ndarray
    objective_trace: list[float]
    model: FittedModel
    converged: bool = False
    evaluations: int = 0


class _RateSearch:
    """f(theta) = min_gamma ||y - B(theta) gamma||^2 / n and its gradient.

    B(theta) is the kriging basis on the knots, rows b(x)' = g(x)'U' +
    r_A(x)'V, with the correlations K = R_XA and R_A from
    :func:`~reconstruct.kernels.kernel_matrix`.
    """

    def __init__(self, X, y, knots: KnotSet, g_kind: str):
        self.X, self.y, self.A = X, y, knots.points
        self.n, self.d = X.shape
        self.m = knots.m
        # the squared knot lags (a_il - a_kl)**2, l = 1..d, for the gradient
        self.DA = np.square(self.A.T[:, :, None] - self.A.T[:, None, :])
        self.GX, self.GA = regression_matrix(g_kind, X), regression_matrix(g_kind, self.A)
        self.theta = None

    def gamma_step(self, theta):
        """f(theta) and gamma_hat(theta) by one exact least-squares solve;
        the arrays they come from stay for :meth:`gradient`."""
        from scipy.linalg.blas import dgemm  # deferred: ~0.3 s, ~26 MiB to import scipy.linalg

        theta = np.array(theta, dtype=float)
        spec = gaussian_kernel(theta)
        # dropped first, so that the last step's K and the new one are never both held
        self._RX = None
        RA = kernel_matrix(spec, self.A, self.A)
        fac = spd_factor(RA)
        Ut, V = fac.gls(self.GA, np.eye(self.m))
        K = kernel_matrix(spec, self.X, self.A)
        # B = K V + G_X U', with G_X U' added in place (BLAS beta = 1 on the
        # Fortran-ordered B') rather than through an n x m temporary
        B = dgemm(1.0, Ut.T, self.GX.T, beta=1.0, c=(K @ V).T, overwrite_c=True).T
        facB = _normal_factor(B.T @ B)
        gamma = facB.solve(B.T @ self.y)
        r = self.y - B @ gamma
        self.theta, self.gamma, self.f = theta, gamma, float(r @ r) / self.n
        self._fac, self._RA, self._RX, self._r, self._w = fac, RA, K, r, V @ gamma
        return self.f, gamma

    def gradient(self) -> np.ndarray:
        """df/dlog10(theta_j), j = 1..d, at the last gamma-step.

        gamma_hat minimizes the residual, so the gradient of f is the slope
        with gamma held fixed (Kaufman 1975).  With gamma fixed the kriging
        coefficients solve [R_A G_A; G_A' 0][w; u] = [gamma; 0] and
        dR/dtheta_j = -D_j o R, D_j the squared lags in coordinate j, so
        (w_j', u_j') is one GLS solve on the same factor with the d
        right-hand sides (D_A,j o R_A) w, and the residual
        r = y - G_X u - K w moves by r_j' = (D_X,j o K) w - K w_j' - G_X u_j'.
        Expanding the square (x_ij - a_kj)**2 gives

            r'(D_X,j o K) w = sum_i x_ij**2 r_i (K w)_i
                              - 2 sum_i x_ij r_i (K (w o a_j))_i
                              + sum_k a_kj**2 w_k (K'r)_k,

        one product of K with the m x (d + 1) matrix [w, w o A] besides K'r.
        """
        X, A, K, r, w = self.X, self.A, self._RX, self._r, self._w
        du, dw = self._fac.gls(self.GA, ((self.DA * self._RA) @ w).T)
        KW = K @ np.column_stack([w, w[:, None] * A])
        Kr = K.T @ r
        rdr = (X * (X * KW[:, :1] - 2.0 * KW[:, 1:])).T @ r + (A * A).T @ (w * Kr)
        rdr -= Kr @ dw + (self.GX.T @ r) @ du
        return 2.0 * rdr / self.n * self.theta * math.log(10.0)


def estimate_kernel_params(
    X,
    y,
    A,
    g_kind: str = "constant+linear",
    theta0=None,
    max_iter: int = 10,
    tol: float = 1e-3,
) -> KernelParamsFit:
    """Estimate per-coordinate Gaussian rates by least squares.

    The knot values enter linearly, so the rates minimize the
    variable-projection objective f(theta) = min_gamma ||y - B(theta) gamma||^2
    / n (Golub & Pereyra 1973).  One bounded L-BFGS-B search (scipy's
    ``minimize``, default tolerances; Byrd, Lu, Nocedal & Zhu 1995) runs
    over the log10 rates in [-2, 3]^d from theta0 clipped into the box, for
    at most ``max_iter`` iterations; each evaluation is one exact
    least-squares solve for gamma and the exact gradient in all d rates.
    The search sees f divided by f(theta0), or by eps * mean(y**2) if that
    is larger, so it does not depend on the units of ``y``.  It also stops
    when an accepted iterate lowers f by less than ``tol`` times the
    previous value.  An iterate is accepted when f there is at most the
    trace's last entry, so a theta0 outside the box is returned unchanged
    unless the search from its clipped start gets below f(theta0).
    """
    X, y = _as_xy(X, y)
    knots = as_knots(A)
    if theta0 is None:
        theta0 = np.full(X.shape[1], DEFAULT_GAUSSIAN_RATE)
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    if theta0.shape[0] != X.shape[1]:
        raise DimensionMismatch("theta0 must have one rate per coordinate")
    if not np.all(np.isfinite(theta0) & (theta0 > 0)):
        raise ValueError("theta0 must hold positive, finite rates")
    from scipy.optimize import minimize  # deferred: ~0.4 s, ~47 MiB to import scipy.optimize

    search = _RateSearch(X, y, knots, g_kind)
    f0, gamma = search.gamma_step(theta0)
    # the trace, and the rates and knot values of its last entry
    trace, kept = [f0], [theta0, gamma]
    # the stopping tests of L-BFGS-B are absolute below 1; the floor keeps
    # the rounding-level f of a start that already reproduces y from
    # driving a search
    scale = max(f0, np.finfo(float).eps * float(y @ y) / y.shape[0]) or 1.0
    start = np.clip(theta0, 1e-2, 1e3)
    x0 = np.log10(start)

    def at(x):
        # a coordinate still at its start keeps its exact rate, so the
        # first evaluation repeats no gamma-step
        theta = np.where(x == x0, start, 10.0**x)
        if not np.array_equal(theta, search.theta):
            search.gamma_step(theta)

    def objective(x):
        at(x)
        return search.f / scale, search.gradient() / scale

    def accept(x):
        at(x)
        if search.f <= trace[-1]:
            trace.append(search.f)
            kept[:] = search.theta, search.gamma
            return True
        return False

    stopped = False

    def callback(intermediate_result):
        nonlocal stopped
        if accept(intermediate_result.x) and trace[-2] - trace[-1] < tol * max(trace[-2], 1e-300):
            stopped = True
            raise StopIteration

    if not np.array_equal(start, theta0):
        accept(x0)
    converged, evaluations = False, 0
    if max_iter > 0:
        res = minimize(objective, x0, jac=True, method="L-BFGS-B", callback=callback,
                       bounds=[(-2.0, 3.0)] * search.d, options={"maxiter": max_iter})
        converged, evaluations = stopped or res.status != 1, res.nfev
    theta, gamma = kept
    spec = gaussian_kernel(theta)
    return KernelParamsFit(
        theta=theta.copy(),
        gamma_hat=gamma,
        objective_trace=[float(v) for v in trace],
        model=_basis_model(gp_basis_build(knots, spec, g_kind), gamma, 0.0,
                           iterations=len(trace) - 1),
        converged=converged,
        evaluations=evaluations,
    )
