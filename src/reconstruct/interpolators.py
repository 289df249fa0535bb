"""The interpolators that reconstruction estimators plug in.

Four families: barycentric Lagrange polynomials, cubic splines, the
plain kernel interpolator, and the kriging-style interpolator with
regression terms.  All are linear in the knot values, so each exposes
an evaluation that is exact at the knots.

A cubic spline on m knots costs O(m) to fit.  Evaluating it costs O(1)
per query on evenly spaced knots, where the interval a query falls in is
guessed from its position and the guess checked against two knots; a query
whose guess fails (uneven knots, points outside the knot range, NaN) takes
an O(log m) binary search.  Queries go through in cache-sized blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateKnots,
    RankDeficientRegression,
    SingularSystem,
    UnsortedKnots,
)
from .kernels import CACHE_BLOCK_FLOATS, KernelSpec, kernel_matrix, kernel_matvec
from .numerics import SpdFactorization, spd_factor

G_KINDS = ("none", "constant", "constant+linear")


@dataclass(frozen=True)
class KnotSet:
    """m distinct points in the unit hypercube carrying the model parameters."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.size == 0:
            raise DimensionMismatch("knots must form a nonempty (m, d) array")
        if not (np.min(pts) >= -1e-9 and np.max(pts) <= 1.0 + 1e-9):  # NaN fails too
            raise ValueError("knot coordinates must lie in [0, 1]")
        # repeated rows are adjacent once the rows are sorted lexicographically
        srt = pts[np.lexsort(pts.T)]
        if np.any(np.all(srt[1:] == srt[:-1], axis=1)):
            raise DuplicateKnots("knot rows must be pairwise distinct")
        object.__setattr__(self, "points", pts)

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


def as_knots(points) -> KnotSet:
    """Coerce an array (1-D allowed) or KnotSet to a KnotSet."""
    if isinstance(points, KnotSet):
        return points
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    return KnotSet(pts)


def regression_matrix(g_kind: str, X: np.ndarray) -> np.ndarray:
    """Evaluate the regression functions g at each row of X: (n, q)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    if g_kind == "none":
        return np.zeros((n, 0))
    if g_kind == "constant":
        return np.ones((n, 1))
    if g_kind == "constant+linear":
        return np.hstack([np.ones((n, 1)), X])
    raise ValueError(f"unknown g_kind {g_kind!r}; choose from {G_KINDS}")


# ---------------------------------------------------------------------------
# barycentric Lagrange
# ---------------------------------------------------------------------------


def lagrange_eval(knots, gamma, x):
    """Polynomial through (knots, gamma), second barycentric form.

    scipy's ``BarycentricInterpolator`` evaluates it; exact hits on a knot
    return the stored value.  Repeated knots raise instead of giving inf or
    NaN.  Its weights multiply the knot distances in a random order; a fixed
    generator keeps the result reproducible and the global ``np.random``
    stream untouched.
    """
    from scipy.interpolate import BarycentricInterpolator  # deferred: ~0.4 s, ~49 MiB to import scipy.interpolate

    knots = np.asarray(knots, dtype=float).ravel()
    gamma = np.asarray(gamma, dtype=float).ravel()
    if knots.shape[0] != gamma.shape[0]:
        raise DimensionMismatch("knots and gamma must have equal length")
    if np.unique(knots).shape[0] != knots.shape[0]:
        raise DuplicateKnots("lagrange knots must be distinct")
    with np.errstate(divide="ignore", invalid="ignore"):  # one knot: scipy scales by 1/0
        poly = BarycentricInterpolator(knots, gamma, random_state=0)
    out = poly(np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# cubic splines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplineCoefficients:
    """Piecewise cubic s(x) = a + b t + c t^2 + d t^3 on each interval, t = x - knot."""

    knots: np.ndarray
    coeffs: np.ndarray  # (m - 1, 4) rows of (a, b, c, d)
    boundary: str


def _second_derivatives(knots, gamma, boundary):
    m = knots.shape[0]
    h = np.diff(knots)
    if m == 2:
        return np.zeros(2)
    if boundary == "natural":
        rhs = (gamma[2:] - gamma[1:-1]) / h[1:] - (gamma[1:-1] - gamma[:-2]) / h[:-1]
        # tridiagonal SPD system on the interior second derivatives
        if m == 3:
            interior = rhs / ((h[0] + h[1]) / 3.0)
        else:
            from scipy.linalg import solveh_banded  # deferred: ~0.3 s, ~26 MiB to import scipy.linalg

            ab = np.zeros((2, m - 2))
            ab[1, :] = (h[:-1] + h[1:]) / 3.0
            ab[0, 1:] = h[1:-1] / 6.0
            interior = solveh_banded(ab, rhs)
        return np.concatenate([[0.0], interior, [0.0]])
    if boundary == "not-a-knot":
        from scipy.interpolate import CubicSpline  # deferred: ~0.4 s, ~49 MiB to import scipy.interpolate

        return CubicSpline(knots, gamma, bc_type="not-a-knot")(knots, 2)
    raise ValueError(f"unknown boundary {boundary!r}")


def fit_cubic_spline(knots, gamma, boundary: str = "natural") -> SplineCoefficients:
    """Interpolating cubic spline through (knots, gamma), O(m) construction."""
    knots = np.asarray(knots, dtype=float).ravel()
    gamma = np.asarray(gamma, dtype=float).ravel()
    if knots.shape[0] != gamma.shape[0]:
        raise DimensionMismatch("knots and gamma must have equal length")
    if knots.shape[0] < 2:
        raise DimensionMismatch("a spline needs at least two knots")
    d = np.diff(knots)
    if np.any(d == 0.0):
        raise DuplicateKnots("spline knots must be distinct")
    if np.any(d < 0.0):
        raise UnsortedKnots("spline knots must be strictly increasing")
    M = _second_derivatives(knots, gamma, boundary)
    h = d
    a = gamma[:-1]
    b = (gamma[1:] - gamma[:-1]) / h - h * (2.0 * M[:-1] + M[1:]) / 6.0
    c = M[:-1] / 2.0
    e = (M[1:] - M[:-1]) / (6.0 * h)
    return SplineCoefficients(
        knots=knots, coeffs=np.column_stack([a, b, c, e]), boundary=boundary
    )


def fit_natural_spline(knots, gamma) -> SplineCoefficients:
    """Natural cubic spline (zero second derivative at both ends)."""
    return fit_cubic_spline(knots, gamma, boundary="natural")


def spline_eval(coeffs: SplineCoefficients, x):
    """Evaluate a fitted spline; ends extrapolate with the boundary cubic.

    The queries go through in blocks of ``CACHE_BLOCK_FLOATS``.  Each
    query's interval is guessed as if the knots were evenly spaced, and the
    guess is checked against the knots (de Boor's INTERV: guess, then
    check), so a query costs O(1) on evenly spaced knots.  Only the queries
    whose guess fails take a binary search: on uneven knots, outside the
    knot range, and NaN.  Every output is bitwise equal to the whole-array
    formula ``a + t * (b + t * (c + t * e))`` at the interval
    ``searchsorted`` picks.
    """
    knots = np.asarray(coeffs.knots, dtype=float)
    table = np.ascontiguousarray(coeffs.coeffs, dtype=float)
    xs = np.asarray(x, dtype=float)
    flat = xs.ravel()
    n, last = flat.shape[0], knots.shape[0] - 2
    out = np.empty(n)
    block = max(1, min(n, CACHE_BLOCK_FLOATS))
    # Python floats: a span that overflows gives inf and a scale of 0
    scale = (last + 1) / (float(knots[-1]) - float(knots[0]))
    g, t = np.empty((2, block))
    rows = np.empty((block, 4))
    idx = np.empty(block, dtype=np.intp)
    ok, below = np.empty((2, block), dtype=bool)
    for s in range(0, n, block):
        xb, ob = flat[s : s + block], out[s : s + block]
        k = xb.shape[0]
        gb, tb, rb, ib, okb, bb = g[:k], t[:k], rows[:k], idx[:k], ok[:k], below[:k]
        # guess floor((x - t_0) / h), clipped to [0, m - 2]; fmax turns NaN
        # into 0, so no NaN is cast to an index
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(xb, knots[0], out=gb)
            np.multiply(gb, scale, out=gb)
        np.fmax(gb, 0.0, out=gb)
        np.fmin(gb, last, out=gb)
        np.copyto(ib, gb, casting="unsafe")
        # keep the guesses with t_i <= x < t_(i+1); NaN fails both tests
        np.take(knots, ib, out=tb, mode="clip")
        np.less_equal(tb, xb, out=okb)
        np.take(knots[1:], ib, out=gb, mode="clip")
        np.less(xb, gb, out=bb)
        okb &= bb
        if not okb.all():
            miss = np.flatnonzero(~okb)
            ib[miss] = np.clip(np.searchsorted(knots, xb[miss], side="right") - 1, 0, last)
            tb[miss] = knots[ib[miss]]
        # Horner in place, every product and sum with its operands in the
        # order of the whole-array formula
        np.subtract(xb, tb, out=tb)
        np.take(table, ib, axis=0, out=rb, mode="clip")
        np.multiply(tb, rb[:, 3], out=ob)
        for j in (2, 1, 0):
            np.add(rb[:, j], ob, out=ob)
            if j:
                np.multiply(tb, ob, out=ob)
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


# ---------------------------------------------------------------------------
# kernel and kriging interpolators
# ---------------------------------------------------------------------------


def kernel_interp_eval(A, gamma, spec: KernelSpec, x):
    """Minimum-norm kernel interpolant gamma' R_A^{-1} r_A(x): the kriging
    interpolant :func:`gp_interp_eval` on the trendless basis of ``A``."""
    vals = gp_interp_eval(gp_basis_build(A, spec, "none"), gamma, x)
    return float(vals[0]) if np.ndim(x) == 1 else vals


@dataclass(frozen=True)
class GPBasis:
    """The kriging interpolator on a knot set.  The interpolant of knot values
    gamma is g(x)'beta + r_A(x)'w, (beta, w) one GLS solve of gamma on R_A's
    factor (:func:`gp_interp_eval`).  U and V, the basis
    b(x) = U g(x) + V r_A(x), only assemble a fit's design matrix B and its
    penalty factor W = L_A'V."""

    knots: KnotSet
    spec: KernelSpec
    g_kind: str
    U: np.ndarray  # (m, q)
    V: np.ndarray  # (m, m), symmetric, V G_A = 0
    R_A: np.ndarray  # (m, m) knot correlations
    R_A_factor: SpdFactorization
    G_A: np.ndarray  # (m, q)


def gp_basis_build(A, spec: KernelSpec, g_kind: str = "constant+linear") -> GPBasis:
    """Build U, V, the knot correlations R_A and their factorization for a knot set."""
    A = as_knots(A)
    G = regression_matrix(g_kind, A.points)
    q = G.shape[1]
    if A.m <= q:
        raise RankDeficientRegression(
            f"need more knots ({A.m}) than regression functions ({q})"
        )
    R_A = kernel_matrix(spec, A.points, A.points)
    fac = spd_factor(R_A)
    try:
        Ut, V = fac.gls(G, np.eye(A.m))
    except SingularSystem as exc:
        raise RankDeficientRegression(str(exc)) from exc
    # (L'U)'(L'U) = (G'R^{-1}G)^{-1} for R = LL', so cond(G'R^{-1}G) = cond(L'U)^2
    cond = np.linalg.cond(fac.factor.T @ Ut.T) ** 2 if q else 1.0
    if not np.isfinite(cond) or cond > 1e12:
        raise RankDeficientRegression(
            f"regression functions are numerically rank deficient (cond={cond:.2e})"
        )
    return GPBasis(A, spec, g_kind, Ut.T, 0.5 * (V + V.T), R_A, fac, G)


def _basis_rows(basis: GPBasis, G_X, R_XA) -> np.ndarray:
    """B = G_X U' + R_XA V, G_X U' added into R_XA V in place (dgemm, beta = 1)."""
    from scipy.linalg.blas import dgemm  # deferred: ~0.3 s, ~26 MiB to import scipy.linalg

    return dgemm(1.0, basis.U, G_X.T, beta=1.0, c=(R_XA @ basis.V).T, overwrite_c=True).T


def design_matrix(basis: GPBasis, X) -> np.ndarray:
    """Rows b(x_i)' for the points of X: G_X U' + R_XA V, assembled by
    :func:`_basis_rows` as in each step of the kernel-rate search.  It is the
    basis a fit solves on; no evaluation of the interpolant forms it."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != basis.knots.d:
        raise DimensionMismatch(
            f"points have {X.shape[1]} coordinates, knots have {basis.knots.d}"
        )
    return _basis_rows(basis, regression_matrix(basis.g_kind, X),
                       kernel_matrix(basis.spec, basis.knots.points, X).T)


def gp_interp_eval(basis: GPBasis, gamma, X) -> np.ndarray:
    """Kriging interpolant of knot values gamma at the rows of X, as ``predict``
    evaluates a model: r_A(x)'w + g(x)'beta, (beta, w) the GLS solve of gamma."""
    if np.size(gamma) != basis.knots.m:
        raise DimensionMismatch("gamma length must equal the number of knots")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    beta, w = basis.R_A_factor.gls(basis.G_A, np.ravel(gamma))
    out = kernel_matvec(basis.spec, X, basis.knots.points, w)
    if beta.size:
        out += regression_matrix(basis.g_kind, X) @ beta
    return out


# ---------------------------------------------------------------------------
# interpolation-error diagnostic
# ---------------------------------------------------------------------------


def interpolation_error(
    interp,
    truth,
    d: int,
    grid_size: int = 401,
    mc_points: int = 100_000,
    seed: int = 20_240,
) -> float:
    """Worst-case absolute error of an interpolant against an oracle.

    Dense tensor grids up to d = 2; beyond that the maximum over a seeded
    uniform sample, with the seed fixed so the diagnostic is reproducible.
    """
    if d <= 2:
        axes = [np.linspace(0.0, 1.0, grid_size)] * d
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.column_stack([m.ravel() for m in mesh])
    else:
        rng = np.random.default_rng(seed)
        pts = rng.random((mc_points, d))
    return float(np.max(np.abs(np.asarray(interp(pts)) - np.asarray(truth(pts)))))
