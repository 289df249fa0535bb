import mpmath
import numpy as np
import pytest


def f1d(x):
    """The oscillating 1-D benchmark target."""
    return np.exp(-1.4 * np.asarray(x)) * np.cos(3.5 * np.pi * np.asarray(x))


def random_spd(rng, n, scale=1.0):
    """A well-conditioned random SPD matrix."""
    Q = rng.normal(size=(n, n))
    return scale * (Q @ Q.T + n * np.eye(n))


def separated_points(rng, m, d, min_gap=0.04):
    """Random points in the unit cube with a minimum pairwise distance.

    Keeps kernel matrices away from the jitter ladder so interpolation
    tolerances are meaningful.  The gap shrinks automatically when the
    requested packing cannot fit.
    """
    gap = min(min_gap, 0.8 / m ** (1.0 / d))
    pts = []
    tries = 0
    while len(pts) < m:
        cand = rng.random(d)
        tries += 1
        if all(np.linalg.norm(cand - p) >= gap for p in pts):
            pts.append(cand)
            tries = 0
        elif tries > 2000:
            gap *= 0.7
            tries = 0
    return np.array(pts)


def mp_residual_and_trace(y, lam):
    """||y - A^{-1} y||^2 and trace(A^{-1}) for A = I + n*lam*M'M in 40-digit
    arithmetic, with n*lam and M'M exact: a banded LDL' factor, one solve,
    and the Takahashi recurrence for the band of A^{-1}."""
    n = len(y)
    # M'M[i, i + k] at mm[i][k], summed from the rows (1, -2, 1) of M
    mm = [[0, 0, 0] for _ in range(n)]
    for r in range(n - 2):
        for a, ca in enumerate((1, -2, 1)):
            for b, cb in enumerate((1, -2, 1)[a:]):
                mm[r + a][b] += ca * cb
    with mpmath.workdps(40):
        s = n * mpmath.mpf(float(lam))
        # A = L D L', L unit lower with L[i+1, i] = p_i and L[i+2, i] = q_i
        D, p, q = [], [], []
        for i in range(n):
            d, e = 1 + s * mm[i][0], s * mm[i][1]
            if i >= 1:
                d -= p[i - 1] ** 2 * D[i - 1]
                e -= q[i - 1] * p[i - 1] * D[i - 1]
            if i >= 2:
                d -= q[i - 2] ** 2 * D[i - 2]
            D.append(d)
            p.append(e / d)
            q.append(s * mm[i][2] / d)
        x = [mpmath.mpf(float(v)) for v in y]
        for i in range(1, n):
            x[i] -= p[i - 1] * x[i - 1] + (q[i - 2] * x[i - 2] if i >= 2 else 0)
        x = [x[i] / D[i] for i in range(n)] + [0, 0]
        for i in range(n - 1, -1, -1):
            x[i] -= p[i] * x[i + 1] + q[i] * x[i + 2]
        rss = mpmath.fsum((float(y[i]) - x[i]) ** 2 for i in range(n))
        # a, b, c = Z[i+1, i+1], Z[i+1, i+2], Z[i+2, i+2] for Z = A^{-1}
        a = b = c = tr = mpmath.mpf(0)
        for i in range(n - 1, -1, -1):
            z02 = -(p[i] * b + q[i] * c)
            z01 = -(p[i] * a + q[i] * b)
            a, b, c = 1 / D[i] - (p[i] * z01 + q[i] * z02), z01, a
            tr += a
        return float(rss), float(tr)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
