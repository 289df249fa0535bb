import numpy as np
import pytest
from scipy.linalg import cho_solve_banded, cholesky_banded

from reconstruct.numerics import fdp_system


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


def fdp_trace_reference(n, lam, block=512):
    """trace((I + n*lam*M'M)^{-1}) from banded solves of identity-column
    blocks, summed on the diagonal."""
    cb = cholesky_banded(fdp_system(n, lam).ab)
    total = 0.0
    for j0 in range(0, n, block):
        j1 = min(j0 + block, n)
        E = np.zeros((n, j1 - j0))
        E[np.arange(j0, j1), np.arange(j1 - j0)] = 1.0
        total += np.trace(cho_solve_banded((cb, False), E)[j0:j1])
    return total


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
