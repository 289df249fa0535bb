"""Reference computations for the benchmark's correctness checks.

Nothing here imports the reconstruct package.  Each function restates a
formula from its published definition, so a check compares the program
against an implementation made apart from it.
"""

from __future__ import annotations

import math

import numpy as np

# Borehole input ranges of Morris, Mitchell & Ylvisaker (1993), in the
# order r_w, r, T_u, H_u, T_l, H_l, L, K_w.
_BOREHOLE_LO = np.array([0.05, 100.0, 63070.0, 990.0, 63.1, 700.0, 1120.0, 1500.0])
_BOREHOLE_HI = np.array([0.15, 50000.0, 115600.0, 1110.0, 116.0, 820.0, 1680.0, 15000.0])


def borehole(X01):
    """Water flow through a borehole, inputs scaled to the unit cube."""
    rw, r, Tu, Hu, Tl, Hl, L, Kw = (_BOREHOLE_LO + X01 * (_BOREHOLE_HI - _BOREHOLE_LO)).T
    log_ratio = np.log(r / rw)
    denom = log_ratio * (1.0 + 2.0 * L * Tu / (log_ratio * rw**2 * Kw) + Tu / Tl)
    return 2.0 * math.pi * Tu * (Hu - Hl) / denom


def weighted_sphere(X):
    """Function I: sum_j j * x_j^2."""
    return (X**2) @ np.arange(1, X.shape[1] + 1)


def ackley_printed(X):
    """Function II as printed in the paper (no cosine in the second term)."""
    return (
        20.0
        + math.e
        - 20.0 * np.exp(-0.2 * np.sqrt((X**2).mean(axis=1)))
        - np.exp((2.0 * math.pi * X).mean(axis=1))
    )


def yang(X):
    """Function III: -sum(x) * exp(-sum(x^2))."""
    return -X.sum(axis=1) * np.exp(-(X**2).sum(axis=1))


def f1d(x):
    """The damped oscillation exp(-1.4 x) cos(3.5 pi x)."""
    return np.exp(-1.4 * x) * np.cos(3.5 * math.pi * x)


TARGETS = {"I": weighted_sphere, "II": ackley_printed, "III": yang}


def gaussian_gram(P, Q, theta):
    """exp(-sum_l theta_l (p_l - q_l)^2) for every pair of rows."""
    diff = P[:, None, :] - Q[None, :, :]
    return np.exp(-((diff**2) @ np.asarray(theta, dtype=float)))


def hat_matrix_gcv(R, G, y, lam):
    """GCV of the kriging smoother with trend columns G, from the explicit
    n x n hat matrix H = I - n lam P, where
    P = K^-1 - K^-1 G (G' K^-1 G)^-1 G' K^-1 and K = R + n lam I.
    With no trend columns H = R K^-1.  +inf once trace(H)/n reaches 1.
    """
    n = y.shape[0]
    Kinv = np.linalg.solve(R + n * lam * np.eye(n), np.eye(n))
    P = Kinv
    if G.shape[1]:
        KiG = Kinv @ G
        P = Kinv - KiG @ np.linalg.solve(G.T @ KiG, KiG.T)
    H = np.eye(n) - n * lam * P
    resid = y - H @ y
    ratio = np.trace(H) / n
    if ratio >= 1.0 - 1e-12:
        return math.inf
    return float(resid @ resid) / (n * (1.0 - ratio) ** 2)


def linear_trend(X):
    """Columns 1, x_1, ..., x_d."""
    return np.hstack([np.ones((X.shape[0], 1)), X])


def inverse_distance_criterion(A):
    """max over knot pairs of sum_l 1 / |a_il - a_jl|."""
    i, j = np.triu_indices(A.shape[0], k=1)
    return float(np.max(np.sum(1.0 / np.abs(A[i] - A[j]), axis=1)))


def fdp_residual(gamma, y, lam):
    """(I + n lam M'M) gamma - y with M the second-difference operator,
    applied as np.diff and its transpose as np.diff of the zero-padded
    vector."""
    n = y.shape[0]
    second = np.diff(gamma, 2)
    back = np.diff(np.concatenate([[0.0, 0.0], second, [0.0, 0.0]]), 2)
    return gamma + n * lam * back - y
