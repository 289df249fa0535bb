"""Knot placement: classical 1-D node sets, replication designs, subset
selection by the pairwise inverse-distance criterion, and sequential
knot addition by largest squared residual."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import LengthMismatch, NoCandidatesLeft, NonFiniteInput
from .interpolators import KnotSet, as_knots

# Coincident coordinates would make the criterion infinite; clamping keeps
# "avoid this subset" semantics on data with repeated feature values.
_COORD_CLAMP = 1e-12

DEFAULT_SUBSET_TRIALS = 20_000

# Subsets are drawn and bounded in blocks of at most 16 MB of coordinates
# (trials x m x d floats), like the predict blocks; the bound gathers and
# sorts one coordinate at a time, so its temporaries are a d-th of that.
_SEARCH_BLOCK_BYTES = 16_000_000


def default_knot_count(d: int) -> int:
    """The 10-per-dimension default knot budget."""
    return 10 * d


def chebyshev_knots(m: int) -> np.ndarray:
    """Chebyshev nodes mapped to (0, 1), sorted ascending."""
    if m < 1:
        raise ValueError("m must be >= 1")
    j = np.arange(1, m + 1)
    return np.sort(0.5 - np.cos((2 * j - 1) * np.pi / (2 * m)) / 2.0)


def equispaced_knots(m: int) -> np.ndarray:
    """m equally spaced points including both endpoints of [0, 1]."""
    if m < 2:
        raise ValueError("m must be >= 2")
    return np.linspace(0.0, 1.0, m)


def knot_criterion(A) -> float:
    """max over knot pairs of the coordinatewise inverse-distance sum.

    Small values indicate sets that fill space without collapsing in any
    single coordinate projection.
    """
    # arrays skip KnotSet's validation: select_knots scores thousands of subsets
    pts = np.asarray(A, dtype=float) if isinstance(A, np.ndarray) else as_knots(A).points
    if pts.ndim == 1:
        pts = pts[:, None]
    m = pts.shape[0]
    if m < 2:
        raise ValueError("criterion needs at least two knots")
    diff = np.abs(pts[:, None, :] - pts[None, :, :])
    np.clip(diff, _COORD_CLAMP, None, out=diff)
    scores = np.sum(1.0 / diff, axis=2)
    iu = np.triu_indices(m, k=1)
    return float(np.max(scores[iu]))


class KnotSelection(NamedTuple):
    knots: KnotSet
    indices: np.ndarray
    criterion: float


def select_knots(X, m: int, trials: int = DEFAULT_SUBSET_TRIALS, seed=None) -> KnotSelection:
    """Best of `trials` random m-subsets of X under the pairwise criterion.

    The subset stream is drawn sequentially from the seed, so the result is
    reproducible; the first subset with the smallest criterion wins.

    Most subsets are rejected without the O(m^2 d) criterion.  Each pair's
    score sums positive per-coordinate terms, so the criterion is at least
    max_l 1/max(g_l, clamp), with g_l the smallest gap of the subset's sorted
    coordinate-l projection.  That gap is the criterion's own |x_i - x_j| for
    one pair, and a rounded sum of non-negative terms is never below one of
    them, so the bound holds exactly in floating point: a subset whose bound
    is not below the best score cannot win, and only the others are scored.
    The bound costs one sort of the m values per coordinate, computed for a
    block of subsets at once; the per-subset draw is then most of the time.
    """
    X = np.asarray(X, dtype=float)
    # a 1-D array is n scalar candidates, as in knot_criterion and as_knots
    X = X[:, None] if X.ndim == 1 else np.atleast_2d(X)
    n, d = X.shape
    bad = np.count_nonzero(~np.isfinite(X))
    if bad:
        raise NonFiniteInput(f"X has {bad} NaN or inf entries")
    if m < 2:
        raise ValueError(f"the criterion needs at least two knots, got m={m}")
    if m > n:
        raise ValueError(f"cannot select {m} knots from {n} candidates")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    columns = np.ascontiguousarray(X.T)
    block = max(1, _SEARCH_BLOCK_BYTES // (8 * m * d))
    best_idx = None
    best_score = np.inf
    for start in range(0, trials, block):
        idx = np.empty((min(block, trials - start), m), dtype=np.int64)
        for t in range(idx.shape[0]):
            idx[t] = rng.choice(n, size=m, replace=False)
        idx.sort(axis=1)
        gaps = np.empty((idx.shape[0], d))
        for l in range(d):
            proj = columns[l][idx]
            proj.sort(axis=1)
            gaps[:, l] = np.diff(proj, axis=1).min(axis=1)
        bound = np.max(1.0 / np.maximum(gaps, _COORD_CLAMP), axis=1)
        for t in np.flatnonzero(bound < best_score):
            if bound[t] < best_score:
                score = knot_criterion(X[idx[t]])
                if score < best_score:
                    best_score = score
                    best_idx = idx[t].copy()
    return KnotSelection(knots=KnotSet(X[best_idx]), indices=best_idx,
                         criterion=best_score)


def next_knot(X, A, y, model=None, predictions=None, exclude_indices=None) -> int:
    """Index into X of the unused candidate with the largest squared residual.

    Either a fitted model or precomputed predictions at the rows of X must
    be supplied.  Membership in A is decided by exact row equality unless
    explicit indices are given; ties go to the lowest index.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if predictions is None:
        if model is None:
            raise ValueError("supply either a model or precomputed predictions")
        from .estimators import predict  # deferred: estimators imports designs

        predictions = predict(model, X)
    predictions = np.asarray(predictions, dtype=float).ravel()
    if predictions.shape[0] != X.shape[0] or y.shape[0] != X.shape[0]:
        raise LengthMismatch("X, y and predictions must have matching lengths")
    used = np.zeros(X.shape[0], dtype=bool)
    if exclude_indices is not None:
        used[np.asarray(exclude_indices, dtype=int)] = True
    else:
        pts = as_knots(A).points
        for row in pts:
            used |= np.all(X == row, axis=1)
    if np.all(used):
        raise NoCandidatesLeft("every candidate already belongs to the knot set")
    sq = (y - predictions) ** 2
    sq[used] = -np.inf
    return int(np.argmax(sq))


@dataclass(frozen=True)
class ReplicationDesign:
    """l repeated observations at each of m ordered 1-D knots."""

    knots: np.ndarray
    replications: int

    def __post_init__(self):
        kn = np.asarray(self.knots, dtype=float).ravel()
        object.__setattr__(self, "knots", kn)
        if self.replications < 1:
            raise ValueError("replications must be >= 1")

    @property
    def m(self) -> int:
        return self.knots.shape[0]

    @property
    def n(self) -> int:
        return self.m * self.replications

    def design_points(self) -> np.ndarray:
        """The n design locations, grouped by knot."""
        return np.repeat(self.knots, self.replications)


def replication_design(knots, l: int) -> ReplicationDesign:
    """Assign l replications to each knot."""
    return ReplicationDesign(knots=np.asarray(knots, dtype=float), replications=l)
