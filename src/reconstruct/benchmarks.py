"""Test functions, data simulation, error metrics, benchmark drivers,
and dataset ingestion.

Every driver takes an explicit seed and derives all randomness from it
through named spawn points, so a report is exactly reproducible and
independent of worker scheduling.  Wall-clock timings are kept out of
the canonical report payload for the same reason.
"""

from __future__ import annotations

import math
import os
import time
import warnings
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .baselines import estimate_variances, fit_gpr, fit_nystrom, fit_spgp
from .designs import (
    DEFAULT_SUBSET_TRIALS,
    chebyshev_knots,
    default_knot_count,
    equispaced_knots,
    next_knot,
    replication_design,
    select_knots,
)
from .errors import BadSchema, DimensionMismatch, ReconstructError, UnknownFunction
from .estimators import (
    _gcv_curve,
    estimate_kernel_params,
    fit_gprr,
    fit_krr,
    fit_replication,
    predict,
)
from .kernels import DEFAULT_GAUSSIAN_RATE, gaussian_kernel
from .interpolators import KnotSet
from .tables import read_table

# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------

BOREHOLE_RANGES = {
    "rw": (0.05, 0.15),
    "r": (100.0, 50_000.0),
    "Tu": (63_070.0, 115_600.0),
    "Hu": (990.0, 1110.0),
    "Tl": (63.1, 116.0),
    "Hl": (700.0, 820.0),
    "L": (1120.0, 1680.0),
    "Kw": (1500.0, 15_000.0),
}

_BOREHOLE_LO = np.array([v[0] for v in BOREHOLE_RANGES.values()])
_BOREHOLE_HI = np.array([v[1] for v in BOREHOLE_RANGES.values()])

TEST_FUNCTIONS = ("f1d", "I", "II", "III", "borehole")


def borehole_inputs(X01: np.ndarray) -> np.ndarray:
    """Map unit-cube coordinates to the physical input ranges."""
    return _BOREHOLE_LO + np.asarray(X01, dtype=float) * (_BOREHOLE_HI - _BOREHOLE_LO)


def _f1d(x):
    return np.exp(-1.4 * x) * np.cos(3.5 * np.pi * x)


def _weighted_sphere(X):
    d = X.shape[1]
    return X**2 @ np.arange(1.0, d + 1.0)


def _ackley(X, standard):
    # the printed form's second exponential acts on the plain coordinate
    # mean, the standard form's on the mean of the cosines
    inner = np.cos(2.0 * np.pi * X) if standard else 2.0 * np.pi * X
    return (
        -20.0 * np.exp(-0.2 * np.sqrt(np.mean(X**2, axis=1)))
        - np.exp(np.mean(inner, axis=1))
        + 20.0
        + math.e
    )


def _yang(X):
    return -np.sum(X, axis=1) * np.exp(-np.sum(X**2, axis=1))


def _borehole(X):
    Z = borehole_inputs(X)
    rw, r, Tu, Hu, Tl, Hl, L, Kw = (Z[:, j] for j in range(8))
    logrr = np.log(r / rw)
    return (
        2.0
        * np.pi
        * Tu
        * (Hu - Hl)
        / (logrr * (1.0 + 2.0 * L * Tu / (logrr * rw**2 * Kw) + Tu / Tl))
    )


def test_function(fid: str, x, ackley_standard: bool = False):
    """Evaluate a benchmark regression function on the unit hypercube.

    ``fid`` is one of f1d, I (weighted sphere), II (Ackley-type; the
    default omits the cosine inside the second exponential, set
    ``ackley_standard`` for the textbook form), III (Yang), borehole.
    """
    x = np.asarray(x, dtype=float)
    if fid == "f1d":
        return _f1d(x if x.ndim <= 1 else x[:, 0])
    single = x.ndim == 1
    X = np.atleast_2d(x)
    if fid == "borehole" and X.shape[1] != 8:
        raise DimensionMismatch("the borehole model takes 8 inputs")
    table = {
        "I": _weighted_sphere,
        "II": lambda X: _ackley(X, ackley_standard),
        "III": _yang,
        "borehole": _borehole,
    }
    if fid not in table:
        raise UnknownFunction(f"unknown test function {fid!r}; choose from {TEST_FUNCTIONS}")
    vals = table[fid](X)
    return float(vals[0]) if single else vals


def function_dimension(fid: str) -> Optional[int]:
    """Fixed input dimension of a test function, or None if free."""
    return {"f1d": 1, "borehole": 8}.get(fid)


# ---------------------------------------------------------------------------
# simulation, metrics
# ---------------------------------------------------------------------------


@dataclass
class Dataset:
    X: np.ndarray
    y: np.ndarray
    Xtest: Optional[np.ndarray] = None
    ytest: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)


def _normal_from_uniform(rng: np.random.Generator, size: int) -> np.ndarray:
    from scipy.special import ndtri  # deferred: ~0.25 s, ~23 MiB to import scipy.special

    # inverse-CDF transform of the seeded uniform stream; clipping the
    # open-interval edges keeps the quantile finite
    u = np.clip(rng.random(size), 1e-15, 1.0 - 1e-16)
    return ndtri(u)


def simulate(
    fid: str,
    n: int,
    d: Optional[int] = None,
    sigma: float = 1.0,
    seed=None,
    ackley_standard: bool = False,
) -> Dataset:
    """Uniform design on the unit cube plus Gaussian noise, fully seeded."""
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    fixed = function_dimension(fid)
    if fixed is not None:
        if d is not None and d != fixed:
            raise DimensionMismatch(f"{fid} is {fixed}-dimensional")
        d = fixed
    if d is None:
        raise ValueError("d is required for dimension-free test functions")
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    y = np.asarray(test_function(fid, X, ackley_standard), dtype=float)
    if sigma > 0:
        y = y + sigma * _normal_from_uniform(rng, n)
    return Dataset(X=X, y=y, meta={"function": fid, "sigma": sigma})


def evaluate(model, Xtest, truth_values) -> float:
    """Mean squared prediction error against noiseless truth."""
    preds = predict(model, Xtest)
    truth_values = np.asarray(truth_values, dtype=float).ravel()
    return float(np.mean((preds - truth_values) ** 2))


def mise_1d(model_or_fn, truth_fn, grid_size: int = 1001) -> float:
    """Trapezoid integral of the squared error over the unit interval."""
    grid = np.linspace(0.0, 1.0, grid_size)
    if callable(model_or_fn):
        vals = np.asarray(model_or_fn(grid))
    else:
        vals = predict(model_or_fn, grid[:, None])
    err2 = (vals - np.asarray(truth_fn(grid))) ** 2
    return float(np.trapezoid(err2, grid))


# ---------------------------------------------------------------------------
# configs and reports
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """Desk-scale defaults; full-scale values go through the same fields."""

    function: str = "I"
    d: int = 2
    n: int = 200
    sigma: float = 1.0
    m: Optional[int] = None
    methods: tuple = ("krr", "gpr", "gprr")
    repetitions: int = 20
    inner_draws: int = 10
    test_size: int = 2000
    seed: Optional[int] = None
    lambda_grid: Optional[list] = None
    theta: float = DEFAULT_GAUSSIAN_RATE
    ackley_standard: bool = False
    trials: int = DEFAULT_SUBSET_TRIALS
    # max_iter and tol of estimate_kernel_params (the names predate its
    # joint search, and reports store them)
    bcd_max_iter: int = 10
    bcd_tol: float = 1e-3
    iterations: int = 15
    sigma_grid: Optional[list] = None
    jobs: int = 1

    def to_dict(self) -> dict:
        out = asdict(self)
        out["methods"] = list(self.methods)
        return out


@dataclass
class BenchmarkReport:
    kind: str
    config: dict
    per_run: list
    summary: dict
    seed: Optional[int]
    knots: Optional[list] = None
    errors: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """Canonical payload; timings and the worker count are reported
        separately because they do not define the experiment."""
        config = {k: v for k, v in self.config.items() if k != "jobs"}
        return {
            "kind": self.kind,
            "config": config,
            "per_run": self.per_run,
            "summary": self.summary,
            "seed": self.seed,
            "knots": self.knots,
            "errors": self.errors,
        }


def _mean_sd(values) -> dict:
    arr = np.asarray(values, dtype=float)
    out = {"mean": float(np.mean(arr)) if arr.size else None}
    out["sd"] = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
    out["count"] = int(arr.size)
    return out


def _failure(exc) -> str:
    """A method failure as the reports record it."""
    return f"{type(exc).__name__}: {exc}"


def _attempt(rec, method, fit, Xtest, truth):
    """Run ``fit()`` and record the model's test error under ``method`` in
    ``rec["mse"]``, or its failure in ``rec["failed"]``; returns the model,
    or None when the fit or its evaluation failed."""
    try:
        model = fit()
        rec["mse"][method] = evaluate(model, Xtest, truth)
        return model
    except Exception as exc:  # noqa: BLE001 - failures are reported, not fatal
        rec["failed"][method] = _failure(exc)
        return None


def _start(config, methods=None):
    """The seed check every driver begins with, and the method check of a
    study with a fixed method set; returns the start time."""
    if config.seed is None:
        raise ValueError("a seed is required")
    bad = set(config.methods) - set(methods or config.methods)
    if bad:
        raise ValueError(f"unsupported methods {sorted(bad)}")
    return time.perf_counter()


def _report(kind, config, t0, per_run, summary, **fields) -> BenchmarkReport:
    """The one place a report is built: the config, seed and elapsed time
    since ``t0`` come from the driver's ``config`` and start."""
    timings = {"total_s": time.perf_counter() - t0}
    return BenchmarkReport(kind, config.to_dict(), per_run, summary, config.seed,
                           timings=timings, **fields)


def _mse_stats(runs, methods) -> dict:
    """:func:`_mean_sd` of each method's test errors over the runs it fitted."""
    return {m: _mean_sd([r["mse"][m] for r in runs if m in r["mse"]]) for m in methods}


def _errors(runs, *keys) -> list:
    """Every failure recorded in ``runs``, tagged with each run's ``keys``."""
    return [{**{k: r[k] for k in keys}, "method": method, "error": msg}
            for r in runs for method, msg in r["failed"].items()]


def _draw(cfg: ExperimentConfig, index: int):
    """Repetition ``index`` of a simulation study: the training set, the
    test points, the noiseless truth at them, and a third seed stream for
    the driver's own draws (Table 3's knot subsets).  The streams are the
    first three children of the repetition's spawn point."""
    root = np.random.SeedSequence(cfg.seed).spawn(cfg.repetitions)[index]
    train_ss, test_ss, extra_ss = root.spawn(3)
    train = simulate(cfg.function, cfg.n, cfg.d, cfg.sigma, train_ss, cfg.ackley_standard)
    Xtest = np.random.default_rng(test_ss).random((cfg.test_size, train.X.shape[1]))
    return train, Xtest, test_function(cfg.function, Xtest, cfg.ackley_standard), extra_ss


# ---------------------------------------------------------------------------
# Table-1 style comparison (all knots at the data)
# ---------------------------------------------------------------------------

_TABLE1_FITS = {
    "krr": lambda X, y, spec, grid: fit_krr(X, y, spec, "gcv", grid),
    "gpr": lambda X, y, spec, grid: fit_gpr(X, y, spec, "constant+linear", "gcv", grid),
    "gprr": lambda X, y, spec, grid: fit_gprr(X, y, None, spec, "constant+linear", "gcv", grid),
}


def _table1_rep(cfg: ExperimentConfig, rep: int) -> dict:
    train, Xtest, truth, _ = _draw(cfg, rep)
    spec = gaussian_kernel(np.full(train.X.shape[1], cfg.theta))
    grid = None if cfg.lambda_grid is None else np.asarray(cfg.lambda_grid, dtype=float)
    out = {"rep": rep, "mse": {}, "lambda": {}, "failed": {}}
    for method in cfg.methods:
        fit = _TABLE1_FITS[method]
        model = _attempt(out, method, lambda: fit(train.X, train.y, spec, grid), Xtest, truth)
        if model is not None:
            out["lambda"][method] = float(model.lam)
    return out


def run_table1(config: ExperimentConfig) -> BenchmarkReport:
    """Full-knot comparison of kernel ridge, kriging, and reconstruction fits."""
    t0 = _start(config, _TABLE1_FITS)
    per_run = _map_indexed(_table1_rep, config, config.repetitions, config.jobs)
    summary = _mse_stats(per_run, config.methods)
    return _report("table1", config, t0, per_run, summary, errors=_errors(per_run, "rep"))


_WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def _map_indexed(fn, config, count, jobs):
    import multiprocessing  # deferred: ~13 ms to import with concurrent.futures
    from concurrent.futures import ProcessPoolExecutor

    # Every repetition, jobs=1 included, runs in a spawned worker on one
    # BLAS thread, so a report's digits do not depend on the caller's
    # thread count.  A spawned child reads these variables when it loads
    # OpenBLAS (a forked one inherits the parent's loaded library), so
    # they are set only while the pool starts and runs, then restored.
    saved = {key: os.environ.get(key) for key in _WORKER_ENV}
    os.environ.update(_WORKER_ENV)
    try:
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max(1, jobs or 1), mp_context=spawn) as pool:
            return list(pool.map(fn, [config] * count, range(count)))
    finally:
        for key, value in saved.items():
            if value is None:
                del os.environ[key]
            else:
                os.environ[key] = value


# ---------------------------------------------------------------------------
# Table-3 style comparison (m knots drawn from the data)
# ---------------------------------------------------------------------------


def _rate_search(X, y, A, cfg: ExperimentConfig, theta0):
    """The subset-knot studies' kernel-rate search, stopped by ``cfg``."""
    return estimate_kernel_params(X, y, A, "constant+linear", theta0,
                                  max_iter=cfg.bcd_max_iter, tol=cfg.bcd_tol)


def _compare_on_knots(X, y, A, cfg: ExperimentConfig, methods, Xtest, truth):
    """One knot set of the subset-knot comparisons (Table 3, power plant).

    gprr with estimated kernel rates (:func:`estimate_kernel_params`), then
    Nystrom by GCV and the variance search plus SPGP on those rates (each
    if listed in ``methods``), every fit evaluated against ``truth`` at
    ``Xtest``; without test points only the rate search runs.  A failure
    is recorded under its method, and a failed rate search stops the rest.
    Returns the rate fit (None when it failed) and the record of test errors
    ("mse"), failures ("failed"), rates ("theta") and SPGP's "variances".
    """
    rec = {"mse": {}, "failed": {}}
    try:
        kp = _rate_search(X, y, A, cfg, np.full(X.shape[1], cfg.theta))
        rec["theta"] = [float(t) for t in kp.theta]
        if Xtest is None:
            return kp, rec
        rec["mse"]["gprr"] = evaluate(kp.model, Xtest, truth)
    except Exception as exc:  # noqa: BLE001 - failures are reported, not fatal
        rec["failed"]["gprr"] = _failure(exc)
        return None, rec
    spec = kp.model.kernel
    grid = None if cfg.lambda_grid is None else np.asarray(cfg.lambda_grid, dtype=float)
    if "nystrom" in methods:
        nystrom = lambda: fit_nystrom(X, y, A, spec, "constant+linear", "gcv", grid)  # noqa: E731
        _attempt(rec, "nystrom", nystrom, Xtest, truth)
    if "spgp" in methods:

        def spgp():
            vp = estimate_variances(X, y, A, spec)
            model = fit_spgp(X, y, A, spec, vp)
            rec["variances"] = {"tau2": vp.tau2, "sigma2": vp.sigma2}
            return model

        _attempt(rec, "spgp", spgp, Xtest, truth)
    return kp, rec


def _table3_outer(cfg: ExperimentConfig, outer: int) -> dict:
    train, Xtest, truth, subset_ss = _draw(cfg, outer)
    rng_subset = np.random.default_rng(subset_ss)
    m = cfg.m or default_knot_count(train.X.shape[1])
    inner_runs = []
    for inner in range(cfg.inner_draws):
        idx = np.sort(rng_subset.choice(cfg.n, size=m, replace=False))
        _, rec = _compare_on_knots(
            train.X, train.y, KnotSet(train.X[idx]), cfg, cfg.methods, Xtest, truth
        )
        inner_runs.append({"inner": inner, "indices": idx.tolist(), **rec})
    stats = {m: s for m, s in _mse_stats(inner_runs, cfg.methods).items() if s["count"]}
    return {"outer": outer, "inner": inner_runs, "mean": {m: s["mean"] for m, s in stats.items()},
            "sd": {m: s["sd"] for m, s in stats.items()}}


def run_table3(config: ExperimentConfig) -> BenchmarkReport:
    """Subset-knot comparison: average test error and its spread over
    random knot subsets, then averaged over fresh data draws."""
    t0 = _start(config, ("nystrom", "spgp", "gprr"))
    outers = _map_indexed(_table3_outer, config, config.repetitions, config.jobs)
    summary = {}
    for method in config.methods:
        means = [o["mean"][method] for o in outers if method in o["mean"]]
        sds = [o["sd"][method] for o in outers if method in o["sd"]]
        summary[method] = {
            "mmse": float(np.mean(means)) if means else None,
            "mstd": float(np.mean(sds)) if sds else None,
            "outer_means": [float(v) for v in means],
        }
    errors = _errors([dict(r, outer=o["outer"]) for o in outers for r in o["inner"]],
                     "outer", "inner")
    knots = [[r["indices"] for r in o["inner"]] for o in outers]
    return _report("table3", config, t0, outers, summary, knots=knots, errors=errors)


# ---------------------------------------------------------------------------
# replication-design study
# ---------------------------------------------------------------------------


def run_replication_study(config: ExperimentConfig) -> BenchmarkReport:
    """Replication designs with polynomial and spline reconstruction on the
    oscillating 1-D target, across a noise grid."""
    t0 = _start(config)
    sigma_grid = config.sigma_grid or [0.05, 0.15, 0.25, 0.35, 0.45, 0.55]
    m = config.m or 7
    per_run = []
    children = np.random.SeedSequence(config.seed).spawn(len(sigma_grid))
    for s_idx, sigma in enumerate(sigma_grid):
        reps = children[s_idx].spawn(config.repetitions)
        for rep in range(config.repetitions):
            rng = np.random.default_rng(reps[rep])
            rec = {"sigma": float(sigma), "rep": rep, "mise": {}}
            for method, knots in (
                ("lagrange", chebyshev_knots(m)),
                ("spline", equispaced_knots(m)),
            ):
                # m replicates at each of the m knots
                design = replication_design(knots, m)
                fvals = np.repeat(test_function("f1d", knots), m)
                yv = fvals + sigma * _normal_from_uniform(rng, design.n)
                model = fit_replication(design, yv, method)
                rec["mise"][method] = mise_1d(
                    model, lambda g: test_function("f1d", g)
                )
            per_run.append(rec)
    summary = {}
    for method in ("lagrange", "spline"):
        summary[method] = {
            str(s): _mean_sd(
                [r["mise"][method] for r in per_run if r["sigma"] == s]
            )
            for s in sigma_grid
        }
    return _report("replication", config, t0, per_run, summary)


# ---------------------------------------------------------------------------
# power-plant data
# ---------------------------------------------------------------------------

CCPP_COLUMNS = ("AT", "V", "AP", "RH", "PE")
CCPP_EXPECTED_ROWS = 9568
CCPP_TRAIN_ROWS = 9000


def load_ccpp(path) -> Dataset:
    """Load the power-plant CSV, split train/test, min-max scale features.

    The first 9000 rows train, the remainder test; feature scaling uses
    training minima and maxima only, and the response stays in its
    original units.  A row count other than 9568 is recorded as a
    warning, not an error.
    """
    names, table = read_table(path)
    if tuple(names) != CCPP_COLUMNS:
        raise BadSchema(f"{path}: expected columns {CCPP_COLUMNS}, found {tuple(names)}")
    n_rows = table.shape[0]
    meta = {"row_count": int(n_rows)}
    if n_rows != CCPP_EXPECTED_ROWS:
        warnings.warn(
            f"expected {CCPP_EXPECTED_ROWS} rows, found {n_rows}", stacklevel=2
        )
        meta["row_count_warning"] = True
    train, test = table[:CCPP_TRAIN_ROWS], table[CCPP_TRAIN_ROWS:]
    lo = train[:, :4].min(axis=0)
    hi = train[:, :4].max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    meta["feature_min"] = lo.tolist()
    meta["feature_max"] = hi.tolist()
    Xtest = ytest = None
    if test.shape[0]:
        Xtest = (test[:, :4] - lo) / span
        ytest = test[:, 4]
    return Dataset(
        X=(train[:, :4] - lo) / span,
        y=train[:, 4],
        Xtest=Xtest,
        ytest=ytest,
        meta=meta,
    )


def run_ccpp(dataset: Dataset, config: ExperimentConfig) -> BenchmarkReport:
    """Knot selection, the three-method comparison, then sequential
    knot addition tracked by GCV and test error."""
    t0 = _start(config)
    X, y = dataset.X, dataset.y
    m0 = config.m or default_knot_count(X.shape[1])
    select_rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
    selection = select_knots(X, m0, trials=config.trials, seed=select_rng)
    test_pair = (dataset.Xtest, dataset.ytest)
    kp, rec = _compare_on_knots(X, y, selection.knots, config, ("nystrom", "spgp"), *test_pair)
    if kp is None:
        raise ReconstructError(f"kernel-rate search failed: {rec['failed']['gprr']}")
    trajectory, indices = _sequential_knots(X, y, selection.indices, kp, config, test_pair)
    summary = {
        "initial_test_errors": rec["mse"],
        "final_gcv": trajectory[-1]["gcv"],
        "initial_gcv": trajectory[0]["gcv"],
    }
    return _report("ccpp", config, t0, trajectory, summary,
                   knots=[int(i) for i in indices], errors=_errors([rec]))


def _sequential_knots(X, y, indices, kp, config, test_pair):
    """Grow the knot set one residual-argmax point at a time.  A candidate is
    any row equal to no knot, so a repeated input is never added twice."""
    n = X.shape[0]
    indices = [int(i) for i in indices]
    trajectory = [_traj_record(0, kp, n, test_pair, None)]
    stall = 0
    for it in range(1, config.iterations + 1):
        new_idx = next_knot(X, kp.model.knots, y, predictions=predict(kp.model, X))
        indices.append(int(new_idx))
        kp = _rate_search(X, y, KnotSet(X[np.asarray(indices)]), config, kp.theta)
        trajectory.append(_traj_record(it, kp, n, test_pair, new_idx))
        prev, cur = (math.inf if t["gcv"] is None else t["gcv"] for t in trajectory[-2:])
        stall = stall + 1 if cur > prev * (1.0 - 1e-3) else 0
        if stall >= 3:
            break
    return trajectory, indices


def _traj_record(it, kp, n, test_pair, added):
    m = kp.model.knots.m
    # GCV of the unpenalized m-knot fit, whose smoother has trace m
    gcv = float(_gcv_curve(n, kp.objective_trace[-1] * n, n - m))
    rec = {
        "iteration": it,
        "m": int(m),
        "gcv": gcv if math.isfinite(gcv) else None,
        "added_index": added,
    }
    if test_pair[0] is not None:
        rec["test_error"] = evaluate(kp.model, *test_pair)
    return rec
