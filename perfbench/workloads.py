"""The benchmark's four workloads.

Each workload makes its inputs from the seed in ``setup``, runs one round
of fixed operations through the package's public API in ``run_round``, and
lists the checks its outputs must pass.  Every round repeats the same
operations on the same inputs, so failures are the same share of the
operations in every run and the outputs of all rounds must agree bit for
bit.  Functions are looked up on the package modules at call time, so a
traced round sees the wrapped versions.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import reconstruct
from reconstruct import baselines, benchmarks, cli, estimators, kernels
from reconstruct.errors import ReconstructError

import reference as ref

OP_ERRORS = (ReconstructError, np.linalg.LinAlgError, ValueError, ArithmeticError)


class OpFailed(Exception):
    """An operation raised one of OP_ERRORS or returned a failure code."""


@dataclass
class Round:
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    fit_s: list = field(default_factory=list)
    predict_rows: int = 0
    predict_s: float = 0.0
    errors: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    fingerprint: str = ""
    speed: float = 1.0  # calibration speed factor, set by the runner

    def op(self, fn, *args, rows=False, ok=None, **kwargs):
        """Run one operation; count it, and time it when it predicts rows."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except OP_ERRORS as exc:
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            raise OpFailed from exc
        if ok is not None and not ok(out):
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__name__', fn)} returned {out!r}")
            raise OpFailed
        if rows:
            self.predict_s += time.perf_counter() - t0
            self.predict_rows += len(out)
        return out

    def unit(self, size, body, *args):
        """Run a unit of ``size`` operations that depend on each other; the
        ones a failure leaves unreached count as failed too."""
        before = self.attempted
        try:
            return body(*args)
        except OpFailed:
            left = size - (self.attempted - before)
            self.attempted += left
            self.failed += left
            return None


def fingerprint(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def geometric_mean(values) -> float:
    return float(np.exp(np.mean(np.log(values))))


def rel_close(a, b, rtol) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rtol * np.maximum(np.abs(b), 1e-300)))


@dataclass
class Check:
    """A named property of the outputs and an edit that must break it."""

    name: str
    holds: object  # outputs -> bool
    corrupt: object  # outputs -> outputs that violate the property


class Workload:
    name = ""
    sizes: dict = {}
    tiny: dict = {}

    def __init__(self, seed, workdir, tiny=False):
        self.seed = seed
        self.workdir = workdir
        self.size = dict(self.sizes, **(self.tiny if tiny else {}))

    def streams(self, count):
        """Independent generators derived from the run's seed."""
        return [np.random.default_rng(s) for s in np.random.SeedSequence(self.seed).spawn(count)]

    def round(self) -> Round:
        r = Round()
        t0 = time.perf_counter()
        self.run_round(r)
        r.wall_s = time.perf_counter() - t0
        self.finish(r)
        return r

    def setup(self):
        raise NotImplementedError

    def run_round(self, r: Round):
        raise NotImplementedError

    def finish(self, r: Round):
        """Untimed: fingerprint the round's outputs."""

    def collect(self, r: Round) -> dict:
        """The outputs the checks read."""
        return r.outputs

    def test_mse(self, outputs) -> float:
        raise NotImplementedError

    def checks(self) -> list:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# borehole-subset
# ---------------------------------------------------------------------------


class BoreholeSubset(Workload):
    """Table-3 inner draws on the borehole function.

    The design (training inputs and the draws' knot subsets) is one fixed
    draw; the run's seed draws the response noise, the test points the draws
    predict on, and the evaluation points of test_mse.  With random designs
    the test MSE of a single draw moves by a third from subset to subset and
    from one 2000-point test set to the next, so a few draws per run could
    not give a steady accuracy figure.
    """

    name = "borehole-subset"
    sizes = {"n": 5000, "m": 80, "draws": 3, "test": 10_000, "eval": 50_000, "sigma": 1.0,
             "bcd_max_iter": 8}
    tiny = {"n": 300, "m": 20, "draws": 1, "test": 200, "eval": 500, "bcd_max_iter": 2}
    DESIGN_SEED = 2018

    def setup(self):
        s = self.size
        design = np.random.default_rng(self.DESIGN_SEED)
        self.X = design.random((s["n"], 8))
        self.subsets = [np.sort(design.choice(s["n"], s["m"], replace=False)) for _ in range(s["draws"])]
        noise_rng, test_rng = self.streams(2)
        self.y = benchmarks.test_function("borehole", self.X) + s["sigma"] * noise_rng.standard_normal(s["n"])
        self.Xtest = test_rng.random((s["test"], 8))
        self.Xeval = test_rng.random((s["eval"], 8))
        self.truth = ref.borehole(self.Xeval)

    def _draw(self, r, idx):
        X, y, Xt = self.X, self.y, self.Xtest
        A = reconstruct.KnotSet(X[idx])
        t0 = time.perf_counter()
        kp = r.op(estimators.estimate_kernel_params, X, y, A, "constant+linear",
                  np.full(8, 12.5), max_iter=self.size["bcd_max_iter"], tol=1e-3)
        spec = kp.model.kernel
        ny = r.op(baselines.fit_nystrom, X, y, A, spec, "constant+linear", "gcv")
        vp = r.op(baselines.estimate_variances, X, y, A, spec)
        sp = r.op(baselines.fit_spgp, X, y, A, spec, vp)
        preds = [r.op(estimators.predict, mod, Xt, rows=True) for mod in (kp.model, ny, sp)]
        r.fit_s.append(time.perf_counter() - t0)
        return {"kp": kp, "knots": A.points, "preds": preds}

    def run_round(self, r):
        r.outputs["draws"] = [r.unit(7, self._draw, r, idx) for idx in self.subsets]

    def finish(self, r):
        r.fingerprint = fingerprint(*(p for d in self._draws(r.outputs) for p in d["preds"]))

    def collect(self, r):
        o = dict(r.outputs, X=self.X, y=self.y, Xeval=self.Xeval, truth=self.truth)
        o["draws"] = [None if d is None else dict(d, eval=estimators.predict(d["kp"].model, self.Xeval))
                      for d in r.outputs["draws"]]
        return o

    def test_mse(self, o):
        """Geometric mean over the draws of the gprr MSE on the evaluation points."""
        return geometric_mean([np.mean((d["eval"] - o["truth"]) ** 2) for d in self._draws(o)])

    @staticmethod
    def _draws(o):
        return [d for d in o["draws"] if d is not None]

    def checks(self):
        def trace_monotone(o):
            return all(np.all(np.diff(d["kp"].objective_trace) <= 0.0) for d in self._draws(o))

        def objective_is_residual(o):
            return all(
                rel_close(d["kp"].objective_trace[-1],
                          np.mean((o["y"] - reconstruct.predict(d["kp"].model, o["X"])) ** 2), 1e-8)
                for d in self._draws(o))

        def reproduces_knots(o):
            for d in self._draws(o):
                gamma = d["kp"].model.gamma_hat
                err = np.abs(reconstruct.predict(d["kp"].model, d["knots"]) - gamma)
                if not np.all(err <= 1e-6 * np.max(np.abs(gamma))):
                    return False
            return True

        def truth_independent(o):
            return rel_close(benchmarks.test_function("borehole", o["Xeval"]), o["truth"], 1e-12)

        def finite(o):
            return all(np.all(np.isfinite(p)) for d in self._draws(o) for p in d["preds"])

        def raise_last(o):
            kp = o["draws"][0]["kp"]
            trace = list(kp.objective_trace)
            trace[-1] = trace[-2] * 1.01
            o["draws"][0]["kp"] = dataclasses.replace(kp, objective_trace=trace)
            return o

        def shift_objective(o):
            kp = o["draws"][0]["kp"]
            trace = list(kp.objective_trace)
            trace[-1] *= 1.0 - 1e-4
            o["draws"][0]["kp"] = dataclasses.replace(kp, objective_trace=trace)
            return o

        def perturb_w(o):
            kp = o["draws"][0]["kp"]
            model = dataclasses.replace(kp.model, w=kp.model.w * 1.01)
            o["draws"][0]["kp"] = dataclasses.replace(kp, model=model)
            return o

        def wrong_truth(o):
            o["truth"] = o["truth"].copy()
            o["truth"][0] *= 1.001
            return o

        def nan_pred(o):
            o["draws"][0]["preds"][1] = o["draws"][0]["preds"][1].copy()
            o["draws"][0]["preds"][1][0] = np.nan
            return o

        return [
            Check("bcd objective trace does not increase", trace_monotone, raise_last),
            Check("final objective equals mean squared residual of predict(model, X)",
                  objective_is_residual, shift_objective),
            Check("gprr model reproduces its knot values at the knots", reproduces_knots, perturb_w),
            Check("borehole truth matches the reference formula", truth_independent, wrong_truth),
            Check("every prediction is finite", finite, nan_pred),
        ]


# ---------------------------------------------------------------------------
# lambda-select
# ---------------------------------------------------------------------------


class LambdaSelect(Workload):
    """Every kernel-side lambda-selection path: full-knot GCV of krr, gpr
    and gprr on Table-1 replications, and subset-knot gprr GCV."""

    name = "lambda-select"
    # brute-force GCV is checked on the first gcv_reps replications of each
    # function, the whole curve on the first curve_reps
    sizes = {"reps": 96, "n": 200, "test": 500, "sigma": 1.0, "theta": 12.5,
             "sub_n": 4000, "sub_m": 100, "gcv_reps": 16, "curve_reps": 1}
    tiny = {"reps": 2, "n": 40, "test": 100, "sub_n": 300, "sub_m": 30}
    functions = ("I", "II", "III")

    def setup(self):
        s = self.size
        self.spec = kernels.gaussian_kernel([s["theta"]] * 2)
        self.reps = []
        self.subsets = []
        for fid, rng in zip(self.functions, self.streams(len(self.functions))):
            for _ in range(s["reps"]):
                train = benchmarks.simulate(fid, s["n"], 2, s["sigma"], rng)
                Xt = rng.random((s["test"], 2))
                self.reps.append({"fid": fid, "X": train.X, "y": train.y, "Xtest": Xt,
                                  "truth": ref.TARGETS[fid](Xt)})
            train = benchmarks.simulate(fid, s["sub_n"], 2, s["sigma"], rng)
            Xt = rng.random((s["test"], 2))
            idx = np.sort(rng.choice(s["sub_n"], s["sub_m"], replace=False))
            self.subsets.append({"fid": fid, "X": train.X, "y": train.y, "A": train.X[idx],
                                 "Xtest": Xt, "truth": ref.TARGETS[fid](Xt)})

    def _fit(self, r, fn, *args):
        t0 = time.perf_counter()
        model = r.op(fn, *args)
        r.fit_s.append(time.perf_counter() - t0)
        return model

    def _rep(self, r, rep):
        X, y, spec = rep["X"], rep["y"], self.spec
        models = {
            "krr": self._fit(r, estimators.fit_krr, X, y, spec, "gcv"),
            "gpr": self._fit(r, baselines.fit_gpr, X, y, spec, "constant+linear", "gcv"),
            "gprr": self._fit(r, estimators.fit_gprr, X, y, None, spec, "constant+linear", "gcv"),
        }
        preds = {k: r.op(estimators.predict, m, rep["Xtest"], rows=True) for k, m in models.items()}
        return {"models": models, "preds": preds}

    def _subset(self, r, sub):
        model = self._fit(r, estimators.fit_gprr, sub["X"], sub["y"], sub["A"], self.spec,
                          "constant+linear", "gcv")
        return {"model": model, "pred": r.op(estimators.predict, model, sub["Xtest"], rows=True)}

    def run_round(self, r):
        r.outputs["reps"] = [r.unit(6, self._rep, r, rep) for rep in self.reps]
        r.outputs["subsets"] = [r.unit(2, self._subset, r, sub) for sub in self.subsets]

    def finish(self, r):
        arrays = [p for out in r.outputs["reps"] if out for p in out["preds"].values()]
        arrays += [out["pred"] for out in r.outputs["subsets"] if out]
        r.fingerprint = fingerprint(*arrays)
        r.outputs["inputs"] = self.reps

    def _pairs(self, o, per_function=None):
        """(input, output) of each replication that ran; with per_function,
        of the first that many replications of each function only."""
        reps = self.size["reps"]
        return [(inp, out) for i, (inp, out) in enumerate(zip(o["inputs"], o["reps"]))
                if out is not None and (per_function is None or i % reps < per_function)]

    def test_mse(self, o):
        """Per function, the median gprr test MSE over its replications; then
        the geometric mean over functions, whose errors differ a hundredfold.
        One subset fit per function is too few to steady a figure."""
        errs = {}
        for inp, out in self._pairs(o):
            errs.setdefault(inp["fid"], []).append(np.mean((out["preds"]["gprr"] - inp["truth"]) ** 2))
        return geometric_mean([np.median(v) for v in errs.values()])

    def _brute_gcv(self, inp, method, lam):
        R = ref.gaussian_gram(inp["X"], inp["X"], self.spec.theta)
        G = np.zeros((len(inp["y"]), 0)) if method == "krr" else ref.linear_trend(inp["X"])
        return ref.hat_matrix_gcv(R, G, inp["y"], lam)

    def checks(self):
        grid = estimators.DEFAULT_LAMBDA_GRID

        def gcv_matches(o):
            for inp, out in self._pairs(o, self.size["gcv_reps"]):
                for method, model in out["models"].items():
                    brute = self._brute_gcv(inp, method, model.lam)
                    if not rel_close(model.diagnostics.gcv, brute, 1e-8):
                        return False
            return True

        def lambda_minimises(o):
            for inp, out in self._pairs(o, self.size["curve_reps"]):
                for method, model in out["models"].items():
                    curve = np.array([self._brute_gcv(inp, method, lam) for lam in grid])
                    chosen = self._brute_gcv(inp, method, model.lam)
                    if not chosen <= np.min(curve) * (1.0 + 1e-8):
                        return False
            return True

        def gprr_is_gpr(o):
            return all(
                out["models"]["gprr"].lam == out["models"]["gpr"].lam
                and rel_close(out["preds"]["gprr"], out["preds"]["gpr"], 1e-12)
                for _, out in self._pairs(o))

        def finite(o):
            ok = all(np.all(np.isfinite(p)) for _, out in self._pairs(o) for p in out["preds"].values())
            return ok and all(np.all(np.isfinite(out["pred"])) for out in o["subsets"] if out)

        def _first_model(o, method, **changes):
            out = o["reps"][0]
            out["models"] = dict(out["models"])
            out["models"][method] = dataclasses.replace(out["models"][method], **changes)
            return o

        def shift_gcv(o):
            model = o["reps"][0]["models"]["krr"]
            diag = dataclasses.replace(model.diagnostics, gcv=model.diagnostics.gcv * (1.0 + 1e-6))
            return _first_model(o, "krr", diagnostics=diag)

        def move_lambda(o):
            # the grid end far from any GCV minimum of these data
            return _first_model(o, "gpr", lam=float(grid[0]))

        def perturb_gprr(o):
            out = o["reps"][0]
            out["preds"] = dict(out["preds"], gprr=out["preds"]["gprr"] * (1.0 + 1e-9))
            return o

        def nan_pred(o):
            pred = o["subsets"][0]["pred"].copy()
            pred[-1] = np.inf
            o["subsets"][0]["pred"] = pred
            return o

        return [
            Check("full-knot GCV value matches the brute-force hat-matrix GCV (rel 1e-8)",
                  gcv_matches, shift_gcv),
            Check("chosen lambda minimises the brute-force GCV curve on the grid",
                  lambda_minimises, move_lambda),
            Check("full-knot gprr equals gpr", gprr_is_gpr, perturb_gprr),
            Check("every prediction is finite", finite, nan_pred),
        ]


# ---------------------------------------------------------------------------
# fdp-1d
# ---------------------------------------------------------------------------


class Fdp1d(Workload):
    """Finite-difference-penalty smoother with GCV on the exact and the
    stochastic trace path, then spline prediction on a dense grid."""

    name = "fdp-1d"
    # fit_fdp takes the exact trace up to 10**4 points and Hutchinson above;
    # at 3.5x10**4 points a Hutchinson fit costs about what an exact fit at
    # 10**4 does, so the median fit is not a blend of two kinds.  Each size
    # gets two noise draws: the MSE of one fit moves by a tenth with its draw.
    sizes = {"sizes": (10_000, 10_000, 35_000, 35_000), "sigma": 0.3, "grid": 2_000_000}
    tiny = {"sizes": (50, 10_001), "grid": 1000}

    def setup(self):
        rngs = self.streams(len(self.size["sizes"]))
        self.data = []
        for n, rng in zip(self.size["sizes"], rngs):
            x = np.linspace(0.0, 1.0, n)
            y = benchmarks.test_function("f1d", x) + self.size["sigma"] * rng.standard_normal(n)
            self.data.append(y)
        self.grid = np.linspace(0.0, 1.0, self.size["grid"])
        self.truth = ref.f1d(self.grid)

    def _fit(self, r, y):
        t0 = time.perf_counter()
        fit = r.op(estimators.fit_fdp, y, "gcv")
        r.fit_s.append(time.perf_counter() - t0)
        return {"fit": fit, "pred": r.op(fit.predict, self.grid, rows=True)}

    def run_round(self, r):
        r.outputs["fits"] = [r.unit(2, self._fit, r, y) for y in self.data]

    def finish(self, r):
        r.fingerprint = fingerprint(*(f["pred"] for f in r.outputs["fits"] if f))
        r.outputs["y"], r.outputs["truth"] = self.data, self.truth

    def _pairs(self, o):
        return [(y, f) for y, f in zip(o["y"], o["fits"]) if f is not None]

    def test_mse(self, o):
        return geometric_mean([np.mean((f["pred"] - o["truth"]) ** 2) for _, f in self._pairs(o)])

    def checks(self):
        def solves_system(o):
            for y, f in self._pairs(o):
                res = ref.fdp_residual(f["fit"].gamma_hat, y, f["fit"].lam)
                if not np.max(np.abs(res)) <= 1e-8 * max(1.0, np.max(np.abs(y))):
                    return False
            return True

        def trace_in_range(o):
            # the trace GCV used, recovered from GCV = (rss/n) / (1 - tr/n)^2
            for y, f in self._pairs(o):
                n = y.shape[0]
                rss = float(np.sum((y - f["fit"].gamma_hat) ** 2))
                tr = n * (1.0 - math.sqrt(rss / (n * f["fit"].diagnostics.gcv)))
                if not 2.0 - 1e-6 <= tr <= n:
                    return False
            return True

        def spline_at_nodes(o):
            for _, f in self._pairs(o):
                fit = f["fit"]
                if not np.array_equal(fit.grid_x, np.linspace(0.0, 1.0, fit.gamma_hat.shape[0])):
                    return False
                err = np.abs(fit.predict(fit.grid_x) - fit.gamma_hat)
                if not np.max(err) <= 1e-10 * max(1.0, np.max(np.abs(fit.gamma_hat))):
                    return False
            return True

        def _edit_fit(o, **changes):
            f = o["fits"][0]
            o["fits"][0] = dict(f, fit=dataclasses.replace(f["fit"], **changes))
            return o

        def perturb_gamma(o):
            gamma = o["fits"][0]["fit"].gamma_hat.copy()
            gamma[len(gamma) // 2] += 1e-4
            return _edit_fit(o, gamma_hat=gamma)

        def inflate_gcv(o):
            # a GCV value that implies a trace below 2
            fit = o["fits"][0]["fit"]
            n = fit.gamma_hat.shape[0]
            rss = float(np.sum((o["y"][0] - fit.gamma_hat) ** 2))
            gcv = rss / n / (1.0 - 1.0 / n) ** 2
            return _edit_fit(o, diagnostics=dataclasses.replace(fit.diagnostics, gcv=gcv))

        def shift_spline(o):
            fit = o["fits"][0]["fit"]
            coeffs = fit.spline.coeffs.copy()
            coeffs[1:, 0] += 1e-6
            return _edit_fit(o, spline=dataclasses.replace(fit.spline, coeffs=coeffs))

        def nan_pred(o):
            pred = o["fits"][-1]["pred"].copy()
            pred[0] = np.nan
            o["fits"][-1] = dict(o["fits"][-1], pred=pred)
            return o

        def finite(o):
            return all(np.all(np.isfinite(f["pred"])) for _, f in self._pairs(o))

        return [
            Check("gamma solves (I + n lam M'M) gamma = y with M applied by np.diff",
                  solves_system, perturb_gamma),
            Check("smoother trace lies in [2, n]", trace_in_range, inflate_gcv),
            Check("spline reproduces gamma at the grid nodes", spline_at_nodes, shift_spline),
            Check("every prediction is finite", finite, nan_pred),
        ]


# ---------------------------------------------------------------------------
# cli-fit-predict
# ---------------------------------------------------------------------------


def _write_csv(path, header, table):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        np.savetxt(fh, table, delimiter=",", fmt="%.17g")


class CliFitPredict(Workload):
    """``reconstruct fit --method gprr --m 40`` then ``reconstruct predict``
    on real files, through ``reconstruct.cli.dispatch``.

    The training inputs and knot seeds are fixed draws; the run's seed draws
    the response noise and the query points.  With random designs the test
    MSE moves by a tenth with the knots that the search finds.
    """

    name = "cli-fit-predict"
    sizes = {"files": 2, "n": 9000, "d": 4, "query": 100_000, "sigma": 1.0, "m": 40, "function": "I"}
    tiny = {"files": 1, "n": 400, "query": 500, "m": 10}
    DESIGN_SEED = 2018

    def setup(self):
        s = self.size
        os.makedirs(self.workdir, exist_ok=True)
        design = np.random.default_rng(self.DESIGN_SEED)
        rngs = self.streams(s["files"] + 1)
        header = [f"x{j + 1}" for j in range(s["d"])]
        self.train, self.knot_seeds = [], []
        for k, rng in enumerate(rngs[:-1]):
            X = design.random((s["n"], s["d"]))
            y = benchmarks.test_function(s["function"], X) + s["sigma"] * rng.standard_normal(s["n"])
            path = os.path.join(self.workdir, f"train{k}.csv")
            _write_csv(path, header + ["y"], np.column_stack([X, y]))
            self.train.append(path)
            self.knot_seeds.append(int(design.integers(2**31)))
        self.Xq = rngs[-1].random((s["query"], s["d"]))
        self.query = os.path.join(self.workdir, "query.csv")
        _write_csv(self.query, header, self.Xq)

    def _paths(self, k):
        return (os.path.join(self.workdir, f"model{k}.json"),
                os.path.join(self.workdir, f"pred{k}.csv"))

    def _fit_predict(self, r, k):
        model, pred = self._paths(k)
        ok = lambda rc: rc == 0  # noqa: E731
        t0 = time.perf_counter()
        r.op(cli.dispatch, ["fit", "--data", self.train[k], "--method", "gprr",
                            "--m", str(self.size["m"]), "--seed", str(self.knot_seeds[k]),
                            "--out", model], ok=ok)
        r.fit_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        r.op(cli.dispatch, ["predict", "--model", model, "--data", self.query, "--out", pred], ok=ok)
        r.predict_s += time.perf_counter() - t0
        r.predict_rows += self.size["query"]
        return k

    def run_round(self, r):
        r.outputs["done"] = [r.unit(2, self._fit_predict, r, k) for k in range(self.size["files"])]

    def finish(self, r):
        h = hashlib.sha256()
        for k in r.outputs["done"]:
            if k is not None:
                for path in self._paths(k):
                    with open(path, "rb") as fh:
                        h.update(fh.read())
        r.fingerprint = h.hexdigest()

    def collect(self, r):
        """Read the files the last round wrote and ask the CLI for the
        knot selection of the first training file."""
        o = {"files": [], "Xq": self.Xq, "truth": ref.TARGETS[self.size["function"]](self.Xq)}
        for k in r.outputs["done"]:
            if k is None:
                continue
            model_path, pred_path = self._paths(k)
            with open(model_path) as fh:
                model = json.load(fh)
            with open(pred_path) as fh:
                header = fh.readline().strip()
                preds = np.loadtxt(fh, ndmin=1)
            X = np.loadtxt(self.train[k], delimiter=",", skiprows=1)[:, :-1]
            o["files"].append({"k": k, "model": model, "header": header, "preds": preds, "X": X})
        if o["files"] and o["files"][0]["k"] == 0:
            sel = os.path.join(self.workdir, "knots0.json")
            rc = cli.dispatch(["knots", "select", "--data", self.train[0], "--m", str(self.size["m"]),
                               "--seed", str(self.knot_seeds[0]), "--out", sel])
            o["select_rc"] = rc
            if rc == 0:
                with open(sel) as fh:
                    o["selection"] = json.load(fh)
        return o

    def test_mse(self, o):
        return geometric_mean([np.mean((f["preds"] - o["truth"]) ** 2) for f in o["files"]])

    def checks(self):
        m = self.size["m"]

        def exit_codes(o):
            # a fit or predict that exits non-zero is a failed operation
            return o.get("select_rc") == 0

        def one_per_row(o):
            return all(f["header"] == "prediction" and f["preds"].shape == (o["Xq"].shape[0],)
                       and np.all(np.isfinite(f["preds"])) for f in o["files"])

        def knots_are_rows(o):
            for f in o["files"]:
                knots = np.asarray(f["model"]["knots"])
                rows = {tuple(row) for row in f["X"]}
                if knots.shape != (m, f["X"].shape[1]) or len({tuple(k) for k in knots}) != m:
                    return False
                if not all(tuple(k) in rows for k in knots):
                    return False
            return True

        def criterion_matches(o):
            sel = o.get("selection")
            if sel is None:
                return False
            knots = np.asarray(o["files"][0]["model"]["knots"])
            return (np.array_equal(np.asarray(sel["points"]), knots)
                    and rel_close(sel["criterion"], ref.inverse_distance_criterion(knots), 1e-12))

        def reproduces_knots(o):
            for f in o["files"]:
                model = estimators.model_from_json(f["model"])
                gamma = model.gamma_hat
                err = np.abs(estimators.predict(model, model.knots.points) - gamma)
                if not np.all(err <= 1e-8 * max(1.0, np.max(np.abs(gamma)))):
                    return False
            return True

        def bad_rc(o):
            o["select_rc"] = 2
            return o

        def drop_row(o):
            o["files"][0]["preds"] = o["files"][0]["preds"][:-1]
            return o

        def move_knot(o):
            model = dict(o["files"][0]["model"])
            knots = [list(k) for k in model["knots"]]
            knots[0][0] = knots[0][0] * 0.5 + 0.25
            model["knots"] = knots
            o["files"][0]["model"] = model
            return o

        def shift_criterion(o):
            o["selection"] = dict(o["selection"], criterion=o["selection"]["criterion"] * (1 + 1e-9))
            return o

        def perturb_gamma(o):
            model = dict(o["files"][0]["model"])
            model["gamma_hat"] = [g * 1.001 for g in model["gamma_hat"]]
            o["files"][0]["model"] = model
            return o

        return [
            Check("knots select exits with code 0", exit_codes, bad_rc),
            Check("one finite prediction per query row", one_per_row, drop_row),
            Check(f"knots are {m} distinct training rows", knots_are_rows, move_knot),
            Check("inverse-distance criterion recomputed independently matches the reported one",
                  criterion_matches, shift_criterion),
            Check("model reproduces its knot values at the knots", reproduces_knots, perturb_gamma),
        ]


WORKLOADS = {w.name: w for w in (BoreholeSubset, LambdaSelect, Fdp1d, CliFitPredict)}
