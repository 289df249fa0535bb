"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 data or fit error.  Benchmark
subcommands require an explicit --seed and write a canonical JSON report
(byte-identical on rerun); wall-clock timings go to a sidecar file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .baselines import estimate_variances, fit_gpr, fit_nystrom, fit_spgp, fit_empirical_bayes
from .benchmarks import (
    BenchmarkReport,
    ExperimentConfig,
    load_ccpp,
    run_ccpp,
    run_replication_study,
    run_table1,
    run_table3,
)
from .designs import DEFAULT_SUBSET_TRIALS, default_knot_count, select_knots
from .errors import ReconstructError
from .estimators import (
    DEFAULT_LAMBDA_GRID,
    _gcv_curve,
    _kriging_spectrum,
    _subset_spectrum,
    estimate_kernel_params,
    fdp_gcv,
    fit_gprr,
    fit_krr,
    model_from_json,
    model_to_json,
    predict,
)
from .interpolators import regression_matrix
from .kernels import default_gaussian, gaussian_kernel, kernel_matrix
from .tables import read_table


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read_xy(path, need_y=True):
    """Features and response of a CSV table: the first column named ``y``
    is the response, every other column a feature, in file order."""
    names, table = read_table(path)
    if "y" in names:
        j = names.index("y")
        return np.delete(table, j, axis=1), table[:, j].copy()
    if need_y:
        raise ReconstructError(f"{path}: no 'y' column")
    return table, None


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_report(path, report: BenchmarkReport):
    _write_json(path, report.to_json_dict())
    sidecar = dict(report.timings)
    sidecar["jobs"] = report.config.get("jobs", 1)
    _write_json(str(path) + ".timings.json", sidecar)


def _parse_lambda(text):
    """A --lambda value: one of the policy words or a number (the fits
    read the policy; see ``estimators._lambda_plan``)."""
    if text in ("gcv", "auto", "none"):
        return text
    try:
        return float(text)
    except ValueError as exc:
        raise _UsageError(f"bad --lambda value {text!r}") from exc


def _kernel_from_args(args, d):
    theta = getattr(args, "theta", None)
    return default_gaussian(d) if theta is None else gaussian_kernel(np.full(d, float(theta)))


def _require_seed(args):
    if args.seed is None:
        raise _UsageError("--seed is required for this subcommand")


def _build_parser():
    p = _Parser(prog="reconstruct", description="reconstruction-based nonparametric regression")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a model to a CSV of x1..xd,y")
    fit.add_argument("--data", required=True)
    fit.add_argument("--method", default="gprr",
                     choices=["gprr", "krr", "gpr", "nystrom", "spgp", "eb"])
    fit.add_argument("--m", type=int, default=None, help="knot count (subset of the data)")
    fit.add_argument("--theta", type=float, default=None, help="Gaussian kernel rate (all coordinates)")
    fit.add_argument("--estimate-theta", action="store_true",
                     help="choose the Gaussian rates by least squares on the knots "
                          "(one per coordinate, in [1e-2, 1e3]) instead of --theta; "
                          "needs --m, and not for krr or gpr")
    fit.add_argument("--g", default="constant+linear", choices=["none", "constant", "constant+linear"])
    fit.add_argument("--lambda", dest="lam", default="auto", help="gcv | auto | none | value")
    fit.add_argument("--trials", type=int, default=DEFAULT_SUBSET_TRIALS)
    fit.add_argument("--seed", type=int, default=None)
    fit.add_argument("--out", required=True)

    pred = sub.add_parser("predict", help="evaluate a stored model on points")
    pred.add_argument("--model", required=True)
    pred.add_argument("--data", required=True)
    pred.add_argument("--out", required=True)

    scan = sub.add_parser("gcv-scan", help="tuning-parameter profile")
    scan.add_argument("--data", required=True)
    scan.add_argument("--method", default="krr", choices=["krr", "gprr", "fdp"])
    scan.add_argument("--m", type=int, default=None)
    scan.add_argument("--theta", type=float, default=None)
    scan.add_argument("--g", default="constant+linear", choices=["none", "constant", "constant+linear"])
    scan.add_argument("--grid", default=None, help="LO,HI,COUNT (log spaced)")
    scan.add_argument("--trials", type=int, default=DEFAULT_SUBSET_TRIALS)
    scan.add_argument("--seed", type=int, default=None)
    scan.add_argument("--out", required=True)

    knots = sub.add_parser("knots", help="knot selection")
    ksub = knots.add_subparsers(dest="knots_command", required=True)
    ksel = ksub.add_parser("select")
    ksel.add_argument("--data", required=True)
    ksel.add_argument("--m", type=int, required=True)
    ksel.add_argument("--trials", type=int, default=DEFAULT_SUBSET_TRIALS)
    ksel.add_argument("--seed", type=int, default=None)
    ksel.add_argument("--out", required=True)
    kseq = ksub.add_parser("sequential")
    kseq.add_argument("--data", required=True)
    kseq.add_argument("--test", default=None)
    kseq.add_argument("--m0", type=int, default=None)
    kseq.add_argument("--iterations", type=int, default=15)
    kseq.add_argument("--trials", type=int, default=DEFAULT_SUBSET_TRIALS)
    kseq.add_argument("--seed", type=int, default=None)
    kseq.add_argument("--out", required=True)

    bench = sub.add_parser("bench", help="benchmark suites")
    bsub = bench.add_subparsers(dest="bench_command", required=True)

    def common(bp, jobs=False):
        bp.add_argument("--seed", type=int, default=None)
        bp.add_argument("--out", required=True)
        if jobs:
            bp.add_argument("--jobs", type=int,
                            default=int(os.environ.get("RECONSTRUCT_JOBS", "1")))

    b1 = bsub.add_parser("table1")
    b1.add_argument("--model", default="I", choices=["I", "II", "III"])
    b1.add_argument("--d", type=int, default=2)
    b1.add_argument("--n", type=int, default=200)
    b1.add_argument("--reps", type=int, default=20)
    b1.add_argument("--N", type=int, default=2000)
    b1.add_argument("--sigma", type=float, default=1.0)
    b1.add_argument("--methods", default="krr,gpr,gprr")
    b1.add_argument("--ackley-standard", action="store_true")
    common(b1, jobs=True)

    b3 = bsub.add_parser("table3")
    b3.add_argument("--n", type=int, default=5000)
    b3.add_argument("--m", type=int, default=80)
    b3.add_argument("--outer", type=int, default=5)
    b3.add_argument("--inner", type=int, default=10)
    b3.add_argument("--N", type=int, default=2000)
    common(b3, jobs=True)

    br = bsub.add_parser("replication")
    br.add_argument("--reps", type=int, default=20)
    br.add_argument("--m", type=int, default=7)
    common(br)

    bc = bsub.add_parser("ccpp")
    bc.add_argument("--data", required=True)
    bc.add_argument("--m", type=int, default=40)
    bc.add_argument("--iterations", type=int, default=15)
    bc.add_argument("--trials", type=int, default=DEFAULT_SUBSET_TRIALS)
    common(bc)

    insp = sub.add_parser("inspect", help="print a model summary")
    insp.add_argument("--model", required=True)

    return p


def _cmd_fit(args):
    if args.estimate_theta and args.method in ("krr", "gpr"):
        # the rate search fits on knots, and these methods have none
        raise _UsageError(f"--estimate-theta does not apply to method {args.method}")
    X, y = _read_xy(args.data)
    n, d = X.shape
    lam = _parse_lambda(args.lam)
    spec = _kernel_from_args(args, d)
    if args.m is not None:
        _require_seed(args)
        selection = select_knots(X, args.m, trials=args.trials, seed=args.seed)
        A = selection.knots
    else:
        A = None
    if args.method == "gprr":
        if args.estimate_theta:
            if A is None:
                # with every point a knot the unpenalized fit interpolates y,
                # so the rate search would have nothing to fit
                raise _UsageError("--m is required for --estimate-theta")
            model = estimate_kernel_params(X, y, A, args.g).model
        else:
            model = fit_gprr(X, y, A, spec, args.g, lam)
    elif args.method == "krr":
        model = fit_krr(X, y, spec, lam)
    elif args.method == "gpr":
        model = fit_gpr(X, y, spec, args.g, lam)
    else:
        if A is None:
            raise _UsageError(f"--m is required for method {args.method}")
        if args.estimate_theta:
            spec = estimate_kernel_params(X, y, A, args.g).model.kernel
        if args.method == "nystrom":
            model = fit_nystrom(X, y, A, spec, args.g, lam)
        else:
            vp = estimate_variances(X, y, A, spec)
            fitter = fit_spgp if args.method == "spgp" else fit_empirical_bayes
            model = fitter(X, y, A, spec, vp)
    _write_json(args.out, model_to_json(model))
    return 0


def _cmd_predict(args):
    with open(args.model) as fh:
        model = model_from_json(json.load(fh))
    X, _ = _read_xy(args.data, need_y=False)
    preds = predict(model, X)
    with open(args.out, "w") as fh:
        fh.write("prediction\n")
        fh.writelines(f"{v!r}\n" for v in preds.tolist())
    return 0


def _cmd_gcv_scan(args):
    X, y = _read_xy(args.data)
    n, d = X.shape
    if args.grid:
        lo, hi, count = args.grid.split(",")
        grid = np.logspace(np.log10(float(lo)), np.log10(float(hi)), int(count))
    else:
        grid = DEFAULT_LAMBDA_GRID
    if args.method == "fdp":
        if d != 1:
            raise ReconstructError("the finite-difference scan expects 1-D data")
        curve = fdp_gcv(y, grid)
    else:
        spec = _kernel_from_args(args, d)
        if args.method == "krr":
            spectrum, _ = _kriging_spectrum(kernel_matrix(spec, X, X), regression_matrix("none", X), y)
        else:  # gprr with m knots
            if args.m is None:
                raise _UsageError("--m is required for a gprr scan")
            _require_seed(args)
            knots = select_knots(X, args.m, trials=args.trials, seed=args.seed).knots
            spectrum = _subset_spectrum(X, y, knots, spec, args.g)[1]
        curve = _gcv_curve(n, *spectrum.rss_and_dof(grid))
    payload = {
        "method": args.method,
        "grid": [float(g) for g in grid],
        "gcv": [None if not np.isfinite(v) else float(v) for v in curve],
    }
    _write_json(args.out, payload)
    return 0


def _cmd_knots(args):
    # knot selection reads the features only; the sequential study fits y
    X, y = _read_xy(args.data, need_y=args.knots_command != "select")
    if args.knots_command == "select":
        _require_seed(args)
        sel = select_knots(X, args.m, trials=args.trials, seed=args.seed)
        _write_json(args.out, {
            "indices": [int(i) for i in sel.indices],
            "criterion": float(sel.criterion),
            "points": sel.knots.points.tolist(),
        })
        return 0
    _require_seed(args)
    from .benchmarks import Dataset

    Xt = yt = None
    if args.test:
        Xt, yt = _read_xy(args.test)
    config = ExperimentConfig(
        m=args.m0 or default_knot_count(X.shape[1]),
        iterations=args.iterations,
        trials=args.trials,
        seed=args.seed,
    )
    report = run_ccpp(Dataset(X=X, y=y, Xtest=Xt, ytest=yt), config)
    _write_report(args.out, report)
    return 0


def _cmd_bench(args):
    _require_seed(args)
    if args.bench_command == "table1":
        config = ExperimentConfig(
            function=args.model,
            d=args.d,
            n=args.n,
            repetitions=args.reps,
            test_size=args.N,
            sigma=args.sigma,
            methods=tuple(args.methods.split(",")),
            ackley_standard=args.ackley_standard,
            seed=args.seed,
            jobs=args.jobs,
        )
        report = run_table1(config)
    elif args.bench_command == "table3":
        config = ExperimentConfig(
            function="borehole",
            d=8,
            n=args.n,
            m=args.m,
            repetitions=args.outer,
            inner_draws=args.inner,
            test_size=args.N,
            methods=("nystrom", "spgp", "gprr"),
            seed=args.seed,
            jobs=args.jobs,
        )
        report = run_table3(config)
    elif args.bench_command == "replication":
        config = ExperimentConfig(
            function="f1d", d=1, m=args.m, repetitions=args.reps, seed=args.seed,
        )
        report = run_replication_study(config)
    else:
        dataset = load_ccpp(args.data)
        config = ExperimentConfig(
            m=args.m, iterations=args.iterations, trials=args.trials, seed=args.seed,
        )
        report = run_ccpp(dataset, config)
    _write_report(args.out, report)
    return 0


def _cmd_inspect(args):
    with open(args.model) as fh:
        obj = json.load(fh)
    model = model_from_json(obj)
    lines = [
        f"method:        {model.method}",
        f"interpolator:  {model.interpolator}",
        f"knots:         m={model.knots.m}, d={model.knots.d}",
        f"lambda:        {model.lam!r}",
        f"g_kind:        {model.g_kind}",
        f"kernel:        {obj.get('kernel')}",
        f"diagnostics:   {model.diagnostics.to_dict()}",
    ]
    print("\n".join(lines))
    return 0


_COMMANDS = {
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "gcv-scan": _cmd_gcv_scan,
    "knots": _cmd_knots,
    "bench": _cmd_bench,
    "inspect": _cmd_inspect,
}


def dispatch(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ReconstructError, OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
