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
import warnings
from dataclasses import fields

import numpy as np

from . import __version__
from .baselines import estimate_variances, fit_gpr, fit_nystrom, fit_spgp, fit_empirical_bayes
from .benchmarks import (
    BenchmarkReport,
    Dataset,
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
    estimate_kernel_params,
    fit_fdp,
    fit_gprr,
    fit_krr,
    model_from_json,
    model_to_json,
    predict,
)
from .interpolators import G_KINDS
from .kernels import default_gaussian, gaussian_kernel
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
    # strict JSON: a NaN or inf raises here, before the file is opened
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _write_report(path, report: BenchmarkReport):
    _write_json(path, report.to_json_dict())
    sidecar = dict(report.timings)
    sidecar["jobs"] = report.config.get("jobs", 1)
    _write_json(str(path) + ".timings.json", sidecar)


def _parse_lambda(text):
    """A --lambda value: one of the policy words or a number (the fits
    read the policy; see ``estimators._lambda_plan``); absent is "auto"."""
    if text is None:
        return "auto"
    if text in ("gcv", "auto", "none"):
        return text
    try:
        return float(text)
    except ValueError as exc:
        raise _UsageError(f"bad --lambda value {text!r}") from exc


def _parse_grid(text):
    """A --grid value LO,HI,COUNT: COUNT >= 2 log-spaced lambdas from LO to
    HI (one point would fix lambda, and a fixed lambda has no curve)."""
    try:
        lo, hi, count = text.split(",")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise _UsageError(f"--grid takes LO,HI,COUNT, not {text!r}") from None
    if not (0.0 < lo < np.inf and 0.0 < hi < np.inf):
        raise _UsageError(f"--grid bounds must be positive and finite, not {lo!r} and {hi!r}")
    if count < 2:
        raise _UsageError(f"--grid COUNT must be at least 2, not {count}")
    return np.logspace(np.log10(lo), np.log10(hi), count)


def _kernel_from_args(args, d):
    return default_gaussian(d) if args.theta is None else gaussian_kernel(np.full(d, args.theta))


def _require_seed(args):
    if args.seed is None:
        raise _UsageError("--seed is required for this subcommand")


def _reject_m(args):
    # krr, gpr and fdp fit on every point, so a knot count would be ignored
    if args.m is not None and args.method in ("krr", "gpr", "fdp"):
        raise _UsageError(f"--m does not apply to method {args.method}")


def _knots(args, X):
    """The seeded knot search for --m, or None without --m."""
    if args.m is None:
        return None
    _require_seed(args)
    return select_knots(X, args.m, trials=args.trials, seed=args.seed)


# The one definition of each option that several subcommands share.  A
# bench option's dest is the ExperimentConfig field it sets (see _config).
_OPTIONS = {
    "--data": dict(required=True),
    "--out": dict(required=True),
    "--seed": dict(type=int, default=None),
    "--trials": dict(type=int, default=DEFAULT_SUBSET_TRIALS),
    "--m": dict(type=int, default=None, help="knot count (subset of the data)"),
    "--theta": dict(type=float, default=None, help="Gaussian kernel rate (all coordinates)"),
    "--g": dict(default="constant+linear", choices=G_KINDS),
    "--iterations": dict(type=int, default=15),
    "--reps": dict(type=int, default=20, dest="repetitions"),
    "--N": dict(type=int, default=2000, dest="test_size"),
    # None: read RECONSTRUCT_JOBS when the command runs (_jobs)
    "--jobs": dict(type=int, default=None),
}


def _add(parser, *flags):
    for flag in flags:
        parser.add_argument(flag, **_OPTIONS[flag])


def _build_parser():
    p = _Parser(prog="reconstruct", description="reconstruction-based nonparametric regression")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a model to a CSV of x1..xd,y")
    fit.set_defaults(run=_cmd_fit)
    fit.add_argument("--method", default="gprr",
                     choices=["gprr", "krr", "gpr", "nystrom", "spgp", "eb"])
    fit.add_argument("--estimate-theta", action="store_true",
                     help="choose the Gaussian rates by least squares on the knots "
                          "(one per coordinate, in [1e-2, 1e3]) instead of --theta; "
                          "needs --m, and not for krr or gpr")
    fit.add_argument("--lambda", dest="lam", default=None,
                     help="gcv | auto | none | value (default auto); not for spgp, eb "
                          "or gprr with --estimate-theta")
    _add(fit, "--data", "--m", "--theta", "--g", "--trials", "--seed", "--out")

    pred = sub.add_parser("predict", help="evaluate a stored model on points")
    pred.set_defaults(run=_cmd_predict)
    pred.add_argument("--model", required=True)
    _add(pred, "--data", "--out")

    scan = sub.add_parser("gcv-scan", help="tuning-parameter profile")
    scan.set_defaults(run=_cmd_gcv_scan)
    scan.add_argument("--method", default="krr", choices=["krr", "gprr", "fdp"])
    scan.add_argument("--grid", default=None, help="LO,HI,COUNT (log spaced)")
    _add(scan, "--data", "--m", "--theta", "--g", "--trials", "--seed", "--out")

    knots = sub.add_parser("knots", help="knot selection")
    knots.set_defaults(run=_cmd_knots)
    ksub = knots.add_subparsers(dest="knots_command", required=True)
    ksel = ksub.add_parser("select")
    ksel.add_argument("--m", type=int, required=True)
    _add(ksel, "--data", "--trials", "--seed", "--out")
    kseq = ksub.add_parser("sequential")
    kseq.add_argument("--test", default=None)
    kseq.add_argument("--m0", type=int, default=None)
    _add(kseq, "--data", "--iterations", "--trials", "--seed", "--out")

    bench = sub.add_parser("bench", help="benchmark suites")
    bench.set_defaults(run=_cmd_bench)
    bsub = bench.add_subparsers(dest="bench_command", required=True)

    b1 = bsub.add_parser("table1")
    b1.add_argument("--model", dest="function", default="I", choices=["I", "II", "III"])
    b1.add_argument("--d", type=int, default=2)
    b1.add_argument("--n", type=int, default=200)
    b1.add_argument("--sigma", type=float, default=1.0)
    b1.add_argument("--methods", type=lambda text: tuple(text.split(",")), default="krr,gpr,gprr")
    b1.add_argument("--ackley-standard", action="store_true")
    _add(b1, "--reps", "--N", "--seed", "--out", "--jobs")

    b3 = bsub.add_parser("table3")
    b3.add_argument("--n", type=int, default=5000)
    b3.add_argument("--m", type=int, default=80)
    b3.add_argument("--outer", type=int, default=5, dest="repetitions")
    b3.add_argument("--inner", type=int, default=10, dest="inner_draws")
    b3.set_defaults(function="borehole", d=8, methods=("nystrom", "spgp", "gprr"))
    _add(b3, "--N", "--seed", "--out", "--jobs")

    br = bsub.add_parser("replication")
    br.add_argument("--m", type=int, default=7)
    br.set_defaults(function="f1d", d=1)
    _add(br, "--reps", "--seed", "--out")

    bc = bsub.add_parser("ccpp")
    bc.add_argument("--m", type=int, default=40)
    _add(bc, "--data", "--iterations", "--trials", "--seed", "--out")

    insp = sub.add_parser("inspect", help="print a model summary")
    insp.set_defaults(run=_cmd_inspect)
    insp.add_argument("--model", required=True)

    return p


def _cmd_fit(args):
    if args.estimate_theta and args.method in ("krr", "gpr"):
        # the rate search fits on knots, and these methods have none
        raise _UsageError(f"--estimate-theta does not apply to method {args.method}")
    _reject_m(args)
    if args.lam is not None and args.method in ("spgp", "eb"):
        # the marginal-likelihood variance search sets the ridge weight
        raise _UsageError(f"--lambda does not apply to method {args.method}")
    if args.lam is not None and args.method == "gprr" and args.estimate_theta:
        # the stored model is the rate search's unpenalized fit
        raise _UsageError("--lambda does not apply to method gprr with --estimate-theta")
    X, y = _read_xy(args.data)
    lam = _parse_lambda(args.lam)
    spec = _kernel_from_args(args, X.shape[1])
    selection = _knots(args, X)
    A = None if selection is None else selection.knots
    if A is None and args.method in ("nystrom", "spgp", "eb"):
        raise _UsageError(f"--m is required for method {args.method}")
    if args.estimate_theta:
        if A is None:
            # with every point a knot the unpenalized fit interpolates y,
            # so the rate search would have nothing to fit
            raise _UsageError("--m is required for --estimate-theta")
        estimated = estimate_kernel_params(X, y, A, args.g).model
        spec = estimated.kernel
    if args.method == "gprr":
        model = estimated if args.estimate_theta else fit_gprr(X, y, A, spec, args.g, lam)
    elif args.method == "krr":
        model = fit_krr(X, y, spec, lam)
    elif args.method == "gpr":
        model = fit_gpr(X, y, spec, args.g, lam)
    elif args.method == "nystrom":
        model = fit_nystrom(X, y, A, spec, args.g, lam)
    else:
        fitter = fit_spgp if args.method == "spgp" else fit_empirical_bayes
        model = fitter(X, y, A, spec, estimate_variances(X, y, A, spec))
    _write_json(args.out, model_to_json(model))
    return 0


def _cmd_predict(args):
    with open(args.model) as fh:
        model = model_from_json(json.load(fh))
    X, _ = _read_xy(args.data, need_y=False)
    preds = predict(model, X)
    # one repr per row: str() of a float list is the reprs joined by ", "
    body = str(preds.tolist())[1:-1].replace(", ", "\n")
    with open(args.out, "w") as fh:
        fh.write(f"prediction\n{body}\n" if body else "prediction\n")
    return 0


def _cmd_gcv_scan(args):
    """Fit with lambda by GCV over the grid; write the curve it searched."""
    _reject_m(args)
    X, y = _read_xy(args.data)
    d = X.shape[1]
    grid = None if args.grid is None else _parse_grid(args.grid)  # None: the fits' default
    if args.method == "fdp":
        if d != 1:
            raise ReconstructError("the finite-difference scan expects 1-D data")
        fit = fit_fdp(y, "gcv", grid)
    else:
        spec = _kernel_from_args(args, d)
        if args.method == "krr":
            fit = fit_krr(X, y, spec, "gcv", grid)
        else:  # gprr with m knots
            selection = _knots(args, X)
            if selection is None:
                raise _UsageError("--m is required for a gprr scan")
            fit = fit_gprr(X, y, selection.knots, spec, args.g, "gcv", grid)
    grid, curve = fit.diagnostics.gcv_curve
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
        sel = _knots(args, X)
        _write_json(args.out, {
            "indices": [int(i) for i in sel.indices],
            "criterion": float(sel.criterion),
            "points": sel.knots.points.tolist(),
        })
        return 0
    config = _config(args, m=args.m0 or default_knot_count(X.shape[1]))
    Xt, yt = _read_xy(args.test) if args.test else (None, None)
    _write_report(args.out, run_ccpp(Dataset(X=X, y=y, Xtest=Xt, ytest=yt), config))
    return 0


def _jobs(args):
    """--jobs, else RECONSTRUCT_JOBS, else 1."""
    if args.jobs is not None:
        return args.jobs
    text = os.environ.get("RECONSTRUCT_JOBS", "1")
    try:
        return int(text)
    except ValueError:
        raise _UsageError(f"RECONSTRUCT_JOBS must be an integer, not {text!r}") from None


def _config(args, **given):
    """The config of a seeded study: every parsed option whose dest is an
    ExperimentConfig field, --jobs resolved by _jobs, then ``given``."""
    _require_seed(args)
    names = {f.name for f in fields(ExperimentConfig)}
    parsed = {k: v for k, v in vars(args).items() if k in names}
    if "jobs" in parsed:
        parsed["jobs"] = _jobs(args)
    return ExperimentConfig(**{**parsed, **given})


_STUDIES = {"table1": run_table1, "table3": run_table3, "replication": run_replication_study}


def _cmd_bench(args):
    config = _config(args)
    if args.bench_command == "ccpp":
        # a row-count warning is one plain stderr line, not Python's report
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            data = load_ccpp(args.data)
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
        report = run_ccpp(data, config)
    else:
        report = _STUDIES[args.bench_command](config)
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


def dispatch(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
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
