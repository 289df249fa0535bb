"""Spans around calls into the reconstruct package's public functions.

A traced round swaps each listed function, in every package module that
holds it, for a wrapper that records a span (name, phase, start, end,
parent) and the function's self time: its span minus the time of the
spans it caused.  Spans are kept in memory and written out when the run
ends.  Private helpers are not wrapped, so their time counts toward the
public caller (the rate search inside ``estimate_kernel_params``, for
example).
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, function) pairs whose calls are spanned.  ``cli.dispatch``
# spans are named after the subcommand: cli.fit, cli.predict, ...
TRACED = (
    ("numerics", "spd_factor"),
    ("numerics", "fdp_hat_trace"),
    ("numerics", "banded_spd_solve"),
    ("kernels", "kernel_matrix"),
    ("interpolators", "fit_natural_spline"),
    ("interpolators", "spline_eval"),
    ("interpolators", "gp_basis_build"),
    ("interpolators", "design_matrix"),
    ("designs", "select_knots"),
    ("estimators", "estimate_kernel_params"),
    ("estimators", "select_lambda"),
    ("estimators", "fit_krr"),
    ("estimators", "fit_gprr"),
    ("estimators", "fit_fdp"),
    ("estimators", "predict"),
    ("baselines", "fit_nystrom"),
    ("baselines", "estimate_variances"),
    ("baselines", "fit_spgp"),
    ("baselines", "fit_gpr"),
    ("benchmarks", "simulate"),
    ("benchmarks", "test_function"),
    ("cli", "dispatch"),
)


class _Call:
    """Arguments of one wrapped call, bound to names on first use."""

    _signatures: dict = {}

    def __init__(self, fn, args, kwargs):
        self.fn, self.args, self.kwargs = fn, args, kwargs
        self._bound = None

    def arg(self, name):
        if self._bound is None:
            sig = self._signatures.get(self.fn)
            if sig is None:
                sig = self._signatures[self.fn] = inspect.signature(self.fn)
            bound = sig.bind(*self.args, **self.kwargs)
            bound.apply_defaults()
            self._bound = bound.arguments
        return self._bound[name]


def _gcv_pick(call, result):
    """A fit asked to choose lambda by GCV; count the pick and whether it
    landed on an end of the grid."""
    if call.arg("lambda_policy") != "gcv":
        return {}
    grid = call.arg("grid")
    if grid is None:
        grid = sys.modules["reconstruct.estimators"].DEFAULT_LAMBDA_GRID
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if grid.size < 2:
        return {}
    edge = result.lam in (float(grid.min()), float(grid.max()))
    return {"estimators.gcv.picks": 1, "estimators.gcv.edge_picks": int(edge)}


def _bcd_counts(call, result):
    trace = result.objective_trace
    sweeps = len(trace) - 1
    converged = sweeps >= 1 and trace[-2] - trace[-1] < call.arg("tol") * max(trace[-2], 1e-300)
    capped = sweeps == call.arg("max_iter") and not converged
    return {
        "estimators.estimate_kernel_params.sweeps": sweeps,
        "estimators.estimate_kernel_params.capped": int(capped),
    }


def _cli_rows(call, result):
    argv = call.args[0]
    if argv[0] != "predict" or result != 0:
        return {}
    with open(argv[argv.index("--out") + 1], "rb") as fh:
        lines = fh.read().count(b"\n")
    return {"cli.predict.rows": lines - 1}


_HOOKS = {
    "numerics.spd_factor": lambda call, r: {"numerics.spd_factor.jittered": int(r.jitter_applied > 0)},
    "kernels.kernel_matrix": lambda call, r: {"kernels.kernel_matrix.entries": r.size},
    "estimators.predict": lambda call, r: {"estimators.predict.rows": len(r)},
    "designs.select_knots": lambda call, r: {"designs.select_knots.trials": call.arg("trials")},
    "estimators.estimate_kernel_params": _bcd_counts,
    "estimators.fit_krr": _gcv_pick,
    "estimators.fit_gprr": _gcv_pick,
    "estimators.fit_fdp": _gcv_pick,
    "baselines.fit_gpr": _gcv_pick,
    "baselines.fit_nystrom": _gcv_pick,
    "cli.dispatch": _cli_rows,
}

# metric = numerator / denominator, both per-layer totals
_RATES = {
    "kernels.kernel_matrix.entries_per_s": ("kernels.kernel_matrix.entries", "kernels.kernel_matrix.self_s"),
    "designs.select_knots.trials_per_s": ("designs.select_knots.trials", "designs.select_knots.self_s"),
}


class Tracer:
    """Collects spans and per-layer totals for the rounds it is installed in."""

    def __init__(self):
        self.spans = []  # [name, phase, start, end, parent, self_s]
        self.totals = defaultdict(Counter)  # phase -> metric -> total
        self.units = Counter()  # phase -> set-ups or rounds traced
        self.phase = None
        self._stack = []  # [span index, time of child spans]
        self._patched = []

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)
        named_by_command = name == "cli.dispatch"

        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            span_name = "cli." + args[0][0] if named_by_command else name
            self.spans.append(None)
            frame = [index, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            totals = self.totals[self.phase]
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self_s = end - start - frame[1]
                self.spans[index] = [span_name, self.phase, start, end, parent, self_s]
                totals[span_name + ".calls"] += 1
                totals[span_name + ".self_s"] += self_s
            if hook is not None:
                totals.update(hook(_Call(fn, args, kwargs), result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, phase):
        """Wrap every traced function wherever a package module holds it."""
        self.phase = phase
        self.units[phase] += 1
        modules = [m for key, m in sys.modules.items() if key == "reconstruct" or key.startswith("reconstruct.")]
        for module_name, fn_name in TRACED:
            original = getattr(importlib.import_module(f"reconstruct.{module_name}"), fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        self.phase = None

    def metrics(self, names):
        """Each named metric per set-up plus per traced round; 0 for a
        layer the workload never called."""
        per_unit = Counter()
        for phase, totals in self.totals.items():
            for key, value in totals.items():
                per_unit[key] += value / self.units[phase]
        out = {}
        for name in names:
            if name in _RATES:
                num, den = (per_unit[k] for k in _RATES[name])
                out[name] = num / den if den > 0 else 0.0
            else:
                out[name] = float(per_unit[name])
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
