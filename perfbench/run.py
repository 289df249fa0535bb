"""Seeded benchmark of the reconstruct package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/``.  A
run times the package import and makes the workload's inputs from the
seed, three times each, repeats whole rounds of the workload's operations
for about S seconds, checks the outputs, and prints one JSON object as its
last line of output: the end-to-end metrics with ``--trace 0`` and the
per-layer metrics with ``--trace 1``.  The metric names and units come from
BENCHMARK.json.  A results file with machine facts goes to
perfbench/out/results/, and a traced run also writes its spans to
perfbench/out/spans/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# set-ups per run; setup_s reports their median
SETUPS = 3
# times the package import in a fresh interpreter, one of the set-ups
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import numpy, reconstruct; print(time.perf_counter() - t)"
)
# On 2 CPUs, two OpenBLAS threads made a borehole draw 1.6x slower than one
# thread (the m x m solves are too small to split) and doubled its spread.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# On a shared machine the speed drifts by a quarter over minutes, which gave
# the raw time metrics a quartile spread of 0.2 to 0.3 over ten runs.  A run
# times a fixed calibration loop around the set-ups and between rounds, and
# scales each time by this reference over the mean of the two calibrations
# around it.  The raw times stay in the results file.
CALIBRATION_REF_S = 0.1


def bootstrap():
    """Fix the BLAS thread count and put ``src`` first on the import path.
    Must run before numpy is imported."""
    if not os.path.isfile(os.path.join(SRC, "reconstruct", "__init__.py")):
        raise SystemExit(f"error: no reconstruct package under {SRC}; run from a full checkout")
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": BLAS_THREADS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def calibration_seconds() -> float:
    """Median of three passes over a fixed loop that mixes the package's
    kinds of work: many small-array numpy calls, a memory-bound broadcast
    and exp, and a dense symmetric eigensolve."""
    import numpy as np

    rng = np.random.default_rng(0)
    small, P, Q = rng.random((40, 4)), rng.random((800, 8)), rng.random((2000, 8))
    M = rng.random((200, 200))
    M = M + M.T
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(600):
            d = np.abs(small[:, None, :] - small[None, :, :])
            np.clip(d, 1e-12, None, out=d)
            np.sum(1.0 / d, axis=2).max()
        acc = np.zeros((P.shape[0], Q.shape[0]))
        for j in range(P.shape[1]):
            acc += (P[:, j, None] - Q[None, :, j]) ** 2
        np.exp(-acc, out=acc)
        np.linalg.eigh(M)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def speed_factor(before, after) -> float:
    """The reference calibration time over the mean of two calibrations."""
    return CALIBRATION_REF_S / ((before + after) / 2.0)


def import_seconds() -> float:
    """Median time to import numpy and the package in a fresh interpreter."""
    times = []
    for _ in range(SETUPS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC],
                             capture_output=True, text=True, check=True)
        times.append(float(out.stdout))
    return statistics.median(times)


def measure(workload, seconds, tracer, calibration):
    """Whole rounds until the next one would end after ``seconds``.  A traced
    run alternates untraced and traced rounds and makes at least one of each.
    Each round gets the speed factor of the calibrations on either side of
    it; ``calibration`` is the one made just before the first round."""
    rounds = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install("round")
        try:
            r = workload.round()
        finally:
            if traced:
                tracer.uninstall()
        after = calibration_seconds()
        r.speed, calibration = speed_factor(calibration, after), after
        rounds.append((traced, r))
        typical = statistics.median(x.wall_s for _, x in rounds)
        enough = tracer is None or len(rounds) >= 2
        if enough and time.perf_counter() - start + typical > seconds:
            return rounds
        # only the last round's outputs are checked; holding more would
        # make peak memory depend on the number of rounds
        r.outputs = {}


def run_checks(workload, outputs, rounds):
    results = {}
    for check in workload.checks():
        try:
            results[check.name] = bool(check.holds(outputs))
        except Exception as exc:  # noqa: BLE001 - a check that cannot run has failed
            print(f"check {check.name!r} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            results[check.name] = False
    results["rounds repeat bit for bit"] = len({r.fingerprint for _, r in rounds}) == 1
    return results


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    bootstrap()
    import tracing
    import workloads

    calibrations = [calibration_seconds()]
    import_s = import_seconds()
    tracer = tracing.Tracer() if args.trace else None
    workload = workloads.WORKLOADS[args.workload](
        args.seed, os.path.join(OUT, "inputs", args.workload))
    setup_times = []
    for _ in range(SETUPS):
        if tracer:
            tracer.install("setup")
        t = time.perf_counter()
        try:
            workload.setup()
        finally:
            setup_times.append(time.perf_counter() - t)
            if tracer:
                tracer.uninstall()
    calibrations.append(calibration_seconds())

    rounds = measure(workload, args.seconds, tracer, calibrations[-1])
    outputs = workload.collect(rounds[-1][1])
    checks = run_checks(workload, outputs, rounds)
    untraced = [r for traced, r in rounds if not traced]
    traced = [r for was, r in rounds if was]
    # the first round warms the process (20% slower on lambda-select) and is
    # left out of the timings when more rounds follow
    timed = untraced[1:] or untraced

    raw = {
        "setup_s": import_s + statistics.median(setup_times),
        "wall_s": statistics.median(r.wall_s for r in timed),
        "fit_s": statistics.median(f for r in timed for f in r.fit_s),
        "predict_rows_per_s": sum(r.predict_rows for r in timed) / sum(r.predict_s for r in timed),
    }
    end_to_end = {
        "setup_s": raw["setup_s"] * speed_factor(*calibrations),
        "wall_s": statistics.median(r.wall_s * r.speed for r in timed),
        "fit_s": statistics.median(f * r.speed for r in timed for f in r.fit_s),
        "predict_rows_per_s": (sum(r.predict_rows for r in timed)
                               / sum(r.predict_s * r.speed for r in timed)),
        "test_mse": workload.test_mse(outputs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    per_layer = {}
    if tracer:
        names = [m["name"] for m in spec["per_layer"] if m["name"] != "trace.overhead_s"]
        per_layer = tracer.metrics(names)
        per_layer["trace.overhead_s"] = statistics.median(r.wall_s for r in traced) - raw["wall_s"]
    wanted = spec["per_layer"] if tracer else spec["end_to_end"]
    values = per_layer if tracer else end_to_end
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    result = {
        "correct": all(checks.values()),
        "attempted": sum(r.attempted for _, r in rounds),
        "failed": sum(r.failed for _, r in rounds),
        "metrics": metrics,
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(
        result,
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        machine=machine_facts(),
        end_to_end=end_to_end, raw_times=raw, per_layer=per_layer, checks=checks,
        setup_calibrations=calibrations, import_s=import_s, setup_times=setup_times,
        rounds=[{"traced": t, "wall_s": r.wall_s, "fit_s": r.fit_s, "speed": r.speed,
                 "attempted": r.attempted, "failed": r.failed, "errors": r.errors}
                for t, r in rounds],
    )
    with open(os.path.join(OUT, "results", stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer:
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        tracer.write_spans(os.path.join(OUT, "spans", stem + ".jsonl"))

    for name, ok in checks.items():
        print(f"check {'PASS' if ok else 'FAIL'}: {name}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
