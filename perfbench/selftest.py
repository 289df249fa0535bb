"""Quick self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, twice, untraced and traced, and
confirms that the rounds agree bit for bit, that no operation failed, that
every correctness check passes on the real outputs and rejects a
deliberately corrupted copy of them, and that tracing leaves the package
as it found it.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import copy
import os
import sys

import run


def _rejects(check, outputs) -> bool:
    try:
        return not check.holds(check.corrupt(copy.deepcopy(outputs)))
    except (KeyError, IndexError, TypeError, ValueError, ArithmeticError):
        return True


def main() -> int:
    run.bootstrap()
    import tracing
    import workloads

    problems = []
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(seed=7, workdir=os.path.join(run.OUT, "selftest", name), tiny=True)
        workload.setup()
        plain = workload.round()
        tracer = tracing.Tracer()
        before = {key: dict(vars(m)) for key, m in sys.modules.items() if key.startswith("reconstruct")}
        tracer.install("round")
        try:
            traced = workload.round()
        finally:
            tracer.uninstall()
        after = {key: dict(vars(m)) for key, m in sys.modules.items() if key.startswith("reconstruct")}
        outputs = workload.collect(traced)
        if plain.fingerprint != traced.fingerprint:
            problems.append(f"{name}: traced and untraced rounds differ")
        if plain.failed or traced.failed:
            problems.append(f"{name}: failed operations {plain.errors + traced.errors}")
        if before != after:
            problems.append(f"{name}: tracing left the package modules changed")
        if not any(key.endswith(".calls") and v for key, v in tracer.totals["round"].items()):
            problems.append(f"{name}: the traced round recorded no spans")
        for check in workload.checks():
            if not check.holds(outputs):
                problems.append(f"{name}: check fails on real outputs: {check.name}")
            elif not _rejects(check, outputs):
                problems.append(f"{name}: check accepts corrupted outputs: {check.name}")
        print(f"{name}: {len(workload.checks())} checks, {plain.attempted} operations per round")
    for p in problems:
        print("FAIL", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
