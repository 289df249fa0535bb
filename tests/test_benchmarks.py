import json
import math
import os

import numpy as np
import pytest

from reconstruct.benchmarks import (
    BOREHOLE_RANGES,
    ExperimentConfig,
    _map_indexed,
    borehole_inputs,
    evaluate,
    load_ccpp,
    mise_1d,
    run_replication_study,
    run_table1,
    run_table3,
    simulate,
)
from reconstruct.benchmarks import test_function as benchmark_fn
from reconstruct.designs import equispaced_knots, replication_design
from reconstruct.errors import BadSchema, DimensionMismatch, UnknownFunction
from reconstruct.estimators import fit_replication
from reconstruct.interpolators import interpolation_error, kernel_interp_eval
from reconstruct.kernels import default_gaussian

from conftest import f1d

# desk-evaluated directly from the flow formula at the range midpoints,
# before the implementation existed
BOREHOLE_MIDPOINT_VALUE = 53.468658062575145


class TestFunctions:
    def test_weighted_sphere_corner(self):
        assert benchmark_fn("I", np.array([1.0, 1.0])) == pytest.approx(3.0)

    def test_yang_at_zero(self):
        assert benchmark_fn("III", np.zeros(4)) == pytest.approx(0.0)

    def test_printed_ackley_at_zero(self):
        for d in (2, 4):
            got = benchmark_fn("II", np.zeros(d))
            assert got == pytest.approx(math.e - 1.0, rel=1e-12)

    def test_standard_ackley_at_zero(self):
        assert benchmark_fn("II", np.zeros(3), ackley_standard=True) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_f1d_at_zero(self):
        assert benchmark_fn("f1d", 0.0) == pytest.approx(1.0)

    def test_borehole_midpoint_golden(self):
        got = benchmark_fn("borehole", np.full(8, 0.5))
        assert got == pytest.approx(BOREHOLE_MIDPOINT_VALUE, abs=1e-9)

    def test_borehole_range_mapping(self):
        lo = borehole_inputs(np.zeros(8))
        hi = borehole_inputs(np.ones(8))
        np.testing.assert_allclose(lo, [v[0] for v in BOREHOLE_RANGES.values()])
        np.testing.assert_allclose(hi, [v[1] for v in BOREHOLE_RANGES.values()])

    def test_borehole_dimension(self):
        with pytest.raises(DimensionMismatch):
            benchmark_fn("borehole", np.zeros(4))

    def test_unknown(self):
        with pytest.raises(UnknownFunction):
            benchmark_fn("zzz", np.zeros(2))


class TestSimulate:
    def test_zero_noise(self):
        data = simulate("I", 50, 2, 0.0, seed=3)
        np.testing.assert_allclose(data.y, benchmark_fn("I", data.X), atol=1e-14)

    def test_same_seed_identical(self):
        a = simulate("III", 40, 3, 0.5, seed=11)
        b = simulate("III", 40, 3, 0.5, seed=11)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    def test_noise_variance_band(self):
        data = simulate("I", 10_000, 2, 1.0, seed=5)
        resid = data.y - benchmark_fn("I", data.X)
        assert 0.94 <= np.var(resid) <= 1.06


class TestMetrics:
    def test_perfect_model_zero_mse(self, rng):
        kn = equispaced_knots(5)
        model = fit_replication(replication_design(kn, 1), f1d(kn), "spline")
        grid = kn[:, None]
        assert evaluate(model, grid, f1d(kn)) == pytest.approx(0.0, abs=1e-20)

    def test_two_point_mse(self):
        kn = equispaced_knots(2)
        model = fit_replication(
            replication_design(kn, 1), np.array([1.0, 3.0]), "spline"
        )
        got = evaluate(model, kn[:, None], np.array([0.0, 0.0]))
        assert got == pytest.approx(5.0)

    def test_mise_of_constant_offset(self):
        val = mise_1d(lambda g: f1d(g) + 0.4, f1d)
        assert val == pytest.approx(0.16, rel=1e-10)

    def test_mise_of_linear_gap(self):
        val = mise_1d(lambda g: f1d(g) + g, f1d)
        assert val == pytest.approx(1.0 / 3.0, abs=1e-5)

    def test_mise_perfect(self):
        assert mise_1d(f1d, f1d) == 0.0


class TestTable1:
    def test_deterministic_and_recomputable(self):
        cfg = ExperimentConfig(
            function="I", d=2, n=60, repetitions=3, test_size=100, seed=77
        )
        a = run_table1(cfg)
        b = run_table1(cfg)
        assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
            b.to_json_dict(), sort_keys=True
        )
        for method, stats in a.summary.items():
            vals = [r["mse"][method] for r in a.per_run]
            assert stats["mean"] == pytest.approx(np.mean(vals), abs=1e-12)
            assert stats["sd"] == pytest.approx(np.std(vals, ddof=1), abs=1e-12)

    def test_zero_noise_interpolation_regime(self):
        # lambda grid pinned at zero: the fit interpolates and the
        # reconstruction error is at numerical noise level
        cfg = ExperimentConfig(
            function="I",
            d=1,
            n=150,
            sigma=0.0,
            methods=("gprr",),
            repetitions=2,
            test_size=400,
            seed=5,
            lambda_grid=[0.0],
        )
        report = run_table1(cfg)
        assert not report.errors
        assert report.summary["gprr"]["mean"] < 1e-10

    @pytest.mark.parametrize("caller", [None, "2"], ids=["unset", "set"])
    def test_caller_thread_settings_restored(self, monkeypatch, caller):
        for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            if caller is None:
                monkeypatch.delenv(key, raising=False)
            else:
                monkeypatch.setenv(key, caller)
        cfg = ExperimentConfig(function="I", d=2, n=40, repetitions=2, test_size=50, seed=3)
        assert not run_table1(cfg).errors
        assert os.environ.get("OPENBLAS_NUM_THREADS") == caller
        assert os.environ.get("OMP_NUM_THREADS") == caller

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_workers_run_on_one_blas_thread(self, monkeypatch, jobs):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        # each repetition calls os.getenv(name, index) in a worker
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            assert _map_indexed(os.getenv, name, 3, jobs) == ["1"] * 3
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
        assert "OMP_NUM_THREADS" not in os.environ

    def test_seed_required(self):
        with pytest.raises(ValueError):
            run_table1(ExperimentConfig(seed=None))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            run_table1(ExperimentConfig(seed=1, methods=("spgp",)))


class TestTable3:
    def test_smoke_small_scale(self):
        cfg = ExperimentConfig(
            function="borehole",
            d=8,
            n=300,
            m=30,
            sigma=1.0,
            methods=("nystrom", "spgp", "gprr"),
            repetitions=1,
            inner_draws=2,
            test_size=200,
            seed=4,
            bcd_max_iter=2,
        )
        report = run_table3(cfg)
        assert set(report.summary) == {"nystrom", "spgp", "gprr"}
        for stats in report.summary.values():
            assert np.isfinite(stats["mmse"])
        assert len(report.knots[0]) == 2
        assert len(report.knots[0][0]) == 30
        # indices point into the training sample
        assert max(report.knots[0][0]) < 300

    def test_deterministic(self):
        cfg = ExperimentConfig(
            function="borehole", d=8, n=200, m=16, methods=("gprr",),
            repetitions=1, inner_draws=1, test_size=100, seed=9, bcd_max_iter=1,
        )
        a, b = run_table3(cfg), run_table3(cfg)
        assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
            b.to_json_dict(), sort_keys=True
        )


class TestReplicationStudy:
    def test_zero_noise_equals_pure_interpolation(self):
        cfg = ExperimentConfig(
            function="f1d", d=1, m=7, repetitions=2, seed=21, sigma_grid=[0.0]
        )
        report = run_replication_study(cfg)
        kn_c = np.array(
            [0.5 - np.cos((2 * j - 1) * np.pi / 14) / 2 for j in range(1, 8)]
        )
        model = fit_replication(replication_design(np.sort(kn_c), 1), f1d(np.sort(kn_c)), "lagrange")
        expect = mise_1d(model, f1d)
        got = report.summary["lagrange"]["0.0"]["mean"]
        assert got == pytest.approx(expect, rel=1e-10)

    def test_mise_increases_with_noise(self):
        cfg = ExperimentConfig(
            function="f1d",
            d=1,
            m=7,
            repetitions=10,
            seed=3,
            sigma_grid=[0.05, 0.15, 0.25, 0.35, 0.45, 0.55],
        )
        report = run_replication_study(cfg)
        from scipy.stats import spearmanr

        for method in ("lagrange", "spline"):
            means = [report.summary[method][str(s)]["mean"] for s in cfg.sigma_grid]
            rho = spearmanr(cfg.sigma_grid, means).statistic
            assert rho > 0.9


class TestKernelInterpolatorDiagnostic:
    def test_error_decreases_with_knots(self):
        spec = default_gaussian(1)
        errs = []
        for m in (5, 10, 20, 40):
            kn = equispaced_knots(m)[:, None]
            errs.append(
                interpolation_error(
                    lambda pts: kernel_interp_eval(kn, f1d(kn[:, 0]), spec, pts),
                    lambda pts: f1d(pts[:, 0]),
                    d=1,
                    grid_size=2001,
                )
            )
        assert all(a > b for a, b in zip(errs, errs[1:]))


class TestCcppLoading:
    def _write(self, path, rows, header="AT,V,AP,RH,PE"):
        lines = [header] + [",".join(f"{v}" for v in row) for row in rows]
        path.write_text("\n".join(lines) + "\n")

    def test_scaling_hand_checked(self, tmp_path):
        rows = [[float(i), 10.0 * i, 5.0, 100.0 - i, 400.0 + i] for i in range(10)]
        f = tmp_path / "mini.csv"
        self._write(f, rows)
        with pytest.warns(UserWarning):
            data = load_ccpp(f)
        assert data.X.shape == (10, 4)
        # AT runs 0..9 -> scaled i/9
        np.testing.assert_allclose(data.X[:, 0], np.arange(10) / 9.0, atol=1e-12)
        # AP is constant -> zero after scaling (span guard)
        np.testing.assert_allclose(data.X[:, 2], 0.0, atol=1e-12)
        np.testing.assert_allclose(data.y, 400.0 + np.arange(10))
        assert data.Xtest is None
        assert data.meta["row_count"] == 10

    def test_train_minmax_map_to_unit(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = np.column_stack(
            [rng.random(30) * 40, rng.random(30) * 80, rng.random(30) + 1000,
             rng.random(30) * 100, rng.random(30) * 80 + 420]
        )
        f = tmp_path / "mini.csv"
        self._write(f, rows.tolist())
        with pytest.warns(UserWarning):
            data = load_ccpp(f)
        np.testing.assert_allclose(data.X.min(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(data.X.max(axis=0), 1.0, atol=1e-12)

    def test_bad_schema(self, tmp_path):
        f = tmp_path / "bad.csv"
        self._write(f, [[1.0, 2.0, 3.0]], header="a,b,c")
        with pytest.raises(BadSchema):
            load_ccpp(f)


class TestSequentialKnots:
    def test_trajectory_on_synthetic_data(self):
        from reconstruct.benchmarks import Dataset, run_ccpp

        rng = np.random.default_rng(17)
        X = rng.random((300, 3))
        f = lambda Z: np.sin(3 * Z[:, 0]) + Z[:, 1] ** 2
        y = f(X) + 0.1 * rng.normal(size=300)
        Xt = rng.random((80, 3))
        data = Dataset(X=X, y=y, Xtest=Xt, ytest=f(Xt))
        cfg = ExperimentConfig(m=8, iterations=3, trials=100, seed=6,
                               bcd_max_iter=2)
        report = run_ccpp(data, cfg)
        traj = report.per_run
        assert traj[0]["m"] == 8
        ms = [t["m"] for t in traj]
        assert ms == list(range(8, 8 + len(traj)))
        assert all(np.isfinite(t["gcv"]) for t in traj)
        assert all(np.isfinite(t["test_error"]) for t in traj)
        # every knot index points into the training sample, no repeats
        assert len(set(report.knots)) == len(report.knots)
        assert max(report.knots) < 300
        assert "gprr" in report.summary["initial_test_errors"]

    def test_method_failure_goes_to_errors(self):
        from reconstruct.benchmarks import Dataset, run_ccpp

        rng = np.random.default_rng(17)
        X = rng.random((200, 2))
        y = np.sin(3 * X[:, 0]) + 0.1 * rng.normal(size=200)
        Xt = rng.random((40, 2))
        data = Dataset(X=X, y=y, Xtest=Xt, ytest=np.sin(3 * Xt[:, 0]))
        # a one-point grid at zero fixes lambda = 0, which Nystrom cannot fit
        cfg = ExperimentConfig(m=6, iterations=1, trials=50, seed=6, bcd_max_iter=1,
                               lambda_grid=[0.0])
        report = run_ccpp(data, cfg)
        assert [e["method"] for e in report.errors] == ["nystrom"]
        assert report.errors[0]["error"].startswith("SingularSystem")
        assert set(report.summary["initial_test_errors"]) == {"gprr", "spgp"}
