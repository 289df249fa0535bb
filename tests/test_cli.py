import ast
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import reconstruct
from reconstruct import cli
from reconstruct.benchmarks import ExperimentConfig
from reconstruct.cli import _read_xy, _write_json, dispatch
from reconstruct.designs import select_knots
from reconstruct.estimators import (
    _fdp_rss_and_dof,
    _gcv_curve,
    _kriging_spectrum,
    _subset_spectrum,
    estimate_kernel_params,
    model_from_json,
    predict,
)
from reconstruct.interpolators import KnotSet, regression_matrix
from reconstruct.kernels import default_gaussian, kernel_matrix


@pytest.fixture
def train_csv(tmp_path, rng):
    X = rng.random((60, 2))
    y = np.sin(4 * X[:, 0]) + 0.2 * rng.normal(size=60)
    path = tmp_path / "train.csv"
    lines = ["x1,x2,y"] + [f"{float(a)!r},{float(b)!r},{float(c)!r}" for (a, b), c in zip(X, y)]
    path.write_text("\n".join(lines) + "\n")
    return path, X, y


def _genfromtxt_xy(path):
    """The CLI's reader of a table with a ``y`` column before tables went
    through np.loadtxt, kept as the reference that the current reader must
    match bitwise."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        data = np.genfromtxt(path, delimiter=",", names=True)
    names = list(data.dtype.names)
    cols = {name: np.atleast_1d(data[name]).astype(float) for name in names}
    return np.column_stack([cols[n] for n in names if n != "y"]), cols["y"]


def _assert_bitwise(got, expect):
    assert got.dtype == expect.dtype and got.shape == expect.shape
    assert got.tobytes() == expect.tobytes()


class TestBasics:
    def test_help_exits_zero(self, capsys):
        assert dispatch(["--help"]) == 0

    def test_unknown_flag_rejected(self, capsys):
        assert dispatch(["fit", "--nope", "x"]) == 1

    def test_unknown_command_rejected(self, capsys):
        assert dispatch(["frobnicate"]) == 1

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        rc = dispatch(
            ["fit", "--data", str(tmp_path / "nope.csv"), "--out",
             str(tmp_path / "m.json")]
        )
        assert rc == 2

    def test_malformed_csv_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,y\n0.5,hello\n")
        rc = dispatch(["fit", "--data", str(bad), "--out", str(tmp_path / "m.json")])
        assert rc == 2


class TestCsvReader:
    @pytest.mark.parametrize("text", [
        "x1 , y\n0.5,2\n0.25,3\n",
        '"x1", "y"\n0.5,2\n0.25,3\n',
        "# x1,y\n0.1,1\n0.2,2\n",
        "\n\nx1,y\n0.1,1\n0.2,2\n",
        "x1,y\n0.1,1\n# note\n\n0.2,2 # tail\n0.3,3\n",
        "x1,x2,y\r\n0.1,0.5,1\r\n0.2,0.75,2\r\n",
        "x1,x2,y\n0.1,0.5,1\n",
        "x1,x2,y\n",
        "x,y,y\n1,2,3\n4,5,6\n",
    ], ids=["spaced-header", "quoted-header", "hash-header", "blank-before-header", "comments-between-rows",
            "crlf", "one-row", "header-only", "two-y-columns"])
    def test_matches_genfromtxt(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            X, y = _read_xy(path)
        X_ref, y_ref = _genfromtxt_xy(path)
        _assert_bitwise(X, X_ref)
        _assert_bitwise(y, y_ref)

    @pytest.mark.parametrize("text", [
        "x1,y\n0.1,1\n0.2\n",
        "x1,y\n0.1,1,5\n0.2,2,6\n",
        "x1,y\n0.1,\n",
        "x1,y\n0.1,hello\n",
        "x1,y\n0.1,inf\n",
        "x1,y\n0.1,nan\n",
        "",
    ], ids=["ragged", "extra-column", "empty-cell", "text", "inf", "nan", "empty-file"])
    def test_rejected_naming_the_file(self, tmp_path, text, capsys):
        path = tmp_path / "t.csv"
        path.write_text(text)
        rc = dispatch(["fit", "--data", str(path), "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert f"{path}: " in capsys.readouterr().err

    @settings(max_examples=60, deadline=None)
    @given(
        table=hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(2, 5)),
                         elements=st.floats(allow_nan=False, allow_infinity=False)),
        y_at=st.integers(0, 4),
        fmt=st.sampled_from(["{!r}", "{:.17g}"]),
    )
    def test_random_tables_match_genfromtxt(self, tmp_path_factory, table, y_at, fmt):
        names = [f"x{j + 1}" for j in range(table.shape[1] - 1)]
        names.insert(y_at % table.shape[1], "y")
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        path.write_text(",".join(names) + "\n" + "".join(
            ",".join(fmt.format(v) for v in row) + "\n" for row in table.tolist()))
        X, y = _read_xy(path)
        X_ref, y_ref = _genfromtxt_xy(path)
        _assert_bitwise(X, X_ref)
        _assert_bitwise(y, y_ref)


class TestFitPredict:
    def test_round_trip_matches_in_process(self, tmp_path, train_csv, capsys):
        path, X, y = train_csv
        out = tmp_path / "model.json"
        assert dispatch([
            "fit", "--data", str(path), "--method", "gprr", "--out", str(out)
        ]) == 0
        model = model_from_json(json.loads(out.read_text()))
        pts = tmp_path / "pts.csv"
        Xs = np.random.default_rng(5).random((10, 2))
        pts.write_text(
            "x1,x2\n" + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in Xs) + "\n"
        )
        pred_csv = tmp_path / "pred.csv"
        assert dispatch([
            "predict", "--model", str(out), "--data", str(pts), "--out", str(pred_csv)
        ]) == 0
        got = np.array([float(v) for v in pred_csv.read_text().splitlines()[1:]])
        expect = predict(model, Xs)
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12)

    def test_prediction_file_bytes(self, tmp_path, train_csv, capsys):
        path, _, _ = train_csv
        out = tmp_path / "model.json"
        assert dispatch(["fit", "--data", str(path), "--method", "gprr", "--m", "10",
                         "--seed", "7", "--out", str(out)]) == 0
        Xs = np.random.default_rng(6).random((25, 2))
        pts = tmp_path / "pts.csv"
        pts.write_text("x1,x2\n" + "".join(f"{a!r},{b!r}\n" for a, b in Xs.tolist()))
        pred_csv = tmp_path / "pred.csv"
        assert dispatch(["predict", "--model", str(out), "--data", str(pts),
                         "--out", str(pred_csv)]) == 0
        expect = predict(model_from_json(json.loads(out.read_text())), Xs)
        text = "prediction\n" + "".join(f"{v!r}\n" for v in expect.tolist())
        assert pred_csv.read_bytes() == text.encode()
        _assert_bitwise(np.loadtxt(pred_csv, skiprows=1, ndmin=1), expect)

    @pytest.mark.parametrize("values", [
        [-0.0, 0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324],
        [1.0, -2.0, 3e15, 2.0**53, 1e16, 0.1, 1.0 / 3.0],
        [-1.5],
        (np.random.default_rng(8).standard_normal(500)
         * 10.0 ** np.random.default_rng(9).integers(-320, 300, 500)).tolist(),
        [],
    ], ids=["tiny-huge-signed-zero", "whole-numbers", "one-negative", "random-wide-exponents",
            "no-rows"])
    def test_prediction_file_is_one_repr_per_row(self, tmp_path, train_csv, monkeypatch,
                                                 values, capsys):
        path, _, _ = train_csv
        out = tmp_path / "model.json"
        assert dispatch(["fit", "--data", str(path), "--method", "krr",
                         "--out", str(out)]) == 0
        preds = np.array(values, dtype=float)
        monkeypatch.setattr("reconstruct.cli.predict", lambda model, Xs: preds)
        pts = tmp_path / "pts.csv"
        pts.write_text("x1,x2\n0.5,0.5\n")
        pred_csv = tmp_path / "pred.csv"
        assert dispatch(["predict", "--model", str(out), "--data", str(pts),
                         "--out", str(pred_csv)]) == 0
        text = "prediction\n" + "".join(f"{v!r}\n" for v in preds.tolist())
        assert pred_csv.read_bytes() == text.encode()
        if values:
            _assert_bitwise(np.loadtxt(pred_csv, skiprows=1, ndmin=1), preds)

    def test_full_knot_trend_on_too_few_rows_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "two.csv"
        data.write_text("x1,x2,y\n0.1,0.2,1.0\n0.7,0.4,2.0\n")
        rc = dispatch(["fit", "--data", str(data), "--method", "gpr", "--lambda", "0.1",
                       "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert "need more knots (2) than regression functions (3)" in capsys.readouterr().err

    def test_gcv_fit_on_a_constant_feature_is_data_error(self, tmp_path, rng, capsys):
        # the constant x2 makes the linear trend rank deficient
        X = rng.random((80, 2))
        X[:, 1] = 0.5
        data = tmp_path / "flat.csv"
        np.savetxt(data, np.column_stack([X, np.sin(4 * X[:, 0])]), delimiter=",",
                   header="x1,x2,y", comments="")
        out = tmp_path / "m.json"
        rc = dispatch(["fit", "--data", str(data), "--method", "gpr", "--out", str(out)])
        assert rc == 2
        assert "GLS trend matrix of rank < 3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["", "\n\n  \n"], ids=["empty", "blank-lines"])
    def test_fit_without_header_is_data_error(self, tmp_path, text, capsys):
        data = tmp_path / "empty.csv"
        data.write_text(text)
        rc = dispatch(["fit", "--data", str(data), "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert f"{data}: expected a header row" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["", "\n\n  \n"], ids=["empty", "blank-lines"])
    def test_predict_without_header_is_data_error(self, tmp_path, train_csv, text, capsys):
        path, _, _ = train_csv
        out = tmp_path / "model.json"
        assert dispatch(["fit", "--data", str(path), "--method", "krr", "--out", str(out)]) == 0
        data = tmp_path / "empty.csv"
        data.write_text(text)
        pred = tmp_path / "pred.csv"
        rc = dispatch(["predict", "--model", str(out), "--data", str(data), "--out", str(pred)])
        assert rc == 2
        assert f"{data}: expected a header row" in capsys.readouterr().err
        assert not pred.exists()

    @pytest.mark.parametrize("field,value", [
        ("w", "nan"), ("beta", "inf"), ("interpolator", "wavelet"),
    ])
    def test_predict_with_unusable_model_is_data_error(self, tmp_path, train_csv, field, value,
                                                       capsys):
        path, X, _ = train_csv
        out = tmp_path / "model.json"
        assert dispatch(["fit", "--data", str(path), "--method", "gprr", "--m", "10",
                         "--seed", "7", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        if value == "wavelet":
            doc[field] = value
        else:
            doc[field][1] = float(value)
        out.write_text(json.dumps(doc))
        pts = tmp_path / "pts.csv"
        pts.write_text("x1,x2\n" + "".join(f"{a!r},{b!r}\n" for a, b in X[:5].tolist()))
        pred = tmp_path / "pred.csv"
        rc = dispatch(["predict", "--model", str(out), "--data", str(pts), "--out", str(pred)])
        assert rc == 2
        assert f"model field '{field}'" in capsys.readouterr().err
        assert not pred.exists()

    def test_refit_is_byte_identical(self, tmp_path, train_csv, capsys):
        path, _, _ = train_csv
        out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
        for out in (out1, out2):
            assert dispatch([
                "fit", "--data", str(path), "--method", "gprr",
                "--m", "10", "--seed", "7", "--out", str(out),
            ]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_subset_fit_requires_seed(self, tmp_path, train_csv, capsys):
        path, _, _ = train_csv
        rc = dispatch([
            "fit", "--data", str(path), "--m", "10", "--out",
            str(tmp_path / "m.json"),
        ])
        assert rc == 1

    def test_low_rank_methods(self, tmp_path, train_csv, capsys):
        path, _, _ = train_csv
        for method in ("nystrom", "spgp", "eb"):
            out = tmp_path / f"{method}.json"
            assert dispatch([
                "fit", "--data", str(path), "--method", method, "--m", "10",
                "--seed", "3", "--out", str(out),
            ]) == 0
            blob = json.loads(out.read_text())
            assert blob["method"] == method

    def test_estimate_theta_round_trip(self, tmp_path, train_csv, capsys):
        path, X, y = train_csv
        knot_args = ["--m", "8", "--trials", "100", "--seed", "4"]
        out = tmp_path / "gprr.json"
        assert dispatch(["fit", "--data", str(path), "--method", "gprr", *knot_args,
                         "--estimate-theta", "--out", str(out)]) == 0
        theta = json.loads(out.read_text())["kernel"]["theta"]
        assert len(theta) == 2 and all(1e-2 <= t <= 1e3 for t in theta)
        Xs = np.random.default_rng(8).random((30, 2))
        pts, pred_csv = tmp_path / "pts.csv", tmp_path / "pred.csv"
        pts.write_text("x1,x2\n" + "".join(f"{a!r},{b!r}\n" for a, b in Xs.tolist()))
        assert dispatch(["predict", "--model", str(out), "--data", str(pts),
                         "--out", str(pred_csv)]) == 0
        A = select_knots(X, 8, trials=100, seed=4).knots
        expect = predict(estimate_kernel_params(X, y, A, "constant+linear").model, Xs)
        _assert_bitwise(np.loadtxt(pred_csv, skiprows=1, ndmin=1), expect)
        spgp = tmp_path / "spgp.json"
        assert dispatch(["fit", "--data", str(path), "--method", "spgp", *knot_args,
                         "--estimate-theta", "--out", str(spgp)]) == 0
        blob = json.loads(spgp.read_text())
        assert blob["method"] == "spgp" and blob["kernel"]["theta"] == theta

    def test_estimate_theta_with_fewer_knots_than_trend_columns_is_data_error(
            self, tmp_path, rng, capsys):
        # three features give q = 4 trend columns; 3 knots cannot carry them
        data = tmp_path / "three.csv"
        X = rng.random((30, 3))
        data.write_text("x1,x2,x3,y\n" + "".join(
            f"{a!r},{b!r},{c!r},{a + b!r}\n" for a, b, c in X.tolist()))
        out = tmp_path / "gprr.json"
        rc = dispatch(["fit", "--data", str(data), "--m", "3", "--seed", "1",
                       "--estimate-theta", "--out", str(out)])
        assert rc == 2
        assert "need more knots (3) than regression functions (4)" in capsys.readouterr().err
        assert not out.exists()

    def test_estimate_theta_takes_no_theta(self, tmp_path, train_csv, capsys):
        # the rate search starts from its own default rates, so a --theta
        # would be ignored
        path, _, _ = train_csv
        out = tmp_path / "gprr.json"
        assert dispatch(["fit", "--data", str(path), "--m", "8", "--seed", "4", "--theta", "5",
                         "--estimate-theta", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "--theta" in err and "--estimate-theta" in err
        assert not out.exists()

    def test_estimate_theta_needs_knots(self, tmp_path, train_csv, capsys):
        # with every point a knot there are no rates to estimate
        path, _, _ = train_csv
        out = tmp_path / "gprr.json"
        assert dispatch(["fit", "--data", str(path), "--method", "gprr",
                         "--estimate-theta", "--out", str(out)]) == 1
        assert "--m is required" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["krr", "gpr"])
    def test_estimate_theta_rejected_without_knots(self, tmp_path, train_csv, capsys, method):
        # krr and gpr fit at fixed rates; the flag must not be dropped silently
        path, _, _ = train_csv
        out = tmp_path / "model.json"
        assert dispatch(["fit", "--data", str(path), "--method", method,
                         "--estimate-theta", "--out", str(out)]) == 1
        assert "--estimate-theta" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method,extra", [
        ("spgp", []), ("eb", []), ("gprr", ["--estimate-theta"]),
    ], ids=["spgp", "eb", "gprr-estimate-theta"])
    def test_lambda_rejected_where_ignored(self, tmp_path, train_csv, capsys, method, extra):
        # the variance search or the rate search sets the ridge weight, so
        # an explicit --lambda must not be dropped silently
        path, _, _ = train_csv
        out = tmp_path / "model.json"
        assert dispatch(["fit", "--data", str(path), "--method", method, "--m", "8",
                         "--seed", "1", *extra, "--lambda", "0.5", "--out", str(out)]) == 1
        assert "--lambda does not apply" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,method", [
        ("fit", "krr"), ("fit", "gpr"), ("gcv-scan", "krr"), ("gcv-scan", "fdp"),
    ])
    def test_knot_count_rejected_on_full_knot_methods(self, tmp_path, train_csv, capsys,
                                                      command, method):
        # these methods fit on every point; --m must not be dropped silently
        path, _, _ = train_csv
        out = tmp_path / "out.json"
        assert dispatch([command, "--data", str(path), "--method", method, "--m", "8",
                         "--seed", "1", "--out", str(out)]) == 1
        assert f"--m does not apply to method {method}" in capsys.readouterr().err
        assert not out.exists()

    def test_predict_rejects_truncated_model(self, tmp_path, train_csv, capsys):
        path, X, _ = train_csv
        out = tmp_path / "model.json"
        assert dispatch(["fit", "--data", str(path), "--method", "krr", "--out", str(out)]) == 0
        blob = json.loads(out.read_text())
        blob["w"] = blob["w"][:-1]
        out.write_text(json.dumps(blob))
        pts = tmp_path / "pts.csv"
        pts.write_text("x1,x2\n0.5,0.5\n")
        rc = dispatch(["predict", "--model", str(out), "--data", str(pts),
                       "--out", str(tmp_path / "pred.csv")])
        assert rc == 2
        assert "'w'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict", "inspect"])
    @pytest.mark.parametrize("damage,named", [
        (lambda doc: list(doc), "model file must hold a JSON object"),
        (lambda doc: "model", "model file must hold a JSON object"),
        (lambda doc: dict(doc, diagnostics=[1.0]), "model field 'diagnostics'"),
        (lambda doc: dict(doc, g_kind="bogus"), "model field 'g_kind'"),
        (lambda doc: dict(doc, w={"a": 1.0}), "model field 'w'"),
        (lambda doc: dict(doc, beta="abc"), "model field 'beta'"),
        (lambda doc: dict(doc, diagnostics=dict(doc["diagnostics"], gcv=[1])),
         "model field 'diagnostics.gcv'"),
        (lambda doc: dict(doc, diagnostics=dict(doc["diagnostics"], jitter="x")),
         "model field 'diagnostics.jitter'"),
        (lambda doc: dict(doc, diagnostics=dict(doc["diagnostics"], iterations=-1)),
         "model field 'diagnostics.iterations'"),
        (lambda doc: dict(doc, diagnostics=dict(doc["diagnostics"], iterations=True)),
         "model field 'diagnostics.iterations'"),
        (lambda doc: dict(doc, **{"lambda": 10**400}), "model field 'lambda'"),
    ], ids=["list", "string", "diagnostics-list", "unknown-g-kind", "w-object", "beta-string",
            "gcv-list", "jitter-string", "iterations-negative", "iterations-bool",
            "lambda-beyond-float"])
    def test_malformed_model_is_data_error(self, tmp_path, train_csv, capsys, command, damage,
                                           named):
        path, _, _ = train_csv
        out = tmp_path / "model.json"
        assert dispatch(["fit", "--data", str(path), "--method", "gprr", "--m", "10",
                         "--seed", "7", "--out", str(out)]) == 0
        out.write_text(json.dumps(damage(json.loads(out.read_text()))))
        pts, pred = tmp_path / "pts.csv", tmp_path / "pred.csv"
        pts.write_text("x1,x2\n0.5,0.5\n")
        capsys.readouterr()
        argv = ["--data", str(pts), "--out", str(pred)] if command == "predict" else []
        assert dispatch([command, "--model", str(out), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith(f"error: {named}")
        assert not pred.exists()

    def test_predict_rejects_non_finite_query(self, tmp_path, train_csv, capsys):
        path, _, _ = train_csv
        out = tmp_path / "model.json"
        assert dispatch(["fit", "--data", str(path), "--method", "krr", "--out", str(out)]) == 0
        pts = tmp_path / "pts.csv"
        pts.write_text("x1,x2\n0.5,0.5\ninf,0.25\n")
        pred = tmp_path / "pred.csv"
        rc = dispatch(["predict", "--model", str(out), "--data", str(pts), "--out", str(pred)])
        assert rc == 2
        assert f"{pts}: non-numeric or infinite entries" in capsys.readouterr().err
        assert not pred.exists()

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
    def test_non_finite_cell_rejected_at_read(self, tmp_path, cell, capsys):
        data = tmp_path / "train.csv"
        data.write_text(f"x1,y\n0.1,1.0\n0.5,{cell}\n0.9,2.0\n")
        rc = dispatch(["knots", "select", "--data", str(data), "--m", "2", "--trials", "3",
                       "--out", str(tmp_path / "k.json")])
        assert rc == 2
        assert f"{data}: non-numeric or infinite entries" in capsys.readouterr().err

    def test_inspect(self, tmp_path, train_csv, capsys):
        path, _, _ = train_csv
        out = tmp_path / "model.json"
        dispatch(["fit", "--data", str(path), "--method", "krr", "--out", str(out)])
        assert dispatch(["inspect", "--model", str(out)]) == 0
        assert "krr" in capsys.readouterr().out


class TestScansAndKnots:
    def test_gcv_scan_krr(self, tmp_path, train_csv, capsys):
        path, _, _ = train_csv
        out = tmp_path / "curve.json"
        assert dispatch([
            "gcv-scan", "--data", str(path), "--method", "krr",
            "--grid", "1e-6,1e2,9", "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["grid"]) == len(payload["gcv"]) == 9

    @pytest.mark.parametrize("grid", [
        "1e-8,1e2", "1e-8,1e2,5,7", "1e-8,ten,5", "1e-8,1e2,2.5",
        "0,1e2,5", "-1e-2,1e2,5", "1e-8,inf,5", "nan,1e2,5", "1e-8,1e2,0", "1e-8,1e2,1",
    ])
    def test_bad_grid_is_a_usage_error_naming_it(self, tmp_path, train_csv, capsys, grid):
        out = tmp_path / "curve.json"
        assert dispatch([
            "gcv-scan", "--data", str(train_csv[0]), "--method", "krr",
            f"--grid={grid}", "--out", str(out),
        ]) == 1
        assert "--grid" in capsys.readouterr().err
        assert not out.exists()

    def test_json_files_are_strict(self, tmp_path):
        out = tmp_path / "x.json"
        with pytest.raises(ValueError):
            _write_json(out, {"mse": float("nan")})
        assert not out.exists()

    @pytest.mark.parametrize("method,knot_args,fit_args", [
        ("krr", [], []),
        ("gprr", ["--m", "8", "--seed", "3"], ["--lambda", "gcv"]),
    ], ids=["krr", "gprr"])
    def test_gcv_scan_argmin_is_fit_lambda(self, tmp_path, train_csv, capsys, method,
                                           knot_args, fit_args):
        path, _, _ = train_csv
        curve_out, model_out = tmp_path / "curve.json", tmp_path / "m.json"
        assert dispatch([
            "gcv-scan", "--data", str(path), "--method", method, *knot_args,
            "--out", str(curve_out),
        ]) == 0
        assert dispatch([
            "fit", "--data", str(path), "--method", method, *knot_args, *fit_args,
            "--out", str(model_out),
        ]) == 0
        payload = json.loads(curve_out.read_text())
        curve = np.array([np.inf if v is None else v for v in payload["gcv"]])
        model = json.loads(model_out.read_text())
        assert payload["grid"][int(np.argmin(curve))] == model["lambda"]
        assert model["diagnostics"]["gcv"] == np.min(curve)

    @pytest.mark.parametrize("method,policy,knot_args", [
        ("gpr", "none", []),
        ("nystrom", "auto", ["--m", "10", "--seed", "3"]),
    ], ids=["gpr-none", "nystrom-auto"])
    def test_every_policy_word_fits(self, tmp_path, train_csv, capsys, method, policy, knot_args):
        path, _, _ = train_csv
        out = tmp_path / "m.json"
        assert dispatch([
            "fit", "--data", str(path), "--method", method, *knot_args,
            "--lambda", policy, "--out", str(out),
        ]) == 0
        lam = json.loads(out.read_text())["lambda"]
        assert (lam == 0.0) == (policy == "none")

    def test_knots_select(self, tmp_path, train_csv, capsys):
        path, _, _ = train_csv
        out = tmp_path / "knots.json"
        assert dispatch([
            "knots", "select", "--data", str(path), "--m", "8",
            "--trials", "200", "--seed", "2", "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["indices"]) == 8

    @pytest.fixture
    def xonly_csv(self, tmp_path, train_csv):
        """The features of ``train_csv`` without its y column."""
        path = tmp_path / "xonly.csv"
        path.write_text("x1,x2\n" + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in train_csv[1]) + "\n")
        return path

    def test_knots_select_needs_no_y_column(self, tmp_path, train_csv, xonly_csv, capsys):
        path, xonly = train_csv[0], xonly_csv
        args = ["knots", "select", "--m", "5", "--trials", "50", "--seed", "1", "--out"]
        with_y, without_y = tmp_path / "with_y.json", tmp_path / "without_y.json"
        assert dispatch(args + [str(with_y), "--data", str(path)]) == 0
        assert dispatch(args + [str(without_y), "--data", str(xonly)]) == 0
        assert json.loads(without_y.read_text()) == json.loads(with_y.read_text())

    def test_knots_sequential_still_needs_y(self, tmp_path, xonly_csv, capsys):
        assert dispatch([
            "knots", "sequential", "--data", str(xonly_csv), "--m0", "6",
            "--iterations", "1", "--trials", "50", "--seed", "8",
            "--out", str(tmp_path / "traj.json"),
        ]) == 2
        err = capsys.readouterr().err
        assert str(xonly_csv) in err and "no 'y' column" in err


class TestBench:
    def test_seed_required(self, tmp_path, capsys):
        rc = dispatch([
            "bench", "table1", "--n", "40", "--reps", "2", "--N", "50",
            "--out", str(tmp_path / "r.json"),
        ])
        assert rc == 1

    def test_report_deterministic_across_jobs(self, tmp_path, capsys):
        args = [
            "bench", "table1", "--model", "I", "--d", "2", "--n", "50",
            "--reps", "3", "--N", "80", "--seed", "11",
        ]
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert dispatch(args + ["--jobs", "1", "--out", str(out1)]) == 0
        assert dispatch(args + ["--jobs", "2", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        # timings live outside the canonical payload
        assert "timings" not in json.loads(out1.read_text())
        assert (tmp_path / "r1.json.timings.json").exists()

    def test_report_independent_of_blas_threads(self, tmp_path):
        # the caller's BLAS thread count and --jobs must not reach the digits
        src = os.path.dirname(os.path.dirname(reconstruct.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        args = [
            sys.executable, "-m", "reconstruct.cli", "bench", "table1", "--model", "II",
            "--n", "200", "--reps", "4", "--seed", "13",
        ]
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            for jobs in ("1", "2"):
                out = tmp_path / f"r{threads}{jobs}.json"
                subprocess.run(args + ["--jobs", jobs, "--out", str(out)], env=env, check=True,
                               timeout=600)
                outs.append(out.read_bytes())
        assert outs[1:] == outs[:1] * 3

    def test_jobs_only_on_repeated_studies(self, tmp_path, capsys):
        # replication and ccpp are one sequential computation each
        for study in (["replication"], ["ccpp", "--data", str(tmp_path / "absent.csv")]):
            rc = dispatch(["bench", *study, "--seed", "5", "--jobs", "2",
                           "--out", str(tmp_path / "r.json")])
            assert rc == 1
            assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_bad_jobs_variable_is_a_usage_error_naming_it(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RECONSTRUCT_JOBS", "two")
        out = tmp_path / "r.json"
        rc = dispatch([
            "bench", "table1", "--n", "40", "--reps", "2", "--N", "50",
            "--seed", "3", "--out", str(out),
        ])
        assert rc == 1
        assert "RECONSTRUCT_JOBS" in capsys.readouterr().err
        assert not out.exists()

    def test_jobs_variable_read_only_by_bench_commands_with_jobs(self, tmp_path, train_csv,
                                                                 monkeypatch, capsys):
        monkeypatch.setenv("RECONSTRUCT_JOBS", "two")
        path, _, _ = train_csv
        model = tmp_path / "model.json"
        assert dispatch(["fit", "--data", str(path), "--method", "krr",
                         "--out", str(model)]) == 0
        assert dispatch(["inspect", "--model", str(model)]) == 0
        assert "method:" in capsys.readouterr().out
        # an explicit --jobs wins over the variable
        out = tmp_path / "r.json"
        assert dispatch([
            "bench", "table1", "--n", "40", "--reps", "2", "--N", "50",
            "--seed", "3", "--jobs", "1", "--out", str(out),
        ]) == 0
        assert json.loads((tmp_path / "r.json.timings.json").read_text())["jobs"] == 1

    def test_flags_set_the_config_fields(self, tmp_path, rng, train_csv, capsys):
        # each flag reaches the ExperimentConfig field of the same meaning
        ccpp = tmp_path / "ccpp.csv"
        ccpp.write_text("AT,V,AP,RH,PE\n" + "\n".join(
            ",".join(repr(float(v)) for v in row) for row in rng.random((60, 5))) + "\n")
        cases = [
            (["bench", "table1", "--model", "II", "--d", "3", "--n", "30", "--reps", "2",
              "--N", "40", "--sigma", "0.5", "--methods", "krr,gprr", "--ackley-standard",
              "--seed", "3", "--jobs", "1"],
             ExperimentConfig(function="II", d=3, n=30, repetitions=2, test_size=40, sigma=0.5,
                              methods=("krr", "gprr"), ackley_standard=True, seed=3)),
            (["bench", "table3", "--n", "60", "--m", "8", "--outer", "1", "--inner", "2",
              "--N", "30", "--seed", "4", "--jobs", "1"],
             ExperimentConfig(function="borehole", d=8, n=60, m=8, repetitions=1, inner_draws=2,
                              test_size=30, methods=("nystrom", "spgp", "gprr"), seed=4)),
            (["bench", "replication", "--reps", "1", "--m", "5", "--seed", "5"],
             ExperimentConfig(function="f1d", d=1, m=5, repetitions=1, seed=5)),
            (["bench", "ccpp", "--data", str(ccpp), "--m", "6", "--iterations", "1",
              "--trials", "50", "--seed", "6"],
             ExperimentConfig(m=6, iterations=1, trials=50, seed=6)),
            (["knots", "sequential", "--data", str(train_csv[0]), "--m0", "6",
              "--iterations", "1", "--trials", "50", "--seed", "7"],
             ExperimentConfig(m=6, iterations=1, trials=50, seed=7)),
        ]
        for argv, config in cases:
            out = tmp_path / "report.json"
            assert dispatch(argv + ["--out", str(out)]) == 0, argv
            expect = config.to_dict()
            del expect["jobs"]
            assert json.loads(out.read_text())["config"] == expect, argv

    def test_ccpp_row_count_warning_is_one_plain_line(self, tmp_path, rng, capsys):
        ccpp = tmp_path / "ccpp.csv"
        ccpp.write_text("AT,V,AP,RH,PE\n" + "\n".join(
            ",".join(repr(float(v)) for v in row) for row in rng.random((60, 5))) + "\n")
        assert dispatch(["bench", "ccpp", "--data", str(ccpp), "--m", "6", "--iterations", "1",
                         "--trials", "50", "--seed", "6", "--out", str(tmp_path / "r.json")]) == 0
        assert capsys.readouterr().err == "warning: expected 9568 rows, found 60\n"

    def test_replication_bench_smoke(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        assert dispatch([
            "bench", "replication", "--reps", "2", "--seed", "5",
            "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "replication"


class TestMoreSurfaces:
    def test_gcv_scan_fdp(self, tmp_path, rng, capsys):
        x = np.linspace(0, 1, 80)
        y = np.sin(6 * x) + 0.2 * rng.normal(size=80)
        data = tmp_path / "d.csv"
        data.write_text(
            "x1,y\n" + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y)) + "\n"
        )
        out = tmp_path / "c.json"
        assert dispatch([
            "gcv-scan", "--data", str(data), "--method", "fdp",
            "--grid", "1e-6,1e1,7", "--out", str(out),
        ]) == 0
        assert len(json.loads(out.read_text())["gcv"]) == 7

    def test_gcv_scan_fdp_reports_failed_factor_as_null(self, tmp_path, rng, capsys):
        # the banded factor fails once n*lam reaches about 1e16
        x = np.linspace(0, 1, 50)
        y = np.sin(6 * x) + 0.2 * rng.normal(size=50)
        data = tmp_path / "d.csv"
        data.write_text(
            "x1,y\n" + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y)) + "\n"
        )
        out = tmp_path / "c.json"
        assert dispatch([
            "gcv-scan", "--data", str(data), "--method", "fdp",
            "--grid", "1e-8,1e17,26", "--out", str(out),
        ]) == 0
        curve = json.loads(out.read_text())["gcv"]
        assert curve[-1] is None
        assert all(v is not None for v in curve[:20])

    def test_gcv_scan_gprr(self, tmp_path, train_csv, capsys):
        path, _, _ = train_csv
        out = tmp_path / "c.json"
        assert dispatch([
            "gcv-scan", "--data", str(path), "--method", "gprr", "--m", "8",
            "--seed", "3", "--grid", "1e-6,1e1,5", "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["gcv"]) == 5

    @pytest.mark.parametrize("method", ["gprr", "krr", "fdp"])
    def test_gcv_scan_gprr_uses_selected_knots(self, tmp_path, train_csv, capsys, method):
        # each scan writes the curve of the in-test reference route
        path, X, y = train_csv
        n, grid = X.shape[0], np.logspace(-6, 1, 5)
        knot_args = []
        if method == "gprr":
            knot_args = ["--m", "8", "--trials", "100", "--seed", "3"]
            knots_out = tmp_path / "k.json"
            assert dispatch(["knots", "select", "--data", str(path), *knot_args,
                             "--out", str(knots_out)]) == 0
            idx = json.loads(knots_out.read_text())["indices"]
            assert idx != select_knots(X, 8, seed=3).indices.tolist()  # trials reached the search
            spectrum = _subset_spectrum(X, y, KnotSet(X[idx]), default_gaussian(2),
                                        "constant+linear")[1]
            expect = _gcv_curve(n, *spectrum.rss_and_dof(grid))
        elif method == "krr":
            R = kernel_matrix(default_gaussian(2), X, X)
            spectrum = _kriging_spectrum(R, regression_matrix("none", X), y)[0]
            expect = _gcv_curve(n, *spectrum.rss_and_dof(grid))
        else:  # the finite-difference fit reads y on an even grid
            path = tmp_path / "line.csv"
            path.write_text("x1,y\n" + "".join(
                f"{i / (n - 1)!r},{float(v)!r}\n" for i, v in enumerate(y)))
            expect = _gcv_curve(n, *_fdp_rss_and_dof(y, grid))
        curve_out = tmp_path / "c.json"
        assert dispatch(["gcv-scan", "--data", str(path), "--method", method, *knot_args,
                         "--grid", "1e-6,1e1,5", "--out", str(curve_out)]) == 0
        assert json.loads(curve_out.read_text())["gcv"] == expect.tolist()

    def test_gcv_scan_with_every_point_a_knot_is_the_fit(self, tmp_path, rng, capsys):
        # at m = n the fit takes the full-knot kriging route; the scan writes
        # that route's curve, so the two agree exactly
        X = rng.random((12, 2))
        y = np.sin(4 * X[:, 0]) + 0.1 * rng.normal(size=12)
        data = tmp_path / "d.csv"
        data.write_text("x1,x2,y\n" + "\n".join(
            f"{float(a)!r},{float(b)!r},{float(c)!r}" for (a, b), c in zip(X, y)) + "\n")
        curve_out, model_out = tmp_path / "c.json", tmp_path / "m.json"
        knot_args = ["--method", "gprr", "--m", "12", "--seed", "1"]
        assert dispatch(["gcv-scan", "--data", str(data), *knot_args, "--out", str(curve_out)]) == 0
        assert dispatch(["fit", "--data", str(data), *knot_args, "--lambda", "gcv",
                         "--out", str(model_out)]) == 0
        payload = json.loads(curve_out.read_text())
        curve = np.array([np.inf if v is None else v for v in payload["gcv"]])
        model = json.loads(model_out.read_text())
        assert payload["grid"][int(np.argmin(curve))] == model["lambda"]
        assert model["diagnostics"]["gcv"] == np.min(curve)

    def test_gcv_scan_undefined_everywhere_is_a_fit_error(self, tmp_path, rng, capsys):
        # the banded factor fails on the whole grid, so the fit has no pick
        x = np.linspace(0, 1, 50)
        y = np.sin(6 * x) + 0.2 * rng.normal(size=50)
        data = tmp_path / "d.csv"
        data.write_text(
            "x1,y\n" + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y)) + "\n"
        )
        out = tmp_path / "c.json"
        assert dispatch([
            "gcv-scan", "--data", str(data), "--method", "fdp",
            "--grid", "1e17,1e18,3", "--out", str(out),
        ]) == 2
        assert "GCV is undefined on the whole grid" in capsys.readouterr().err
        assert not out.exists()

    def test_knots_sequential(self, tmp_path, train_csv, capsys):
        path, X, y = train_csv
        out = tmp_path / "traj.json"
        assert dispatch([
            "knots", "sequential", "--data", str(path), "--m0", "6",
            "--iterations", "2", "--trials", "50", "--seed", "8",
            "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "ccpp"
        assert payload["per_run"][0]["m"] == 6

    def test_knots_sequential_on_repeated_inputs(self, tmp_path, capsys):
        # 300 rows that repeat 30 inputs: each added knot is a new input
        rng = np.random.default_rng(32)
        X = rng.random((30, 2))[rng.integers(0, 30, 300)]
        y = np.sin(3 * X[:, 0]) + X[:, 1] ** 2 + 0.1 * rng.normal(size=300)
        data = tmp_path / "rep.csv"
        data.write_text("x1,x2,y\n" + "\n".join(
            f"{float(a)!r},{float(b)!r},{float(c)!r}" for (a, b), c in zip(X, y)) + "\n")
        out = tmp_path / "traj.json"
        assert dispatch([
            "knots", "sequential", "--data", str(data), "--m0", "8",
            "--trials", "200", "--seed", "1", "--out", str(out),
        ]) == 0
        knots = X[np.asarray(json.loads(out.read_text())["knots"])]
        assert knots.shape[0] > 8
        assert np.unique(knots, axis=0).shape[0] == knots.shape[0]

    def test_knots_sequential_with_every_point_a_knot(self, tmp_path, rng, capsys):
        X = rng.random((12, 2))
        y = np.sin(4 * X[:, 0]) + 0.1 * rng.normal(size=12)
        data = tmp_path / "d.csv"
        data.write_text("x1,x2,y\n" + "\n".join(
            f"{float(a)!r},{float(b)!r},{float(c)!r}" for (a, b), c in zip(X, y)) + "\n")
        out = tmp_path / "traj.json"
        base = ["knots", "sequential", "--data", str(data), "--m0", "12",
                "--trials", "50", "--seed", "8", "--out", str(out)]
        assert dispatch(base + ["--iterations", "0"]) == 0

        def reject(token):
            raise ValueError(f"non-strict JSON constant {token}")

        payload = json.loads(out.read_text(), parse_constant=reject)
        assert payload["per_run"][0]["m"] == 12
        assert payload["per_run"][0]["gcv"] is None
        capsys.readouterr()
        assert dispatch(base + ["--iterations", "2"]) == 2
        assert "every candidate already belongs to the knot set" in capsys.readouterr().err

    def test_jobs_env_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RECONSTRUCT_JOBS", "2")
        out = tmp_path / "r.json"
        assert dispatch([
            "bench", "table1", "--n", "40", "--reps", "2", "--N", "50",
            "--seed", "3", "--out", str(out),
        ]) == 0
        sidecar = json.loads((tmp_path / "r.json.timings.json").read_text())
        assert sidecar["jobs"] == 2


class TestPackageImport:
    @staticmethod
    def _run_fresh(code, *args):
        """Run ``code`` in a fresh interpreter that imports this package;
        return its standard output."""
        src = os.path.dirname(os.path.dirname(reconstruct.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code, *args],
                             env=dict(os.environ, PYTHONPATH=path),
                             check=True, capture_output=True, text=True, timeout=120)
        return out.stdout.strip()

    # prints the loaded scipy modules after a ``scipy:`` marker
    _SCIPY_LOADED = ("print('scipy:', *(m for m in sys.modules "
                     "if m == 'scipy' or m.startswith('scipy.')))")

    def test_deferred_scipy_modules_stay_unloaded(self):
        # every scipy import sits in the function that needs it, so the
        # package import loads numpy only
        assert self._run_fresh("import sys, reconstruct, reconstruct.cli; "
                               + self._SCIPY_LOADED) == "scipy:"

    def test_predict_and_inspect_load_no_scipy(self, tmp_path, train_csv, capsys):
        # a kernel or kriging prediction is numpy work only; a fresh process
        # writes the same bytes as an in-process dispatch
        path, _, _ = train_csv
        model = tmp_path / "model.json"
        assert dispatch(["fit", "--data", str(path), "--method", "gprr", "--m", "10",
                         "--seed", "7", "--out", str(model)]) == 0
        pts = tmp_path / "pts.csv"
        Xs = np.random.default_rng(6).random((25, 2))
        pts.write_text("x1,x2\n" + "".join(f"{a!r},{b!r}\n" for a, b in Xs.tolist()))
        here, fresh = tmp_path / "here.csv", tmp_path / "fresh.csv"
        assert dispatch(["predict", "--model", str(model), "--data", str(pts),
                         "--out", str(here)]) == 0
        code = ("import sys; from reconstruct.cli import dispatch; "
                "assert dispatch(sys.argv[1:]) == 0; " + self._SCIPY_LOADED)
        for argv in (["predict", "--model", str(model), "--data", str(pts), "--out", str(fresh)],
                     ["inspect", "--model", str(model)]):
            assert self._run_fresh(code, *argv).splitlines()[-1] == "scipy:", argv[0]
        assert fresh.read_bytes() == here.read_bytes()

    def test_cli_imports_no_private_package_name(self):
        # the command line reaches the package through its public names only
        with open(cli.__file__) as fh:
            tree = ast.parse(fh.read())
        names = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "reconstruct"
            ):
                names += (node.module or "").split(".") + [alias.name for alias in node.names]
        private = [name for name in names
                   if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))]
        assert private == []
