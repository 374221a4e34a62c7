import argparse
import collections
import math
import re
from pathlib import Path

import numpy as np
import pytest

from gkrr import evaluate
from gkrr.cli import _FLAG_RULES, build_parser, main
from gkrr.data import generate_synthetic, load_csv, write_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def ten_point_file(tmp_path):
    # uniform 1-D grid on [0, 1]: l_max = 1
    x = np.linspace(0.0, 1.0, 10)
    path = tmp_path / "train.csv"
    lines = [f"{xi},{math.sin(2 * math.pi * xi)}" for xi in x]
    path.write_text("\n".join(lines) + "\n")
    return path


class TestSelect:
    def test_jacobian_lambda_zero(self, capsys, ten_point_file):
        code, out, _ = run_cli(
            capsys, "select", "--input", str(ten_point_file),
            "--method", "jacobian", "--lambda", "0",
        )
        assert code == 0
        fields = dict(ln.split("=", 1) for ln in out.strip().splitlines())
        assert float(fields["sigma"]) == pytest.approx(math.sqrt(2) / (8 * math.pi), rel=1e-12)
        assert fields["method"] == "jacobian"
        assert fields["regime"] == "no-regularization"
        assert fields["clamped"] == "false"

    def test_silverman_zero_variance_exit_3(self, capsys, tmp_path):
        path = tmp_path / "const.csv"
        path.write_text("1,0\n1,1\n1,2\n")
        assert run_cli(capsys, "select", "--input", str(path), "--method", "silverman") == (
            3, "", "gkrr: error: all rows identical: 3 copies of one row, no spread to select from\n")

    def test_cv_identical_rows_exit_3(self, capsys, tmp_path):
        # one feature value on every row: refused before any grid is built
        path = tmp_path / "same.csv"
        path.write_text("".join(f"1,{i}\n" for i in range(12)))
        assert run_cli(capsys, "select", "--input", str(path), "--method", "cv", "--folds", "2") == (
            3, "", "gkrr: error: all rows identical: 12 copies of one row, no spread to select from\n")

    def test_cv_deterministic_output(self, capsys, tmp_path):
        data = generate_synthetic(25, 0.1, seed=3)
        src = tmp_path / "d.csv"
        write_csv(data, src)
        curve1 = tmp_path / "c1.csv"
        curve2 = tmp_path / "c2.csv"
        args = ["select", "--input", str(src), "--method", "cv", "--seed", "5",
                "--grid-size", "25"]
        code1, out1, _ = run_cli(capsys, *args, "--output", str(curve1))
        code2, out2, _ = run_cli(capsys, *args, "--output", str(curve2))
        assert code1 == code2 == 0
        assert out1 == out2
        assert curve1.read_bytes() == curve2.read_bytes()

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "select", "--input", str(tmp_path / "nope.csv"))
        assert code == 2
        assert "input error" in err

    def test_parse_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,abc\n")
        code, _, err = run_cli(capsys, "select", "--input", str(path))
        assert code == 2
        assert "row 1, column 2" in err

    def test_empty_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        code, out, err = run_cli(capsys, "select", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("gkrr: input error:") and err.endswith("no data rows\n")

    @pytest.mark.parametrize("grid_max", [None, 9.0])
    def test_cv_one_point_grid_is_geometric_midpoint(self, capsys, ten_point_file, grid_max):
        # without --grid-max the grid ends at the data diameter, here 1
        extra = [] if grid_max is None else ["--grid-max", str(grid_max)]
        code, out, _ = run_cli(
            capsys, "select", "--input", str(ten_point_file), "--method", "cv",
            "--grid-size", "1", "--folds", "3", *extra,
        )
        assert code == 0
        fields = dict(ln.split("=", 1) for ln in out.strip().splitlines())
        assert float(fields["sigma"]) == math.sqrt(0.01 * (grid_max or 1.0))

    @pytest.mark.parametrize("method, lam", [
        ("cv", "-0.5"), ("cv", "nan"), ("cv", "inf"), ("seeded-cv", "-0.5"),
    ])
    def test_cv_invalid_lambda_exit_3(self, capsys, ten_point_file, method, lam):
        code, out, err = run_cli(
            capsys, "select", "--input", str(ten_point_file), "--method", method,
            "--lambda", lam, "--folds", "3",
        )
        assert code == 3
        assert out == ""
        assert "lambda must be finite and >= 0" in err

    @pytest.mark.parametrize("method", ["cv", "seeded-cv"])
    def test_cv_all_points_failed_exit_3(self, capsys, tmp_path, method):
        # duplicate rows at lambda=0: every grid sigma fails to factor on a fold
        path = tmp_path / "dup.csv"
        path.write_text("0,0\n0,1\n1,0.5\n2,0.2\n3,0.1\n4,0.4\n")
        curve = tmp_path / "curve.csv"
        code, out, err = run_cli(
            capsys, "select", "--input", str(path), "--method", method,
            "--lambda", "0", "--folds", "3", "--output", str(curve),
        )
        assert code == 3
        assert out == ""
        assert "every grid bandwidth" in err and "lambda=0.0" in err
        assert not curve.exists()


@pytest.mark.parametrize("argv", [
    ["select"],
    ["fit", "--output", "{out}"],
    ["sweep", "--axis", "n", "--values", "3", "--test-size", "0.5", "--methods", "jacobian",
     "--output", "{out}"],
    ["jackknife", "--output", "{out}"],
], ids=["select", "fit", "sweep", "jackknife"])
def test_non_utf8_input_exit_2(capsys, tmp_path, argv):
    path = tmp_path / "utf16.csv"
    path.write_bytes(b"\xff\xfe" + "0,1\n1,2\n".encode("utf-16-le"))
    out = tmp_path / "out.csv"
    argv = [a.replace("{out}", str(out)) for a in argv]
    code, _, err = run_cli(capsys, *argv, "--input", str(path))
    assert code == 2
    assert err.startswith("gkrr: input error:") and "utf-8" in err
    assert not out.exists()


class TestFitPredict:
    def test_interpolation_round_trip(self, capsys, tmp_path, ten_point_file):
        model_path = tmp_path / "model.csv"
        code, out, _ = run_cli(
            capsys, "fit", "--input", str(ten_point_file), "--lambda", "0",
            "--output", str(model_path),
        )
        assert code == 0

        feat_path = tmp_path / "query.csv"
        feat_path.write_text("\n".join(format(v, ".17g") for v in np.linspace(0, 1, 10)) + "\n")
        pred_path = tmp_path / "pred.csv"
        code, _, _ = run_cli(
            capsys, "predict", "--model", str(model_path), "--input", str(feat_path),
            "--output", str(pred_path),
        )
        assert code == 0
        preds = [float(v) for v in pred_path.read_text().split()]
        y = [math.sin(2 * math.pi * x) for x in np.linspace(0, 1, 10)]
        assert max(abs(a - b) for a, b in zip(preds, y)) <= 1e-6 * (max(map(abs, y)) + 1)

    def test_serialized_predictions_match_in_memory(self, capsys, tmp_path):
        from gkrr import krr

        data = generate_synthetic(15, 0.1, seed=6)
        src = tmp_path / "d.csv"
        write_csv(data, src)
        model_path = tmp_path / "m.csv"
        code, out, _ = run_cli(
            capsys, "fit", "--input", str(src), "--method", "jacobian",
            "--output", str(model_path),
        )
        assert code == 0
        sigma = float(dict(ln.split("=", 1) for ln in out.strip().splitlines())["sigma"])
        model = krr.fit(data, sigma, 1e-3)

        q = np.linspace(-5, 5, 20)
        feat_path = tmp_path / "q.csv"
        feat_path.write_text("\n".join(format(v, ".17g") for v in q) + "\n")
        pred_path = tmp_path / "p.csv"
        run_cli(capsys, "predict", "--model", str(model_path), "--input", str(feat_path),
                "--output", str(pred_path))
        preds = np.array([float(v) for v in pred_path.read_text().split()])
        expect = krr.predict(model, q.reshape(-1, 1))
        np.testing.assert_allclose(preds, expect, rtol=1e-12, atol=1e-15)

    def test_wrong_column_count_exit_2(self, capsys, tmp_path, ten_point_file):
        model_path = tmp_path / "model.csv"
        run_cli(capsys, "fit", "--input", str(ten_point_file), "--output", str(model_path))
        feat_path = tmp_path / "wide.csv"
        feat_path.write_text("0.1,0.2\n")
        code, _, err = run_cli(
            capsys, "predict", "--model", str(model_path), "--input", str(feat_path),
            "--output", str(tmp_path / "p.csv"),
        )
        assert code == 2
        assert "columns" in err

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_query_exit_2(self, capsys, tmp_path, ten_point_file, token):
        model_path = tmp_path / "model.csv"
        run_cli(capsys, "fit", "--input", str(ten_point_file), "--output", str(model_path))
        feat_path = tmp_path / "q.csv"
        feat_path.write_text(f"0.1\n{token}\n0.3\n")
        pred_path = tmp_path / "p.csv"
        code, _, err = run_cli(
            capsys, "predict", "--model", str(model_path), "--input", str(feat_path),
            "--output", str(pred_path),
        )
        assert code == 2
        assert "row 2, column 1" in err and "non-finite" in err
        assert not pred_path.exists()

    def test_sigma_override(self, capsys, tmp_path, ten_point_file):
        model_path = tmp_path / "model.csv"
        code, out, _ = run_cli(
            capsys, "fit", "--input", str(ten_point_file), "--sigma", "0.25",
            "--output", str(model_path),
        )
        assert code == 0
        assert "sigma=0.25" in out


    @pytest.mark.parametrize("body", [
        "#meta\n3,1,0.5,0\n#train_features\n0\n1\n2\n#alpha\n1\n2\n",
        "#meta\n3,2,0.5,0\n#train_features\n0,1\n1\n2,3\n#alpha\n1\n2\n3\n",
        "#meta\n3,1,0.5,0\n#train_features\n0\n1\n2\n#alpha\n1\nx\n3\n",
    ], ids=["alpha-block-short", "ragged-feature-row", "non-numeric-alpha"])
    def test_malformed_model_exit_2(self, capsys, tmp_path, body):
        model_path = tmp_path / "model.csv"
        model_path.write_text(body)
        feat_path = tmp_path / "q.csv"
        feat_path.write_text("0.5\n")
        pred_path = tmp_path / "p.csv"
        code, _, err = run_cli(
            capsys, "predict", "--model", str(model_path), "--input", str(feat_path),
            "--output", str(pred_path),
        )
        assert code == 2
        assert err.startswith(f"gkrr: input error: {model_path}:")
        assert not pred_path.exists()

    @pytest.mark.parametrize("line, text", [
        (3, "inf"), (1, "10,1,-0.5,0.001"),
    ], ids=["feature-inf", "sigma-negative"])
    def test_invalid_model_value_exit_2(self, capsys, tmp_path, ten_point_file, line, text):
        model_path = tmp_path / "model.csv"
        run_cli(capsys, "fit", "--input", str(ten_point_file), "--output", str(model_path))
        lines = model_path.read_text().splitlines()
        lines[line] = text
        model_path.write_text("\n".join(lines) + "\n")
        feat_path = tmp_path / "q.csv"
        feat_path.write_text("0.5\n0.25\n")
        pred_path = tmp_path / "p.csv"
        code, out, err = run_cli(
            capsys, "predict", "--model", str(model_path), "--input", str(feat_path),
            "--output", str(pred_path),
        )
        assert code == 2 and out == ""
        assert err.startswith(f"gkrr: input error: {model_path}:")
        assert not pred_path.exists()

    @pytest.mark.parametrize("sigma", ["0", "-1", "nan", "inf", "1e-300"])
    def test_invalid_sigma_exit_2(self, capsys, tmp_path, ten_point_file, sigma):
        model_path = tmp_path / "model.csv"
        code, _, err = run_cli(
            capsys, "fit", "--input", str(ten_point_file), "--sigma", sigma,
            "--output", str(model_path),
        )
        assert code == 2
        assert "--sigma" in err
        assert not model_path.exists()

class TestSynth:
    @pytest.mark.parametrize("noise_sd", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("argv", [
        ["synth", "--n", "10"],
        ["sweep", "--axis", "n", "--values", "10", "--repeats", "2", "--test-size", "20"],
        ["verify", "--claim", "prop2", "--n", "8", "--trials", "2"],
    ], ids=["synth", "sweep", "verify"])
    def test_noise_sd_out_of_range_exit_2(self, capsys, tmp_path, argv, noise_sd):
        out_path = tmp_path / "o.csv"
        code, out, err = run_cli(capsys, *argv, "--noise-sd", noise_sd, "--output", str(out_path))
        assert (code, out) == (2, "")
        assert "--noise-sd must be finite and >= 0" in err
        assert not out_path.exists()

    def test_deterministic(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_cli(capsys, "synth", "--n", "40", "--seed", "7", "--output", str(a))
        run_cli(capsys, "synth", "--n", "40", "--seed", "7", "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_matches_library(self, capsys, tmp_path):
        path = tmp_path / "s.csv"
        run_cli(capsys, "synth", "--n", "12", "--seed", "3", "--output", str(path))
        d = load_csv(path)
        ref = generate_synthetic(12, 0.1, seed=3)
        np.testing.assert_array_equal(d.features, ref.features)
        np.testing.assert_array_equal(d.response, ref.response)


@pytest.mark.parametrize("cmd", ["select", "fit"])
@pytest.mark.parametrize("flag", ["--grid-min", "--grid-max"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_grid_flag_exit_2(capsys, tmp_path, ten_point_file, cmd, flag, value):
    out_path = tmp_path / "out.csv"
    code, out, err = run_cli(
        capsys, cmd, "--input", str(ten_point_file), "--method", "cv", flag, value,
        "--output", str(out_path),
    )
    assert (code, out) == (2, "")
    assert err.startswith("gkrr: input error:") and flag in err
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [
    ["synth", "--n", "10"],
    ["select", "--method", "cv"],
    ["select", "--method", "jacobian"],
    ["fit", "--method", "cv"],
    ["sweep", "--axis", "n", "--values", "10", "--repeats", "2", "--test-size", "20"],
    ["jackknife", "--methods", "jacobian,cv"],
    ["verify", "--claim", "prop1"],
], ids=["synth", "select-cv", "select-jacobian", "fit", "sweep", "jackknife", "verify"])
def test_negative_seed_exit_2(capsys, tmp_path, ten_point_file, argv):
    out_path = tmp_path / "o.csv"
    if argv[0] in ("select", "fit", "jackknife"):
        argv = [*argv, "--input", str(ten_point_file)]
    code, out, err = run_cli(capsys, *argv, "--seed", "-1", "--output", str(out_path))
    assert (code, out, err) == (2, "", "gkrr: input error: --seed must be >= 0\n")
    assert not out_path.exists()


@pytest.mark.parametrize("claim", ["prop1", "prop4", "bermanis"])
@pytest.mark.parametrize("lmax", ["-1", "0", "nan", "inf"])
def test_verify_lmax_out_of_range_exit_2(capsys, claim, lmax):
    code, out, err = run_cli(capsys, "verify", "--claim", claim, "--lmax", lmax)
    assert (code, out, err) == (2, "", "gkrr: input error: --lmax must be finite and > 0\n")


class TestUnderflowingGrid:
    @pytest.fixture
    def dup_file(self, tmp_path):
        # 8 rows, the first two share x = 0: a nan loss if 2 sigma^2 underflows
        path = tmp_path / "dup.csv"
        path.write_text("0,1\n0,2\n1,0.5\n2,0.1\n3,-1\n4,0.3\n5,0.9\n6,1.2\n")
        return path

    @pytest.mark.parametrize("grid_min", ["1e-300", "0"])
    def test_cv_select_exit_2(self, capsys, dup_file, grid_min):
        # a flag error: the grid is rejected before any CV loss is computed
        code, out, err = run_cli(
            capsys, "select", "--input", str(dup_file), "--method", "cv",
            "--grid-min", grid_min, "--grid-max", "9", "--grid-size", "3",
            "--folds", "2", "--lambda", "0.1",
        )
        assert (code, out) == (2, "")
        assert err.startswith("gkrr: input error:")


class TestSweep:
    def test_lambda_clamp_column_constant(self, capsys, tmp_path):
        from gkrr.bandwidth import lambda_threshold

        thr = lambda_threshold(12)
        values = ",".join(str(v) for v in [0.1 * thr, 0.9 * thr, 2 * thr, 20 * thr])
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--axis", "lambda", "--values", values, "--n", "12",
            "--repeats", "3", "--test-size", "40", "--methods", "jacobian",
            "--seed", "2", "--output", str(out_path),
        )
        assert code == 0
        rows = [ln.split(",") for ln in out_path.read_text().strip().splitlines()[1:]]
        sig = [float(r[6]) for r in rows]
        assert sig[0] < sig[1] < sig[2]
        assert sig[2] == sig[3]

    def test_threads_byte_identical(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        base = ["sweep", "--axis", "n", "--values", "10,14", "--repeats", "4",
                "--test-size", "30", "--methods", "jacobian,silverman", "--seed", "1"]
        run_cli(capsys, *base, "--threads", "1", "--output", str(a))
        run_cli(capsys, *base, "--threads", "8", "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_threads_byte_identical_on_input_split(self, capsys, tmp_path):
        # replicates on a fractional split of an input file, serial against
        # a two-worker pool
        src = tmp_path / "d.csv"
        write_csv(generate_synthetic(40, 0.1, seed=6), src)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        base = ["sweep", "--input", str(src), "--axis", "n", "--values", "12,20",
                "--repeats", "3", "--test-size", "0.25", "--methods", "jacobian,cv",
                "--folds", "4", "--grid-size", "15", "--seed", "3"]
        assert run_cli(capsys, *base, "--threads", "1", "--output", str(a))[0] == 0
        assert run_cli(capsys, *base, "--threads", "2", "--output", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_exit_2(self, capsys, tmp_path, threads):
        out_path = tmp_path / "x.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--axis", "n", "--values", "10", "--repeats", "2",
            "--test-size", "20", "--methods", "jacobian", "--threads", threads,
            "--output", str(out_path),
        )
        assert code == 2
        assert "--threads" in err
        assert not out_path.exists()

    def test_lambda_axis_requires_n(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--axis", "lambda", "--values", "0.1",
            "--output", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "--n" in err


    @pytest.mark.parametrize("values", ["10.5", "10,12.25", "inf", "nan"])
    def test_n_axis_values_must_be_whole(self, capsys, tmp_path, values):
        out_path = tmp_path / "x.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--axis", "n", "--values", values, "--repeats", "2",
            "--test-size", "20", "--methods", "jacobian", "--output", str(out_path),
        )
        assert (code, out) == (2, "")
        assert "--values" in err and "whole" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("argv", [
        ["--axis", "n", "--values", "10", "--lambda", "inf"],
        ["--axis", "n", "--values", "10", "--lambda", "-1"],
        ["--axis", "lambda", "--values", "1e-3,-1", "--n", "10"],
    ])
    def test_invalid_lambda_exit_3(self, capsys, tmp_path, argv):
        out_path = tmp_path / "x.csv"
        code, out, err = run_cli(
            capsys, "sweep", *argv, "--repeats", "2", "--test-size", "20",
            "--methods", "jacobian", "--output", str(out_path),
        )
        assert (code, out) == (3, "")
        assert "lambda must be finite and >= 0" in err
        assert not out_path.exists()

    def test_fractional_test_size_needs_input(self, capsys, tmp_path):
        out_path = tmp_path / "x.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--axis", "lambda", "--values", "1e-3,0.1,5", "--n", "20",
            "--test-size", "0.3", "--repeats", "2", "--output", str(out_path),
        )
        assert code == 2
        assert "--test-size" in err and "--input" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("test_size", ["nan", "inf", "1e400", "0", "-3"])
    def test_test_size_not_finite_and_positive_exit_2(self, capsys, tmp_path, test_size):
        out_path = tmp_path / "x.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--axis", "n", "--values", "10", "--repeats", "2",
            "--test-size", test_size, "--methods", "jacobian", "--output", str(out_path),
        )
        assert (code, out) == (2, "")
        assert err == "gkrr: input error: --test-size must be finite and positive\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("test_size", ["20.7", "1.5"])
    def test_test_size_non_whole_count_exit_2(self, capsys, tmp_path, test_size):
        out_path = tmp_path / "x.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--axis", "n", "--values", "10", "--repeats", "2",
            "--test-size", test_size, "--methods", "jacobian", "--output", str(out_path),
        )
        assert (code, out) == (2, "")
        assert err == ("gkrr: input error: --test-size of 1 or more must be a whole row "
                       f"count, got {test_size!r}\n")
        assert not out_path.exists()

    def test_test_size_count_in_exponent_form(self, capsys, tmp_path):
        reports = []
        for text in ("1000", "1e3"):
            out_path = tmp_path / f"{text}.csv"
            code, _, _ = run_cli(
                capsys, "sweep", "--axis", "n", "--values", "10", "--repeats", "2",
                "--test-size", text, "--methods", "jacobian", "--output", str(out_path),
            )
            assert code == 0
            reports.append(out_path.read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("repeats", ["1", "0", "-2"])
    def test_repeats_below_two_exit_2(self, capsys, tmp_path, monkeypatch, repeats):
        import gkrr.evaluate as evaluate

        def refuse_replicates(*args, **kwargs):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(evaluate, "_map_replicates", refuse_replicates)
        out_path = tmp_path / "x.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--axis", "n", "--values", "10", "--repeats", repeats,
            "--test-size", "20", "--methods", "jacobian", "--output", str(out_path),
        )
        assert (code, out) == (2, "")
        assert err == "gkrr: input error: --repeats must be >= 2\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("form", ["count", "fraction"])
    def test_test_set_below_two_rows_exit_3(self, capsys, tmp_path, form):
        # R^2 needs 2 test rows; a fraction of 50 rows rounds up to 1 row
        out_path = tmp_path / "x.csv"
        argv = ["--test-size", "1"]
        if form == "fraction":
            data = tmp_path / "d.csv"
            write_csv(generate_synthetic(50, 0.1, seed=4), data)
            argv = ["--test-size", "0.01", "--input", str(data)]
        code, out, err = run_cli(
            capsys, "sweep", "--axis", "n", "--values", "10", "--repeats", "2",
            "--methods", "jacobian,silverman", *argv, "--output", str(out_path),
        )
        assert (code, out) == (3, "")
        assert err == "gkrr: error: test set of 1 row(s): R^2 needs at least 2\n"
        assert not out_path.exists()


class TestGridMaxOnlyWhereUsed:
    """--grid-max is registered on select and fit only: sweep and jackknife
    grids end at the diameter, so the flag there is a flag error."""

    def test_sweep_rejects_grid_max(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--axis", "n", "--values", "10", "--repeats", "2",
            "--grid-max", "3", "--output", str(tmp_path / "s.csv"),
        )
        assert code == 2
        assert "--grid-max" in err
        assert not (tmp_path / "s.csv").exists()

    def test_jackknife_rejects_grid_max(self, capsys, tmp_path, ten_point_file):
        code, _, err = run_cli(
            capsys, "jackknife", "--input", str(ten_point_file), "--grid-max", "3",
            "--output", str(tmp_path / "j.csv"),
        )
        assert code == 2
        assert "--grid-max" in err
        assert not (tmp_path / "j.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["sweep", "--axis", "n", "--values", "10", "--repeats", "2"],
        ["jackknife", "--input", "{data}"],
    ], ids=["sweep", "jackknife"])
    def test_harness_rejects_method(self, capsys, tmp_path, ten_point_file, argv):
        # sweep and jackknife compare the methods named in --methods
        out_path = tmp_path / "o.csv"
        argv = [a.replace("{data}", str(ten_point_file)) for a in argv]
        code, _, err = run_cli(capsys, *argv, "--method", "cv", "--output", str(out_path))
        assert code == 2
        assert "--method" in err
        assert not out_path.exists()


def as_flag_error(result):
    """A CLI result as the flag error (exit 2) with the same message."""
    return 2, result[1], result[2].replace("gkrr: error:", "gkrr: input error:")


class TestHarnessCvFlags:
    """sweep and jackknife reject a bad CV flag with select's text, before any
    replicate runs, instead of reporting excluded rows: jackknife with select's
    exit code, sweep, whose training sizes are flags, as a flag error."""

    HARNESS = {
        "sweep": ["sweep", "--axis", "n", "--values", "10", "--repeats", "2",
                  "--test-size", "20", "--methods", "jacobian,cv"],
        "jackknife": ["jackknife", "--input", "{data}", "--methods", "jacobian,cv"],
    }

    @pytest.mark.parametrize("cmd", ["sweep", "jackknife"])
    @pytest.mark.parametrize("flags", [
        ["--folds", "1"], ["--grid-size", "0"], ["--grid-min", "0"], ["--grid-min", "1e-300"],
        ["--grid-min", "nan"], ["--grid-min", "inf"],
    ], ids=lambda f: "=".join(f))
    def test_same_exit_and_text_as_select(self, capsys, tmp_path, ten_point_file, cmd, flags):
        select = run_cli(capsys, "select", "--input", str(ten_point_file), "--method", "cv",
                         "--lambda", "0.1", *flags)
        out_path = tmp_path / "o.csv"
        argv = [a.replace("{data}", str(ten_point_file)) for a in self.HARNESS[cmd]]
        got = run_cli(capsys, *argv, *flags, "--output", str(out_path))
        assert select[0] in (2, 3)
        assert got == (as_flag_error(select) if cmd == "sweep" else select)
        assert not out_path.exists()

    @pytest.mark.parametrize("cmd", ["sweep", "jackknife"])
    def test_training_size_below_folds(self, capsys, tmp_path, cmd):
        # a jackknife replicate trains on n - 1 rows, so it takes a file one
        # row longer than the one select rejects
        files = {}
        for n in (5, 6):
            files[n] = tmp_path / f"rows{n}.csv"
            files[n].write_text("".join(f"{i},{math.sin(i)}\n" for i in range(n)))
        select = run_cli(capsys, "select", "--input", str(files[5]), "--method", "cv",
                         "--folds", "10")
        assert select == (3, "", "gkrr: error: n=5 smaller than fold count 10\n")
        out_path = tmp_path / "o.csv"
        argv = {"sweep": ["sweep", "--axis", "n", "--values", "12,5", "--repeats", "2",
                          "--test-size", "20", "--methods", "jacobian,cv"],
                "jackknife": ["jackknife", "--input", str(files[6]), "--methods", "cv"]}[cmd]
        got = run_cli(capsys, *argv, "--folds", "10", "--output", str(out_path))
        assert got == (as_flag_error(select) if cmd == "sweep" else select)
        assert not out_path.exists()

    @pytest.mark.parametrize("cmd,method,rows", [
        ("sweep", "jacobian", 2), ("jackknife", "jacobian", 2), ("sweep", "seeded-cv", 2),
        ("jackknife", "seeded-cv", 2), ("sweep", "silverman", 1),
    ])
    def test_training_size_below_selector_minimum(self, capsys, tmp_path, cmd, method, rows):
        # a training size too small for a selector is select's error, not a
        # method excluded from every replicate
        files = {}
        for n in (rows, rows + 1):
            files[n] = tmp_path / f"rows{n}.csv"
            files[n].write_text("".join(f"{i},{math.sin(i)}\n" for i in range(n)))
        select = run_cli(capsys, "select", "--input", str(files[rows]), "--method", method,
                         "--folds", "2")
        assert select[:2] == (3, "") and "needs n >= " in select[2]
        out_path = tmp_path / "o.csv"
        argv = {"sweep": ["sweep", "--axis", "n", "--values", f"12,{rows}", "--repeats", "2",
                          "--test-size", "20"],
                "jackknife": ["jackknife", "--input", str(files[rows + 1])]}[cmd]
        got = run_cli(capsys, *argv, "--methods", method, "--folds", "2",
                      "--output", str(out_path))
        assert got == (as_flag_error(select) if cmd == "sweep" else select)
        assert not out_path.exists()


class TestEveryFlagRead:
    """Every flag a subcommand registers is read on at least one of its
    branches: a flag that is never read is accepted and silently ignored."""

    ARGVS = {
        "select": [["select", "--input", "{data}", "--method", "cv", "--grid-max", "2",
                    "--grid-size", "5", "--folds", "2", "--output", "{out}"]],
        "fit": [["fit", "--input", "{data}", "--method", "cv", "--grid-max", "2",
                 "--grid-size", "5", "--folds", "2", "--output", "{out}"]],
        "predict": [["predict", "--model", "{model}", "--input", "{query}", "--output", "{out}"]],
        "synth": [["synth", "--n", "5", "--output", "{out}"]],
        "sweep": [
            ["sweep", "--axis", "n", "--values", "6", "--repeats", "2", "--test-size", "5",
             "--methods", "jacobian", "--output", "{out}"],
            ["sweep", "--axis", "lambda", "--values", "0.1", "--n", "6", "--repeats", "2",
             "--test-size", "0.3", "--methods", "jacobian", "--input", "{data}",
             "--output", "{out}"],
        ],
        "jackknife": [
            ["jackknife", "--input", "{data}", "--methods", "jacobian", "--output", "{out}"],
            ["jackknife", "--input", "{data}", "--methods", "jacobian", "--holdout", "0.3",
             "--output", "{out}"],
        ],
        "verify": [
            ["verify", "--claim", "prop1"],
            ["verify", "--claim", "prop2", "--n", "5", "--trials", "2"],
            ["verify", "--claim", "prop3"],
            ["verify", "--claim", "prop4"],
            ["verify", "--claim", "bermanis"],
        ],
    }

    def test_argvs_cover_every_subcommand(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert sorted(self.ARGVS) == sorted(sub.choices)

    @pytest.mark.parametrize("sub", sorted(ARGVS))
    def test_every_registered_flag_is_read(self, capsys, tmp_path, ten_point_file, sub):
        paths = {"data": ten_point_file, "out": tmp_path / "out", "model": tmp_path / "m.csv",
                 "query": tmp_path / "q.csv"}
        paths["query"].write_text("0.5\n")
        assert main(["fit", "--input", str(ten_point_file), "--output", str(paths["model"])]) == 0
        reads = set()

        class Recording(argparse.Namespace):
            def __getattribute__(self, name):
                reads.add(name)
                return super().__getattribute__(name)

        registered = set()
        for argv in self.ARGVS[sub]:
            args = build_parser().parse_args([a.format(**paths) for a in argv])
            registered |= set(vars(args)) - {"command", "func"}
            assert args.func(Recording(**vars(args))) == 0
        capsys.readouterr()
        assert sorted(registered - reads) == []


class TestJackknife:
    def test_basic_run(self, capsys, tmp_path):
        data = generate_synthetic(10, 0.1, seed=4)
        src = tmp_path / "d.csv"
        write_csv(data, src)
        out_path = tmp_path / "jk.csv"
        code, out, _ = run_cli(
            capsys, "jackknife", "--input", str(src), "--methods", "jacobian,silverman",
            "--eval-points", "7", "--output", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 1 + 7 * 2
        assert "method=jacobian" in out

    def test_holdout_reference_grid(self, capsys, tmp_path):
        data = generate_synthetic(12, 0.1, seed=5)
        src = tmp_path / "d.csv"
        write_csv(data, src)
        out_path = tmp_path / "jk.csv"
        code, _, _ = run_cli(
            capsys, "jackknife", "--input", str(src), "--methods", "jacobian",
            "--holdout", "0.5", "--output", str(out_path),
        )
        assert code == 0
        # half the rows reserved as the evaluation grid
        assert len(out_path.read_text().strip().splitlines()) == 1 + 6


    def test_holdout_leaves_too_few_rows_exit_2(self, capsys, tmp_path):
        # 0.7 of 8 rows held out leaves 2 to train on
        src = tmp_path / "d.csv"
        write_csv(generate_synthetic(8, 0.1, seed=4), src)
        out_path = tmp_path / "jk.csv"
        got = run_cli(capsys, "jackknife", "--input", str(src), "--holdout", "0.7",
                      "--methods", "jacobian", "--output", str(out_path))
        assert got == (2, "", "gkrr: input error: holdout leaves fewer than 3 training rows\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_eval_points_below_one_exit_2(self, capsys, tmp_path, points):
        data = generate_synthetic(10, 0.1, seed=4)
        src = tmp_path / "d.csv"
        write_csv(data, src)
        out_path = tmp_path / "jk.csv"
        code, _, err = run_cli(
            capsys, "jackknife", "--input", str(src), "--methods", "jacobian",
            "--eval-points", points, "--output", str(out_path),
        )
        assert code == 2
        assert "--eval-points" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("lam", ["-1", "inf", "nan"])
    def test_invalid_lambda_exit_3(self, capsys, tmp_path, ten_point_file, lam):
        out_path = tmp_path / "jk.csv"
        code, out, err = run_cli(
            capsys, "jackknife", "--input", str(ten_point_file), "--methods", "jacobian",
            "--lambda", lam, "--output", str(out_path),
        )
        assert (code, out) == (3, "")
        assert "lambda must be finite and >= 0" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_exit_2(self, capsys, tmp_path, threads):
        src = tmp_path / "d.csv"
        write_csv(generate_synthetic(10, 0.1, seed=4), src)
        out_path = tmp_path / "jk.csv"
        code, _, err = run_cli(
            capsys, "jackknife", "--input", str(src), "--methods", "jacobian",
            "--threads", threads, "--output", str(out_path),
        )
        assert code == 2
        assert "--threads" in err
        assert not out_path.exists()

class TestVerify:
    def test_prop1_pass_line(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--claim", "prop1", "--n", "10", "--p", "1",
            "--lambda", "0",
        )
        assert code == 0
        assert "violations=0" in out and out.strip().splitlines()[0].endswith("PASS")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lam", ["1e-321", "6e-323"])
    def test_prop1_subnormal_lambda_passes_quietly(self, capsys, lam):
        # 1e-321 warned of an overflow in divide; 6e-323 divided by zero in W_-1
        code, out, err = run_cli(capsys, "verify", "--claim", "prop1", "--lambda", lam)
        assert (code, err) == (0, "")
        assert out.strip().splitlines()[0].endswith("PASS")

    @pytest.mark.parametrize("lam", ["5e-324", "1e-323"])
    def test_prop1_lambda_ratio_underflowing_is_unregularized(self, capsys, lam):
        # lambda / threshold rounds to 0, so W reads lambda = 0: the regime says so,
        # and sigma_-1, unbounded there, is not asked for
        code, out, err = run_cli(capsys, "verify", "--claim", "prop1", "--lambda", lam)
        assert (code, err) == (0, "")
        assert out.splitlines()[0].endswith("PASS") and ";regime=no-regularization;" in out
        at_zero = run_cli(capsys, "verify", "--claim", "prop1", "--lambda", "0")[1]
        assert out.split()[3] == at_zero.split()[3]  # worst_margin=...

    @pytest.mark.parametrize("claim", ["prop4", "bermanis"])
    def test_point_cloud_report_carries_seed(self, capsys, tmp_path, claim):
        # at p > 1 --seed draws the points, so the record names it
        out_path = tmp_path / "report.csv"
        code, out, _ = run_cli(capsys, "verify", "--claim", claim, "--p", "2", "--seed", "5",
                               "--output", str(out_path))
        assert code == 0 and " seed=5 " in out
        assert out_path.read_text().splitlines()[1].endswith(",5")

    def test_prop3(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--claim", "prop3", "--sigma", "2.0")
        assert code == 0
        assert "PASS" in out

    def test_prop2_and_outputs(self, capsys, tmp_path):
        out_path = tmp_path / "report.csv"
        code, out, _ = run_cli(
            capsys, "verify", "--claim", "prop2", "--n", "8", "--trials", "10",
            "--output", str(out_path),
        )
        assert code == 0
        assert out_path.read_text().startswith("claim,trials,violations,worst_margin,seed")

    def test_bermanis(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--claim", "bermanis", "--n", "10", "--delta", "0.5",
            "--sigma", "0.2",
        )
        assert code == 0

    def test_prop4_narrow_kernel(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--claim", "prop4", "--n", "10", "--sigma", "0.05",
            "--lambda", "0",
        )
        assert code == 0
        assert "PASS" in out

    def test_prop4_irregular_cloud_reports(self, capsys):
        # p > 1 draws a seeded point cloud; the check measures and reports
        code, out, _ = run_cli(
            capsys, "verify", "--claim", "prop4", "--n", "12", "--p", "2",
            "--sigma", "0.1", "--seed", "3",
        )
        assert code == 0
        assert "worst_margin=" in out


    @pytest.mark.parametrize("claim, n", [("prop2", "12"), ("prop2", "501"), ("prop4", "501")])
    def test_point_cloud_claims_run(self, capsys, claim, n):
        # p > 1 draws a seeded point cloud; K's spectrum has no size cap, so
        # prop2 and prop4 run above 500 rows as bermanis does
        code, out, err = run_cli(capsys, "verify", "--claim", claim, "--n", n, "--p", "2")
        assert (code, err) == (0, "")
        assert out.splitlines()[0].endswith("PASS") and f";n={n};p=2;" in out

    @pytest.mark.parametrize("claim, flag, value", [
        ("bermanis", "--p", "-1"), ("bermanis", "--p", "0"), ("prop4", "--n", "-2"),
        ("prop4", "--n", "0"), ("prop1", "--p", "0"), ("prop2", "--trials", "0"),
        ("prop2", "--trials", "-3"),
    ])
    def test_counts_below_one_exit_2(self, capsys, tmp_path, claim, flag, value):
        # a flag error, not the library's text (numpy's "negative dimensions
        # are not allowed" for --p -1) and exit 3
        out_path = tmp_path / "report.csv"
        code, out, err = run_cli(capsys, "verify", "--claim", claim, flag, value,
                                 "--output", str(out_path))
        assert (code, out) == (2, "")
        assert f"{flag} must be >= 1" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("claim, flags, message", [
        ("prop1", ["--p", "2", "--sigma", "0.3"], "--claim prop1 does not read --sigma"),
        ("prop2", ["--lmax", "3"], "--claim prop2 does not read --lmax"),
        ("prop2", ["--p", "2", "--noise-sd", "0.2"], "--claim prop2 at --p 2 does not read --noise-sd"),
        ("prop3", ["--n", "2"], "--claim prop3 does not read --n"),
        ("prop4", ["--delta", "0.1"], "--claim prop4 does not read --delta"),
        ("bermanis", ["--trials", "5"], "--claim bermanis does not read --trials"),
    ], ids=["prop1", "prop2", "prop2-noise-sd", "prop3", "prop4", "bermanis"])
    def test_unread_flag_exit_2(self, capsys, tmp_path, claim, flags, message):
        out_path = tmp_path / "report.csv"
        code, out, err = run_cli(capsys, "verify", "--claim", claim, *flags, "--output", str(out_path))
        assert (code, out, err) == (2, "", f"gkrr: input error: {message}\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("claim, flags", [
        ("prop1", ["--n", "12", "--p", "2", "--lmax", "2", "--lambda", "0.01"]),
        ("prop2", ["--n", "12", "--p", "2", "--seed", "3", "--sigma", "0.4", "--lambda", "0.01",
                   "--trials", "5"]),
        ("prop2", ["--n", "12", "--noise-sd", "0.2", "--trials", "5"]),
        ("prop3", ["--sigma", "0.4"]),
        ("prop4", ["--n", "12", "--p", "2", "--lmax", "2", "--seed", "3", "--sigma", "0.4",
                   "--lambda", "0.01"]),
        ("bermanis", ["--n", "12", "--p", "2", "--lmax", "2", "--seed", "3", "--sigma", "0.4",
                      "--lambda", "0.01", "--delta", "0.3"]),
    ], ids=["prop1", "prop2", "prop2-noise-sd", "prop3", "prop4", "bermanis"])
    def test_claim_accepts_every_flag_it_reads(self, capsys, tmp_path, claim, flags):
        out_path = tmp_path / "report.csv"
        code, _, err = run_cli(capsys, "verify", "--claim", claim, *flags, "--output", str(out_path))
        assert (code, err) == (0, "")
        assert out_path.exists()

    @pytest.mark.parametrize("claim", ["prop3", "prop4"])
    @pytest.mark.parametrize("sigma", ["0", "-1", "nan", "inf", "1e-300"])
    def test_invalid_sigma_exit_2(self, capsys, claim, sigma):
        code, out, err = run_cli(capsys, "verify", "--claim", claim, "--sigma", sigma)
        assert code == 2
        assert out == ""
        assert "--sigma" in err

class TestHelp:
    @pytest.mark.parametrize("sub,defaults", [
        ("select", ["0.001", "10", "100", "0.01", "0"]),
        ("sweep", ["100", "1000", "0.001"]),
        ("verify", ["0.5", "100", "1.0"]),
    ])
    def test_defaults_listed(self, sub, defaults, capsys):
        assert main([sub, "--help"]) == 0
        out = capsys.readouterr().out
        for d in defaults:
            assert f"default: {d}" in out


def _flag_rule_cases():
    """(command, rule, k): each command a rule covers, k counting the rules
    before it on the same command and flag."""
    seen = collections.Counter()
    for rule in _FLAG_RULES:
        for cmd in rule[0]:
            yield cmd, rule, seen[cmd, rule[1]]
            seen[cmd, rule[1]] += 1


class TestFlagRules:
    """Every flag check is one row of cli._FLAG_RULES, applied before a command
    runs or reads a file; the README's exit-2 list names the same flags."""

    # a missing --input shows that the rule fires before any file is read
    BASE = {
        "select": ["select", "--input", "{missing}"],
        "fit": ["fit", "--input", "{missing}"],
        "synth": ["synth", "--n", "5"],
        "sweep": ["sweep", "--axis", "n", "--values", "10", "--test-size", "20"],
        "jackknife": ["jackknife", "--input", "{missing}"],
        "verify": ["verify", "--claim", "bermanis"],
    }
    # (command, flag) -> flags breaking each rule on that flag, in table order
    CASES = {
        **{(cmd, "--seed"): [["--seed", "-1"]] for cmd in BASE},
        ("synth", "--n"): [["--n", "0"]],
        ("verify", "--n"): [["--n", "0"], ["--n", "2"]],
        ("verify", "--p"): [["--p", "0"]],
        ("verify", "--trials"): [["--trials", "0"]],
        **{(cmd, "--sigma"): [["--sigma", "-1"], ["--sigma", "1e-300"]] for cmd in ("fit", "verify")},
        ("verify", "--lmax"): [["--lmax", "inf"]],
        ("verify", "--delta"): [["--delta", "1"]],
        **{(cmd, "--noise-sd"): [["--noise-sd", "-1"]] for cmd in ("synth", "sweep", "verify")},
        **{(cmd, "--threads"): [["--threads", "0"]] for cmd in ("sweep", "jackknife")},
        ("sweep", "--repeats"): [["--repeats", "1"]],
        ("jackknife", "--holdout"): [["--holdout", "1"]],
        ("jackknife", "--eval-points"): [["--eval-points", "0"]],
        **{(cmd, "--grid-min"): [["--grid-min", "nan"]]
           for cmd in ("select", "fit", "sweep", "jackknife")},
        **{(cmd, "--grid-max"): [["--grid-max", "inf"], ["--grid-max", "0.01"]]
           for cmd in ("select", "fit")},
        ("sweep", "--values"): [["--values", ","], ["--values", "10.5"]],
        ("sweep", "--test-size"): [["--test-size", "0"], ["--test-size", "20.5"],
                                   ["--test-size", "0.5"]],
        ("sweep", "--n"): [["--axis", "lambda", "--values", "0.1"]],
        ("select", "--method"): [["--method", "cv", "--folds", "1"]],
        ("fit", "--method"): [["--method", "seeded-cv", "--grid-size", "0"]],
        ("sweep", "--methods"): [["--methods", "jacobian,cvv"]],
        ("jackknife", "--methods"): [["--methods", "jacobian,cv", "--folds", "1"]],
        ("select", "--output"): [["--method", "silverman"]],
        ("verify", "--claim"): [["--trials", "5"]],
    }

    def test_one_case_per_rule(self):
        counts = collections.Counter((cmd, rule[1]) for cmd, rule, _ in _flag_rule_cases())
        assert {key: len(flags) for key, flags in self.CASES.items()} == dict(counts)

    @pytest.mark.parametrize("cmd, rule, k", [
        pytest.param(cmd, rule, k, id=f"{cmd}{rule[1]}-{k}") for cmd, rule, k in _flag_rule_cases()
    ])
    def test_rule_exit_2(self, capsys, tmp_path, cmd, rule, k):
        out_path = tmp_path / "o.csv"
        argv = [a.replace("{missing}", str(tmp_path / "missing.csv"))
                for a in [*self.BASE[cmd], *self.CASES[cmd, rule[1]][k], "--output", str(out_path)]]
        message = rule[3] if isinstance(rule[3], str) else rule[3](build_parser().parse_args(argv))
        assert run_cli(capsys, *argv) == (2, "", f"gkrr: input error: {message}\n")
        assert not out_path.exists()

    def test_readme_exit_2_list_names_every_rule_flag(self):
        text = " ".join((Path(__file__).resolve().parent.parent / "README.md").read_text().split())
        exit_2 = text.split("Exit codes:", 1)[1].split("2 input error", 1)[1]
        exit_2 = exit_2.split("3 computation error", 1)[0]
        assert set(re.findall(r"`(--[a-z-]+)`", exit_2)) == {rule[1] for rule in _FLAG_RULES}

    @pytest.mark.parametrize("argv, message", [
        (["--axis", "lambda", "--values", "0.1", "--n", "0", "--methods", "jacobian"],
         "Jacobian selection needs n >= 3, got 0"),
        (["--axis", "lambda", "--values", "0.1", "--n", "5", "--methods", "cv"],
         "n=5 smaller than fold count 10"),
        (["--axis", "lambda", "--values", "0.1", "--n", "20", "--folds", "1"],
         "need at least 2 folds, got 1"),
        (["--axis", "lambda", "--values", "0.1", "--n", "20", "--grid-size", "0"],
         "grid size must be >= 1, got 0"),
        (["--axis", "n", "--values", "2,30"], "n=2 smaller than fold count 10"),
        (["--axis", "n", "--values", "30,1", "--methods", "silverman"],
         "Silverman's rule needs n >= 2, got 1"),
    ], ids=["n0-jacobian", "n5-cv", "folds1", "grid-size0", "values2", "values1-silverman"])
    def test_sweep_selector_needs_exit_2(self, capsys, tmp_path, monkeypatch, argv, message):
        # checked on the flags, at the axis's least training size, before any
        # replicate runs
        def refuse_replicates(*args, **kwargs):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(evaluate, "_map_replicates", refuse_replicates)
        out_path = tmp_path / "o.csv"
        got = run_cli(capsys, "sweep", *argv, "--repeats", "2", "--test-size", "20",
                      "--output", str(out_path))
        assert got == (2, "", f"gkrr: input error: {message}\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--values", "10,abc", "--test-size", "20"], "cannot parse --values '10,abc'"),
        (["--values", "10", "--test-size", "abc"], "cannot parse --test-size 'abc'"),
    ], ids=["values", "test-size"])
    def test_sweep_unparseable_number_exit_2(self, capsys, tmp_path, argv, message):
        out_path = tmp_path / "o.csv"
        code, out, err = run_cli(capsys, "sweep", "--axis", "n", *argv, "--output", str(out_path))
        assert (code, out) == (2, "")
        assert err.startswith(f"gkrr: input error: {message}")
        assert not out_path.exists()

    def test_verify_prop1_runs_from_n_3(self, capsys):
        # the rule's bound is the library's: n = 2 exits 2 (test_verify_n_2_exit_2), n = 3 runs
        assert run_cli(capsys, "verify", "--claim", "prop1", "--n", "3")[0] == 0

    @pytest.mark.parametrize("flags", [
        ["--claim", "prop1"], ["--claim", "prop2"], ["--claim", "prop4"],
        ["--claim", "prop4", "--sigma", "0.5"],
    ], ids=lambda f: "=".join(f))
    def test_verify_n_2_exit_2(self, capsys, flags):
        # every claim whose library call needs n >= 3: prop2 and bermanis only
        # through Jacobian selection (bermanis is in CASES)
        assert run_cli(capsys, "verify", "--n", "2", *flags) == (
            2, "", f"gkrr: input error: --n must be >= 3 for --claim {flags[1]}\n")

    @pytest.mark.parametrize("argv", [
        ["verify", "--claim", "prop2", "--n", "2", "--sigma", "0.5", "--trials", "5"],
        ["verify", "--claim", "bermanis", "--n", "2", "--sigma", "0.5"],
        ["verify", "--claim", "prop3", "--sigma", "0.5"],  # prop3 reads no --n (test_unread_flag_exit_2)
        ["select", "--input", "{data}", "--method", "jacobian", "--folds", "1"],
        ["fit", "--input", "{data}", "--sigma", "0.5", "--folds", "1", "--output", "{model}"],
    ], ids=["prop2-sigma", "bermanis-sigma", "prop3", "select-jacobian", "fit-sigma"])
    def test_flags_no_selector_needs_still_run(self, capsys, tmp_path, ten_point_file, argv):
        argv = [a.replace("{data}", str(ten_point_file)).replace("{model}", str(tmp_path / "m"))
                for a in argv]
        assert run_cli(capsys, *argv)[0] == 0

    def test_file_size_checked_when_selector_runs(self, capsys, tmp_path):
        # the rule does not know a file's size: a 5-row file fails in the selector
        path = tmp_path / "five.csv"
        path.write_text("".join(f"{i},{i % 2}\n" for i in range(5)))
        assert run_cli(capsys, "select", "--input", str(path), "--method", "cv") == (
            3, "", "gkrr: error: n=5 smaller than fold count 10\n")

    @pytest.mark.parametrize("delta", ["2", "nan", "0", "-0.5"])
    def test_verify_delta_out_of_range_exit_2(self, capsys, delta):
        code, out, err = run_cli(capsys, "verify", "--claim", "bermanis", "--delta", delta)
        assert (code, out, err) == (2, "", "gkrr: input error: --delta must be in (0, 1)\n")

    @pytest.mark.parametrize("flag", ["--grid-min", "--grid-max"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_fit_sigma_checks_grid_flags(self, capsys, tmp_path, ten_point_file, flag, value):
        # --sigma skips selection, but a bad grid flag is still a flag error
        model_path = tmp_path / "model.csv"
        code, out, err = run_cli(
            capsys, "fit", "--input", str(ten_point_file), "--sigma", "0.5", flag, value,
            "--output", str(model_path),
        )
        assert (code, out) == (2, "")
        assert err == f"gkrr: input error: {flag} must be finite, got {value}\n"
        assert not model_path.exists()
