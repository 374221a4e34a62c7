"""Golden bytes of every table file gkrr writes, and the read-back of those it reads.

Each object is built by hand rather than from a fit, so the expected text
does not depend on the BLAS build. The literals pin the shared format:
comma-joined fields, floats at 17 significant digits (``-0``, ``nan`` and
``-inf`` spelled as Python spells them), ints and strings as written, ``\\n``
after every line.
"""

import math

import numpy as np
import pytest

from gkrr.data import CsvFormatError, Dataset, load_csv, write_csv
from gkrr.evaluate import (
    JackknifeReport,
    MethodStats,
    SweepPoint,
    SweepReport,
    jackknife_to_csv,
    sweep_to_csv,
)
from gkrr.krr import KrrModel, load_model, save_model
from gkrr.verify import BoundReport, reports_to_csv

NAN = math.nan

SWEEP_GOOD = MethodStats(0.1, -0.0, 1 / 3, 2.5, 1e-300, 12345678.9, 0.0, 3)
SWEEP_EXCLUDED = MethodStats(NAN, NAN, NAN, NAN, NAN, NAN, NAN, 4)
SWEEP = SweepReport(
    axis="lambda",
    methods=("jacobian", "cv"),
    points=(
        SweepPoint(0.001, {"jacobian": SWEEP_GOOD, "cv": SWEEP_EXCLUDED}),
        SweepPoint(-0.0, {
            "jacobian": MethodStats(-1.5, -2.0, 0.75, 0.2, 0.1, 0.3, 0.05, 0),
            "cv": SWEEP_EXCLUDED,
        }),
    ),
    repeats=4,
    seed=11,
)
SWEEP_TEXT = (
    "axis,axis_value,method,mean_r2,p05_r2,p95_r2,mean_sigma,p05_sigma,p95_sigma,"
    "sd_sigma,excluded,repeats,seed\n"
    "lambda,0.001,jacobian,0.10000000000000001,-0,0.33333333333333331,2.5,1e-300,"
    "12345678.9,0,3,4,11\n"
    "lambda,0.001,cv,nan,nan,nan,nan,nan,nan,nan,4,4,11\n"
    "lambda,-0,jacobian,-1.5,-2,0.75,0.20000000000000001,0.10000000000000001,"
    "0.29999999999999999,0.050000000000000003,0,4,11\n"
    "lambda,-0,cv,nan,nan,nan,nan,nan,nan,nan,4,4,11\n"
)


def test_sweep_report_bytes():
    assert sweep_to_csv(SWEEP) == SWEEP_TEXT


def test_jackknife_report_bytes():
    report = JackknifeReport(
        grid=np.array([[0.5, -1.0], [2.0, 1e-5]]),
        methods=("jacobian", "silverman"),
        mean_prediction={"jacobian": np.array([0.1, 0.2]), "silverman": np.array([NAN, NAN])},
        sd_prediction={"jacobian": np.array([0.0, 1 / 3]), "silverman": np.array([NAN, NAN])},
        mean_sigma={"jacobian": 0.25, "silverman": NAN},
        sd_sigma={"jacobian": 0.0, "silverman": NAN},
        excluded={"jacobian": 0, "silverman": 5},
        replicates=5,
    )
    assert jackknife_to_csv(report) == (
        "method,point,x0,x1,mean_prediction,sd_prediction,mean_sigma,sd_sigma,"
        "excluded,replicates\n"
        "jacobian,0,0.5,-1,0.10000000000000001,0,0.25,0,0,5\n"
        "jacobian,1,2,1.0000000000000001e-05,0.20000000000000001,0.33333333333333331,"
        "0.25,0,0,5\n"
        "silverman,0,0.5,-1,nan,nan,nan,nan,5,5\n"
        "silverman,1,2,1.0000000000000001e-05,nan,nan,nan,nan,5,5\n"
    )


def test_bound_report_bytes():
    report = BoundReport("prop4-inverse-norm", 3, 1, -math.inf, 7, "cfg")
    assert reports_to_csv([report]) == (
        "claim,trials,violations,worst_margin,seed\n"
        "prop4-inverse-norm,3,1,-inf,7\n"
    )


def test_model_file_bytes_and_read_back(tmp_path):
    X = np.array([[0.1, -2.5], [1e-3, 3.0], [-0.0, 7.25]])
    alpha = np.array([1 / 3, -1e20, 5e-324])
    path = tmp_path / "model.csv"
    save_model(KrrModel(X, alpha, sigma=1, lam=0), path)
    assert path.read_bytes() == (
        b"#meta\n"
        b"3,2,1,0\n"
        b"#train_features\n"
        b"0.10000000000000001,-2.5\n"
        b"0.001,3\n"
        b"-0,7.25\n"
        b"#alpha\n"
        b"0.33333333333333331\n"
        b"-1e+20\n"
        b"4.9406564584124654e-324\n"
    )
    back = load_model(path)
    assert (back.sigma, back.lam) == (1.0, 0.0)
    np.testing.assert_array_equal(back.train_features, X)
    np.testing.assert_array_equal(np.signbit(back.train_features), np.signbit(X))
    np.testing.assert_array_equal(back.alpha, alpha)


def test_dataset_file_bytes_and_read_back(tmp_path):
    data = Dataset(np.array([[0.1, 2.0], [3.0, -0.0]]), np.array([1 / 7, 1e100]))
    path = tmp_path / "data.csv"
    write_csv(data, path)
    assert path.read_bytes() == (
        b"0.10000000000000001,2,0.14285714285714285\n"
        b"3,-0,1e+100\n"
    )
    back = load_csv(path)
    np.testing.assert_array_equal(back.features, data.features)
    np.testing.assert_array_equal(np.signbit(back.features), np.signbit(data.features))
    np.testing.assert_array_equal(back.response, data.response)


@pytest.mark.parametrize("drop, message", [
    (1, "alpha block has length 2, expected 3"),
    (4, "expected '#alpha' tag after the feature rows"),
], ids=["one-alpha-row-short", "alpha-block-and-tag-gone"])
def test_truncated_model_names_the_short_block(tmp_path, drop, message):
    path = tmp_path / "model.csv"
    save_model(KrrModel(np.array([[0.0], [1.0], [2.0]]), np.ones(3), sigma=0.5, lam=0), path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-drop]))
    with pytest.raises(ValueError, match=message):
        load_model(path)


def test_model_with_blank_lines_and_crlf_loads(tmp_path):
    model = KrrModel(np.array([[0.5], [1.5]]), np.array([2.0, -1.0]), sigma=0.25, lam=1e-3)
    path = tmp_path / "model.csv"
    save_model(model, path)
    lines = path.read_text().splitlines()
    path.write_bytes(("\r\n\r\n".join(lines) + "\r\n").encode("utf-8"))
    back = load_model(path)
    assert (back.sigma, back.lam) == (0.25, 1e-3)
    np.testing.assert_array_equal(back.train_features, model.train_features)
    np.testing.assert_array_equal(back.alpha, model.alpha)


def test_header_is_first_non_blank_record(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("\nx,y\n1,2\n\n3,4\n")
    back = load_csv(path, has_header=True)
    np.testing.assert_array_equal(back.features, [[1.0], [3.0]])
    np.testing.assert_array_equal(back.response, [2.0, 4.0])


def test_oversized_field_is_a_format_error(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1," + "1" * 200_000 + "\n")
    with pytest.raises(CsvFormatError, match="field larger than field limit"):
        load_csv(path)
    with pytest.raises(CsvFormatError, match="field larger than field limit"):
        load_model(path)
