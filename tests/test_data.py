import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkrr.data import (
    CsvFormatError,
    Dataset,
    generate_synthetic,
    load_csv,
    make_kfold,
    write_csv,
)
from gkrr.bandwidth import select_jacobian, select_silverman
from gkrr.cli import main
from gkrr.kernel import gradient_one_norm_bound, kernel_matrix, max_pairwise_distance, pairwise_sq_dists
from gkrr.verify import check_bermanis_count, check_prop4


class TestDataset:
    def test_basic_shape(self):
        d = Dataset(np.array([[0.0], [1.0]]), np.array([1.0, 2.0]))
        assert d.n == 2 and d.p == 1

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            Dataset(np.zeros((3, 1)), np.zeros(2))

    def test_two_d_response_rejected(self):
        with pytest.raises(ValueError, match="response must be 1-D, got ndim=2"):
            Dataset(np.zeros((3, 1)), np.zeros((3, 1)))

    def test_zero_rows_rejected(self):
        with pytest.raises(ValueError, match=re.escape("need at least one row, got shape (0, 1)")):
            Dataset(np.empty((0, 1)), np.empty(0))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(np.array([[np.nan]]), np.array([0.0]))

    def test_immutable(self):
        d = Dataset(np.array([[0.0]]), np.array([1.0]))
        with pytest.raises(ValueError):
            d.features[0, 0] = 5.0

    def test_caller_arrays_untouched(self):
        X = np.zeros((2, 1))
        y = np.zeros(2)
        Dataset(X, y)
        assert X.flags.writeable and y.flags.writeable
        X[0, 0] = 7.0  # no aliasing back into the dataset either

    def test_duplicate_rows_permitted(self):
        d = Dataset(np.array([[1.0], [1.0]]), np.array([2.0, 2.0]))
        assert d.n == 2


@pytest.mark.parametrize("call", [
    lambda x: Dataset(x, np.zeros(10)),
    lambda x: pairwise_sq_dists(x, x),
    lambda x: kernel_matrix(x, None, 1.0),
    lambda x: max_pairwise_distance(x),
    lambda x: gradient_one_norm_bound(x, np.zeros(1), 1.0),
    lambda x: select_jacobian(x, 1e-3),
    lambda x: select_silverman(x),
    lambda x: check_prop4(x, 1.0),
    lambda x: check_bermanis_count(x, 1.0, 0.5),
], ids=["Dataset", "pairwise_sq_dists", "kernel_matrix", "max_pairwise_distance",
        "gradient_one_norm_bound", "select_jacobian", "select_silverman", "check_prop4",
        "check_bermanis_count"])
def test_one_d_features_rejected(call):
    # ten 1-D values are ten points or one point; neither is guessed
    with pytest.raises(ValueError, match="features must be 2-D, got ndim=1"):
        call(np.linspace(0.0, 9.0, 10))


@pytest.mark.parametrize("entry", ["select_jacobian", "select_silverman", "verify bermanis"])
def test_zero_feature_columns_rejected(entry, capsys):
    # no columns once read as "all rows identical: l_max = 0" (jacobian,
    # verify) or as sigma = nan (silverman); the verify command stops at its
    # --p flag before it builds any points
    message = "features need at least one column, got shape (10, 0)"
    if entry == "verify bermanis":
        assert main(["verify", "--claim", "bermanis", "--n", "10", "--p", "0"]) == 2
        assert "--p must be >= 1" in capsys.readouterr().err
        with pytest.raises(ValueError, match=re.escape(message)):
            check_bermanis_count(np.zeros((10, 0)), 1.0, 0.5)
    else:
        select = {"select_jacobian": lambda x: select_jacobian(x, 1e-3),
                  "select_silverman": select_silverman}[entry]
        with pytest.raises(ValueError, match=re.escape(message)):
            select(np.zeros((10, 0)))


class TestLoadCsv:
    def test_no_header(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0,1\n1,3\n2,5\n")
        d = load_csv(f)
        assert d.n == 3 and d.p == 1
        np.testing.assert_array_equal(d.response, [1.0, 3.0, 5.0])
        np.testing.assert_array_equal(d.features[:, 0], [0.0, 1.0, 2.0])

    def test_header_skip(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("x1,y\n0,1\n")
        d = load_csv(f, has_header=True)
        assert d.n == 1 and d.p == 1

    def test_parse_error_names_row_and_column(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0,abc\n")
        with pytest.raises(CsvFormatError, match=r"row 1, column 2"):
            load_csv(f)

    def test_ragged_rows(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0,1\n0,1,2\n")
        with pytest.raises(CsvFormatError, match="row 2"):
            load_csv(f)

    def test_non_finite_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0,inf\n")
        with pytest.raises(CsvFormatError, match="non-finite"):
            load_csv(f)

    def test_scientific_notation(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1e-3,2.5E2\n")
        d = load_csv(f)
        assert d.features[0, 0] == 1e-3 and d.response[0] == 250.0

    def test_single_column_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1\n2\n")
        with pytest.raises(CsvFormatError, match="at least one feature"):
            load_csv(f)

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(42)
        d = Dataset(rng.normal(size=(20, 3)) * 1e3, rng.normal(size=20) * 1e-7)
        f = tmp_path / "d.csv"
        write_csv(d, f)
        back = load_csv(f)
        # 17 significant digits round-trips float64 exactly
        np.testing.assert_array_equal(back.features, d.features)
        np.testing.assert_array_equal(back.response, d.response)


class TestGenerateSynthetic:
    def test_zero_noise_on_curve(self):
        d = generate_synthetic(1000, noise_sd=0.0, seed=11)
        np.testing.assert_array_equal(d.response, np.sin(2 * np.pi * d.features[:, 0]))

    def test_deterministic(self):
        a = generate_synthetic(40, 0.1, seed=7)
        b = generate_synthetic(40, 0.1, seed=7)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.response, b.response)

    def test_range_and_shape(self):
        d = generate_synthetic(500, 0.1, seed=3)
        assert d.p == 1
        assert d.features.min() >= -5.0 and d.features.max() <= 5.0

    def test_noise_variance_matches_moments(self):
        # large-sample check of the injected noise's second moment
        d = generate_synthetic(10_000, 0.1, seed=3)
        resid = d.response - np.sin(2 * np.pi * d.features[:, 0])
        assert 0.008 <= np.var(resid, ddof=1) <= 0.012

    def test_n_below_one(self):
        with pytest.raises(ValueError):
            generate_synthetic(0, 0.1, seed=0)

    @pytest.mark.parametrize("noise_sd", [-1.0, float("nan"), float("inf")])
    def test_noise_sd_must_be_finite_and_non_negative(self, noise_sd):
        # nan < 0 is false: a nan noise level once drew noiseless data
        with pytest.raises(ValueError, match="noise_sd must be finite and >= 0"):
            generate_synthetic(5, noise_sd, seed=0)


class TestMakeKfold:
    def test_leave_one_out_degenerate(self):
        plans = make_kfold(10, 10, seed=0)
        assert len(plans) == 10
        assert all(len(p.test_indices) == 1 for p in plans)

    def test_pigeonhole_sizes(self):
        plans = make_kfold(10, 3, seed=0)
        sizes = sorted(len(p.test_indices) for p in plans)
        assert sizes == [3, 3, 4]

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            make_kfold(5, 6, seed=0)
        with pytest.raises(ValueError):
            make_kfold(5, 1, seed=0)

    def test_deterministic_per_seed(self):
        a = make_kfold(23, 4, seed=9)
        b = make_kfold(23, 4, seed=9)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.test_indices, pb.test_indices)

    @given(st.integers(2, 60), st.integers(2, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_exact_partition(self, n, k, seed):
        if k > n:
            k = n
        plans = make_kfold(n, k, seed)
        all_test = np.concatenate([p.test_indices for p in plans])
        assert sorted(all_test.tolist()) == list(range(n))
        for p in plans:
            assert len(np.intersect1d(p.train_indices, p.test_indices)) == 0
            assert len(p.train_indices) + len(p.test_indices) == n
