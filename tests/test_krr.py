import math
import re
import tracemalloc

import numpy as np
import pytest
from conftest import complex_step_gradient, jacobi_eigenvalues
from hypothesis import given, settings
from hypothesis import strategies as st

from gkrr import krr
from gkrr.data import Dataset, generate_synthetic
from gkrr.kernel import kernel_matrix, max_pairwise_distance
from gkrr.krr import KrrModel, fit, gradient, load_model, predict, save_model
from gkrr.linalg import FactorizationError, factor_spd, solve
from gkrr.verify import _PROP2_REL_TOL


class TestFit:
    def test_single_point_no_ridge(self):
        data = Dataset(np.array([[0.0]]), np.array([2.0]))
        m = fit(data, 1.0, 0.0)
        np.testing.assert_array_equal(m.alpha, [2.0])
        assert predict(m, np.array([[0.0]]))[0] == 2.0

    def test_single_point_with_ridge(self):
        data = Dataset(np.array([[0.0]]), np.array([2.0]))
        m = fit(data, 1.0, 1.0)
        np.testing.assert_allclose(m.alpha, [1.0], rtol=1e-15)
        assert predict(m, np.array([[0.0]]))[0] == pytest.approx(1.0, rel=1e-15)

    def test_interpolation_at_lam_zero(self):
        rng = np.random.default_rng(21)
        X = np.sort(rng.uniform(-2, 2, size=5)).reshape(-1, 1)
        y = rng.normal(size=5)
        data = Dataset(X, y)
        m = fit(data, 0.4, 0.0)
        np.testing.assert_allclose(predict(m, X), y, atol=1e-6)

    def test_residual_invariant(self):
        data = generate_synthetic(30, 0.1, seed=1)
        m = fit(data, 0.5, 1e-3)
        K = kernel_matrix(data.features, None, 0.5)
        resid = np.linalg.norm((K + 1e-3 * np.eye(30)) @ m.alpha - data.response)
        assert resid <= 1e-8 * (np.linalg.norm(data.response) + 1)

    def test_duplicate_rows_lam_zero_fails(self):
        data = Dataset(np.array([[1.0], [1.0]]), np.array([0.0, 1.0]))
        with pytest.raises(FactorizationError, match="sigma may be too large"):
            fit(data, 1.0, 0.0)

    def test_shrinkage(self):
        data = generate_synthetic(25, 0.1, seed=2)
        norms = [
            np.linalg.norm(fit(data, 0.3, lam).alpha) for lam in (1e-4, 1e-2, 1.0, 10.0)
        ]
        assert all(a >= b for a, b in zip(norms, norms[1:]))


class TestFitInPlace:
    """fit builds K + lambda*I in one buffer and factors it without
    factor_spd's checks; its results must be the checked route's, bit for bit."""

    @pytest.mark.parametrize("n, p", [(1, 1), (2, 3), (40, 1), (257, 2), (300, 5)])
    def test_alpha_matches_public_route(self, n, p):
        rng = np.random.default_rng(10 * n + p)
        X = rng.uniform(-5.0, 5.0, (n, p))
        y = rng.normal(size=n)
        for sigma, lam in ((0.3, 1e-3), (2.0, 0.1), (0.05, 0.0)):
            ref = solve(factor_spd(kernel_matrix(X, None, sigma), lam), y)
            np.testing.assert_array_equal(fit(Dataset(X, y), sigma, lam).alpha, ref)

    def test_pivot_at_lambda_zero_matches_public_route(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(-1.0, 1.0, (9, 2))
        X[6] = X[2]  # duplicate rows: K is singular at lambda = 0
        with pytest.raises(FactorizationError) as ref:
            factor_spd(kernel_matrix(X, None, 0.5), 0.0)
        with pytest.raises(FactorizationError) as got:
            fit(Dataset(X, np.ones(9)), 0.5, 0.0)
        assert got.value.pivot == ref.value.pivot == 7


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """Peak traced allocation in units of n x n (or m x n) float64 buffers."""

    n, m = 1500, 700

    @pytest.fixture(scope="class")
    def problem(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(-5.0, 5.0, (self.n, 3))
        return Dataset(X, rng.normal(size=self.n)), rng.uniform(-5.0, 5.0, (self.m, 3))

    def test_diameter_below_0_4_buffers(self, problem):
        # two blocks of 256 rows: a block kept alive while the next is built
        # takes it to about 0.45
        data, _ = problem
        assert _peak_bytes(lambda: max_pairwise_distance(data.features)) < 0.4 * self.n**2 * 8

    def test_fit_below_1_6_buffers(self, problem):
        # the factored matrix plus distance blocks; a second n x n buffer makes 2
        data, _ = problem
        assert _peak_bytes(lambda: fit(data, 0.5, 1e-3)) < 1.6 * self.n**2 * 8

    def test_symmetric_kernel_matrix_below_1_4_buffers(self, problem):
        # the result plus a distance block or one row block's mirrored strip;
        # mirroring through the whole of K.T and an n x n mask took 2.125
        data, _ = problem
        assert _peak_bytes(lambda: kernel_matrix(data.features, None, 0.5)) < 1.4 * self.n**2 * 8

    def test_predict_below_1_2_buffers(self, problem):
        data, Q = problem
        model = fit(data, 0.5, 1e-3)
        assert _peak_bytes(lambda: predict(model, Q)) < 1.2 * self.m * self.n * 8

    def test_predict_peak_does_not_grow_with_queries(self, problem):
        data, _ = problem
        model = fit(data, 0.5, 1e-3)
        Q = np.random.default_rng(9).uniform(-5.0, 5.0, (4 * self.n, 3))
        assert _peak_bytes(lambda: predict(model, Q)) < 0.3 * len(Q) * self.n * 8


class TestPredict:
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 513])
    def test_row_blocks_match_kernel_matrix(self, n):
        # predict streams blocks of 256 query rows; the edges sit at m, n = 256
        rng = np.random.default_rng(n)
        X = rng.uniform(-5.0, 5.0, (n, 2))
        model = fit(Dataset(X, np.sin(X).sum(axis=1)), 1.5, 1e-2)
        for m in (1, 255, 256, 257, 513):
            Q = rng.uniform(-5.0, 5.0, (m, 2))
            ref = kernel_matrix(Q, X, model.sigma) @ model.alpha
            np.testing.assert_allclose(predict(model, Q), ref, rtol=1e-13)

    def test_each_block_is_a_kernel_matrix(self, monkeypatch):
        # one kernel_matrix call per 256 query rows, so a tracer of it sees predict
        calls, real = [], krr.kernel_matrix
        monkeypatch.setattr(krr, "kernel_matrix", lambda A, B, sigma: calls.append(len(A)) or real(A, B, sigma))
        model = fit(generate_synthetic(50, 0.1, seed=1), 0.5, 1e-3)
        predict(model, np.linspace(-5.0, 5.0, 700).reshape(-1, 1))
        assert calls == [256, 256, 188]

    def test_far_query_decays_to_zero(self):
        data = generate_synthetic(10, 0.1, seed=3)
        m = fit(data, 0.2, 1e-3)
        x_far = np.array([[5.0 + 20 * 0.2 + 1.0]])
        bound = math.exp(-200.0) * np.abs(m.alpha).sum()
        assert abs(predict(m, x_far)[0]) <= max(bound, 1e-80)

    def test_empty_input(self):
        data = generate_synthetic(5, 0.1, seed=4)
        m = fit(data, 0.5, 1e-3)
        assert predict(m, np.empty((0, 1))).shape == (0,)

    def test_column_mismatch(self):
        data = generate_synthetic(5, 0.1, seed=5)
        m = fit(data, 0.5, 1e-3)
        with pytest.raises(ValueError, match="columns"):
            predict(m, np.zeros((2, 3)))


class TestGradient:
    def test_flat_at_training_point_of_constant_model(self):
        data = Dataset(np.array([[0.0]]), np.array([3.0]))
        m = fit(data, 1.0, 0.0)
        assert gradient(m, np.array([0.0]))[0] == 0.0

    def test_single_point_analytic_value(self):
        data = Dataset(np.array([[0.0]]), np.array([1.0]))
        m = fit(data, 1.0, 0.0)
        g = gradient(m, np.array([1.0]))
        assert g[0] == pytest.approx(-math.exp(-0.5), rel=1e-15)

    def test_matches_complex_step(self):
        rng = np.random.default_rng(6)
        data = Dataset(rng.normal(size=(12, 3)), rng.normal(size=12))
        m = fit(data, 0.9, 1e-2)
        scale = np.abs(m.alpha).sum() / m.sigma
        for _ in range(5):
            x_star = rng.normal(size=3)
            oracle = complex_step_gradient(m.train_features, m.alpha, m.sigma, x_star)
            np.testing.assert_allclose(gradient(m, x_star), oracle, rtol=0, atol=1e-14 * scale)

    @given(st.integers(1, 3), st.floats(0.05, 2.0), st.floats(0.0, 3.0),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_complex_step_property(self, p, sigma, reach, seed):
        # data in [-1, 1]^p; x_star in [-reach, reach]^p, so often outside it
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 16))
        data = Dataset(rng.uniform(-1.0, 1.0, (n, p)), rng.normal(size=n))
        m = fit(data, sigma, float(rng.choice([1e-3, 0.1, 1.0])))
        x_star = reach * rng.uniform(-1.0, 1.0, p)
        oracle = complex_step_gradient(m.train_features, m.alpha, sigma, x_star)
        atol = 1e-14 * np.abs(m.alpha).sum() / sigma
        np.testing.assert_allclose(gradient(m, x_star), oracle, rtol=0, atol=atol)

    @pytest.mark.parametrize("x_star", [[0.0], [0.0, 1.0, 2.0], np.zeros((2, 2))])
    def test_wrong_length_raises(self, x_star):
        m = fit(Dataset(np.zeros((1, 2)), np.ones(1)), 1.0, 0.0)
        with pytest.raises(ValueError, match="coordinates, expected 2"):
            gradient(m, x_star)


class TestBoundChain:
    def test_three_factor_bound_random_instances(self):
        # ||grad f||_2 <= sqrt(n) ||y||_2 * max_i ||grad k_i||_1 * 1/(s_min+lam)
        from gkrr.kernel import gradient_one_norm_bound

        rng = np.random.default_rng(8)
        checked = 0
        for _ in range(100):
            n = int(rng.integers(3, 21))
            p = int(rng.integers(1, 4))
            lam = float(rng.choice([0.0, 1e-3, 1.0]))
            X = rng.uniform(-1, 1, size=(n, p))
            y = rng.normal(size=n)
            data = Dataset(X, y)
            sigma = 0.5 * float(np.ptp(X))
            try:
                m = fit(data, sigma, lam)
            except FactorizationError:
                continue
            s_min = float(np.abs(jacobi_eigenvalues(kernel_matrix(X, None, sigma))).min())
            outer = math.sqrt(n) * np.linalg.norm(y) / (s_min + lam)
            x_star = rng.uniform(-1.2, 1.2, size=p)
            g = np.linalg.norm(gradient(m, x_star))
            bound = outer * gradient_one_norm_bound(X, x_star, sigma)
            assert g <= bound * (1 + _PROP2_REL_TOL)
            # the cap variant: middle factor replaced by 1/(sigma sqrt(e))
            cap_bound = outer / (sigma * math.sqrt(math.e))
            assert g <= cap_bound * (1 + _PROP2_REL_TOL)
            checked += 1
        assert checked >= 90


class TestSerialization:
    def test_round_trip_value_exact(self, tmp_path):
        data = generate_synthetic(17, 0.1, seed=9)
        m = fit(data, 0.345, 1e-3)
        path = tmp_path / "model.csv"
        save_model(m, path)
        back = load_model(path)
        assert back.sigma == m.sigma and back.lam == m.lam
        np.testing.assert_array_equal(back.train_features, m.train_features)
        np.testing.assert_array_equal(back.alpha, m.alpha)

    def test_round_trip_prediction_identical(self, tmp_path):
        data = generate_synthetic(20, 0.1, seed=10)
        m = fit(data, 0.2, 1e-3)
        path = tmp_path / "model.csv"
        save_model(m, path)
        back = load_model(path)
        q = np.linspace(-5, 5, 50).reshape(-1, 1)
        np.testing.assert_array_equal(predict(back, q), predict(m, q))

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("#nope\n")
        with pytest.raises(ValueError, match="#meta"):
            load_model(path)

    def test_alpha_length_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            KrrModel(np.zeros((3, 1)), np.zeros(2), 1.0, 0.0)

    @pytest.mark.parametrize("shape", [(3, 1), (3, 2)])
    def test_alpha_must_be_a_vector(self, shape):
        # a (3, 2) alpha made predict return one column per alpha column
        with pytest.raises(ValueError, match=r"alpha has shape \(3, \d\), expected \(3,\)"):
            KrrModel(np.zeros((3, 1)), np.ones(shape), 1.0, 0.0)

    def test_zero_rows_rejected(self):
        # it constructed, and predict returned all zeros
        with pytest.raises(ValueError, match="need at least one training row"):
            KrrModel(np.empty((0, 1)), np.empty(0), 0.5, 0.0)

    @pytest.mark.parametrize("n", [0, -1])
    def test_load_model_rejects_meta_n_below_one(self, tmp_path, n):
        path = tmp_path / "model.csv"
        path.write_text(f"#meta\n{n},1,0.5,0\n#train_features\n#alpha\n")
        message = f"{path}: malformed #meta section: n must be >= 1, got {n}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_model(path)

    def test_one_dimensional_features_rejected(self):
        # read as n x 1 they constructed, and predict then raised IndexError
        with pytest.raises(ValueError, match="features must be 2-D"):
            KrrModel(np.zeros(3), np.zeros(3), 1.0, 0.0)

    @pytest.mark.parametrize("field, value, message", [
        ("train_features", [[0.0], [math.inf]], "model contains non-finite"),
        ("alpha", [1.0, math.nan], "model contains non-finite"),
        ("sigma", -0.5, "sigma must be finite and > 0"),
        ("sigma", math.nan, "sigma must be finite and > 0"),
        ("lam", -1.0, "lambda must be finite and >= 0"),
        ("lam", math.inf, "lambda must be finite and >= 0"),
    ], ids=["feature-inf", "alpha-nan", "sigma-negative", "sigma-nan", "lambda-negative",
            "lambda-inf"])
    def test_invalid_values_rejected(self, field, value, message):
        kw = dict(train_features=[[0.0], [1.0]], alpha=[1.0, 2.0], sigma=0.5, lam=0.0)
        with pytest.raises(ValueError, match=message):
            KrrModel(**{**kw, field: value})

    @pytest.mark.parametrize("line, text, message", [
        (3, "inf", "model contains non-finite"),
        (7, "nan", "model contains non-finite"),
        (1, "2,1,-0.5,0", "sigma must be finite and > 0"),
        (1, "2,1,0.5,-1", "lambda must be finite and >= 0"),
        (2, "#features", "expected '#train_features' tag on line 3"),
    ], ids=["feature-inf", "alpha-nan", "sigma-negative", "lambda-negative", "train-features-tag"])
    def test_load_model_names_file_with_invalid_values(self, tmp_path, line, text, message):
        path = tmp_path / "model.csv"
        save_model(KrrModel(np.array([[0.0], [1.0]]), np.array([1.0, 2.0]), 0.5, 0.0), path)
        lines = path.read_text().splitlines()
        lines[line] = text
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
            load_model(path)

    def test_model_copies_caller_arrays(self):
        X = np.ones((2, 1))
        alpha = np.ones(2)
        m = KrrModel(X, alpha, 1.0, 0.0)
        X[0, 0] = 99.0  # caller arrays stay writable and unaliased
        alpha[0] = 99.0
        assert m.train_features[0, 0] == 1.0
        assert m.alpha[0] == 1.0
