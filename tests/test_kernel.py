import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkrr.kernel import (
    gradient_one_norm_bound,
    kernel_gradient_norm,
    kernel_matrix,
    max_pairwise_distance,
    pairwise_sq_dists,
)


def kernel_matrix_oracle(A, B, sigma):
    """Direct double loop over row pairs."""
    A = np.atleast_2d(A)
    B = np.atleast_2d(B)
    K = np.empty((A.shape[0], B.shape[0]))
    for i in range(A.shape[0]):
        for j in range(B.shape[0]):
            d2 = float(np.sum((A[i] - B[j]) ** 2))
            K[i, j] = math.exp(-d2 / (2 * sigma * sigma))
    return K


def k_at(d, sigma):
    """Kernel value at distance d, from kernel_matrix on 1-row inputs 0 and d."""
    return kernel_matrix(np.array([[0.0]]), np.array([[d]]), sigma)[0, 0]


class TestGaussian:
    def test_zero_distance(self):
        assert kernel_matrix(np.array([[2.5]]), np.array([[2.5]]), 3.7)[0, 0] == 1.0
        assert k_at(0.0, 3.7) == 1.0

    def test_at_one_bandwidth(self):
        s = 1.3
        assert k_at(s, s) == pytest.approx(math.exp(-0.5), rel=1e-15)

    def test_half_value(self):
        s = 0.4
        assert k_at(s * math.sqrt(2 * math.log(2)), s) == pytest.approx(0.5, rel=1e-14)

    def test_sigma_must_be_positive(self):
        # 1e-300 and 1e-170: 2 sigma^2 underflows to 0
        for sigma in (0.0, -1.0, float("nan"), float("inf"), 1e-300, 1e-170):
            with pytest.raises(ValueError):
                k_at(1.0, sigma)

    @given(
        st.floats(1e-3, 1e3),
        st.floats(1e-3, 1e3),
        st.floats(1e-3, 1e3),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotonicity(self, da, db, sigma):
        lo, hi = sorted((da, db))
        if lo == hi:
            return
        # strictly decreasing in d (until underflow flattens both to 0)
        ka, kb = k_at(lo, sigma), k_at(hi, sigma)
        assert ka > kb or (ka == kb == 0.0)
        # strictly increasing in sigma for d > 0
        k1, k2 = k_at(lo, sigma), k_at(lo, 2 * sigma)
        assert k2 > k1 or (k1 == k2 == 0.0)


class TestKernelMatrix:
    def test_single_point(self):
        K = kernel_matrix(np.array([[2.0, 3.0]]), None, 1.0)
        np.testing.assert_array_equal(K, [[1.0]])

    def test_two_points_1d(self):
        K = kernel_matrix(np.array([[0.0], [1.0]]), None, 1.0)
        e = math.exp(-0.5)
        np.testing.assert_allclose(K, [[1.0, e], [e, 1.0]], rtol=1e-15)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(5, 2))
        B = rng.normal(size=(3, 2))
        K = kernel_matrix(A, B, 0.7)
        np.testing.assert_allclose(K, kernel_matrix_oracle(A, B, 0.7), atol=1e-14)

    def test_symmetric_to_zero_ulp(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(40, 3))
        K = kernel_matrix(X, None, 0.9)
        assert np.array_equal(K, K.T)
        np.testing.assert_array_equal(np.diag(K), np.ones(40))

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(7)
        for n, p, sigma in [(10, 1, 0.5), (50, 3, 1.0), (30, 2, 5.0)]:
            X = rng.normal(size=(n, p))
            eigs = np.linalg.eigvalsh(kernel_matrix(X, None, sigma))
            assert eigs.min() >= -1e-10 * n

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="column"):
            kernel_matrix(np.zeros((2, 2)), np.zeros((2, 3)), 1.0)


class TestMaxPairwiseDistance:
    def test_1d_points(self):
        assert max_pairwise_distance(np.array([[0.0], [1.0], [3.0]])) == 3.0

    def test_single_point(self):
        assert max_pairwise_distance(np.array([[4.0, 2.0]])) == 0.0

    def test_identical_points(self):
        assert max_pairwise_distance(np.ones((5, 2))) == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(100, 3))
        best = 0.0
        for i in range(100):
            for j in range(i + 1, 100):
                best = max(best, float(np.linalg.norm(X[i] - X[j])))
        assert max_pairwise_distance(X) == pytest.approx(best, abs=1e-12)

    @pytest.mark.parametrize("n", [255, 256, 257, 513])
    def test_row_blocks_match_full_matrix(self, n):
        # block edges at 256 rows; the farthest pair is the last two rows, so
        # a loop that stops a block early misses it
        rng = np.random.default_rng(n)
        X = rng.uniform(-5.0, 5.0, (n, 3))
        X[-1] = [9.0, -9.0, 9.0]
        X[-2] = [-9.0, 9.0, -9.0]
        got = max_pairwise_distance(X)
        assert got == math.sqrt(pairwise_sq_dists(X, X).max())
        brute = max(float(np.sqrt(((X - x) ** 2).sum(axis=1)).max()) for x in X)
        assert got == pytest.approx(brute, rel=1e-14)


    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_features_rejected(self, bad):
        # max(best, nan) keeps best, so a nan row read as a diameter of 0 or 1
        for X in (np.array([[0.0], [bad], [1.0]]), np.array([[0.0], [1.0], [bad]])):
            with pytest.raises(ValueError, match="non-finite"):
                max_pairwise_distance(X)


class TestKernelGradientNorm:
    def test_vanishes_at_center(self):
        assert kernel_gradient_norm(0.0, 2.0) == 0.0

    def test_peak_value(self):
        # attained at d = sigma (exact stationary point of the radial gradient)
        for s in (0.5, 1.0, 4.0):
            assert kernel_gradient_norm(s, s) == pytest.approx(
                1.0 / (s * math.sqrt(math.e)), rel=1e-15
            )

    def test_grid_max_close_to_cap(self):
        s = 1.7
        d = np.linspace(0.0, 10 * s, 10_000)
        gmax = kernel_gradient_norm(d, s).max()
        cap = 1.0 / (s * math.sqrt(math.e))
        assert abs(gmax - cap) <= 1e-6 * cap

    def test_cap_is_upper_bound_everywhere(self):
        for s in (0.1, 1.0, 10.0):
            d = np.linspace(0.0, 10 * s, 10_000)
            cap = 1.0 / (s * math.sqrt(math.e))
            assert np.all(kernel_gradient_norm(d, s) <= cap * (1 + 1e-12))

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            kernel_gradient_norm(1.0, -2.0)


class TestGradientOneNormBound:
    def test_reduces_to_radial_in_1d(self):
        X = np.array([[0.0], [2.0], [-1.0]])
        x_star = np.array([0.7])
        expect = max(kernel_gradient_norm(abs(0.7 - x), 1.3) for x in [0.0, 2.0, -1.0])
        assert gradient_one_norm_bound(X, x_star, 1.3) == pytest.approx(expect, rel=1e-14)

    def test_dominates_two_norm_in_higher_d(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(8, 3))
        x_star = rng.normal(size=3)
        val = gradient_one_norm_bound(X, x_star, 0.8)
        radial = max(
            kernel_gradient_norm(float(np.linalg.norm(x_star - X[i])), 0.8)
            for i in range(8)
        )
        assert val >= radial - 1e-15
