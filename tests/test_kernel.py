import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gkrr.kernel import (
    _exp,
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


def assert_kernels_ordered(k_near, k_far, gap, depth):
    """k_near >= k_far for kernels exp(-depth + gap) and exp(-depth), gap > 0; strictly
    when gap exceeds 16 eps (1 + depth), more than rounding the two exponents (about
    3 eps depth) and exp (a few eps) can hide, and exp(-depth) is a normal float."""
    assert k_near >= k_far
    if gap > 16 * sys.float_info.epsilon * (1 + depth) and -depth > math.log(sys.float_info.min):
        assert k_near > k_far


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
    @example(1e-3, 0.0010000000000000002, 1.0)  # one ulp apart: both kernels are 0.9999995000001249
    @settings(max_examples=100, deadline=None)
    def test_monotonicity(self, da, db, sigma):
        lo, hi = sorted((da, db))
        if lo == hi:
            return
        s2 = 2 * sigma * sigma
        # decreasing in d: exponents -lo^2 / s2 and -hi^2 / s2
        assert_kernels_ordered(k_at(lo, sigma), k_at(hi, sigma), (hi - lo) * (hi + lo) / s2, hi * hi / s2)
        # increasing in sigma for d > 0: exponents -lo^2 / (4 s2) and -lo^2 / s2
        assert_kernels_ordered(k_at(lo, 2 * sigma), k_at(lo, sigma), 0.75 * lo * lo / s2, lo * lo / s2)


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

    def test_same_array_twice_is_the_cross_kernel(self):
        # only B=None takes the mirrored path; on this cloud its diagonal differs
        # from the cross kernel's in one entry
        A = np.random.default_rng(1).uniform(-5.0, 5.0, (6, 2))
        K = kernel_matrix(A, A, 0.5)
        np.testing.assert_array_equal(K.view(np.int64), kernel_matrix(A, A.copy(), 0.5).view(np.int64))
        assert not np.array_equal(K, kernel_matrix(A, None, 0.5))

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 513])
    def test_symmetric_row_blocks(self, n):
        # the symmetric path builds its upper triangle in blocks of 256 rows
        X = np.random.default_rng(n).uniform(-5.0, 5.0, (n, 3))
        K = kernel_matrix(X, None, 1.2)
        assert np.array_equal(K, K.T)
        np.testing.assert_array_equal(np.diag(K), np.ones(n))
        d2 = pairwise_sq_dists(X, X)
        np.fill_diagonal(d2, 0.0)  # the expanded form leaves rounding there
        np.testing.assert_allclose(K, np.exp(-d2 / (2 * 1.2 * 1.2)), rtol=0, atol=1e-15)


# np.exp is exactly 0 below -745.1332191019412, subnormal down from -708.4
NORMAL = st.floats(-708.39, 700.0)
SUBNORMAL = st.floats(-745.1332191019412, -708.4)
UNDERFLOW = st.one_of(st.floats(-1e300, -745.1332191019413), st.just(-np.inf))
# np.exp's last nonzero argument, its first zero one, and either side of _exp's cut-off
EDGES = st.sampled_from([-745.1332191019411, -745.1332191019412, -745.1332194, -745.1332195])


class TestExp:
    @given(st.lists(st.one_of(NORMAL, SUBNORMAL, UNDERFLOW, EDGES, st.just(np.nan)), max_size=300))
    @example([-800.0] * 40)
    @example([-3.0] * 40)
    @example([])
    @example([-800.0, -3.0, -720.0, np.nan, -np.inf] * 30)
    @example([-3.0] + [-800.0] * 70)
    @example([-800.0, -745.1332191019411, -745.1332191019412, -745.1332194, -745.1332195])
    @settings(max_examples=300, deadline=None)
    def test_same_bits_as_np_exp(self, values):
        # the entries _exp zeroes itself, and the ones it exponentiates, take
        # np.exp's bits, whether none, some or all of them underflow, and
        # whether or not the sampled entries (0, 64, 128, ...) show it
        x = np.array(values, dtype=float)
        ref = np.exp(x)
        got = _exp(x)
        assert got is x
        np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))


def diameter_all_pairs(X):
    """The unpruned diameter: the largest entry of every 256-row block of the
    distance matrix's upper triangle."""
    best = 0.0
    for i in range(0, len(X), 256):
        best = max(best, float(pairwise_sq_dists(X[i : i + 256], X[i:]).max()))
    return math.sqrt(best)


def cloud(shape, n, p, offset, spread, seed):
    """n x p points: uniform, duplicated rows, collinear, or on a sphere about
    the origin (kept as +-v pairs, so no row is pruned), scaled by spread and
    shifted by offset in every coordinate."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, (n, p))
    if shape == "duplicates":
        X = X[rng.integers(0, max(1, n // 4), n)]
    elif shape == "collinear":
        X = rng.uniform(-1.0, 1.0, (n, 1)) * rng.uniform(-1.0, 1.0, p)
    elif shape == "sphere":
        V = rng.normal(size=((n + 1) // 2, p))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        X = np.vstack([V, -V])[:n]
    return X * spread + offset


SHAPES = st.sampled_from(["uniform", "duplicates", "collinear", "sphere"])
SIZES = st.sampled_from([1, 2, 3, 17, 255, 257, 600])


class TestMaxPairwiseDistance:
    def test_1d_points(self):
        assert max_pairwise_distance(np.array([[0.0], [1.0], [3.0]])) == 3.0

    def test_single_point(self):
        assert max_pairwise_distance(np.array([[4.0, 2.0]])) == 0.0

    def test_identical_points(self):
        assert max_pairwise_distance(np.ones((5, 2))) == 0.0

    def test_zero_rows_rejected(self):
        with pytest.raises(ValueError, match="need at least one row"):
            max_pairwise_distance(np.empty((0, 2)))

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

    @pytest.mark.parametrize("n", [2, 255, 257, 513])
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_upper_blocks_take_the_full_matrix_bits(self, p, n):
        # seeded CV's sigma_0 is select_jacobian's only while the diameter
        # equals the full matrix's max exactly, though the upper blocks' Gram
        # products round some entries differently from X @ X.T
        for seed in range(4):
            X = np.random.default_rng([seed, p, n]).uniform(-5.0, 5.0, (n, p))
            assert max_pairwise_distance(X) == math.sqrt(pairwise_sq_dists(X, X).max())

    @given(SHAPES, SIZES, st.integers(1, 5), st.integers(-10**6, 10**6),
           st.integers(1, 1000), st.integers(0, 2**32 - 1))
    @example("uniform", 600, 3, 1000, 1, 0)
    @settings(max_examples=60, deadline=None)
    def test_integer_points_take_the_all_pairs_bits(self, shape, n, p, offset, spread, seed):
        # integer coordinates up to about 1e6 keep every norm and Gram sum an
        # integer below 2^53, so each expanded-form d2 is exact and the kept
        # blocks hold the all-pairs maximum, whichever rows are pruned
        X = np.round(cloud(shape, n, p, offset, spread, seed))
        assert max_pairwise_distance(X) == diameter_all_pairs(X)

    @given(SHAPES, SIZES, st.integers(1, 5), st.sampled_from([0.0, 1.0, -1e3, 1e6]),
           st.sampled_from([1e-160, 1e-3, 1.0, 10.0]), st.integers(0, 2**32 - 1))
    @example("uniform", 600, 3, 1e3, 1e-3, 0)
    @example("sphere", 600, 5, 1e6, 1e-3, 1)
    @example("uniform", 17, 1, 0.0, 1e-160, 2)  # squares underflow: 0 without delta's 2^-1074 term
    @example("uniform", 1, 3, 1e3, 1.0, 2)  # the expanded form gives this row d2 = 9.3e-10 to itself
    @settings(max_examples=60, deadline=None)
    def test_real_points_within_the_documented_bound(self, shape, n, p, offset, spread, seed):
        # the squared result is within delta = (2p + 4) (2 eps max |x_i|^2 +
        # 2^-1074) of the exact squared diameter (taken in long double from
        # differences), plus the rounding of the final sqrt
        X = cloud(shape, n, p, offset, spread, seed)
        Xl = X.astype(np.longdouble)
        exact = max(((Xl - x) ** 2).sum(axis=1).max() for x in Xl)
        info = np.finfo(float)
        delta = (2 * p + 4) * (2.0 * info.eps * float((X * X).sum(axis=1).max()) + info.smallest_subnormal)
        got = np.longdouble(max_pairwise_distance(X))
        assert abs(got * got - exact) <= delta + 2 * info.eps * exact
        if n == 1:
            assert got == 0.0

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
