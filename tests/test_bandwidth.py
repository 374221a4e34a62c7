import ast
import inspect
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import press_loo_loss
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gkrr
from gkrr import bandwidth
from gkrr.bandwidth import (
    _CV_STACK_FLOATS,
    BandwidthResult,
    JacobianParams,
    Regime,
    approx_jacobian_norm,
    classify_regime,
    default_cv_grid,
    jacobian_sigma,
    lambda_threshold,
    select_bandwidth,
    select_cv,
    select_jacobian,
    select_seeded_cv,
    select_silverman,
    _cv_mean_losses,
)
from gkrr.data import Dataset, generate_synthetic, make_kfold
from gkrr.kernel import kernel_matrix, max_pairwise_distance, pairwise_sq_dists
from gkrr.krr import fit, predict
from gkrr.lambertw import NEGATIVE
from gkrr.linalg import FactorizationError, factor_spd, solve


def exhaustive_cv_oracle(data, lam, folds, grid, seed):
    """Straight-line reimplementation: loop grid x folds, refit, score."""
    plans = make_kfold(data.n, folds, seed)
    X, y = data.features, data.response
    best_sigma, best_loss = None, math.inf
    for sigma in np.sort(np.asarray(grid, dtype=float)):
        total = 0.0
        for plan in plans:
            tr, te = plan.train_indices, plan.test_indices
            d2_tr = np.maximum(
                np.sum(X[tr] ** 2, axis=1)[:, None]
                + np.sum(X[tr] ** 2, axis=1)[None, :]
                - 2 * X[tr] @ X[tr].T,
                0.0,
            )
            K = np.exp(-d2_tr / (2 * sigma**2))
            K = np.triu(K, 1) + np.triu(K, 1).T + np.eye(len(tr))
            try:
                alpha = np.linalg.solve(K + lam * np.eye(len(tr)), y[tr])
            except np.linalg.LinAlgError:
                total = math.inf
                break
            d2_te = np.maximum(
                np.sum(X[te] ** 2, axis=1)[:, None]
                + np.sum(X[tr] ** 2, axis=1)[None, :]
                - 2 * X[te] @ X[tr].T,
                0.0,
            )
            pred = np.exp(-d2_te / (2 * sigma**2)) @ alpha
            total += float(np.mean((y[te] - pred) ** 2))
        mean_loss = total / folds
        if mean_loss < best_loss:
            best_loss, best_sigma = mean_loss, float(sigma)
    return best_sigma


def reference_cv_losses(data, lam, folds, grid, seed):
    """The per-(sigma, fold) CV loop that ``_cv_mean_losses`` replaced: one
    ``kernel_matrix`` pair, checked ``factor_spd`` and ``solve`` per pair."""
    plans = make_kfold(data.n, folds, seed)
    X, y = data.features, data.response
    mean_losses = np.empty(len(grid))
    for gi, sigma in enumerate(grid):
        total = 0.0
        for plan in plans:
            tr, te = plan.train_indices, plan.test_indices
            X_tr = X[tr]
            K = kernel_matrix(X_tr, None, sigma)
            try:
                alpha = solve(factor_spd(K, lam), y[tr])
            except FactorizationError:
                total = math.inf
                break
            pred = kernel_matrix(X[te], X_tr, sigma) @ alpha
            total += float(np.mean((y[te] - pred) ** 2))
        mean_losses[gi] = total / folds
    return mean_losses


class TestJacobianParams:
    def test_n_two_rejected(self):
        with pytest.raises(ValueError, match="n >= 3"):
            JacobianParams(n=2, p=1, l_max=1.0, lam=0.0)

    def test_zero_diameter_rejected(self):
        with pytest.raises(ValueError, match="l_max"):
            JacobianParams(n=5, p=1, l_max=0.0, lam=0.0)

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError, match="need p >= 1, got 0"):
            JacobianParams(n=5, p=0, l_max=1.0, lam=0.0)

    def test_spread(self):
        assert JacobianParams(n=10, p=1, l_max=1.0, lam=0.0).spread == 8.0
        assert JacobianParams(n=9, p=3, l_max=1.0, lam=0.0).spread == pytest.approx(1.0)


class TestApproxJacobianNorm:
    def test_diverges_at_small_sigma(self):
        params = JacobianParams(n=10, p=1, l_max=1.0, lam=0.0)
        assert approx_jacobian_norm(1e-8, params) > 1e6

    def test_value_at_sigma0(self):
        # at sigma_0 with lam=0 the exponent is exactly -1/2
        params = JacobianParams(n=10, p=1, l_max=1.0, lam=0.0)
        s0 = math.sqrt(2) / (8 * math.pi)
        expect = 1.0 / (s0 * 10 * math.exp(-0.5))
        assert approx_jacobian_norm(s0, params) == pytest.approx(expect, rel=1e-12)

    def test_conditioning_factor_limit(self):
        # j_b -> 1/lambda as sigma -> infinity
        params = JacobianParams(n=10, p=1, l_max=1.0, lam=1.0)
        j_b = 1.0 / (params.bermanis_estimate(1e3) + params.lam)
        assert j_b == pytest.approx(1.0, abs=1e-6)

    def test_factor_bounds(self):
        params = JacobianParams(n=12, p=2, l_max=2.0, lam=0.3)
        sigmas = np.geomspace(1e-3, 1e3, 200)
        j_a = 1.0 / sigmas
        j_b = np.array([1.0 / (params.bermanis_estimate(s) + params.lam) for s in sigmas])
        assert np.all(j_b <= 1.0 / 0.3 + 1e-12)
        assert np.all(np.diff(j_a) < 0)  # strictly decreasing
        # increasing toward 1/lambda; the tail saturates there exactly once
        # the exponential underflows
        diffs = np.diff(j_b)
        assert np.all(diffs >= 0)
        unsaturated = j_b[1:] < (1.0 / 0.3) * (1 - 1e-12)
        assert np.all(diffs[unsaturated] > 0)

    def test_sigma_validation(self):
        params = JacobianParams(n=10, p=1, l_max=1.0, lam=0.0)
        with pytest.raises(ValueError):
            approx_jacobian_norm(0.0, params)


class TestJacobianSigma:
    def test_closed_form_lam_zero(self):
        params = JacobianParams(n=10, p=1, l_max=1.0, lam=0.0)
        assert jacobian_sigma(params) == pytest.approx(math.sqrt(2) / (8 * math.pi), rel=1e-12)

    def test_sqrt3_at_threshold(self):
        thr = lambda_threshold(10)
        params = JacobianParams(n=10, p=1, l_max=1.0, lam=thr)
        ratio = jacobian_sigma(params) / (math.sqrt(2) / (8 * math.pi))
        assert ratio == pytest.approx(math.sqrt(3), rel=1e-10)

    def test_negative_branch_undefined_at_lam_zero(self):
        params = JacobianParams(n=10, p=1, l_max=1.0, lam=0.0)
        with pytest.raises(ValueError, match="unbounded"):
            jacobian_sigma(params, NEGATIVE)

    def test_above_threshold_rejected(self):
        thr = lambda_threshold(10)
        with pytest.raises(ValueError, match="threshold"):
            jacobian_sigma(JacobianParams(n=10, p=1, l_max=1.0, lam=1.5 * thr))

    def test_ordering_sigma0_below_sigma_minus1(self):
        for frac in (0.1, 0.5, 0.9):
            thr = lambda_threshold(20)
            params = JacobianParams(n=20, p=2, l_max=3.0, lam=frac * thr)
            assert jacobian_sigma(params) < jacobian_sigma(params, NEGATIVE)

    def test_stationarity_by_central_difference(self):
        # the closed-form sigma_0 really is a stationary point of the proxy
        for frac in (0.0, 0.1, 0.9):
            for n, p in ((10, 1), (100, 2)):
                lam = frac * lambda_threshold(n)
                params = JacobianParams(n=n, p=p, l_max=1.0, lam=lam)
                s0 = jacobian_sigma(params)
                h = 1e-5 * s0
                fd = (
                    approx_jacobian_norm(s0 + h, params)
                    - approx_jacobian_norm(s0 - h, params)
                ) / (2 * h)
                j0 = approx_jacobian_norm(s0, params)
                assert abs(fd) <= 1e-6 * j0
                assert approx_jacobian_norm(0.95 * s0, params) > j0
                assert approx_jacobian_norm(1.05 * s0, params) > j0

    def test_local_maximum_at_sigma_minus1(self):
        for frac in (0.1, 0.5, 0.9):
            n = 10
            params = JacobianParams(n=n, p=1, l_max=1.0, lam=frac * lambda_threshold(n))
            s1 = jacobian_sigma(params, NEGATIVE)
            j1 = approx_jacobian_norm(s1, params)
            assert approx_jacobian_norm(0.95 * s1, params) < j1
            assert approx_jacobian_norm(1.05 * s1, params) < j1

    def test_monotone_regime_decreasing(self):
        n = 10
        params = JacobianParams(n=n, p=1, l_max=1.0, lam=1.01 * lambda_threshold(n))
        grid = np.geomspace(1e-3, 1e3, 1000)
        J = np.array([approx_jacobian_norm(s, params) for s in grid])
        assert np.all(np.diff(J) < 0)


class TestRegime:
    def test_classification(self):
        assert classify_regime(10, 0.0) is Regime.NO_REGULARIZATION
        thr = lambda_threshold(10)
        assert classify_regime(10, 0.5 * thr) is Regime.LOCAL_MINIMUM
        assert classify_regime(10, thr) is Regime.LOCAL_MINIMUM
        assert classify_regime(10, 1.0001 * thr) is Regime.MONOTONE

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -1.0])
    def test_invalid_lambda_rejected(self, lam):
        with pytest.raises(ValueError, match="lambda must be finite and >= 0"):
            classify_regime(10, lam)

    def test_ratio_underflowing_to_zero_is_no_regularization(self):
        # W reads lambda / threshold, which rounds to 0 here: so does the regime
        params = JacobianParams(n=10, p=1, l_max=1.0, lam=5e-324)
        assert classify_regime(10, 5e-324) is Regime.NO_REGULARIZATION
        assert jacobian_sigma(params) == jacobian_sigma(replace(params, lam=0.0))

    def test_threshold_value(self):
        assert lambda_threshold(10) == pytest.approx(2 * 10 * math.exp(-1.5), rel=1e-15)


class TestSelectJacobian:
    def test_evenly_spaced_six_points(self):
        X = np.linspace(0.0, 1.0, 6).reshape(-1, 1)
        res = select_jacobian(X, 0.0)
        assert res.sigma == pytest.approx(math.sqrt(2) / (4 * math.pi), rel=1e-12)
        assert res.regime is Regime.NO_REGULARIZATION
        assert not res.clamped

    def test_clamp_above_threshold(self):
        X = np.linspace(0.0, 1.0, 10).reshape(-1, 1)
        thr = lambda_threshold(10)
        at_thr = select_jacobian(X, thr)
        above = select_jacobian(X, 1.5 * thr)
        assert above.clamped
        assert above.sigma == at_thr.sigma  # bitwise equal by construction
        assert above.regime is Regime.MONOTONE

    @pytest.mark.parametrize("frac", [0.0, 0.5, 1.0, 1.0001, 1.5])
    def test_clamped_is_monotone_regime(self, frac):
        X = np.linspace(0.0, 1.0, 10).reshape(-1, 1)
        res = select_jacobian(X, frac * lambda_threshold(10))
        assert res.clamped == (res.regime is Regime.MONOTONE) == (frac > 1.0)

    def test_n_two_rejected(self):
        with pytest.raises(ValueError):
            select_jacobian(np.array([[0.0], [0.0]]), 0.0)

    def test_identical_rows_rejected(self):
        with pytest.raises(ValueError, match="identical"):
            select_jacobian(np.zeros((5, 2)), 0.0)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(15, 2))
        base = select_jacobian(X, 1e-3).sigma
        for c in (0.1, 3.0, 250.0):
            scaled = select_jacobian(c * X, 1e-3).sigma
            assert scaled == pytest.approx(c * base, rel=1e-12)


class TestSelectSilverman:
    def test_unit_variance_formula(self):
        # scale a fixed vector to unit sample sd, then the factor is exact
        x = np.array([-1.5, -0.5, 0.5, 1.5] * 25)
        x = x / x.std(ddof=1)
        res = select_silverman(x.reshape(-1, 1))
        assert res.sigma == pytest.approx((4.0 / 300.0) ** 0.2, rel=1e-12)

    def test_multivariate_unit_sigma_hat_scaling(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(4, 2))
        sigma_hat = math.sqrt(np.mean(np.var(X, axis=0, ddof=1)))
        X = X * (2.0 / sigma_hat)  # rescale so sigma_hat = 2
        res = select_silverman(X)
        # (n=4, p=2, sigma_hat=2) -> 2 * (1/4)^(1/6) = 1.5874010519681996
        assert res.sigma == pytest.approx(2.0 * 0.25 ** (1.0 / 6.0), rel=1e-12)
        assert res.sigma == pytest.approx(1.5874010519681996, rel=1e-10)

    def test_lambda_blind(self):
        rng = np.random.default_rng(9)
        data = Dataset(rng.normal(size=(30, 1)), rng.normal(size=30))
        a = select_bandwidth("silverman", data, 0.0)
        b = select_bandwidth("silverman", data, 100.0)
        assert a.sigma == b.sigma

    def test_constant_features_rejected(self):
        with pytest.raises(ValueError, match="all rows identical"):
            select_silverman(np.ones((10, 1)))

    def test_n_one_rejected(self):
        with pytest.raises(ValueError):
            select_silverman(np.array([[1.0]]))

    @pytest.mark.filterwarnings("error")
    def test_rows_near_the_square_limit_selected(self):
        # np.var's sum of squares overflowed here, where Jacobian selects
        X = np.array([[6e153], [-6e153], [0.0]] * 3 + [[1e153], [-1e153]])
        assert select_silverman(X).sigma == pytest.approx(3.06e153, rel=1e-3)
        assert select_jacobian(X, 1e-3).sigma == pytest.approx(6.0e152, rel=1e-3)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("log2_scale, j", [(-90, 600), (80, -600)])
    def test_power_of_two_scale_keeps_every_bit(self, log2_scale, j):
        # 2^600 took the squares past the float range and 2^-600 into the
        # subnormals, where they lost bits
        X = np.random.default_rng(4).uniform(-1.0, 1.0, (60, 2)) * 2.0**log2_scale
        assert select_silverman(X * 2.0**j).sigma == 2.0**j * select_silverman(X).sigma


class TestSelectCv:
    def test_single_element_grid(self):
        data = generate_synthetic(20, 0.1, seed=0)
        res = select_cv(data, 1e-3, folds=5, grid_size=1, grid_min=0.3, grid_max=0.3, seed=0)
        assert res.sigma == 0.3
        assert res.cv_curve is not None and len(res.cv_curve) == 1

    def test_matches_exhaustive_oracle(self):
        for seed in range(5):
            data = generate_synthetic(40, 0.1, seed=100 + seed)
            grid = default_cv_grid(5.0, 30)
            res = select_cv(data, 1e-3, folds=10, grid_size=30, grid_max=5.0, seed=seed)
            oracle = exhaustive_cv_oracle(data, 1e-3, 10, grid, seed)
            assert res.sigma == oracle

    def test_deterministic(self):
        data = generate_synthetic(30, 0.1, seed=5)
        a = select_cv(data, 1e-3, seed=5)
        b = select_cv(data, 1e-3, seed=5)
        assert a.sigma == b.sigma
        assert a.cv_curve == b.cv_curve

    @pytest.mark.parametrize("select", [select_cv, select_seeded_cv])
    def test_distances_computed_once(self, monkeypatch, select):
        import gkrr.bandwidth as bw

        data = generate_synthetic(30, 0.1, seed=6)
        # the default grid ends at l_max; the seeded grid starts at sigma_0 / 5
        end, edge = {select_cv: (-1, max_pairwise_distance(data.features)),
                     select_seeded_cv: (0, select_jacobian(data.features, 1e-3).sigma / 5.0)}[select]
        calls = []
        real = bw.pairwise_sq_dists
        monkeypatch.setattr(bw, "pairwise_sq_dists", lambda A, B: calls.append(1) or real(A, B))
        monkeypatch.setattr(bw, "max_pairwise_distance", None)  # l_max from the same matrix
        res = select(data, 1e-3, folds=5, grid_size=9)
        assert len(calls) == 1
        assert res.cv_curve[end][0] == edge

    @pytest.mark.parametrize("tiny", [1e-300, 1e-170])
    def test_underflowing_grid_bandwidth_rejected(self, tiny):
        # 2 sigma^2 = 0 gave a nan loss, and argmin picks the first nan
        data = Dataset(np.array([[0.0], [0.0], [1.0], [2.0], [3.0], [4.0]]), np.arange(6.0))
        with pytest.raises(ValueError, match="underflows"):
            select_cv(data, 0.1, folds=2, grid_min=tiny)

    @pytest.mark.parametrize("grid_max", [math.nan, math.inf, 0.005])
    def test_grid_max_not_finite_or_below_grid_min_rejected(self, grid_max):
        data = generate_synthetic(20, 0.1, seed=0)
        with pytest.raises(ValueError, match="grid_max must be finite and >= grid_min"):
            select_cv(data, 1e-3, folds=5, grid_max=grid_max)
        with pytest.raises(ValueError, match="grid_max must be finite and >= grid_min"):
            select_bandwidth("cv", data, 1e-3, folds=5, grid_max=grid_max)

    @pytest.mark.parametrize("grid_max", [0.5, 3.0, 40.0])
    def test_grid_max_ends_curve(self, grid_max):
        # below, near and far above the diameter (about 10) of the sample
        data = generate_synthetic(20, 0.1, seed=0)
        res = select_cv(data, 1e-3, folds=5, grid_size=9, grid_max=grid_max)
        assert res.cv_curve[0][0] == 0.01 and res.cv_curve[-1][0] == grid_max

    def test_curve_covers_grid(self):
        data = generate_synthetic(25, 0.1, seed=2)
        res = select_cv(data, 1e-3, grid_size=17, seed=1)
        assert len(res.cv_curve) == 17
        sig = [s for s, _ in res.cv_curve]
        assert sig == sorted(sig)

    def test_fold_count_validation(self):
        data = generate_synthetic(8, 0.1, seed=0)
        with pytest.raises(ValueError):
            select_cv(data, 1e-3, folds=1)
        with pytest.raises(ValueError):
            select_cv(data, 1e-3, folds=9)

    def test_zero_loss_wins(self):
        # when one grid sigma reproduces validation targets exactly, it wins
        X = np.linspace(0.0, 3.0, 12).reshape(-1, 1)
        y = np.zeros(12)  # zero responses: every sigma interpolates with loss 0
        data = Dataset(X, y)
        res = select_cv(data, 0.0, folds=3, grid_size=2, grid_min=0.5, grid_max=1.0, seed=0)
        # all-zero losses tie; smallest sigma wins by the documented rule
        assert res.sigma == 0.5

    def test_factorization_failure_becomes_inf_loss(self):
        # with lam=0 a very wide kernel is numerically singular on every
        # fold; the selector records +inf for that sigma instead of crashing
        X = np.arange(6.0).reshape(-1, 1)
        y = np.array([0.0, 1.0, 0.5, 0.2, 0.1, 0.4])
        data = Dataset(X, y)
        res = select_cv(data, 0.0, folds=3, grid_size=2, grid_min=0.7, grid_max=1e4, seed=1)
        assert res.sigma == 0.7
        assert math.isfinite(res.cv_curve[0][1])
        assert math.isinf(res.cv_curve[1][1])

    @pytest.mark.parametrize("lam", [-0.5, math.nan, math.inf])
    def test_invalid_lambda_rejected(self, lam):
        data = generate_synthetic(12, 0.1, seed=0)
        with pytest.raises(ValueError, match="lambda must be finite and >= 0"):
            select_cv(data, lam, folds=3)
        with pytest.raises(ValueError, match="lambda must be finite and >= 0"):
            select_bandwidth("cv", data, lam, folds=3)

    @pytest.mark.parametrize("selector", [select_cv, select_seeded_cv])
    def test_all_points_failed_raises(self, selector):
        # duplicated rows with lam=0 make a fold's kernel singular at every
        # sigma; there is nothing to select, so CV raises instead of
        # returning the first grid point
        X = np.array([[0.0], [0.0], [1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 1.0, 0.5, 0.2, 0.1, 0.4])
        with pytest.raises(ValueError, match="every grid bandwidth.*lambda=0.0"):
            selector(Dataset(X, y), 0.0, folds=3, seed=1)


class TestCvLossesExact:
    """The CV engine on shared distances against the per-(sigma, fold)
    reference loop.

    Both see the same distances for p=1 (one product per entry), so the
    curves are bit-identical; for p=3 the full-data distance matrix rounds
    its dot products differently from per-fold ones, in the last bits.
    Each stack exponentiates the full n x n distances. With a budget of 2**14
    floats the 37-point grid splits into stacks of 10, 10, 10 and 7 sigmas at
    n=40, and n=200 takes one sigma per stack; the default budget takes the
    whole grid as one stack at n=40 and stacks of 6 at n=200.
    """

    @pytest.mark.parametrize("lam", [0.0, 1e-3, 1.0])
    @pytest.mark.parametrize("p", [1, 3])
    def test_matches_reference_loop(self, monkeypatch, p, lam):
        for budget, per_stack in ((2**14, [10, 0]), (_CV_STACK_FLOATS, [163, 6])):
            assert [budget // n**2 for n in (40, 200)] == per_stack
            monkeypatch.setattr(bandwidth, "_CV_STACK_FLOATS", budget)
            self._check_reference_loop(p, lam)

    def _check_reference_loop(self, p, lam):
        partial = 0
        for n, seed in ((12, 0), (25, 1), (40, 2), (200, 3)):
            rng = np.random.default_rng(seed)
            X = rng.uniform(-5.0, 5.0, (n, p))
            data = Dataset(X, np.sin(2 * np.pi * X[:, 0]) + rng.normal(0.0, 0.1, n))
            # up to 20 diameters, so lam=0 fails at the wide end of the grid
            grid = default_cv_grid(20 * max_pairwise_distance(X), 37)
            new = _cv_mean_losses(data, -pairwise_sq_dists(X, X), lam, 4, grid, seed)
            ref = reference_cv_losses(data, lam, 4, grid, seed)
            inf = np.isinf(ref)
            np.testing.assert_array_equal(np.isinf(new), inf)
            assert np.argmin(new) == np.argmin(ref)
            partial += 0 < inf.sum() < len(grid)
            if p == 1:
                np.testing.assert_array_equal(new, ref)
            elif n < 200 or lam > 0.0:
                np.testing.assert_allclose(new[~inf], ref[~inf], rtol=1e-6, atol=0)
            # else: at lam=0 the wide-sigma kernels of n=200 are singular to
            # working precision, so the last-bit distance change grows to
            # ~1e-3 relative there; the +inf set and the argmin still agree
        assert partial > 0 if lam == 0.0 else partial == 0

    @pytest.mark.parametrize("n, p, lam, seed", [(12, 1, 1e-3, 0), (20, 2, 1e-2, 1),
                                                 (30, 1, 0.1, 2), (40, 3, 1.0, 3)])
    def test_leave_one_out_matches_press(self, n, p, lam, seed):
        # at folds = n every fold holds out one row, so the CV loss is the
        # closed-form PRESS loss, computed without folds or a Cholesky
        rng = np.random.default_rng(seed)
        X = rng.uniform(-5.0, 5.0, (n, p))
        y = np.sin(2 * np.pi * X[:, 0]) + rng.normal(0.0, 0.1, n)
        grid = default_cv_grid(max_pairwise_distance(X), 20)
        new = _cv_mean_losses(Dataset(X, y), -pairwise_sq_dists(X, X), lam, n, grid, seed)
        press, cond = np.array([press_loo_loss(X, y, s, lam) for s in grid]).T
        sound = cond < 1e8
        assert sound.sum() >= 10
        np.testing.assert_allclose(new[sound], press[sound], rtol=2e-12, atol=0)
        assert np.argmin(new) == np.argmin(np.where(sound, press, np.inf))

    # rows 0 and 1 coincide in a kernel of sigma 0.2 or more, so at lam=0 a
    # fold that trains on both fails there; make_kfold(12, 3, seed=4) holds
    # out row 0 in fold 0 and trains on both in folds 1 and 2
    NEAR_PAIR = Dataset(np.r_[0.0, 1e-9, np.arange(1.0, 11.0)].reshape(-1, 1),
                        np.sin(np.arange(12.0)))
    NEAR_PAIR_GRID = np.array([0.01, 0.05, 0.2, 0.4, 0.8])

    def _exact(self, data, lam, folds, grid, seed):
        X = data.features
        new = _cv_mean_losses(data, -pairwise_sq_dists(X, X), lam, folds, grid, seed)
        np.testing.assert_array_equal(new, reference_cv_losses(data, lam, folds, grid, seed))
        return new

    def test_failed_slice_between_finite_ones(self):
        # an unsorted grid puts a sigma that fails at lam=0 (a kernel of
        # ones) between two that factor, all in one stack
        data = generate_synthetic(12, 0.1, seed=0)
        new = self._exact(data, 0.0, 3, np.array([0.3, 0.5, 1e4, 0.7, 0.9]), 0)
        assert np.isinf(new).tolist() == [False, False, True, False, False]

    def test_sigma_failing_in_a_later_fold(self):
        plans = make_kfold(12, 3, 4)
        assert [{0, 1} <= set(p.train_indices) for p in plans] == [False, True, True]
        new = self._exact(self.NEAR_PAIR, 0.0, 3, self.NEAR_PAIR_GRID, 4)
        assert np.isinf(new).tolist() == [False, False, True, True, True]

    def test_peak_memory_of_one_sigma_stacks(self):
        # n=400 takes one sigma per stack: its n x n kernel, plus one fold's
        # gathered block and its indices (2.65 n^2 floats when measured)
        import tracemalloc

        from gkrr.linalg import load_lapack

        n = 400
        data = generate_synthetic(n, 0.1, seed=0)
        neg_d2 = -pairwise_sq_dists(data.features, data.features)
        grid = default_cv_grid(max_pairwise_distance(data.features), 20)
        load_lapack()  # scipy's import is not the engine's memory
        tracemalloc.start()
        try:
            _cv_mean_losses(data, neg_d2, 1e-3, 10, grid, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * n * n * 8

    def test_one_factor_and_solve_per_live_slice(self, monkeypatch):
        # dpotrf decides every +inf: each (sigma, fold) not yet failed is
        # factored and solved by one dposv, whose info is 0 unless the factor fails
        import gkrr.linalg as la

        data, grid = self.NEAR_PAIR, self.NEAR_PAIR_GRID
        live = failed = 0  # per sigma, the folds up to and including its first failure
        for sigma in grid:
            for plan in make_kfold(12, 3, 4):
                live += 1
                try:
                    factor_spd(kernel_matrix(data.features[plan.train_indices], None, sigma))
                except FactorizationError:
                    failed += 1
                    break
        calls = []
        lapack = la.load_lapack()

        class CountingLapack:
            def dposv(self, *args, **kwargs):
                c, x, info = lapack.dposv(*args, **kwargs)
                calls.append(info)
                return c, x, info

            def __getattr__(self, name):
                raise AssertionError(f"CV called {name}, not dposv")

        monkeypatch.setattr(la, "load_lapack", CountingLapack)
        _cv_mean_losses(data, -pairwise_sq_dists(data.features, data.features), 0.0, 3, grid, 4)
        assert (live, failed) == (12, 3)  # sigmas 0.2-0.8 fail in fold 1 and skip fold 2
        assert len(calls) == live
        assert calls.count(0) == live - failed


class TestSelectSeededCv:
    def test_grid_containment(self):
        data = generate_synthetic(30, 0.1, seed=3)
        s0 = select_jacobian(data.features, 1e-3).sigma
        res = select_seeded_cv(data, 1e-3, seed=3)
        assert s0 / 5.0 - 1e-12 <= res.sigma <= 5.0 * s0 + 1e-12

    def test_degenerate_grid_is_sigma0(self):
        data = generate_synthetic(30, 0.1, seed=4)
        s0 = select_jacobian(data.features, 1e-3).sigma
        res = select_seeded_cv(data, 1e-3, grid_size=1, seed=4)
        assert res.sigma == s0

    def test_matches_exhaustive_oracle(self):
        data = generate_synthetic(40, 0.1, seed=11)
        s0 = select_jacobian(data.features, 1e-3).sigma
        grid = np.geomspace(s0 / 5, 5 * s0, 100)
        res = select_seeded_cv(data, 1e-3, seed=11)
        oracle = exhaustive_cv_oracle(data, 1e-3, 10, grid, 11)
        assert res.sigma == pytest.approx(oracle, rel=1e-15)

    def test_method_tag(self):
        data = generate_synthetic(25, 0.1, seed=6)
        assert select_seeded_cv(data, 1e-3, seed=6).method == "seeded-cv"


def test_only_default_cv_grid_calls_geomspace():
    # CV's and seeded CV's log grids are both default_cv_grid's
    where = []
    for path in sorted(Path(gkrr.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # ast.walk reaches outer functions first, so the innermost owner wins
        owner = {id(node): f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                 for node in ast.walk(f)}
        where += [(path.name, owner.get(id(node))) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "geomspace"
                  or isinstance(node, ast.alias) and node.name.endswith("geomspace")]
    assert where == [("bandwidth.py", "default_cv_grid")]


def test_only_lambertw_writes_exp_minus_one():
    # -1/e is lambertw.BRANCH_POINT; no other module writes it again
    where = [path.name for path in sorted(Path(gkrr.__file__).parent.glob("*.py"))
             if "exp(-1.0)" in path.read_text(encoding="utf-8")]
    assert where == ["lambertw.py"]


def test_only_bound_report_config_writes_claim_config():
    # the ``claim=...;key=value`` format is BoundReport.config's; cmd_verify's
    # summary line names the claim too, and no check builds a report by hand
    where = []
    for path in sorted(Path(gkrr.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {id(node): f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                 for node in ast.walk(f)}
        where += [(path.name, owner.get(id(node))) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and "claim=" in str(node.value)]
        if path.name == "verify.py":
            assert "_report" not in {f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)}
    assert sorted(set(where)) == [("cli.py", "cmd_verify"), ("verify.py", "config")]


class TestBandwidthResult:
    def test_clamped_not_settable(self):
        # derived from the regime, so it cannot contradict it
        with pytest.raises(TypeError):
            BandwidthResult(sigma=1.0, method="jacobian", regime=Regime.MONOTONE, clamped=False)

    def test_validation(self):
        with pytest.raises(ValueError):
            BandwidthResult(sigma=-1.0, method="jacobian")
        with pytest.raises(ValueError):
            BandwidthResult(sigma=1.0, method="bogus")

    def test_dispatch_unknown_method(self):
        data = generate_synthetic(10, 0.1, seed=0)
        with pytest.raises(ValueError, match="unknown method"):
            select_bandwidth("magic", data, 0.0)


class TestRowPermutation:
    """Reordering the rows changes neither the closed-form bandwidths nor the
    fit's predictions. CV is left out: its folds follow the row index."""

    @given(st.integers(1, 3), st.integers(3, 40), st.floats(-6.0, 0.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_selectors_and_fit_ignore_row_order(self, p, n, log_lam, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-5.0, 5.0, (n, p))
        data = Dataset(X, np.sin(X.sum(axis=1)) + rng.normal(0.0, 0.1, n))
        shuffled = data.subset(rng.permutation(n))
        lam = 10.0**log_lam
        for a, b in ((select_jacobian(X, lam), select_jacobian(shuffled.features, lam)),
                     (select_silverman(X), select_silverman(shuffled.features))):
            assert b.sigma == pytest.approx(a.sigma, rel=1e-14, abs=0)
        sigma = select_jacobian(X, lam).sigma
        Q = rng.uniform(-5.0, 5.0, (20, p))
        want = predict(fit(data, sigma, lam), Q)
        got = predict(fit(shuffled, sigma, lam), Q)
        assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))


def each_selector(X, folds=3, grid_size=5):
    """The four public selectors on ``X`` (responses 0..n-1, lambda 1e-3), by method name."""
    data = Dataset(X, np.arange(len(X), dtype=float))
    return {"jacobian": lambda: select_jacobian(X, 1e-3), "silverman": lambda: select_silverman(X),
            "cv": lambda: select_cv(data, 1e-3, folds, grid_size),
            "seeded-cv": lambda: select_seeded_cv(data, 1e-3, folds, grid_size)}


def raised(call) -> str:
    with pytest.raises(ValueError) as exc:
        call()
    return str(exc.value)


class TestDistinctRows:
    """Every selector refuses rows that are all identical, decided exactly at
    any offset, and rows too large to square, with one text each."""

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=4), st.integers(3, 40))
    @example([-4.83, 3.13, 4.13], 40)  # the expanded form gave this cloud a diameter of 1.19e-7
    @settings(max_examples=60, deadline=None)
    def test_repeated_row_refused_by_every_selector(self, row, n):
        X = np.tile(row, (n, 1))
        texts = {raised(call) for call in each_selector(X).values()}
        assert texts == {f"all rows identical: {n} copies of one row, no spread to select from"}

    @given(st.integers(1, 4), st.integers(3, 40), st.floats(-1e6, 1e6), st.floats(-3.0, 3.0),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_spread_cloud_selected_by_every_selector(self, p, n, offset, log_spread, seed):
        spread = max(10.0**log_spread, 1e-3 * abs(offset))
        X = offset + spread * np.random.default_rng(seed).uniform(-1.0, 1.0, (n, p))
        for call in each_selector(X, folds=min(n, 5)).values():
            assert call().sigma > 0.0

    def test_explicit_cv_grid_refused_on_identical_rows(self):
        # the grid_max the data cannot tell from any other bandwidth is not returned
        data = Dataset(np.ones((6, 2)), np.arange(6.0))
        with pytest.raises(ValueError, match="all rows identical"):
            select_cv(data, 1e-3, folds=2, grid_size=3, grid_max=1.0)

    def test_rows_one_ulp_apart_at_1e6(self):
        # distinct rows, so past the entry check; their expanded-form distances
        # round to 0, which centring (ROADMAP item 2) would mend
        X = np.array([[1e6], [np.nextafter(1e6, 2e6)], [1e6]])
        texts = {method: raised(call) for method, call in each_selector(X).items() if method != "silverman"}
        assert texts == {"jacobian": "l_max must be finite and > 0, got 0.0",
                         "cv": "pairwise distances all round to 0: cannot build the default CV grid",
                         "seeded-cv": "l_max must be finite and > 0, got 0.0"}
        assert 0.0 < select_silverman(X).sigma < 1e-10

    def test_features_too_large_to_square_refused(self):
        # 4 max_i |x_i|^2 overflows: the expanded form would read inf - inf = nan as a distance
        X = np.array([[1e154], [-1e154], [0.0]])
        texts = {raised(call) for call in each_selector(X).values()}
        assert texts == {"features too large to square: distances overflow once a row norm reaches 6.7e153"}
        below = each_selector(X * 1e-4)
        assert below["jacobian"]().sigma == pytest.approx(9.0e149, rel=1e-3)
        assert below["cv"]().cv_curve[-1][0] == pytest.approx(2e150, rel=1e-15)  # the diameter ends the grid

    @pytest.mark.filterwarnings("error")
    def test_distances_overflowing_the_kernel_scale_run_quietly(self):
        # d2 / (2 sigma^2) overflows to -inf at sigma = 0.01, and exp(-inf) = 0 is
        # the kernel's exact value there
        X = np.array([[1e153], [-1e153], [0.0], [5e152], [-5e152], [2e152]])
        data = Dataset(X, np.arange(6.0))
        assert select_cv(data, 1e-3, folds=3, grid_size=5).cv_curve[0][0] == 0.01
        model = fit(data, 0.01, 1e-3)
        np.testing.assert_allclose(predict(model, X), data.response / (1.0 + 1e-3), rtol=1e-15)

    def test_cv_grid_whose_kernel_scale_overflows_refused(self):
        # the default grid ends at the diameter 1.2e154, where 2 sigma^2 = inf
        # made every kernel entry 1; an explicit grid_max is refused alike
        X = np.array([[6e153], [-6e153], [0.0]] * 3 + [[1e153], [-1e153]])
        text = "CV grid bandwidth sigma={} is too large: 2*sigma^2 overflows to inf"
        assert raised(each_selector(X)["cv"]) == text.format(1.2e154)
        data = Dataset(X, np.arange(11.0))
        assert raised(lambda: select_cv(data, 1e-3, 3, 5, grid_max=9.5e153)) == text.format(9.5e153)
        assert select_cv(data, 1e-3, 3, 5, grid_max=9.4e153).cv_curve[-1][0] == 9.4e153

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_features_keep_their_errors(self, bad):
        for X in (np.array([[0.0], [bad], [1.0]]), np.full((3, 1), bad)):
            with pytest.raises(ValueError, match="non-finite values: the diameter is undefined"):
                select_jacobian(X, 1e-3)
            with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="got nan"):
                select_silverman(X)


def test_one_entry_check_for_every_selector():
    # the first statement after each public selector's docstring is the entry
    # check, and none calls check_selects itself
    tree = ast.parse(Path(bandwidth.__file__).read_text(encoding="utf-8"))
    defs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    for name in ("select_jacobian", "select_silverman", "select_cv", "select_seeded_cv"):
        first = defs[name].body[1 if ast.get_docstring(defs[name]) else 0]
        assert isinstance(first.value, ast.Call) and first.value.func.id == "_selectable", name
        assert "check_selects" not in {n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name)}, name


def test_only_the_entry_check_writes_all_rows_identical():
    where = [path.name for path in sorted(Path(gkrr.__file__).parent.glob("*.py"))
             for _ in range(path.read_text(encoding="utf-8").count("all rows identical"))]
    assert where == ["bandwidth.py"]
    assert "all rows identical" in inspect.getsource(bandwidth._selectable)
