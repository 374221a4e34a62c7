import math

import numpy as np
import pytest
from conftest import jacobi_eigenvalues

from gkrr.bandwidth import JacobianParams, jacobian_sigma, lambda_threshold
from gkrr.data import Dataset, generate_synthetic
from gkrr.kernel import kernel_matrix
from gkrr.verify import (
    _PROP2_REL_TOL,
    BoundReport,
    check_bermanis_count,
    check_prop1_regimes,
    check_prop2_chain,
    check_prop3_gradmax,
    check_prop4,
    reports_to_csv,
)


def uniform_grid(n):
    return np.linspace(0.0, 1.0, n).reshape(-1, 1)


class TestBoundReport:
    def test_counts_derived_from_margins(self):
        r = BoundReport("prop4-inverse-norm", [0.5, -1.0, 2.0, -0.25], 0, {})
        assert (r.trials, r.violations, r.worst_margin, r.passed) == (4, 2, -1.0, False)

    def test_empty_margins_rejected(self):
        with pytest.raises(ValueError, match="at least one margin"):
            BoundReport("prop4-inverse-norm", [], 0, {})

    def test_config_formats_settings_in_order(self):
        r = BoundReport("prop1-regimes", [1.0], 0, {"n": 3, "sigma": 0.1, "regime": "monotone"})
        assert r.config == "claim=prop1-regimes;n=3;sigma=0.10000000000000001;regime=monotone"

    def test_csv_shape(self):
        r = BoundReport("prop3-gradmax", [1.0, 0.25, 2.0], 7, {})
        text = reports_to_csv([r])
        lines = text.strip().split("\n")
        assert lines[0] == "claim,trials,violations,worst_margin,seed"
        assert lines[1] == "prop3-gradmax,3,0,0.25,7"


class TestProp1Regimes:
    @pytest.mark.parametrize("n", [3, 10, 100])
    @pytest.mark.parametrize("p", [1, 2, 5])
    @pytest.mark.parametrize("frac", [0.0, 0.5, 2.0])
    def test_all_regimes_pass(self, n, p, frac):
        params = JacobianParams(n=n, p=p, l_max=1.0, lam=frac * lambda_threshold(n))
        report = check_prop1_regimes(params)
        assert report.violations == 0, report.config

    def test_lam_zero_grid_minimum_near_sigma0(self):
        params = JacobianParams(n=10, p=1, l_max=1.0, lam=0.0)
        report = check_prop1_regimes(params)
        assert report.passed

    def test_config_reproducibility(self):
        params = JacobianParams(n=10, p=2, l_max=0.5, lam=1.0)
        a = check_prop1_regimes(params)
        b = check_prop1_regimes(params)
        assert a == b

    def test_scales_with_l_max(self):
        for l_max in (0.1, 1.0, 50.0):
            params = JacobianParams(n=20, p=1, l_max=l_max, lam=0.0)
            assert check_prop1_regimes(params).passed


class TestProp2Chain:
    def test_zero_violations_synthetic(self):
        data = generate_synthetic(10, 0.1, seed=1)
        sigma = jacobian_sigma(
            JacobianParams(n=10, p=1, l_max=float(np.ptp(data.features)), lam=1e-3)
        )
        report = check_prop2_chain(data, sigma, 1e-3, trials=100, seed=1)
        assert report.violations == 0
        assert report.worst_margin >= 0

    def test_single_training_point(self):
        data = Dataset(np.array([[0.5]]), np.array([2.0]))
        report = check_prop2_chain(data, 1.0, 0.0, trials=20, seed=2)
        assert report.violations == 0

    def test_adversarial_query_at_distance_sigma(self):
        # the kernel-gradient factor peaks at distance sigma; the chain
        # still dominates there
        from gkrr.kernel import gradient_one_norm_bound
        from gkrr.krr import fit, gradient

        data = generate_synthetic(10, 0.1, seed=3)
        sigma, lam = 0.8, 1e-3
        model = fit(data, sigma, lam)
        x_star = np.array([float(data.features[4, 0]) + sigma])
        g = np.linalg.norm(gradient(model, x_star))
        s_min = float(np.abs(jacobi_eigenvalues(kernel_matrix(data.features, None, sigma))).min())
        bound = (
            math.sqrt(10)
            * np.linalg.norm(data.response)
            / (s_min + lam)
            * gradient_one_norm_bound(data.features, x_star, sigma)
        )
        assert g <= bound * (1 + _PROP2_REL_TOL)

    def test_single_row_chain_holds_to_rounding(self):
        # one row at p = 1 makes the chain an equality at every query point;
        # without the slack about one query in ten falls below it by ~1 eps
        rng = np.random.default_rng(12)
        violations = trials = 0
        for _ in range(60):
            p = int(rng.integers(1, 4))
            lam = float(rng.choice([0.0, 1e-3, 1.0]))
            data = Dataset(rng.uniform(-1.0, 1.0, (1, p)), rng.normal(size=1))
            report = check_prop2_chain(data, float(rng.uniform(0.05, 3.0)), lam,
                                       trials=50, seed=int(rng.integers(2**31)))
            violations += report.violations
            trials += report.trials
        assert (violations, trials) == (0, 3000)

    def test_deterministic_per_seed(self):
        data = generate_synthetic(8, 0.1, seed=4)
        a = check_prop2_chain(data, 0.5, 1e-3, trials=10, seed=9)
        b = check_prop2_chain(data, 0.5, 1e-3, trials=10, seed=9)
        assert a == b

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="trials must be >= 1, got 0"):
            check_prop2_chain(generate_synthetic(8, 0.1, seed=4), 0.5, 1e-3, trials=0)


class TestProp3GradMax:
    @pytest.mark.parametrize("sigma", [0.1, 1.0, 10.0])
    def test_cap_attained_near_sigma(self, sigma):
        report = check_prop3_gradmax(sigma)
        assert report.violations == 0
        assert report.trials == 3


class TestProp4:
    def test_identity_limit(self):
        # sigma -> 0: K ~ I, the bound denominator ~ n dominates s_min ~ 1
        report = check_prop4(uniform_grid(10), 1e-6, 0.0)
        assert report.passed
        assert report.worst_margin == pytest.approx(9.0, abs=1e-6)

    def test_sigma0_margin_matches_eigensolve_oracle(self):
        X = uniform_grid(10)
        sigma0 = jacobian_sigma(JacobianParams(n=10, p=1, l_max=1.0, lam=0.0))
        report = check_prop4(X, sigma0, 0.0)
        s_min_oracle = jacobi_eigenvalues(kernel_matrix(X, None, sigma0))[0]
        expect = 10.0 * math.exp(-0.5) - s_min_oracle
        assert report.worst_margin == pytest.approx(expect, rel=1e-7)
        assert report.passed  # positive margin at sigma_0 on this grid

    def test_large_lambda_dominated(self):
        # lambda = 1e3 dwarfs both denominators; margin keeps its sign from
        # the spectral comparison and stays nonnegative here
        report = check_prop4(uniform_grid(10), 0.05, 1e3)
        assert report.passed

    def test_narrow_kernel_comfortable_margin(self):
        for n in (5, 10, 20):
            report = check_prop4(uniform_grid(n), 0.05, 1e-3)
            assert report.worst_margin > 0

    def test_wide_kernel_violates_on_small_grid(self):
        # genuine falsification: on the 5-point uniform grid at sigma ~ 2 the
        # smallest eigenvalue is resolvable (~1e-8) and sits far above the
        # claimed super-exponential bound, so the margin is negative
        report = check_prop4(uniform_grid(5), 2.0, 0.0)
        assert report.violations == 1
        assert report.worst_margin < -1e-9

    def test_irregular_cloud_reports_without_crashing(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 1, size=(15, 2))
        report = check_prop4(X, 0.3, 1e-3)
        assert report.trials == 1  # measured, not asserted

    def test_n_below_three_rejected(self):
        with pytest.raises(ValueError):
            check_prop4(uniform_grid(2), 0.1, 0.0)


class TestBermanisCount:
    def test_near_one_delta_wide_kernel(self):
        # delta -> 1 with sigma = 10 l_max: the spectrum collapses to one
        # dominant value, count = 1, bound slightly above 1
        report = check_bermanis_count(uniform_grid(10), 10.0, 0.9999)
        assert report.passed

    def test_mid_delta_count_vs_bound(self):
        X = uniform_grid(10)
        report = check_bermanis_count(X, 0.2, 0.5)
        eigs = jacobi_eigenvalues(kernel_matrix(X, None, 0.2))
        count = int(np.sum(np.abs(eigs) >= 0.5 * np.abs(eigs).max()))
        bound = (2 / math.pi) * (1.0 / 0.2) * math.sqrt(math.log(2.0)) + 1.0
        assert report.worst_margin == pytest.approx(bound - count, rel=1e-9)

    def test_single_point(self):
        report = check_bermanis_count(np.array([[0.3]]), 1.0, 0.5)
        assert report.passed
        assert report.worst_margin == pytest.approx(1.0 - 1.0, abs=1e-12)

    def test_delta_domain(self):
        with pytest.raises(ValueError):
            check_bermanis_count(uniform_grid(5), 1.0, 1.0)
        with pytest.raises(ValueError):
            check_bermanis_count(uniform_grid(5), 1.0, 0.0)
