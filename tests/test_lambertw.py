import math

import numpy as np
import pytest

from gkrr.lambertw import BRANCH_POINT, NEGATIVE, PRINCIPAL, lambert_w


def lambert_w_bisect(x, lo, hi, iters=200):
    """Bisection on w*exp(w) - x over [lo, hi]; independent of the Halley path."""
    f = lambda w: w * math.exp(w) - x
    flo = f(lo)
    assert flo * f(hi) <= 0, "root not bracketed"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


class TestBranchValues:
    def test_principal_at_zero(self):
        assert lambert_w(0.0, PRINCIPAL) == 0.0

    def test_branch_point_both_branches(self):
        assert lambert_w(BRANCH_POINT, PRINCIPAL) == -1.0
        assert lambert_w(BRANCH_POINT, NEGATIVE) == -1.0

    def test_negative_branch_against_bisection(self):
        w = lambert_w(-0.1, NEGATIVE)
        w_ref = lambert_w_bisect(-0.1, -20.0, -1.0)
        assert w < -1.0
        assert w == pytest.approx(w_ref, abs=1e-12)

    def test_principal_against_bisection(self):
        for x in (-0.35, -0.2, -0.05, -1e-4):
            w_ref = lambert_w_bisect(x, -1.0, 0.0)
            assert lambert_w(x, PRINCIPAL) == pytest.approx(w_ref, abs=1e-12)

    def test_negative_branch_far_tail(self):
        # x near 0- drives W_-1 to large negative values
        w = lambert_w(-1e-12, NEGATIVE)
        assert w < -25
        assert w * math.exp(w) == pytest.approx(-1e-12, rel=1e-10)

    def test_principal_at_negative_zero(self):
        assert math.copysign(1.0, lambert_w(-0.0, PRINCIPAL)) == 1.0

    @pytest.mark.parametrize("x", [-1e-300, -1e-305, -1e-310, -1e-315, -1e-320, -1e-323, -5e-324])
    def test_negative_branch_subnormal_tail(self, x):
        # exp(w) is subnormal at the root once x > -1e-305, so iterating on
        # w exp(w) - x itself loses digits there
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            ref = mpmath.lambertw(mpmath.mpf(x), -1).real
            assert abs((lambert_w(x, NEGATIVE) - ref) / ref) <= 4e-16

    def test_negative_branch_extreme_tail(self):
        w = lambert_w(-1e-300, NEGATIVE)
        assert w < -690
        assert abs(w * math.exp(w) - (-1e-300)) <= 1e-12 * 1e-300


class TestDomain:
    def test_positive_rejected(self):
        with pytest.raises(ValueError):
            lambert_w(0.1, PRINCIPAL)

    def test_below_branch_point_rejected(self):
        with pytest.raises(ValueError):
            lambert_w(BRANCH_POINT - 1e-9, PRINCIPAL)

    def test_spill_below_branch_point_rejected(self):
        # no caller rounds below -1/e, so there is no clamp for spill
        for branch in (PRINCIPAL, NEGATIVE):
            with pytest.raises(ValueError, match="below -1/e"):
                lambert_w(BRANCH_POINT - 1e-16, branch)

    def test_negative_branch_at_zero_rejected(self):
        with pytest.raises(ValueError):
            lambert_w(0.0, NEGATIVE)

    def test_bad_branch(self):
        with pytest.raises(ValueError):
            lambert_w(-0.1, 2)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            lambert_w(float("nan"), PRINCIPAL)


class TestRoundTrip:
    def test_principal_10k_points(self):
        xs = np.linspace(BRANCH_POINT, 0.0, 10_002)[1:-1]
        worst = 0.0
        for x in xs:
            w = lambert_w(float(x), PRINCIPAL)
            assert -1.0 <= w <= 0.0
            worst = max(worst, abs(w * math.exp(w) - x))
        assert worst <= 1e-12

    def test_negative_10k_points(self):
        xs = np.linspace(BRANCH_POINT, 0.0, 10_002)[1:-1]
        worst = 0.0
        for x in xs:
            w = lambert_w(float(x), NEGATIVE)
            assert w <= -1.0
            worst = max(worst, abs(w * math.exp(w) - x))
        assert worst <= 1e-12

    def test_branch_ordering(self):
        for x in np.linspace(BRANCH_POINT * 0.999, -1e-6, 500):
            assert lambert_w(float(x), NEGATIVE) < lambert_w(float(x), PRINCIPAL)

    def test_monotonicity(self):
        xs = np.linspace(BRANCH_POINT, 0.0, 2000)[1:-1]
        w0 = [lambert_w(float(x), PRINCIPAL) for x in xs]
        wm = [lambert_w(float(x), NEGATIVE) for x in xs]
        assert np.all(np.diff(w0) > 0)  # W_0 increasing
        assert np.all(np.diff(wm) < 0)  # W_-1 decreasing
