"""Real Lambert W on [-1/e, 0]: the two branches the bandwidth formula needs.

W(x) solves w * exp(w) = x. On the interval [-1/e, 0] there are two real
branches: the principal branch W_0 (values in [-1, 0]) and the lower branch
W_-1 (values in (-inf, -1]). Both meet at the branch point x = -1/e where
W = -1. This module alone writes -1/e and decides the domain.

Algorithm: Halley iteration seeded with branch-specific starting points.
Near the branch point both branches use the square-root expansion in
p = sqrt(2 (1 + e x)), with sign s = 1 on W_0 and -1 on W_-1; away from it
the principal branch starts from the series around 0 and the lower branch
from the asymptotic log(-x) - log(-log(-x)). Step tolerance 1e-13,
iteration cap 50; Halley is cubically convergent so a handful of steps suffice.
"""

from __future__ import annotations

import math

PRINCIPAL = 0
NEGATIVE = -1

BRANCH_POINT = -math.exp(-1.0)  # -1/e, the left edge of the real domain

_STEP_TOL = 1e-13
_MAX_ITER = 50


def _halley(w: float, x: float) -> float:
    # W_-1's exp(w) turns subnormal near x = -1e-305: there solve w exp(w + c) = -1
    c, x = (-math.log(-x), -1.0) if -1e-300 < x < 0.0 and w < -1.0 else (0.0, x)
    for _ in range(_MAX_ITER):
        ew = math.exp(w + c)
        f = w * ew - x
        if f == 0.0:
            break
        wp1 = w + 1.0
        if wp1 == 0.0:
            break
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        step = f / denom
        w -= step
        if abs(step) <= _STEP_TOL * (1.0 + abs(w)):
            break
    return w


def lambert_w(x: float, branch: int = PRINCIPAL) -> float:
    """W_k(x) for k in {0, -1} on the real interval [-1/e, 0].

    Any x below -1/e or above 0, NaN, and x = 0 on the lower branch raise
    ValueError.
    """
    if branch not in (PRINCIPAL, NEGATIVE):
        raise ValueError(f"branch must be 0 or -1, got {branch}")
    x = float(x)
    if math.isnan(x):
        raise ValueError("lambert_w argument is NaN")
    if x < BRANCH_POINT:
        raise ValueError(f"lambert_w argument {x} below -1/e ({BRANCH_POINT})")
    if x > 0.0:
        raise ValueError(f"lambert_w argument {x} above 0; only [-1/e, 0] is supported")
    if x == BRANCH_POINT:
        return -1.0
    if branch == NEGATIVE and x == 0.0:
        raise ValueError("W_-1 is unbounded as x -> 0-; x = 0 is outside its domain")

    s = 1.0 if branch == PRINCIPAL else -1.0
    p = math.sqrt(2.0 * (1.0 + math.e * x))
    if p < 0.5:
        w0 = -1.0 + s * p - p * p / 3.0 + s * (11.0 / 72.0 * p**3)
    elif branch == PRINCIPAL:
        w0 = x * (1.0 - x * (1.0 - 1.5 * x))  # series around 0, adequate for |x| < 1/e
    else:
        l1 = math.log(-x)
        l2 = math.log(-l1)
        w0 = l1 - l2 + l2 / l1
    w = _halley(w0, x)
    return min(0.0, max(-1.0, w)) if branch == PRINCIPAL else min(-1.0, w)
