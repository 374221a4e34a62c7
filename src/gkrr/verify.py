"""Numerical verification of the toolkit's bound claims on concrete instances.

Each check evaluates one claimed inequality (or family of shape conditions)
and aggregates the outcome into a BoundReport: one signed margin per trial
(negative iff something was violated), from which the trial count, the
violation count and the worst margin are derived. Reports are reproducible
bit-for-bit from their config string and seed.

The inverse-kernel-norm check compares on the spectral scale,

    margin = n * exp(-t^2) - s_min(K),

rather than on the inverse scale 1/(s_min + lambda) - j_b. The two agree in
sign (they certify the same inequality), but near-singular kernel matrices
push the inverse scale far beyond what double precision can certify, while
the spectral scale degrades gracefully to eigensolver noise (~1e-13).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bandwidth import JacobianParams, Regime, approx_jacobian_norm, classify_regime
from .bandwidth import default_cv_grid, jacobian_sigma
from .data import Dataset, _field, _fmt, as_features, format_table
from .kernel import gradient_one_norm_bound, kernel_gradient_norm, kernel_matrix, max_pairwise_distance
from .krr import fit, gradient
from .lambertw import NEGATIVE

CLAIM_PROP1 = "prop1-regimes"
CLAIM_PROP2 = "prop2-chain"
CLAIM_PROP3 = "prop3-gradmax"
CLAIM_PROP4 = "prop4-inverse-norm"
CLAIM_BERMANIS = "bermanis-count"

_PROP1_GRID_POINTS = 1000
_PROP1_SPAN = (1e-3, 1e3)  # times l_max
_PROP2_REL_TOL = 16 * np.finfo(float).eps  # rounding only: see check_prop2_chain
_PROP3_GRID_POINTS = 10_000


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one verification run: a signed margin per trial (negative iff
    violated) and the settings after ``claim`` in the config string."""

    claim: str
    margins: list[float]
    seed: int
    settings: dict

    def __post_init__(self):
        if len(self.margins) == 0:
            raise ValueError("a report needs at least one margin")

    @property
    def trials(self) -> int:
        return len(self.margins)

    @property
    def violations(self) -> int:
        return sum(1 for m in self.margins if m < 0)

    @property
    def worst_margin(self) -> float:
        return float(min(self.margins))

    @property
    def passed(self) -> bool:
        return self.violations == 0

    @property
    def config(self) -> str:
        """``claim=<claim>;key=value;...``, floats at 17 significant digits."""
        return ";".join([f"claim={self.claim}",
                         *(f"{k}={_field(v)}" for k, v in self.settings.items())])


def _kernel_svals(X: np.ndarray, sigma: float) -> np.ndarray:
    """Singular values of K = kernel_matrix(X, None, sigma) as |eigenvalues|: K is
    symmetric, and its rounding negatives (~n eps s_max) fold in by absolute value."""
    return np.abs(np.linalg.eigvalsh(kernel_matrix(X, None, sigma)))


def reports_to_csv(reports) -> str:
    """One line per claim: claim, trials, violations, worst_margin, seed."""
    rows = [[r.claim, r.trials, r.violations, r.worst_margin, r.seed] for r in reports]
    return format_table(rows, ["claim", "trials", "violations", "worst_margin", "seed"])


def check_prop1_regimes(params: JacobianParams) -> BoundReport:
    """Verify the proxy's shape for the regime selected by lambda.

    Scans a log grid of 1000 bandwidths over [1e-3, 1e3] * l_max and checks
    the regime-appropriate conditions: divergence at 0, the limit at infinity,
    a (local) minimum at sigma_0 and maximum at sigma_-1, or monotone
    descent. Margins are heterogeneous (grid cells for locations, proxy
    differences for orderings); negative means violated.
    """
    lo, hi = _PROP1_SPAN
    grid = default_cv_grid(hi * params.l_max, _PROP1_GRID_POINTS, lo * params.l_max)
    J = np.array([approx_jacobian_norm(s, params) for s in grid])
    regime = classify_regime(params.n, params.lam)
    margins: list[float] = []

    if regime is Regime.NO_REGULARIZATION:
        sigma0 = jacobian_sigma(params)
        i_star = int(np.argmin(np.abs(np.log(grid) - math.log(sigma0))))
        i_min = int(np.argmin(J))
        margins.append(1.5 - abs(i_min - i_star))  # argmin within one grid cell
        left = J[: i_min + 1]
        if len(left) > 1:
            margins.append(float(np.min(left[:-1] - left[1:])))  # strict descent
        right = J[i_min:]
        if len(right) > 1:
            with np.errstate(invalid="ignore"):  # inf - inf on the overflow plateau
                diffs = right[1:] - right[:-1]
            finite = np.isfinite(diffs)
            if np.any(finite):
                margins.append(float(np.min(diffs[finite])))  # strict ascent while finite
            # an inf plateau at the far end is overflow saturation, not a
            # violation, but falling back from inf to finite would be one
            if np.any(np.isneginf(diffs)):
                margins.append(-math.inf)
        margins.append(float(J[0] - J[i_min]))  # diverges toward sigma -> 0
        margins.append(float(J[-1] - J[i_min]))  # diverges toward sigma -> inf
    elif regime is Regime.LOCAL_MINIMUM:
        sigma0 = jacobian_sigma(params)
        sigma1 = jacobian_sigma(params, NEGATIVE)
        j0 = approx_jacobian_norm(sigma0, params)
        j1 = approx_jacobian_norm(sigma1, params)
        margins.append(approx_jacobian_norm(0.95 * sigma0, params) - j0)
        margins.append(approx_jacobian_norm(1.05 * sigma0, params) - j0)
        margins.append(j1 - approx_jacobian_norm(0.95 * sigma1, params))
        margins.append(j1 - approx_jacobian_norm(1.05 * sigma1, params))
        margins.append(float(J[0]) - j0)  # diverges at 0
        margins.append(j1 - float(J[-1]))  # decays toward 0 at infinity
    else:
        margins.append(float(np.min(J[:-1] - J[1:])))  # strictly decreasing throughout

    return BoundReport(CLAIM_PROP1, margins, 0, {
        "n": params.n, "p": params.p, "l_max": float(params.l_max), "lambda": float(params.lam),
        "regime": regime.value, "grid_points": _PROP1_GRID_POINTS, "span": f"{_fmt(lo)}:{_fmt(hi)}"})


def check_prop2_chain(
    data: Dataset,
    sigma: float,
    lam: float,
    trials: int = 100,
    seed: int = 0,
) -> BoundReport:
    """Check the three-factor gradient bound at random query points.

    For each x* drawn uniformly from the data bounding box inflated by 20%
    (probing the extrapolation region where derivatives peak; a side of zero
    width spans +-sigma instead):

        ||grad f(x*)||_2 <= sqrt(n) * ||y||_2 * max_i ||grad k_i(x*)||_1
                            * 1/(s_min(K) + lambda)

    with the exact gradient (``krr.gradient``). Margins carry a relative
    slack of 16 eps for rounding, so a violation is exactly a negative
    margin: at n = 1, p = 1 the chain is an equality at every x*, and alpha,
    ||y|| and s_min(K) each round on their own (up to 1.9 eps below it with
    no slack). At n >= 2 it is tight only on a measure-zero set, such as the
    midpoint of a symmetric pair with y = (c, -c), where the fit's rounding
    grows with cond(K).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    model = fit(data, sigma, lam)
    X, y = data.features, data.response
    n = data.n
    s_min = float(_kernel_svals(X, sigma).min())
    inv_norm = 1.0 / (s_min + lam)
    outer = math.sqrt(n) * float(np.linalg.norm(y)) * inv_norm

    lo = X.min(axis=0)
    hi = X.max(axis=0)
    mid = 0.5 * (lo + hi)
    half = 0.6 * (hi - lo)  # 1.2x the half-range
    half[half == 0.0] = sigma  # a flat side, as with one row, spans +-sigma
    rng = np.random.default_rng(seed)
    margins = []
    for _ in range(trials):
        x_star = rng.uniform(mid - half, mid + half)
        grad = gradient(model, x_star)
        bound = outer * gradient_one_norm_bound(X, x_star, sigma)
        margins.append(bound * (1.0 + _PROP2_REL_TOL) - float(np.linalg.norm(grad)))
    return BoundReport(CLAIM_PROP2, margins, seed, {
        "seed": seed, "n": n, "p": data.p, "sigma": float(sigma), "lambda": float(lam),
        "trials": trials, "rel_tol": float(_PROP2_REL_TOL)})


def check_prop3_gradmax(sigma: float) -> BoundReport:
    """Check the kernel-gradient cap 1/(sigma sqrt(e)) on a distance grid.

    Conditions over d in [0, 10 sigma]: no grid value exceeds the cap (to
    1e-12 relative), the grid maximum comes within 1e-6 relative of the cap,
    and the argmax lands within one grid cell of d = sigma.
    """
    d = np.linspace(0.0, 10.0 * sigma, _PROP3_GRID_POINTS)
    g = kernel_gradient_norm(d, sigma)
    cap = 1.0 / (sigma * math.sqrt(math.e))
    gmax = float(np.max(g))
    i_max = int(np.argmax(g))
    cell = 10.0 * sigma / (_PROP3_GRID_POINTS - 1)
    margins = [
        cap * (1.0 + 1e-12) - gmax,  # the cap really is an upper bound
        1e-6 * cap - (cap - gmax),  # and the grid max comes within 1e-6 of it
        cell - abs(float(d[i_max]) - sigma),  # attained next to d = sigma
    ]
    return BoundReport(CLAIM_PROP3, margins, 0, {"sigma": float(sigma), "grid_points": _PROP3_GRID_POINTS})


def check_prop4(X: np.ndarray, sigma: float, lam: float = 0.0) -> BoundReport:
    """Compare s_min(K) against the conditioning factor's denominator.

    The claim 1/(s_min + lambda) >= j_b(sigma) is equivalent to
    s_min <= n * exp(-t^2); the margin is that difference (lambda-independent,
    certifiable to eigensolver accuracy even when both sides underflow the
    inverse scale).
    """
    X = as_features(X)
    n, p = X.shape
    l_max = max_pairwise_distance(X)
    params = JacobianParams(n=n, p=p, l_max=l_max, lam=lam)
    s_min = float(_kernel_svals(X, sigma).min())
    margin = params.bermanis_estimate(sigma) - s_min
    return BoundReport(CLAIM_PROP4, [margin], 0, {
        "n": n, "p": p, "sigma": float(sigma), "lambda": float(lam), "l_max": l_max, "s_min": s_min})


def check_bermanis_count(X: np.ndarray, sigma: float, delta: float) -> BoundReport:
    """Count singular values >= delta * s_1 against the product bound.

        #{j : s_j / s_1 >= delta} <= ((2/pi) (l_max/sigma) sqrt(log(1/delta)) + 1)^p
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    X = as_features(X)
    n, p = X.shape
    svals = _kernel_svals(X, sigma)
    s1 = float(svals.max())
    count = int(np.sum(svals >= delta * s1))
    l_max = max_pairwise_distance(X)
    bound = ((2.0 / math.pi) * (l_max / sigma) * math.sqrt(math.log(1.0 / delta)) + 1.0) ** p
    return BoundReport(CLAIM_BERMANIS, [bound - count], 0, {
        "n": n, "p": p, "sigma": float(sigma), "delta": float(delta), "l_max": l_max,
        "count": count, "bound": bound})
