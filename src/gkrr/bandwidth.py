"""Bandwidth selectors: Jacobian control, Silverman, CV, and seeded CV.

The Jacobian selector controls a closed-form proxy for the norm of the
derivative of the fitted function. The proxy factors as

    j_a(sigma) = 1 / sigma
    j_b(sigma) = 1 / (n * exp(-(((n-1)^(1/p) - 1) * pi * sigma / (2 l_max))^2) + lambda)

j_a tracks how fast the kernel decays away from the data, and j_b estimates
the spectral norm of the inverse regularized kernel matrix from the Bermanis
count of Gaussian-kernel eigenvalues. j_b is an estimate, not a bound: on
uniform grids it exceeds 1/(s_min(K) + lambda) once sigma passes about
6-11 sigma_0 (acceptance criterion C07 maps where). Their product is the
proxy being minimized. Its stationary points have the closed form

    sigma_k = (sqrt(2)/pi) * l_max / ((n-1)^(1/p) - 1)
              * sqrt(1 - 2 W_k(-lambda sqrt(e) / (2n)))

on the two real Lambert W branches: k = 0 gives the local minimum that the
selector returns, k = -1 the local maximum. Real solutions exist only for
lambda <= 2 n e^(-3/2); above that threshold the proxy is monotone decreasing
and the selector clamps lambda to the threshold.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, as_features, make_kfold
from .kernel import check_sigma, max_pairwise_distance, pairwise_sq_dists
from .lambertw import NEGATIVE, PRINCIPAL, lambert_w
from .linalg import FactorizationError, _factor, check_lambda, solve

METHOD_JACOBIAN = "jacobian"
METHOD_SILVERMAN = "silverman"
METHOD_CV = "cv"
METHOD_SEEDED_CV = "seeded-cv"
METHODS = (METHOD_JACOBIAN, METHOD_SILVERMAN, METHOD_CV, METHOD_SEEDED_CV)

DEFAULT_GRID_MIN = 0.01
DEFAULT_GRID_SIZE = 100
DEFAULT_FOLDS = 10
# per CV kernel stack (128 KB), factored slice by slice and scored as one:
# one sigma per stack once m > 128
_CV_STACK_FLOATS = 2**14


class Regime(enum.Enum):
    """Shape of the Jacobian proxy as a function of sigma, fixed by lambda."""

    NO_REGULARIZATION = "no-regularization"  # lambda = 0: global minimum
    LOCAL_MINIMUM = "local-minimum"  # 0 < lambda <= threshold: local min + max
    MONOTONE = "monotone"  # lambda > threshold: strictly decreasing


def lambda_threshold(n: int) -> float:
    """Largest lambda for which the stationary bandwidths exist: 2 n e^(-3/2)."""
    return 2.0 * n * math.exp(-1.5)


def classify_regime(n: int, lam: float) -> Regime:
    lam = check_lambda(lam)
    if lam == 0.0:
        return Regime.NO_REGULARIZATION
    if lam <= lambda_threshold(n):
        return Regime.LOCAL_MINIMUM
    return Regime.MONOTONE


@dataclass(frozen=True)
class JacobianParams:
    """(n, p, l_max, lambda): everything the Jacobian proxy depends on."""

    n: int
    p: int
    l_max: float
    lam: float

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"need n >= 3 (the proxy denominator vanishes at n = 2), got {self.n}")
        if self.p < 1:
            raise ValueError(f"need p >= 1, got {self.p}")
        if not (np.isfinite(self.l_max) and self.l_max > 0):
            raise ValueError(f"l_max must be finite and > 0, got {self.l_max}")
        check_lambda(self.lam)

    @property
    def spread(self) -> float:
        """(n-1)^(1/p) - 1, the per-dimension point-count factor."""
        return math.pow(self.n - 1, 1.0 / self.p) - 1.0

    def bermanis_exponent(self, sigma: float) -> float:
        """t = spread * pi * sigma / (2 l_max), so that j_b = 1 / (n exp(-t^2) + lambda)."""
        return self.spread * math.pi * sigma / (2.0 * self.l_max)


@dataclass(frozen=True)
class BandwidthResult:
    """A selected bandwidth plus method-specific diagnostics.

    ``regime``, ``clamped`` and ``j2a_at_sigma`` are populated by the Jacobian
    selector only; ``cv_curve`` (tuples of (sigma, mean validation MSE)) by
    the CV variants only.
    """

    sigma: float
    method: str
    regime: Regime | None = None
    clamped: bool = False
    j2a_at_sigma: float | None = None
    cv_curve: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        check_sigma(self.sigma)
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")


def jacobian_factors(sigma: float, params: JacobianParams) -> tuple[float, float]:
    """(j_a, j_b) at ``sigma``: kernel-decay and conditioning factors."""
    sigma = check_sigma(sigma)
    j_a = 1.0 / sigma
    t = params.bermanis_exponent(sigma)
    denom = params.n * math.exp(-t * t) + params.lam
    with np.errstate(divide="ignore"):
        j_b = float(np.divide(1.0, denom))
    return j_a, j_b


def approx_jacobian_norm(sigma: float, params: JacobianParams) -> float:
    """The Jacobian proxy j_a(sigma) * j_b(sigma) (constant factor omitted)."""
    j_a, j_b = jacobian_factors(sigma, params)
    return j_a * j_b


def jacobian_sigma(params: JacobianParams, branch: int = PRINCIPAL) -> float:
    """Closed-form stationary bandwidth sigma_0 (branch 0) or sigma_-1 (branch -1).

    The Lambert W argument is computed as -(1/e) * (lambda / threshold) so
    that lambda equal to the threshold lands exactly on the branch point and
    the sqrt(3) clamping ratio is exact in floating point.
    """
    thr = lambda_threshold(params.n)
    if params.lam > thr:
        raise ValueError(
            f"lambda={params.lam} exceeds the threshold 2*n*e^(-3/2)={thr}; "
            "no stationary bandwidth exists"
        )
    arg = -math.exp(-1.0) * (params.lam / thr)
    if branch == NEGATIVE and arg == 0.0:
        raise ValueError("sigma_-1 is unbounded at lambda = 0")
    w = lambert_w(arg, branch)
    base = (math.sqrt(2.0) / math.pi) * params.l_max / params.spread
    return base * math.sqrt(1.0 - 2.0 * w)


def check_selects(methods, n: int, folds: int = DEFAULT_FOLDS, grid_size: int = DEFAULT_GRID_SIZE,
                  grid_min: float | None = None) -> None:
    """ValueError, with the selectors' text, unless ``methods`` names one or more
    of METHODS, each running on ``n`` rows or more with these CV settings, ``grid_min``
    (unless None) starting cv's grid; names first, CV settings, then each least n."""
    if not methods:
        raise ValueError("methods is empty")
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; expected one of {METHODS}")
    if METHOD_CV in methods or METHOD_SEEDED_CV in methods:
        if grid_size < 1:
            raise ValueError(f"grid size must be >= 1, got {grid_size}")
        if grid_min is not None and METHOD_CV in methods:
            if not grid_min > 0:
                raise ValueError("grid bounds must be positive")
            check_sigma(grid_min)  # not finite, or 2 grid_min^2 underflows
        if folds < 2:
            raise ValueError(f"need at least 2 folds, got {folds}")
        if n < folds:
            raise ValueError(f"n={n} smaller than fold count {folds}")
    for m in methods:
        if m == METHOD_SILVERMAN and n < 2:
            raise ValueError(f"Silverman's rule needs n >= 2, got {n}")
        if m in (METHOD_JACOBIAN, METHOD_SEEDED_CV) and n < 3:
            raise ValueError(f"Jacobian selection needs n >= 3, got {n}")


def select_jacobian(X: np.ndarray, lam: float) -> BandwidthResult:
    """Jacobian-control selection on a feature matrix.

    Returns sigma_0(lambda); above the threshold 2 n e^(-3/2) it returns
    sigma_0 evaluated at the threshold with ``clamped`` set.
    """
    X = as_features(X)
    check_selects((METHOD_JACOBIAN,), len(X))
    return _jacobian_closed_form(*X.shape, max_pairwise_distance(X), lam)


def _jacobian_closed_form(n: int, p: int, l_max: float, lam: float) -> BandwidthResult:
    """select_jacobian's result for ``n`` rows in ``p`` dimensions of diameter ``l_max``."""
    if l_max <= 0.0:
        raise ValueError("all rows identical: l_max = 0")
    thr = lambda_threshold(n)
    clamped = lam > thr
    lam_eff = thr if clamped else lam
    sigma = jacobian_sigma(JacobianParams(n=n, p=p, l_max=l_max, lam=lam_eff))
    j2a = approx_jacobian_norm(sigma, JacobianParams(n=n, p=p, l_max=l_max, lam=lam))
    return BandwidthResult(
        sigma=sigma,
        method=METHOD_JACOBIAN,
        regime=classify_regime(n, lam),
        clamped=clamped,
        j2a_at_sigma=j2a,
    )


def select_silverman(X: np.ndarray) -> BandwidthResult:
    """Silverman's rule: (4 / (n (p+2)))^(1/(p+4)) * sigma_hat.

    sigma_hat is the square root of the mean per-coordinate sample variance
    (n-1 denominator), one scalar regardless of p. Blind to lambda and y.
    """
    X = as_features(X)
    n, p = X.shape
    check_selects((METHOD_SILVERMAN,), n)
    sigma_hat = math.sqrt(float(np.mean(np.var(X, axis=0, ddof=1))))
    if sigma_hat <= 0.0:
        raise ValueError("zero-variance features: Silverman's rule is undefined")
    factor = (4.0 / (n * (p + 2))) ** (1.0 / (p + 4))
    return BandwidthResult(sigma=factor * sigma_hat, method=METHOD_SILVERMAN)


def default_cv_grid(l_max: float, size: int = DEFAULT_GRID_SIZE, lo: float = DEFAULT_GRID_MIN) -> np.ndarray:
    """``size`` log-spaced bandwidths between ``lo`` and l_max (sorted)."""
    if size < 1:
        raise ValueError(f"grid size must be >= 1, got {size}")
    if lo <= 0 or l_max <= 0:
        raise ValueError("grid bounds must be positive")
    if size == 1:
        return np.array([math.sqrt(lo * l_max)])
    return np.sort(np.geomspace(lo, l_max, size))


def _cv_mean_losses(data: Dataset, neg_d2: np.ndarray, lam: float, folds: int,
                    grid: np.ndarray, seed: int) -> np.ndarray:
    """Mean validation MSE per grid sigma over a fixed fold partition.

    Folds are built once and reused for every sigma, so the grid comparison
    is paired. ``neg_d2`` is the caller's -pairwise_sq_dists(X, X); each fold
    stacks the kernels of ``_CV_STACK_FLOATS // m^2`` sigmas (at least one).
    LAPACK factors and solves each slice not yet at +inf, unchecked:
    symmetric by construction; a failed factor makes +inf. The validation
    residuals and losses of a stack then take one stacked product and one
    row-wise mean.
    """
    y = data.response
    totals = np.zeros(len(grid))
    for plan in make_kfold(data.n, folds, seed):
        tr, te = plan.train_indices, plan.test_indices
        d_tr, d_te, y_tr, y_te = neg_d2[np.ix_(tr, tr)], neg_d2[np.ix_(te, tr)], y[tr], y[te]
        diag, block = np.arange(len(tr)), max(1, _CV_STACK_FLOATS // d_tr.size)
        for start in range(0, len(grid), block):
            scale = 2.0 * grid[start : start + block, None, None] ** 2
            K = d_tr / scale
            np.exp(K, out=K)
            K[:, diag, diag] = 1.0 + lam
            stack = slice(start, start + len(K))
            ok = totals[stack] != math.inf
            alphas = np.zeros((len(K), len(tr), 1))
            for i in np.flatnonzero(ok):
                try:  # K[i].T is F-ordered, so LAPACK factors it in place
                    alphas[i, :, 0] = solve(_factor(K[i].T, lam), y_tr)
                except FactorizationError:
                    ok[i] = False
            r = np.exp(d_te / scale) @ alphas
            np.subtract(y_te[:, None], r, out=r)
            r *= r
            totals[stack] = np.where(ok, totals[stack] + np.mean(r, axis=1)[:, 0], math.inf)
    return totals / folds


def _run_cv(data: Dataset, d2: np.ndarray, lam: float, folds: int, grid: np.ndarray,
            seed: int, method: str) -> BandwidthResult:
    """CV over ``grid``; ``d2`` is pairwise_sq_dists(X, X), negated in place.
    The callers check ``folds`` and ``data.n`` with check_selects."""
    grid = np.sort(np.asarray(grid, dtype=float).reshape(-1))
    if grid.size == 0:
        raise ValueError("empty bandwidth grid")
    if np.any(grid <= 0) or not np.all(np.isfinite(grid)):
        raise ValueError("grid bandwidths must be finite and positive")
    check_sigma(grid[0])  # an underflowing 2 sigma^2 makes a nan loss, which argmin picks
    lam = check_lambda(lam)
    losses = _cv_mean_losses(data, np.negative(d2, out=d2), lam, folds, grid, seed)
    if np.all(np.isinf(losses)):
        raise ValueError(f"CV failed at every grid bandwidth: lambda={lam} leaves a "
                         "training fold's kernel matrix not positive definite")
    # ties broken toward the smallest sigma: argmin takes the first minimum
    # of the ascending grid
    best = int(np.argmin(losses))
    curve = tuple((float(s), float(l)) for s, l in zip(grid, losses))
    return BandwidthResult(sigma=float(grid[best]), method=method, cv_curve=curve)


def select_cv(
    data: Dataset,
    lam: float,
    folds: int = DEFAULT_FOLDS,
    grid: np.ndarray | None = None,
    grid_size: int = DEFAULT_GRID_SIZE,
    grid_min: float = DEFAULT_GRID_MIN,
    seed: int = 0,
) -> BandwidthResult:
    """Grid cross-validation: minimize mean validation MSE over k folds.

    Default grid: ``grid_size`` log-spaced bandwidths between ``grid_min``
    and the data diameter. Deterministic given (data, seed). The distances
    are computed once, for both the diameter and the CV kernels.
    """
    check_selects((METHOD_CV,), data.n, folds, grid_size)
    d2 = pairwise_sq_dists(data.features, data.features)
    if grid is None:
        l_max = math.sqrt(float(d2.max()))
        if l_max <= 0.0:
            raise ValueError("all rows identical: cannot build the default CV grid")
        lo, hi = min(grid_min, l_max), max(grid_min, l_max)
        grid = default_cv_grid(hi, grid_size, lo)
    return _run_cv(data, d2, lam, folds, np.asarray(grid), seed, METHOD_CV)


def select_seeded_cv(
    data: Dataset,
    lam: float,
    folds: int = DEFAULT_FOLDS,
    grid_size: int = DEFAULT_GRID_SIZE,
    seed: int = 0,
) -> BandwidthResult:
    """Cross-validation on a log grid spanning [sigma_0/5, 5*sigma_0].

    sigma_0 comes from Jacobian selection on the full training matrix, its
    diameter from the distances CV uses. The degenerate grid_size=1 uses
    {sigma_0}, the geometric midpoint.
    """
    check_selects((METHOD_SEEDED_CV,), data.n, folds, grid_size)
    d2 = pairwise_sq_dists(data.features, data.features)
    sigma0 = _jacobian_closed_form(data.n, data.p, math.sqrt(float(d2.max())), lam).sigma
    if grid_size == 1:
        grid = np.array([sigma0])
    else:
        grid = np.geomspace(sigma0 / 5.0, 5.0 * sigma0, grid_size)
    return _run_cv(data, d2, lam, folds, grid, seed, METHOD_SEEDED_CV)


def select_bandwidth(
    method: str,
    data: Dataset,
    lam: float,
    folds: int = DEFAULT_FOLDS,
    grid: np.ndarray | None = None,
    grid_size: int = DEFAULT_GRID_SIZE,
    grid_min: float = DEFAULT_GRID_MIN,
    seed: int = 0,
) -> BandwidthResult:
    """Dispatch to one of the four selectors by method name."""
    if method == METHOD_JACOBIAN:
        return select_jacobian(data.features, lam)
    if method == METHOD_SILVERMAN:
        return select_silverman(data.features)
    if method == METHOD_CV:
        return select_cv(data, lam, folds=folds, grid=grid, grid_size=grid_size,
                         grid_min=grid_min, seed=seed)
    if method == METHOD_SEEDED_CV:
        return select_seeded_cv(data, lam, folds=folds, grid_size=grid_size, seed=seed)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
