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
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, as_features, make_kfold
from .kernel import _exp, check_sigma, max_pairwise_distance, pairwise_sq_dists
from .lambertw import BRANCH_POINT, PRINCIPAL, lambert_w
from .linalg import FactorizationError, _factor_solve, check_lambda

METHOD_JACOBIAN = "jacobian"
METHOD_SILVERMAN = "silverman"
METHOD_CV = "cv"
METHOD_SEEDED_CV = "seeded-cv"
METHODS = (METHOD_JACOBIAN, METHOD_SILVERMAN, METHOD_CV, METHOD_SEEDED_CV)

DEFAULT_GRID_MIN = 0.01
DEFAULT_GRID_SIZE = 100
DEFAULT_FOLDS = 10
# per CV kernel stack (2 MB) of n x n kernels, exponentiated once and gathered
# fold by fold: the whole 100-point grid while n <= 51, one sigma per stack
# once n > 362
_CV_STACK_FLOATS = 2**18


class Regime(enum.Enum):
    """Shape of the Jacobian proxy as a function of sigma, fixed by lambda."""

    NO_REGULARIZATION = "no-regularization"  # lambda = 0: global minimum
    LOCAL_MINIMUM = "local-minimum"  # 0 < lambda <= threshold: local min + max
    MONOTONE = "monotone"  # lambda > threshold: strictly decreasing


def lambda_threshold(n: int) -> float:
    """Largest lambda for which the stationary bandwidths exist: 2 n e^(-3/2)."""
    return 2.0 * n * math.exp(-1.5)


def classify_regime(n: int, lam: float) -> Regime:
    """Decided on r = lambda / threshold, the ratio W reads: an r that underflows is 0."""
    r = check_lambda(lam) / lambda_threshold(n)
    if r == 0.0:
        return Regime.NO_REGULARIZATION
    return Regime.LOCAL_MINIMUM if r <= 1.0 else Regime.MONOTONE


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

    def bermanis_estimate(self, sigma: float) -> float:
        """n exp(-t^2), t = spread * pi * sigma / (2 l_max): j_b's estimate of s_min(K)."""
        t = self.spread * math.pi * sigma / (2.0 * self.l_max)
        return self.n * math.exp(-t * t)


@dataclass(frozen=True)
class BandwidthResult:
    """A selected bandwidth plus method-specific diagnostics.

    ``regime`` and ``j2a_at_sigma`` are populated by the Jacobian selector
    only; ``cv_curve`` (tuples of (sigma, mean validation MSE)) by the CV
    variants only.
    """

    sigma: float
    method: str
    regime: Regime | None = None
    j2a_at_sigma: float | None = None
    cv_curve: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        check_sigma(self.sigma)
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")

    @property
    def clamped(self) -> bool:
        """True iff lambda was above the threshold and sigma_0 taken at the threshold."""
        return self.regime is Regime.MONOTONE


def approx_jacobian_norm(sigma: float, params: JacobianParams) -> float:
    """The proxy j_a * j_b (constant omitted): 1/sigma times 1/(n exp(-t^2) + lambda)."""
    sigma = check_sigma(sigma)
    with np.errstate(divide="ignore", over="ignore"):
        return (1.0 / sigma) * float(np.divide(1.0, params.bermanis_estimate(sigma) + params.lam))


def jacobian_sigma(params: JacobianParams, branch: int = PRINCIPAL) -> float:
    """Closed-form stationary bandwidth sigma_0 (branch 0) or sigma_-1 (branch -1).

    The Lambert W argument is computed as BRANCH_POINT * (lambda / threshold)
    so that lambda equal to the threshold lands exactly on the branch point
    and the sqrt(3) clamping ratio is exact in floating point; ``lambert_w``
    rejects branch -1 at lambda = 0, where sigma_-1 is unbounded.
    """
    thr = lambda_threshold(params.n)
    if classify_regime(params.n, params.lam) is Regime.MONOTONE:
        raise ValueError(
            f"lambda={params.lam} exceeds the threshold 2*n*e^(-3/2)={thr}; "
            "no stationary bandwidth exists"
        )
    w = lambert_w(BRANCH_POINT * (params.lam / thr), branch)
    base = (math.sqrt(2.0) / math.pi) * params.l_max / params.spread
    return base * math.sqrt(1.0 - 2.0 * w)


def check_selects(methods, n: int, folds: int = DEFAULT_FOLDS, grid_size: int = DEFAULT_GRID_SIZE,
                  grid_min: float = DEFAULT_GRID_MIN) -> None:
    """ValueError, with the selectors' text, unless ``methods`` names one or more
    of METHODS, each running on ``n`` rows or more with these CV settings, ``grid_min``
    starting cv's grid; names first, CV settings, then each least n."""
    if not methods:
        raise ValueError("methods is empty")
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; expected one of {METHODS}")
    if METHOD_CV in methods or METHOD_SEEDED_CV in methods:
        if grid_size < 1:
            raise ValueError(f"grid size must be >= 1, got {grid_size}")
        if METHOD_CV in methods:
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


def _selectable(method: str, X, *cv) -> np.ndarray:
    """as_features, check_selects for ``method`` and ``cv``; ValueError on identical or oversized rows."""
    X = as_features(X)
    check_selects((method,), len(X), *cv)
    if (X == X[0]).all() and np.isfinite(X[0]).all():  # exact; non-finite rows keep their errors
        raise ValueError(f"all rows identical: {len(X)} copies of one row, no spread to select from")
    if math.isinf(4.0 * float(np.einsum("ij,ij->i", X, X).max())) and np.isfinite(X).all():
        raise ValueError("features too large to square: distances overflow once a row norm reaches 6.7e153")
    return X


def select_jacobian(X: np.ndarray, lam: float) -> BandwidthResult:
    """Jacobian-control selection on a feature matrix.

    Returns sigma_0(lambda); above the threshold 2 n e^(-3/2) it returns
    sigma_0 evaluated at the threshold with ``clamped`` set.
    """
    X = _selectable(METHOD_JACOBIAN, X)
    return _jacobian_closed_form(*X.shape, max_pairwise_distance(X), lam)


def _jacobian_closed_form(n: int, p: int, l_max: float, lam: float) -> BandwidthResult:
    """select_jacobian's result for ``n`` rows in ``p`` dimensions of diameter ``l_max``."""
    params = JacobianParams(n=n, p=p, l_max=l_max, lam=lam)
    regime = classify_regime(n, lam)
    clamped = regime is Regime.MONOTONE
    sigma = jacobian_sigma(replace(params, lam=lambda_threshold(n)) if clamped else params)
    return BandwidthResult(sigma=sigma, method=METHOD_JACOBIAN, regime=regime,
                           j2a_at_sigma=approx_jacobian_norm(sigma, params))


def select_silverman(X: np.ndarray) -> BandwidthResult:
    """Silverman's rule: (4 / (n (p+2)))^(1/(p+4)) * sigma_hat.

    sigma_hat is the square root of the mean per-coordinate sample variance
    (n-1 denominator), one scalar regardless of p. Blind to lambda and y.
    """
    X = _selectable(METHOD_SILVERMAN, X)
    n, p = X.shape
    k = math.frexp(float(np.abs(X).max()))[1]  # |X| / 2^k < 1, so no square overflows; 2^k is exact
    sigma_hat = math.ldexp(math.sqrt(float(np.mean(np.var(np.ldexp(X, -k), axis=0, ddof=1)))), k)
    factor = (4.0 / (n * (p + 2))) ** (1.0 / (p + 4))
    return BandwidthResult(sigma=factor * sigma_hat, method=METHOD_SILVERMAN)


def default_cv_grid(l_max: float, size: int = DEFAULT_GRID_SIZE, lo: float = DEFAULT_GRID_MIN) -> np.ndarray:
    """``size`` (>= 1) log-spaced bandwidths between ``lo`` and l_max, both > 0 (sorted)."""
    if size == 1:
        return np.array([math.sqrt(lo * l_max)])
    return np.sort(np.geomspace(lo, l_max, size))


def _cv_mean_losses(data: Dataset, neg_d2: np.ndarray, lam: float, folds: int,
                    grid: np.ndarray, seed: int) -> np.ndarray:
    """Mean validation MSE per grid sigma over a fixed fold partition.

    Folds are built once and reused for every sigma, so the grid comparison
    is paired. ``neg_d2`` is the caller's -pairwise_sq_dists(X, X); a stack of
    ``_CV_STACK_FLOATS // n^2`` sigmas (at least one) exponentiates it once,
    and each fold gathers its training and validation blocks from that stack,
    C-ordered (a strided block takes another matmul path, rounded
    differently). Each slice not yet at +inf is factored in place and solved
    by one unchecked ``linalg._factor_solve`` (``dposv``): symmetric by
    construction; a failed factor makes +inf. The validation residuals and
    losses of a stack then take one stacked product and one row-wise mean.

    Memory: a stack holds at most _CV_STACK_FLOATS floats (2 MB) or one
    sigma's n x n kernels, whichever is larger, and one fold's gathered
    blocks take up to about as much again.
    """
    y, n = data.response, data.n
    plans = make_kfold(n, folds, seed)
    totals, block = np.zeros(len(grid)), max(1, _CV_STACK_FLOATS // n**2)
    for start in range(0, len(grid), block):
        with np.errstate(over="ignore"):  # a quotient at -inf has exp's exact 0
            E = _exp(neg_d2 / (2.0 * grid[start : start + block, None, None] ** 2)).reshape(-1, n * n)
        stack = slice(start, start + len(E))
        for plan in plans:
            tr, te = plan.train_indices, plan.test_indices
            K = E.take((tr[:, None] * n + tr).ravel(), axis=1).reshape(len(E), len(tr), -1)
            K.reshape(len(E), -1)[:, :: len(tr) + 1] = 1.0 + lam
            ok, y_tr = totals[stack] != math.inf, y[tr]
            alphas = np.zeros((len(E), len(tr), 1))
            for i in np.flatnonzero(ok):
                # K[i].T is F-ordered: dposv factors it in place
                try:
                    alphas[i, :, 0] = _factor_solve(K[i].T, y_tr, lam)
                except FactorizationError:
                    ok[i] = False
            r = E.take((te[:, None] * n + tr).ravel(), axis=1).reshape(len(E), len(te), -1) @ alphas
            np.subtract(y[te][:, None], r, out=r)
            r *= r
            totals[stack] = np.where(ok, totals[stack] + np.mean(r, axis=1)[:, 0], math.inf)
            del K  # so the next fold's block is gathered beside E alone
    return totals / folds


def _run_cv(data: Dataset, d2: np.ndarray, lam: float, folds: int, grid: np.ndarray,
            seed: int, method: str) -> BandwidthResult:
    """CV over the ascending, finite ``grid``; ``d2`` is pairwise_sq_dists(X, X),
    negated in place. The callers check ``folds`` and ``data.n`` with _selectable."""
    check_sigma(grid[0])  # an underflowing 2 sigma^2 makes a nan loss, which argmin picks
    top = float(grid[-1])
    if math.isinf(2.0 * top * top):  # an overflowing one makes every kernel entry 1
        raise ValueError(f"CV grid bandwidth sigma={top} is too large: 2*sigma^2 overflows to inf")
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
    grid_size: int = DEFAULT_GRID_SIZE,
    grid_min: float = DEFAULT_GRID_MIN,
    grid_max: float | None = None,
    seed: int = 0,
) -> BandwidthResult:
    """Grid cross-validation: minimize mean validation MSE over k folds.

    The grid is ``grid_size`` log-spaced bandwidths between ``grid_min`` and
    ``grid_max`` (None: the data diameter, the bounds swapped if it is below
    ``grid_min``). Deterministic given (data, seed). The distances are
    computed once, for both the diameter and the CV kernels.
    """
    _selectable(METHOD_CV, data.features, folds, grid_size, grid_min)
    if grid_max is not None and not grid_min <= grid_max < math.inf:
        raise ValueError(f"grid_max must be finite and >= grid_min={grid_min}, got {grid_max}")
    d2 = pairwise_sq_dists(data.features, data.features)
    if grid_max is None:
        grid_max = math.sqrt(float(d2.max()))
        if grid_max <= 0.0:  # distinct rows whose expanded-form distances all round to 0
            raise ValueError("pairwise distances all round to 0: cannot build the default CV grid")
    grid = default_cv_grid(max(grid_min, grid_max), grid_size, min(grid_min, grid_max))
    return _run_cv(data, d2, lam, folds, grid, seed, METHOD_CV)


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
    _selectable(METHOD_SEEDED_CV, data.features, folds, grid_size)
    d2 = pairwise_sq_dists(data.features, data.features)
    sigma0 = _jacobian_closed_form(data.n, data.p, math.sqrt(float(d2.max())), lam).sigma
    grid = np.array([sigma0]) if grid_size == 1 else default_cv_grid(5.0 * sigma0, grid_size, sigma0 / 5.0)
    return _run_cv(data, d2, lam, folds, grid, seed, METHOD_SEEDED_CV)


def select_bandwidth(
    method: str,
    data: Dataset,
    lam: float,
    folds: int = DEFAULT_FOLDS,
    grid_size: int = DEFAULT_GRID_SIZE,
    grid_min: float = DEFAULT_GRID_MIN,
    grid_max: float | None = None,
    seed: int = 0,
) -> BandwidthResult:
    """Dispatch to one of the four selectors by method name."""
    if method == METHOD_JACOBIAN:
        return select_jacobian(data.features, lam)
    if method == METHOD_SILVERMAN:
        return select_silverman(data.features)
    if method == METHOD_CV:
        return select_cv(data, lam, folds, grid_size, grid_min, grid_max, seed)
    if method == METHOD_SEEDED_CV:
        return select_seeded_cv(data, lam, folds=folds, grid_size=grid_size, seed=seed)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
