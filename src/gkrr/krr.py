"""Gaussian kernel ridge regression: fit, predict, serialization.

The fitted function is f(x) = sum_i alpha_i k(x, x_i) with dual coefficients
alpha = (K + lambda*I)^(-1) y. Models keep their own copy of the training
features, are immutable after fit, and predict is pure, so instances can be
shared across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, _freeze, as_features, format_table, read_table, write_text
from .kernel import _ROW_BLOCK, _kernel_upper, _query_row, check_sigma, kernel_matrix
from .linalg import FactorizationError, _factor_solve, check_lambda


@dataclass(frozen=True)
class KrrModel:
    train_features: np.ndarray  # n x p, retained copy
    alpha: np.ndarray  # length n dual coefficients
    sigma: float
    lam: float

    def __post_init__(self):
        # retain private copies so the model never aliases caller-owned memory
        X = _freeze(as_features(self.train_features))
        a = _freeze(np.asarray(self.alpha, dtype=float))
        if X.shape[0] < 1:
            raise ValueError(f"need at least one training row, got shape {X.shape}")
        if a.shape != (X.shape[0],):
            raise ValueError(f"alpha has shape {a.shape}, expected ({X.shape[0]},)")
        if not (np.isfinite(X).all() and np.isfinite(a).all()):
            raise ValueError("model contains non-finite features or alpha")
        object.__setattr__(self, "train_features", X)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "sigma", check_sigma(self.sigma))
        object.__setattr__(self, "lam", check_lambda(self.lam))

    @property
    def n(self) -> int:
        return self.train_features.shape[0]

    @property
    def p(self) -> int:
        return self.train_features.shape[1]


def fit(data: Dataset, sigma: float, lam: float) -> KrrModel:
    """Solve (K + lambda*I) alpha = y on the training data.

    K + lambda*I is the one n x n buffer, F-ordered: its lower triangle, all
    LAPACK reads, is the upper triangle ``kernel_matrix`` mirrors, so alpha has
    the bits of ``solve(factor_spd(kernel_matrix(X, None, sigma), lambda), y)``.
    One ``dposv`` factors it in place and solves; its other triangle is never
    read. ``factor_spd`` is skipped: its symmetry check and copies cost more
    than half the factoring.

    With lambda = 0 and duplicate training rows the kernel matrix is singular
    and the factorization fails; callers wanting interpolation must
    deduplicate or regularize.
    """
    sigma = check_sigma(sigma)
    lam = check_lambda(lam)
    K = _kernel_upper(data.features, sigma).T
    np.fill_diagonal(K, 1.0 + lam)
    try:
        alpha = _factor_solve(K, data.response, lam)
    except FactorizationError as exc:
        msg = f"{exc} (n={data.n}, sigma={sigma}: sigma may be too large relative to lambda)"
        raise FactorizationError(msg, pivot=exc.pivot) from exc
    return KrrModel(train_features=data.features, alpha=alpha, sigma=sigma, lam=lam)


def predict(model: KrrModel, X_new: np.ndarray) -> np.ndarray:
    """K(X_new, X_train) @ alpha, one block of kernel rows at a time (no m x n
    buffer); an empty input yields an empty vector."""
    X_new = np.asarray(X_new, dtype=float)
    X_new = as_features(X_new.reshape(-1, model.p) if X_new.ndim == 1 else X_new)
    if X_new.shape[1] != model.p:
        raise ValueError(f"X_new has {X_new.shape[1]} columns, model expects {model.p}")
    out = np.empty(X_new.shape[0])
    for i in range(0, len(out), _ROW_BLOCK):
        rows = slice(i, i + _ROW_BLOCK)
        out[rows] = kernel_matrix(X_new[rows], model.train_features, model.sigma) @ model.alpha
    return out


def gradient(model: KrrModel, x_star: np.ndarray) -> np.ndarray:
    """Exact gradient of the fitted function at ``x_star``:
    sum_i alpha_i k(x_star, x_i) (x_i - x_star) / sigma^2."""
    diff, k = _query_row(model.train_features, x_star, model.sigma)
    return -((model.alpha * k) @ diff) / (model.sigma * model.sigma)


def save_model(model: KrrModel, path) -> None:
    """Serialize a model as tagged CSV sections at 17 significant digits.

    Sections: ``#meta`` (n, p, sigma, lambda), ``#train_features`` (one row
    per training point, row-major), ``#alpha`` (one coefficient per line).
    The round trip is value-exact.
    """
    rows = [["#meta"], [model.n, model.p, float(model.sigma), float(model.lam)],
            ["#train_features"], *model.train_features.tolist(),
            ["#alpha"], *zip(model.alpha.tolist())]
    write_text(path, format_table(rows))


def _float_row(path, rows: list[list[str]], i: int, width: int) -> list[float]:
    """``rows[i]``, line i + 1 of a model file (blank lines skipped), as ``width``
    floats; ValueError naming ``path`` and the line otherwise."""
    try:
        if len(rows[i]) != width:
            raise ValueError(f"expected {width} fields, got {len(rows[i])}")
        return [float(v) for v in rows[i]]
    except ValueError as exc:
        raise ValueError(f"{path}: line {i + 1}: {exc}") from None


def load_model(path) -> KrrModel:
    """Read back a model written by ``save_model``."""
    rows = read_table(path)
    if not rows or rows[0] != ["#meta"]:
        raise ValueError(f"{path}: expected '#meta' tag on line 1")
    try:
        n_s, p_s, sigma_s, lam_s = rows[1]
        n, p = int(n_s), int(p_s)
        sigma, lam = float(sigma_s), float(lam_s)
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
    except (IndexError, ValueError) as exc:
        raise ValueError(f"{path}: malformed #meta section: {exc}") from None
    if len(rows) < 3 or rows[2] != ["#train_features"]:
        raise ValueError(f"{path}: expected '#train_features' tag on line 3")
    if len(rows) < 4 + n or rows[3 + n] != ["#alpha"]:
        raise ValueError(f"{path}: expected '#alpha' tag after the feature rows")
    X = np.array([_float_row(path, rows, i, p) for i in range(3, 3 + n)])
    alpha = np.array([_float_row(path, rows, i, 1)[0] for i in range(4 + n, min(len(rows), 4 + 2 * n))])
    if alpha.shape != (n,):
        raise ValueError(f"{path}: alpha block has length {alpha.shape[0]}, expected {n}")
    try:
        return KrrModel(train_features=X, alpha=alpha, sigma=sigma, lam=lam)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
