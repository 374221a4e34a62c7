"""Gaussian kernel evaluation, kernel matrices, and the data diameter.

Point sets are (n x p) feature matrices, checked by ``data.as_features``.
Distance matrices use the expanded form (||a||^2 + ||b||^2) - 2 a.b clamped
at zero; the one-query kernel row behind the gradient uses x - x_i. A block
of ``_sq_dist_blocks`` takes two _ROW_BLOCK x n buffers (result and Gram
product). Every kernel exponentiates through ``_exp``, except the radial
``kernel_gradient_norm``.
"""

from __future__ import annotations

import math

import numpy as np

from .data import as_features

_ROW_BLOCK = 256  # rows per block of a blocked distance matrix
_EXP_ZERO_BELOW = -745.1332195  # np.exp is exactly 0 below -745.1332191019412


def check_sigma(sigma: float) -> float:
    """sigma as a float; ValueError unless it is finite and > 0 and the
    kernel's scale 2 sigma^2, which divides distances, is not 0."""
    sigma = float(sigma)
    if not np.isfinite(sigma) or sigma <= 0.0:
        raise ValueError(f"sigma must be finite and > 0, got {sigma}")
    if 2.0 * sigma * sigma == 0.0:
        raise ValueError(f"sigma={sigma} is too small: 2*sigma^2 underflows to 0")
    return sigma


def pairwise_sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between rows of A (m x p) and B (n x p):
    (||a_i||^2 + ||b_j||^2) - 2 a_i.b_j clamped at 0, in two m x n buffers."""
    A = as_features(A)
    B = as_features(B)
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"column mismatch: A has {A.shape[1]} columns, B has {B.shape[1]}")
    d2 = np.add.outer(np.einsum("ij,ij->i", A, A), np.einsum("ij,ij->i", B, B))
    G = A @ B.T
    G *= 2.0
    d2 -= G
    return np.maximum(d2, 0.0, out=d2)


def _sq_dist_blocks(A: np.ndarray, B: np.ndarray, upper: bool = False):
    """Yield (rows, pairwise_sq_dists(A[rows], B)) for blocks of _ROW_BLOCK rows
    of A; with ``upper`` (A is B), only columns from rows.start on. A caller
    that drops each block holds one at a time."""
    for i in range(0, A.shape[0], _ROW_BLOCK):
        rows = slice(i, i + _ROW_BLOCK)
        yield rows, pairwise_sq_dists(A[rows], B[i if upper else 0 :])


def _exp(x: np.ndarray) -> np.ndarray:
    """np.exp(x) computed in x's contiguous buffer, which is returned, with the
    same bits. When any of every 64th entry is below _EXP_ZERO_BELOW, entries
    below it are set to 0 rather than exponentiated (testing every entry
    would cost about half an exp where none underflows)."""
    if not x.reshape(-1)[::64].min(initial=0.0) < _EXP_ZERO_BELOW:
        return np.exp(x, out=x)
    low = x < _EXP_ZERO_BELOW
    x[low] = 0.0  # exp(0) takes the fast path
    np.exp(x, out=x)
    x[low] = 0.0
    return x


def _exp_neg_scaled(d2: np.ndarray, sigma: float) -> np.ndarray:
    """exp(-d2 / (2 sigma^2)) computed in d2's buffer, which is returned."""
    return _exp(np.divide(d2, -(2.0 * sigma * sigma), out=d2))


def _kernel_upper(X: np.ndarray, sigma: float) -> np.ndarray:
    """n x n array with k(x_i, x_j), j >= i, in its upper triangle; the rest is scratch."""
    K = np.empty((X.shape[0], X.shape[0]))
    for rows, d2 in _sq_dist_blocks(X, X, upper=True):
        K[rows, rows.start:] = _exp_neg_scaled(d2, sigma)
        del d2  # free this block before the next is built
    return K


def kernel_matrix(A: np.ndarray, B: np.ndarray | None = None, sigma: float = 1.0) -> np.ndarray:
    """Gaussian kernel matrix with entry (i, j) = k(a_i, b_j).

    Pass ``B=None`` for the symmetric train-by-train matrix; that path mirrors
    the upper triangle, so symmetry holds to 0 ulp and the diagonal is exactly 1.
    Any ``B``, ``A`` itself included, gives the cross kernel, entry by entry.
    """
    sigma = check_sigma(sigma)
    A = as_features(A)
    if B is not None:
        return _exp_neg_scaled(pairwise_sq_dists(A, B), sigma)
    K = _kernel_upper(A, sigma)
    for i in range(0, K.shape[0], _ROW_BLOCK):
        rows, below = slice(i, i + _ROW_BLOCK), i + _ROW_BLOCK
        K[below:, rows] = K[rows, below:].T  # one row block's strip, not all of K.T
        D = K[rows, rows]
        np.copyto(D, D.T, where=np.tri(len(D), k=-1, dtype=bool))
    np.fill_diagonal(K, 1.0)
    return K


def max_pairwise_distance(X: np.ndarray) -> float:
    """Diameter of the point set: max over pairs i != j of ||x_i - x_j||_2.

    0 for a single point; ValueError for non-finite features. A computed d2 is
    within delta = (2p + 4) (2 eps max_i |x_i|^2 + 2^-1074) of its exact value
    (the expanded form's first-order error, (2p + 3) eps (|x_i|^2 + |x_j|^2),
    plus an underflow per product). Two farthest-point passes give rows a, b at
    computed d2 L2 <= diameter^2 + delta; with c = (a + b) / 2 and
    r2_i = |x_i - c|^2, a pair has |x_i - x_j| <= r_i + r_max, so dropping row i
    only when (sqrt(r2_i + delta) + sqrt(r2_max + delta))^2 (1 + 8 eps) + 3 delta
    < L2 keeps both rows of an exactly farthest pair. The kept rows take the full
    matrix's upper-triangle block max: the result's square is within delta of
    the exact diameter's, so coincident rows give at most sqrt(delta).
    """
    X = as_features(X)
    if X.shape[0] < 1:
        raise ValueError("need at least one row")
    if not np.isfinite(X).all():
        raise ValueError("features contain non-finite values: the diameter is undefined")
    a = X[np.argmax(pairwise_sq_dists(X, X[:1]))]
    from_a = pairwise_sq_dists(X, a[None])[:, 0]
    b = X[np.argmax(from_a)]
    r2 = pairwise_sq_dists(X, 0.5 * (a + b)[None])[:, 0]
    eps, tiny = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    delta = (2 * X.shape[1] + 4) * (2.0 * eps * float(np.einsum("ij,ij->i", X, X).max()) + tiny)
    reach = (np.sqrt(r2 + delta) + math.sqrt(r2.max() + delta)) ** 2 * (1 + 8 * eps) + 3 * delta
    kept = X[reach >= from_a.max()]
    best = 0.0
    for _, d2 in _sq_dist_blocks(kept, kept, upper=True):
        np.fill_diagonal(d2, 0.0)  # a row's own d2 is 0, whatever the expanded form rounds it to
        best = max(best, float(d2.max()))
        del d2
    return math.sqrt(best)


def kernel_gradient_norm(d, sigma: float):
    """(d / sigma^2) * exp(-d^2 / (2 sigma^2)): kernel gradient magnitude.

    In the radial coordinate this is the full gradient of the Gaussian kernel
    at distance d; it vanishes at d = 0 and is maximized at d = sigma with
    value 1 / (sigma * sqrt(e)).
    """
    sigma = check_sigma(sigma)
    dd = np.asarray(d, dtype=float)
    out = (dd / (sigma * sigma)) * np.exp(-(dd * dd) / (2.0 * sigma * sigma))
    return float(out) if np.isscalar(d) else out


def _query_row(X: np.ndarray, x_star, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """x_star - x_i for every row of X, and k(x_star, x_i) from those differences
    (not expanded norms), so ``krr.gradient`` and its bound share k's bits."""
    x_star = np.asarray(x_star, dtype=float).reshape(-1)
    if x_star.shape[0] != X.shape[1]:
        raise ValueError(f"x_star has {x_star.shape[0]} coordinates, expected {X.shape[1]}")
    diff = x_star[None, :] - X
    return diff, _exp_neg_scaled(np.einsum("ij,ij->i", diff, diff), sigma)


def gradient_one_norm_bound(X: np.ndarray, x_star: np.ndarray, sigma: float) -> float:
    """max_i of the Cartesian 1-norm of the kernel gradient at x_star.

    For each training row x_i this is (k(d_i) / sigma^2) * ||x_star - x_i||_1,
    which reduces to ``kernel_gradient_norm`` when p = 1. Used as the middle
    factor of the three-factor gradient bound.
    """
    sigma = check_sigma(sigma)
    diff, k = _query_row(as_features(X), x_star, sigma)
    return float(np.max(k * np.abs(diff).sum(axis=1)) / (sigma * sigma))
