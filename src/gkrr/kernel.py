"""Gaussian kernel evaluation, kernel matrices, and the data diameter.

Point sets are (n x p) feature matrices, checked by ``data.as_features``: a
1-D array is rejected, not read as one point. Distance matrices use the
expanded form (||a||^2 + ||b||^2) - 2 a.b with small negatives clamped to
zero; the one-query kernel row behind the gradient uses x - x_i. When both
kernel-matrix arguments are the same object, the upper triangle is mirrored
so the result is exactly symmetric with a unit diagonal.

Buffers: an (m x n) distance matrix takes two m x n buffers, the result and
the Gram product; the kernel is built in the result's buffer, so
``kernel_matrix`` peaks at two. The diameter holds two ``_ROW_BLOCK`` x n.
"""

from __future__ import annotations

import math

import numpy as np

from .data import as_features

_ROW_BLOCK = 256  # rows per block of the diameter's distance rows


def check_sigma(sigma: float) -> float:
    """sigma as a float; ValueError unless it is finite and > 0 and the
    kernel's scale 2 sigma^2, which divides distances, is not 0."""
    sigma = float(sigma)
    if not np.isfinite(sigma) or sigma <= 0.0:
        raise ValueError(f"sigma must be finite and > 0, got {sigma}")
    if 2.0 * sigma * sigma == 0.0:
        raise ValueError(f"sigma={sigma} is too small: 2*sigma^2 underflows to 0")
    return sigma


def _sq_dists(A: np.ndarray, B: np.ndarray, aa: np.ndarray, bb: np.ndarray) -> np.ndarray:
    """(aa_i + bb_j) - 2 a_i.b_j, unclamped, in two len(aa) x len(bb) buffers."""
    d2 = np.add.outer(aa, bb)
    G = A @ B.T
    G *= 2.0
    d2 -= G
    return d2


def pairwise_sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between rows of A (m x p) and B (n x p)."""
    A = as_features(A)
    B = as_features(B)
    if A.shape[1] != B.shape[1]:
        raise ValueError(
            f"column mismatch: A has {A.shape[1]} columns, B has {B.shape[1]}"
        )
    aa = np.einsum("ij,ij->i", A, A)
    bb = np.einsum("ij,ij->i", B, B)
    d2 = _sq_dists(A, B, aa, bb)
    np.maximum(d2, 0.0, out=d2)
    return d2


def _exp_neg_scaled(d2: np.ndarray, sigma: float) -> np.ndarray:
    """exp(-d2 / (2 sigma^2)) computed in d2's buffer, which is returned."""
    np.negative(d2, out=d2)
    d2 /= 2.0 * sigma * sigma
    return np.exp(d2, out=d2)


def kernel_matrix(A: np.ndarray, B: np.ndarray | None = None, sigma: float = 1.0) -> np.ndarray:
    """Gaussian kernel matrix with entry (i, j) = k(a_i, b_j).

    Pass ``B=None`` (or the same array object as ``A``) for the symmetric
    train-by-train matrix; that path mirrors the upper triangle, so symmetry
    holds to 0 ulp and the diagonal is exactly 1.
    """
    sigma = check_sigma(sigma)
    symmetric = B is None or B is A
    A = as_features(A)
    K = _exp_neg_scaled(pairwise_sq_dists(A, A if symmetric else B), sigma)
    if symmetric:
        np.copyto(K, K.T, where=np.tri(K.shape[0], k=-1, dtype=bool))
        np.fill_diagonal(K, 1.0)
    return K


def max_pairwise_distance(X: np.ndarray) -> float:
    """Diameter of the point set: max over pairs of ||x_i - x_j||_2.

    0 for a single point or when all rows coincide; ValueError for non-finite
    features. Takes the same bits as sqrt(pairwise_sq_dists(X, X).max()), one
    block of rows at a time.
    """
    X = as_features(X)
    if X.shape[0] < 1:
        raise ValueError("need at least one row")
    if not np.isfinite(X).all():
        raise ValueError("features contain non-finite values: the diameter is undefined")
    if X.shape[0] == 1:
        return 0.0
    aa = np.einsum("ij,ij->i", X, X)
    best = 0.0
    for i in range(0, X.shape[0], _ROW_BLOCK):
        rows = slice(i, i + _ROW_BLOCK)
        best = max(best, float(_sq_dists(X[rows], X, aa[rows], aa).max()))
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
    d2 = np.einsum("ij,ij->i", diff, diff)
    return diff, np.exp(-d2 / (2.0 * sigma * sigma))


def gradient_one_norm_bound(X: np.ndarray, x_star: np.ndarray, sigma: float) -> float:
    """max_i of the Cartesian 1-norm of the kernel gradient at x_star.

    For each training row x_i this is (k(d_i) / sigma^2) * ||x_star - x_i||_1,
    which reduces to ``kernel_gradient_norm`` when p = 1. Used as the middle
    factor of the three-factor gradient bound.
    """
    sigma = check_sigma(sigma)
    diff, k = _query_row(as_features(X), x_star, sigma)
    return float(np.max(k * np.abs(diff).sum(axis=1)) / (sigma * sigma))
