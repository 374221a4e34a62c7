"""Gaussian kernel evaluation, kernel matrices, and the data diameter.

Point sets are (n x p) feature matrices, checked by ``data.as_features``: a
1-D array is rejected, not read as one point. Distances use the expanded form
||a||^2 + ||b||^2 - 2 a.b with small negatives clamped to zero. When both
kernel-matrix arguments are the same object, the upper triangle is mirrored
so the result is exactly symmetric with a unit diagonal.
"""

from __future__ import annotations

import numpy as np

from .data import as_features


def check_sigma(sigma: float) -> float:
    """sigma as a float; ValueError unless it is finite and > 0."""
    sigma = float(sigma)
    if not np.isfinite(sigma) or sigma <= 0.0:
        raise ValueError(f"sigma must be finite and > 0, got {sigma}")
    return sigma


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
    d2 = aa[:, None] + bb[None, :] - 2.0 * (A @ B.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def kernel_matrix(A: np.ndarray, B: np.ndarray | None = None, sigma: float = 1.0) -> np.ndarray:
    """Gaussian kernel matrix with entry (i, j) = k(a_i, b_j).

    Pass ``B=None`` (or the same array object as ``A``) for the symmetric
    train-by-train matrix; that path mirrors the upper triangle, so symmetry
    holds to 0 ulp and the diagonal is exactly 1.
    """
    sigma = check_sigma(sigma)
    symmetric = B is None or B is A
    A = as_features(A)
    if symmetric:
        d2 = pairwise_sq_dists(A, A)
        K = np.exp(-d2 / (2.0 * sigma * sigma))
        upper = np.triu(K, k=1)
        K = upper + upper.T
        np.fill_diagonal(K, 1.0)
        return K
    d2 = pairwise_sq_dists(A, B)
    return np.exp(-d2 / (2.0 * sigma * sigma))


def max_pairwise_distance(X: np.ndarray) -> float:
    """Diameter of the point set: max over pairs of ||x_i - x_j||_2.

    0 for a single point or when all rows coincide.
    """
    X = as_features(X)
    if X.shape[0] < 1:
        raise ValueError("need at least one row")
    if X.shape[0] == 1:
        return 0.0
    return float(np.sqrt(pairwise_sq_dists(X, X).max()))


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


def gradient_one_norm_bound(X: np.ndarray, x_star: np.ndarray, sigma: float) -> float:
    """max_i of the Cartesian 1-norm of the kernel gradient at x_star.

    For each training row x_i this is (k(d_i) / sigma^2) * ||x_star - x_i||_1,
    which reduces to ``kernel_gradient_norm`` when p = 1. Used as the middle
    factor of the three-factor gradient bound.
    """
    sigma = check_sigma(sigma)
    X = as_features(X)
    x_star = np.asarray(x_star, dtype=float).reshape(-1)
    if x_star.shape[0] != X.shape[1]:
        raise ValueError(
            f"x_star has {x_star.shape[0]} coordinates, expected {X.shape[1]}"
        )
    diff = x_star[None, :] - X
    d2 = np.einsum("ij,ij->i", diff, diff)
    k = np.exp(-d2 / (2.0 * sigma * sigma))
    one_norms = np.abs(diff).sum(axis=1)
    return float(np.max(k * one_norms) / (sigma * sigma))
