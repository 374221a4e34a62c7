"""Shared independent oracles for cross-checking the library paths."""

import numpy as np


def jacobi_eigenvalues(M, sweeps=100, tol=1e-14):
    """Cyclic Jacobi rotations on a symmetric matrix; returns sorted eigenvalues."""
    A = np.array(M, dtype=float)
    n = A.shape[0]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(A[p, q]))
                if abs(A[p, q]) <= tol * max(1.0, abs(A[p, p]) + abs(A[q, q])):
                    continue
                theta = 0.5 * np.arctan2(2 * A[p, q], A[q, q] - A[p, p])
                c, s = np.cos(theta), np.sin(theta)
                J = np.eye(n)
                J[p, p] = J[q, q] = c
                J[p, q] = s
                J[q, p] = -s
                A = J.T @ A @ J
        if off <= tol:
            break
    return np.sort(np.diag(A))


def press_loo_loss(X, y, sigma, lam):
    """Leave-one-out mean squared error of Gaussian KRR in closed form, and
    cond(A): for A = K + lam*I and alpha = A^-1 y, the residual at row i of
    the fit without row i is alpha_i / (A^-1)_ii (Allen's PRESS, 1974).
    No folds and no Cholesky: one dense inverse."""
    X = np.asarray(X, dtype=float).reshape(len(y), -1)
    d2 = np.sum((X[:, None, :] - X[None, :, :]) ** 2, axis=-1)
    A = np.exp(-d2 / (2.0 * sigma * sigma)) + lam * np.eye(len(y))
    A_inv = np.linalg.inv(A)
    alpha = A_inv @ y
    return float(np.mean((alpha / np.diag(A_inv)) ** 2)), float(np.linalg.cond(A))


def complex_step_gradient(X, alpha, sigma, x_star, h=1e-30):
    """Gradient of f(x) = sum_i alpha_i exp(-||x - x_i||^2 / (2 sigma^2)) by
    the complex step, df/dx_j = Im f(x + i h e_j) / h (Squire and Trapp,
    1998): no difference is taken, so it is exact to rounding. Built from the
    features and alpha alone; ``d * d`` rather than ``|d|^2`` keeps f
    analytic in the step."""
    X = np.asarray(X, dtype=float)
    x_star = np.asarray(x_star, dtype=float)
    grad = np.empty(X.shape[1])
    for j in range(X.shape[1]):
        z = x_star.astype(complex)
        z[j] += 1j * h
        d = z[None, :] - X
        grad[j] = np.sum(alpha * np.exp(-np.sum(d * d, axis=1) / (2.0 * sigma * sigma))).imag / h
    return grad
