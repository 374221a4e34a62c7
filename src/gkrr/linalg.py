"""Dense SPD solves for the ridge system.

Sized for dense problems (n up to a few thousand). Cholesky factors are
returned read-only.

LAPACK's ``dpotrf`` (for its failing pivot), ``dpotrs`` and ``dposv`` come
from ``scipy.linalg.lapack``, imported on the first factorization or solve
rather than with this module: the import takes about a quarter of a second,
three times numpy's, and ``synth``, closed-form selection and ``predict`` never
factor. ``fit`` and CV factor and solve each system with one unchecked
``dposv`` (``_factor_solve``): the same ``dpotrf`` then ``dpotrs`` in one call,
so the solution, and the pivot a failure reports, are those of
``solve(factor_spd(...))``. ``factor_spd`` and ``solve`` stay for callers
that factor their own matrices, the acceptance gate's C12 oracle among them.
This module alone reads LAPACK's ``info`` codes.
"""

from __future__ import annotations

import functools

import numpy as np


@functools.cache
def load_lapack():
    """scipy.linalg.lapack, imported on the first call: each factor and solve calls this."""
    from scipy.linalg import lapack
    return lapack


class FactorizationError(RuntimeError):
    """Cholesky failure: K + lambda*I is not numerically positive definite.

    ``pivot`` is the 1-based index of the first non-positive pivot. Typically
    means lambda is too small for this sigma; the caller may retry — the
    toolkit never inflates lambda silently.
    """

    def __init__(self, message: str, pivot: int):
        super().__init__(message)
        self.pivot = pivot


def factor_spd(K: np.ndarray, lam: float = 0.0) -> np.ndarray:
    """Lower-triangular Cholesky factor of K + lam*I.

    Raises FactorizationError with the failing pivot index when the shifted
    matrix is not positive definite (a sign that lam is too small for the
    kernel bandwidth in use).
    """
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"K must be square, got shape {K.shape}")
    scale = 1.0 + float(np.abs(K).max(initial=0.0))
    if float(np.abs(K - K.T).max(initial=0.0)) > 1e-10 * scale:
        raise ValueError("K is not symmetric within tolerance")
    lam = check_lambda(lam)
    c, info = load_lapack().dpotrf(K + lam * np.eye(K.shape[0]), lower=1, overwrite_a=1)
    _check_info(info, lam, "dpotrf")
    c.setflags(write=False)
    return c


def check_lambda(lam: float) -> float:
    """lam as a float; ValueError unless it is finite and >= 0."""
    lam = float(lam)
    if lam < 0.0 or not np.isfinite(lam):
        raise ValueError(f"lambda must be finite and >= 0, got {lam}")
    return lam


def _check_info(info: int, lam: float, routine: str) -> None:
    """FactorizationError for a failed pivot, ValueError for a bad argument."""
    if info > 0:
        raise FactorizationError(
            f"Cholesky failed at pivot {info}: K + {lam}*I is not positive definite",
            pivot=int(info),
        )
    if info < 0:
        raise ValueError(f"invalid argument {-info} passed to {routine}")


def _factor_solve(A: np.ndarray, b: np.ndarray, lam: float) -> np.ndarray:
    """Solve A x = b for A = K + lam*I, symmetric by construction, unchecked.
    Factors an F-ordered A in place from its lower triangle; the upper is never read."""
    _, x, info = load_lapack().dposv(A, b, lower=1, overwrite_a=1)
    _check_info(info, lam, "dposv")
    return x


def solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (K + lam*I) x = b given its Cholesky factor ``c`` from factor_spd."""
    b = np.asarray(b, dtype=float)
    if b.shape[0] != c.shape[0]:
        raise ValueError(f"b has length {b.shape[0]}, expected {c.shape[0]}")
    x, info = load_lapack().dpotrs(c, b, lower=1)
    if info != 0:
        raise ValueError(f"invalid argument {-info} passed to dpotrs")
    return x

