"""Dense SPD solves for the ridge system, sized for n up to a few thousand.
Cholesky factors are returned read-only. This module alone reads LAPACK's
``info`` codes.

``dposv``, ``dpotrf`` and ``dpotrs`` come from scipy's LAPACK extension, loaded
by path on the first factorization or solve: ``synth``, closed-form selection
and ``predict`` never factor, and importing ``scipy.linalg`` instead costs ten
times as much (``BENCH_29.json``). ``fit`` and CV solve each system with one
unchecked ``dposv`` (``_factor_solve``), which is ``dpotrf`` then ``dpotrs``
in one call; ``factor_spd`` and ``solve`` serve callers that factor their own.
"""

from __future__ import annotations

import functools
import sys
from importlib import machinery, util
from pathlib import Path

import numpy as np


@functools.cache
def load_lapack():
    """scipy's ``_flapack``, loaded from its file under its own name, so ``import scipy.linalg``
    reuses it; scipy.linalg.lapack if that is imported or the file does not load."""
    if "scipy.linalg" not in sys.modules:
        import scipy
        paths = [Path(scipy.__file__).parent / f"linalg/_flapack{s}" for s in machinery.EXTENSION_SUFFIXES]
        try:
            spec = util.spec_from_file_location("scipy.linalg._flapack", next(filter(Path.is_file, paths)))
            spec.loader.exec_module(module := util.module_from_spec(spec))
            return sys.modules.setdefault(spec.name, module)
        except (StopIteration, ImportError):
            pass
    from scipy.linalg import lapack
    return lapack


class FactorizationError(RuntimeError):
    """Cholesky failure: K + lambda*I is not numerically positive definite. ``pivot`` is the
    1-based index of the first non-positive pivot. Typically lambda is too small for this
    sigma; the caller may retry: the toolkit never inflates lambda silently."""

    def __init__(self, message: str, pivot: int):
        super().__init__(message)
        self.pivot = pivot


def factor_spd(K: np.ndarray, lam: float = 0.0) -> np.ndarray:
    """Lower-triangular Cholesky factor of K + lam*I; FactorizationError with the failing
    pivot when it is not positive definite (a sign that lam is too small for the bandwidth)."""
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
    _check_info(info, 0.0, "dpotrs")  # dpotrs reports no pivot
    return x

