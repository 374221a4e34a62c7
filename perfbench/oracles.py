"""Output oracles, independent of the gkrr code they check.

Each check returns a list of error strings (empty when the output is right).
They use only numpy and scipy: the Jacobian bandwidth comes from the paper's
closed form with ``scipy.special.lambertw``; kernels are built from
``scipy.spatial.distance.cdist``; systems are solved with
``scipy.linalg.cho_factor``. Replicate inputs of a sweep are rebuilt from the
documented seeding contract (PCG64 streams rooted at ``SeedSequence``
``[seed, stream, replicate]``; x drawn before the noise; folds cut from one
permutation), not by calling gkrr.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.spatial.distance import cdist, pdist
from scipy.special import lambertw

SIGMA_RTOL = 1e-10
# R^2 of the Jacobian fit, relative to max(1, |R^2|). It is checked only for
# lambda > 0: with lambda = 0 the fit interpolates, and two equally valid
# Cholesky solves give R^2 values (down to -1e8) that differ in any digit.
R2_RTOL = 1e-8
# Relative tolerance on a CV loss: the chosen sigma may tie the oracle minimum
# up to rounding differences between the two solvers.
CV_LOSS_RTOL = 1e-6
# Ridge residual and predictions are compared with the oracle's kernel
# expansion sum_i alpha_i k(x, x_i). gkrr expands squared distances as
# |a|^2 + |b|^2 - 2 a.b, which loses about eps * max|x|^2 per entry, so the
# tolerance is KERNEL_RTOL * sum|alpha| plus DIST_ULPS such roundings of d^2
# propagated through the kernel slope 1 / (2 sigma^2) and summed like noise.
KERNEL_RTOL = 1e-12
DIST_ULPS = 64

def _sub_seed(*parts: int) -> int:
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1, dtype=np.uint64)[0])


def synthetic(n: int, noise_sd: float, seed: int):
    """x ~ U[-5, 5], y = sin(2 pi x) + N(0, noise_sd^2) from one PCG64 stream."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-5.0, 5.0, size=n)
    eps = rng.normal(0.0, noise_sd, size=n) if noise_sd > 0 else np.zeros(n)
    return x.reshape(n, 1), np.sin(2.0 * np.pi * x) + eps


def kfold(n: int, k: int, seed: int):
    """(train, test) index pairs of k folds cut in order from one permutation."""
    perm = np.random.default_rng(seed).permutation(n)
    base, extra = divmod(n, k)
    folds, start = [], 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        test = np.sort(perm[start:start + size])
        train = np.sort(np.concatenate([perm[:start], perm[start + size:]]))
        folds.append((train, test))
        start += size
    return folds


def diameter(X: np.ndarray) -> float:
    X = np.asarray(X, dtype=float)
    if X.shape[1] == 1:
        return float(X.max() - X.min())
    return float(np.sqrt(pdist(X, "sqeuclidean").max()))


def jacobian_sigma(X: np.ndarray, lam: float) -> float:
    """sigma_0 = sqrt(2)/pi * l_max / ((n-1)^(1/p) - 1) * sqrt(1 - 2 W_0(-lam sqrt(e) / 2n)),
    with lambda clamped to the threshold 2 n e^(-3/2), where W_0 = -1."""
    n, p = X.shape
    thr = 2.0 * n * math.exp(-1.5)
    w = -1.0 if lam >= thr else float(lambertw(-lam * math.sqrt(math.e) / (2.0 * n), 0).real)
    spread = (n - 1) ** (1.0 / p) - 1.0
    return math.sqrt(2.0) / math.pi * diameter(X) / spread * math.sqrt(1.0 - 2.0 * w)


def gauss(A: np.ndarray, B: np.ndarray, sigma: float) -> np.ndarray:
    return np.exp(-cdist(A, B, "sqeuclidean") / (2.0 * sigma * sigma))


def ridge_alpha(X, y, sigma, lam):
    """Dual coefficients, or None when K + lam*I does not factor."""
    K = gauss(X, X, sigma)
    K[np.diag_indices_from(K)] += lam
    try:
        return cho_solve(cho_factor(K, lower=True), y)
    except LinAlgError:
        return None


def read_model(path) -> dict:
    """Parse the tagged-CSV model file (#meta, #train_features, #alpha)."""
    lines = open(path, encoding="utf-8").read().splitlines()
    n, p = (int(v) for v in lines[1].split(",")[:2])
    sigma, lam = (float(v) for v in lines[1].split(",")[2:])
    X = np.array([[float(v) for v in ln.split(",")] for ln in lines[3:3 + n]]).reshape(n, p)
    alpha = np.array([float(v) for v in lines[4 + n:4 + 2 * n]])
    return {"sigma": sigma, "lam": lam, "X": X, "alpha": alpha}


def r_squared(y, pred) -> float:
    return 1.0 - float(np.sum((y - pred) ** 2)) / float(np.sum((y - y.mean()) ** 2))


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


# -- sweep -----------------------------------------------------------------


def cv_curve(X, y, lam, grid, folds):
    """Mean validation MSE per sigma; +inf where any fold fails to factor."""
    D = cdist(X, X, "sqeuclidean")
    blocks = [(D[np.ix_(tr, tr)], D[np.ix_(te, tr)], y[tr], y[te]) for tr, te in folds]
    eye = [np.eye(len(b[2])) for b in blocks]
    losses = np.empty(len(grid))
    for gi, s in enumerate(grid):
        c = 2.0 * s * s
        total = 0.0
        for (d_tr, d_te, y_tr, y_te), I in zip(blocks, eye):
            try:
                alpha = cho_solve(cho_factor(np.exp(-d_tr / c) + lam * I, lower=True), y_tr)
            except LinAlgError:
                total = math.inf
                break
            total += float(np.mean((y_te - np.exp(-d_te / c) @ alpha) ** 2))
        losses[gi] = total / len(blocks)
    return losses


def _pair_from_percentiles(st) -> tuple[float, float]:
    """The two replicate sigmas behind (p05, p95) of a 2-replicate summary."""
    width = (st.p95_sigma - st.p05_sigma) / 0.9
    return st.p05_sigma - 0.05 * width, st.p95_sigma + 0.05 * width


def _grid_index(grid, sigma):
    i = int(np.argmin(np.abs(np.log(grid) - math.log(sigma))))
    return i if close(grid[i], sigma, 1e-9) else None


def check_sweep(report, kw: dict, seed: int, cv_point: int | None) -> list[str]:
    """Check a ``run_sweep`` report against per-replicate oracles.

    Every axis point: the Jacobian sigma and R^2 of each replicate, through
    the report's mean. At ``cv_point``: for each CV method, the two chosen
    sigmas (recovered from the 2-replicate percentiles) must each have an
    oracle loss within tolerance of the oracle minimum of a replicate.
    """
    errors = []
    repeats = kw["repeats"]
    methods = kw["methods"]
    noise_sd = 0.1
    folds, grid_size = kw["folds"], kw["grid_size"]
    for pi, pt in enumerate(report.points):
        if kw["axis"] == "n":
            n_train, lam = int(pt.axis_value), kw["fixed_lambda"]
        else:
            n_train, lam = kw["fixed_n"], pt.axis_value
        reps = []
        for r in range(repeats):
            X, y = synthetic(n_train, noise_sd, _sub_seed(seed, 1, r))
            Xt, yt = synthetic(kw["test_size"], noise_sd, _sub_seed(seed, 2, r))
            reps.append((X, y, Xt, yt, _sub_seed(seed, 3, r)))
        where = f"{kw['axis']}={pt.axis_value:g}"
        st = pt.stats.get("jacobian")
        if st is not None and st.excluded == 0:
            sigmas, r2s = [], []
            for X, y, Xt, yt, _ in reps:
                s = jacobian_sigma(X, lam)
                sigmas.append(s)
                if lam > 0:
                    alpha = ridge_alpha(X, y, s, lam)
                    r2s.append(math.nan if alpha is None else r_squared(yt, gauss(Xt, X, s) @ alpha))
            if not close(st.mean_sigma, float(np.mean(sigmas)), SIGMA_RTOL):
                errors.append(f"{where}: jacobian mean_sigma {st.mean_sigma!r} != oracle {np.mean(sigmas)!r}")
            if lam > 0 and not abs(st.mean_r2 - float(np.mean(r2s))) <= R2_RTOL * max(1.0, abs(st.mean_r2)):
                errors.append(f"{where}: jacobian mean_r2 {st.mean_r2!r} != oracle {np.mean(r2s)!r}")
        if pi != cv_point or repeats != 2:
            continue
        for m in ("cv", "seeded-cv"):
            st = pt.stats.get(m)
            if m not in methods or st is None or st.excluded:
                continue
            ok = []  # ok[r][j]: chosen sigma j is an oracle optimum of replicate r
            for X, y, _, _, fold_seed in reps:
                if m == "cv":
                    l_max = diameter(X)
                    grid = np.sort(np.geomspace(min(0.01, l_max), max(0.01, l_max), grid_size))
                else:
                    s0 = jacobian_sigma(X, lam)
                    grid = np.geomspace(s0 / 5.0, 5.0 * s0, grid_size)
                losses = cv_curve(X, y, lam, grid, kfold(n_train, folds, fold_seed))
                best = float(np.min(losses))
                row = []
                for chosen in _pair_from_percentiles(st):
                    gi = _grid_index(grid, chosen)
                    row.append(gi is not None and math.isfinite(best)
                               and losses[gi] <= best + CV_LOSS_RTOL * abs(best))
                ok.append(row)
            if not ((ok[0][0] and ok[1][1]) or (ok[0][1] and ok[1][0])):
                errors.append(f"{where}: {m} sigmas {_pair_from_percentiles(st)} are not oracle CV minima")
    return errors


# -- fit / predict -----------------------------------------------------------


def expansion_tol(alpha, sigma, *blocks) -> float:
    r2 = max(float(np.max(np.einsum("ij,ij->i", B, B))) for B in blocks)
    eps = np.finfo(float).eps
    return (KERNEL_RTOL * float(np.abs(alpha).sum())
            + DIST_ULPS * eps * r2 / (2.0 * sigma * sigma) * float(np.linalg.norm(alpha)))


def check_fit_predict(X, y, lam, sigma, alpha, Q, pred, rows) -> list[str]:
    """Closed-form sigma, ridge residual and predictions on sampled rows."""
    errors = []
    want = jacobian_sigma(X, lam)
    if not close(sigma, want, SIGMA_RTOL):
        errors.append(f"sigma {sigma!r} != closed form {want!r}")
    alpha = np.asarray(alpha, dtype=float)
    blocks = (X,) if Q is None else (X, Q)
    tol = expansion_tol(alpha, sigma, *blocks)
    resid = gauss(X[rows], X, sigma) @ alpha + lam * alpha[rows] - y[rows]
    if not float(np.max(np.abs(resid))) <= tol:
        errors.append(f"ridge residual {np.max(np.abs(resid)):.3e} above tolerance {tol:.3e}")
    if Q is not None:
        q_rows = rows[rows < len(Q)]
        err = float(np.max(np.abs(np.asarray(pred)[q_rows] - gauss(Q[q_rows], X, sigma) @ alpha)))
        if not err <= tol:
            errors.append(f"prediction error {err:.3e} above tolerance {tol:.3e}")
    return errors
