"""Experiment harness: R^2 scoring, jackknife statistics, and n/lambda sweeps.

The harness draws each replicate's data and fold seed in the calling process,
from a SeedSequence rooted at (seed, replicate index), so a lambda-axis sweep
reuses the same data and folds at every axis value (paired comparisons); the
replicate then only selects, fits and scores. With ``threads > 1`` the
caller runs its share of one call's replicates and one process, forked where
the platform offers it, runs each other share: the same computation as in a
serial run, so the reports are identical.

Per-replicate selector or fit failures exclude that replicate for the failing
method only; exclusion counts are first-class output, never imputed.
"""

from __future__ import annotations

import math
import os
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import krr
from .bandwidth import DEFAULT_FOLDS, DEFAULT_GRID_MIN, DEFAULT_GRID_SIZE, METHODS, check_selects
from .bandwidth import select_bandwidth
from .data import Dataset, as_features, format_table, generate_synthetic
from .linalg import FactorizationError, check_lambda, load_lapack

AXIS_N = "n"
AXIS_LAMBDA = "lambda"


def _derived_seed(*parts: int) -> int:
    """Deterministic 64-bit sub-seed from integer parts (PCG64 SeedSequence)."""
    ss = np.random.SeedSequence([int(p) for p in parts])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def seeded_split(n: int, head: int, seed: int, stream: int, index: int):
    """Permute ``range(n)`` with the (seed, stream, index) sub-seed; return the
    first ``head`` indices sorted, and the rest in permutation order."""
    perm = np.random.default_rng(_derived_seed(seed, stream, index)).permutation(n)
    return np.sort(perm[:head]), perm[head:]


def r_squared(y_true, y_pred) -> float:
    """1 - sum((y - yhat)^2) / sum((y - ybar)^2); negative for models worse
    than predicting the mean. ``ybar`` is the mean of ``y_true`` over the
    evaluation set."""
    y_true = np.asarray(y_true, dtype=float).reshape(-1)
    y_pred = np.asarray(y_pred, dtype=float).reshape(-1)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"length mismatch: {y_true.shape[0]} vs {y_pred.shape[0]}")
    if y_true.shape[0] < 2:
        raise ValueError("need at least 2 observations")
    ss_tot = float(np.sum((y_true - y_true.mean()) ** 2))
    if ss_tot == 0.0:
        raise ValueError("y_true is constant: R^2 undefined")
    ss_res = float(np.sum((y_true - y_pred) ** 2))
    return 1.0 - ss_res / ss_tot


@dataclass(frozen=True)
class _Replicate:
    """One sweep or jackknife replicate: the training set, evaluation rows and
    fold seed the harness drew, and what to run on them (pickled to worker
    processes only where they are not forked). ``y_eval`` holds the test
    responses of a sweep, None for a jackknife."""

    train: Dataset
    X_eval: np.ndarray
    y_eval: np.ndarray | None
    lam: float
    fold_seed: int
    methods: tuple[str, ...]
    folds: int
    grid_size: int
    grid_min: float


def _run_replicate(task: _Replicate) -> dict:
    """{method: (sigma, R^2 against y_eval, or without y_eval the predictions at
    X_eval)}, with None for a method whose select, fit or score failed."""
    out, train, lam = {}, task.train, task.lam
    for m in task.methods:
        try:
            sigma = select_bandwidth(m, train, lam, folds=task.folds, grid_size=task.grid_size,
                                     grid_min=task.grid_min, seed=task.fold_seed).sigma
            pred = krr.predict(krr.fit(train, sigma, lam), task.X_eval)
            out[m] = (sigma, pred if task.y_eval is None else r_squared(task.y_eval, pred))
        except (ValueError, FactorizationError):
            out[m] = None
    return out


def _worker_count(threads: int, tasks: int, cpus: int) -> int:
    """Workers, the caller among them: ``threads``, capped at the tasks and CPUs."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    return min(threads, tasks, cpus)


def _run_stride(conn, tasks: list[_Replicate]) -> None:
    """A worker process's body: send its stride's results, or what it raised."""
    try:
        out = [_run_replicate(t) for t in tasks]
    except Exception as exc:
        out = exc
    conn.send(out)


def _map_replicates(tasks: list[_Replicate], threads: int) -> list[dict]:
    """Runner results in task order. With w workers the caller runs
    ``tasks[0::w]`` and each of w - 1 processes one stride ``tasks[k::w]``, so
    every worker gets the same mix of a sweep's axis points."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    w = _worker_count(threads, len(tasks), cpus or 1)
    if w == 1:
        return [_run_replicate(t) for t in tasks]
    import multiprocessing  # here so that serial runs and CLI start-up do not pay for it

    # fork starts a process in milliseconds, spawn in tenths of a second;
    # gkrr starts no threads of its own, and tasks pickle, so spawn works
    # where fork is not offered
    fork = "fork" in multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if fork else None)
    # a forked process inherits the caller's modules, so scipy is imported
    # once here rather than in every process of every call
    load_lapack()
    results, procs = [None] * len(tasks), []
    try:
        for k in range(1, w):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_run_stride, args=(send, tasks[k::w]))
            proc.start()
            send.close()  # the process holds the only write end: its exit reads as EOF
            procs.append((proc, recv))
        results[0::w] = [_run_replicate(t) for t in tasks[0::w]]
        for k, (proc, recv) in enumerate(procs, 1):
            try:
                out = recv.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(f"a replicate worker exited with code {proc.exitcode}") from None
            if isinstance(out, Exception):
                raise out
            results[k::w] = out
        return results
    finally:
        for proc, _ in procs:
            proc.terminate()  # a no-op on a process that has exited
            proc.join()


def _method_rows(results: list[dict], method: str) -> list:
    """``method``'s (sigma, value) rows from the replicates where it succeeded."""
    return [res[method] for res in results if res[method] is not None]


def _mean_sd(values: list, shape=()) -> tuple:
    """Mean and n-1 sd over replicates of values of ``shape``: sd 0 for one
    replicate, nan for none."""
    if not values:
        return np.full(shape, math.nan), np.full(shape, math.nan)
    a = np.array(values)
    return a.mean(axis=0), a.std(axis=0, ddof=1) if len(a) > 1 else np.zeros(shape)


@dataclass(frozen=True)
class JackknifeReport:
    """Leave-one-out means and spreads of predictions and bandwidths."""

    grid: np.ndarray  # m x p evaluation inputs
    methods: tuple[str, ...]
    mean_prediction: dict  # method -> length-m array
    sd_prediction: dict
    mean_sigma: dict
    sd_sigma: dict
    excluded: dict  # method -> replicates dropped after errors
    replicates: int


def run_jackknife(
    data: Dataset,
    lam: float,
    methods=METHODS,
    eval_grid: np.ndarray | None = None,
    folds: int = DEFAULT_FOLDS,
    grid_size: int = DEFAULT_GRID_SIZE,
    grid_min: float = DEFAULT_GRID_MIN,
    seed: int = 0,
    threads: int = 1,
) -> JackknifeReport:
    """Refit with each observation left out once; aggregate over the n fits.

    Every replicate selects a bandwidth per method, fits, and predicts on
    ``eval_grid`` (default: the training features). Standard deviations use
    the n-1 denominator over the replicates that succeeded.
    """
    lam = check_lambda(lam)
    methods = tuple(methods)
    check_selects(methods, data.n - 1, folds, grid_size, grid_min)
    eval_grid = as_features(data.features if eval_grid is None else eval_grid)
    if eval_grid.shape[1] != data.p:
        raise ValueError(f"eval_grid has {eval_grid.shape[1]} columns, data has {data.p}")
    results = _map_replicates(
        [_Replicate(data.subset(np.delete(np.arange(data.n), i)), eval_grid, None, lam,
                    _derived_seed(seed, 3, i), methods, folds, grid_size, grid_min)
         for i in range(data.n)],
        threads,
    )

    mean_pred, sd_pred, mean_sig, sd_sig, excl = {}, {}, {}, {}, {}
    for m in methods:
        rows = _method_rows(results, m)
        excl[m] = data.n - len(rows)
        mean_pred[m], sd_pred[m] = _mean_sd([r[1] for r in rows], eval_grid.shape[:1])
        mean_sig[m], sd_sig[m] = map(float, _mean_sd([r[0] for r in rows]))
    return JackknifeReport(
        grid=eval_grid,
        methods=methods,
        mean_prediction=mean_pred,
        sd_prediction=sd_pred,
        mean_sigma=mean_sig,
        sd_sigma=sd_sig,
        excluded=excl,
        replicates=data.n,
    )


def jackknife_to_csv(report: JackknifeReport) -> str:
    """Tidy CSV: one row per method x grid point.

    Columns: method, point, x0..x{p-1}, mean_prediction, sd_prediction,
    mean_sigma, sd_sigma, excluded, replicates. The per-method summary values
    repeat on each of that method's rows.
    """
    header = ["method", "point", *(f"x{j}" for j in range(report.grid.shape[1])),
              "mean_prediction", "sd_prediction", "mean_sigma", "sd_sigma",
              "excluded", "replicates"]
    rows = [
        [m, i, *x, report.mean_prediction[m][i], report.sd_prediction[m][i],
         report.mean_sigma[m], report.sd_sigma[m], report.excluded[m], report.replicates]
        for m in report.methods
        for i, x in enumerate(report.grid)
    ]
    return format_table(rows, header)


@dataclass(frozen=True)
class MethodStats:
    """Summary of one method at one axis point; fields in sweep-report column order."""

    mean_r2: float
    p05_r2: float
    p95_r2: float
    mean_sigma: float
    p05_sigma: float
    p95_sigma: float
    sd_sigma: float
    excluded: int


SWEEP_CSV_COLUMNS = ("axis", "axis_value", "method", *(f.name for f in fields(MethodStats)),
                     "repeats", "seed")


@dataclass(frozen=True)
class SweepPoint:
    axis_value: float
    stats: dict  # method -> MethodStats


@dataclass(frozen=True)
class SweepReport:
    """Per-axis-point, per-method R^2 and sigma summaries over repeats."""

    axis: str  # AXIS_N or AXIS_LAMBDA
    methods: tuple[str, ...]
    points: tuple[SweepPoint, ...]
    repeats: int
    seed: int


def _summarize(rows: list, repeats: int) -> MethodStats:
    """One method's stats from its successful (sigma, R^2) rows of ``repeats``."""
    excluded = repeats - len(rows)
    if not rows:
        nan = math.nan
        return MethodStats(nan, nan, nan, nan, nan, nan, nan, excluded)
    sg, r2 = [r[0] for r in rows], [r[1] for r in rows]
    mean_s, sd_s = _mean_sd(sg)
    p05_r2, p95_r2 = np.percentile(r2, [5.0, 95.0])  # type-7 linear interpolation
    p05_s, p95_s = np.percentile(sg, [5.0, 95.0])
    return MethodStats(
        mean_r2=float(np.mean(r2)),
        p05_r2=float(p05_r2),
        p95_r2=float(p95_r2),
        mean_sigma=float(mean_s),
        p05_sigma=float(p05_s),
        p95_sigma=float(p95_s),
        sd_sigma=float(sd_s),
        excluded=excluded,
    )


def run_sweep(
    axis: str,
    axis_values,
    data: Dataset | None = None,
    noise_sd: float = 0.1,
    fixed_n: int | None = None,
    fixed_lambda: float | None = None,
    repeats: int = 100,
    test_size=1000,
    methods=METHODS,
    folds: int = DEFAULT_FOLDS,
    grid_size: int = DEFAULT_GRID_SIZE,
    grid_min: float = DEFAULT_GRID_MIN,
    seed: int = 0,
    threads: int = 1,
) -> SweepReport:
    """Vary n at fixed lambda, or lambda at fixed n, over repeated splits.

    With ``data=None`` each replicate draws fresh synthetic training and test
    sets (``test_size`` must then be a count). With a Dataset, each replicate
    takes a random split: ``test_size`` observations held out (a float below
    1 is a fraction of the data, one of 1 or more a whole count), training
    sampled from the rest.

    Replicate seeds depend only on (seed, replicate), so a lambda sweep sees
    identical data and folds at every lambda.
    """
    if axis not in (AXIS_N, AXIS_LAMBDA):
        raise ValueError(f"axis must be {AXIS_N!r} or {AXIS_LAMBDA!r}, got {axis!r}")
    axis_values = [float(v) for v in axis_values]
    if not axis_values:
        raise ValueError("axis_values is empty")
    if repeats < 2:
        raise ValueError(f"repeats must be >= 2, got {repeats}")
    if axis == AXIS_N and fixed_lambda is None:
        raise ValueError("an n-axis sweep needs fixed_lambda")
    if axis == AXIS_LAMBDA and fixed_n is None:
        raise ValueError("a lambda-axis sweep needs fixed_n")
    if axis == AXIS_N and not all(v.is_integer() for v in axis_values):
        raise ValueError(f"n-axis values must be whole numbers, got {axis_values}")
    methods = tuple(methods)
    check_selects(methods, int(min(axis_values)) if axis == AXIS_N else int(fixed_n),
                  folds, grid_size, grid_min)

    fractional = isinstance(test_size, float) and test_size < 1.0
    if fractional and data is None:
        raise ValueError("fractional test_size needs a concrete dataset")
    if not fractional and not float(test_size).is_integer():
        raise ValueError(f"a test_size of 1 or more must be a whole row count, got {test_size}")
    test_count = max(1, round(test_size * data.n)) if fractional else int(test_size)
    if test_count < 2:
        raise ValueError(f"test set of {test_count} row(s): R^2 needs at least 2")
    tasks = []
    for v in axis_values:
        n_train = int(v) if axis == AXIS_N else int(fixed_n)
        lam = check_lambda(fixed_lambda if axis == AXIS_N else v)
        if data is not None and n_train + test_count > data.n:
            raise ValueError(
                f"cannot split {data.n} rows into train={n_train} plus test={test_count}"
            )
        for r in range(repeats):
            if data is None:
                train = generate_synthetic(n_train, noise_sd, _derived_seed(seed, 1, r))
                test = generate_synthetic(test_count, noise_sd, _derived_seed(seed, 2, r))
            else:
                test_rows, rest = seeded_split(data.n, test_count, seed, 4, r)
                train, test = data.subset(np.sort(rest[:n_train])), data.subset(test_rows)
            tasks.append(_Replicate(train, test.features, test.response, lam,
                                    _derived_seed(seed, 3, r), methods, folds, grid_size, grid_min))
    results = _map_replicates(tasks, threads)

    points = []
    for k, v in enumerate(axis_values):
        block = results[k * repeats : (k + 1) * repeats]
        points.append(SweepPoint(v, {m: _summarize(_method_rows(block, m), repeats) for m in methods}))
    return SweepReport(
        axis=axis, methods=methods, points=tuple(points), repeats=repeats, seed=seed
    )


def sweep_to_csv(report: SweepReport) -> str:
    """Tidy CSV, one row per axis point x method, fixed column order."""
    rows = [
        [report.axis, pt.axis_value, m, *astuple(pt.stats[m]), report.repeats, report.seed]
        for pt in report.points
        for m in report.methods
    ]
    return format_table(rows, SWEEP_CSV_COLUMNS)

