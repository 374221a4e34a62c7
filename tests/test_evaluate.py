import inspect
import math
import multiprocessing
import os
import pickle
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from gkrr import evaluate, krr
from gkrr.bandwidth import select_bandwidth
from gkrr.data import Dataset, generate_synthetic
from gkrr.evaluate import (
    AXIS_LAMBDA,
    AXIS_N,
    _derived_seed,
    _mean_sd,
    _run_replicate,
    _worker_count,
    jackknife_to_csv,
    r_squared,
    run_jackknife,
    run_sweep,
    sweep_to_csv,
)


class TestRSquared:
    def test_perfect_prediction(self):
        y = np.array([0.3, -1.2, 4.0])
        assert r_squared(y, y) == 1.0

    def test_mean_prediction_scores_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r_squared(y, np.full(3, 2.0)) == 0.0

    def test_hand_computed_negative(self):
        # 1 - (0 + 1 + 4) / 2 = -1.5
        assert r_squared([0.0, 1.0, 2.0], [0.0, 0.0, 0.0]) == -1.5

    def test_constant_targets_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            r_squared([1.0, 1.0], [0.0, 2.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            r_squared([1.0, 2.0], [1.0])

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            r_squared([1.0], [1.0])


CV_FLAG_ERRORS = [
    (dict(folds=1), "need at least 2 folds, got 1"),
    (dict(grid_size=0), "grid size must be >= 1, got 0"),
    (dict(grid_min=0.0), "grid bounds must be positive"),
    (dict(grid_min=-1.0), "grid bounds must be positive"),
    (dict(grid_min=math.nan), "grid bounds must be positive"),
    (dict(grid_min=math.inf), "sigma must be finite"),
    (dict(grid_min=1e-300), "underflows"),
]


class TestRunJackknife:
    def test_minimal_n4(self):
        data = generate_synthetic(4, 0.1, seed=0)
        report = run_jackknife(data, 1e-3, methods=("jacobian",))
        assert report.replicates == 4
        assert report.excluded["jacobian"] == 0
        assert report.mean_prediction["jacobian"].shape == (4,)

    def test_symmetric_duplicated_data_zero_spread(self):
        # four corners of a square with constant response: every leave-one-out
        # training set is congruent, so predictions at the center and the
        # selected bandwidths coincide across replicates
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.full(4, 2.0)
        center = np.array([[0.5, 0.5]])
        report = run_jackknife(
            Dataset(X, y), 1e-3, methods=("jacobian", "silverman"), eval_grid=center
        )
        for m in ("jacobian", "silverman"):
            assert report.sd_sigma[m] <= 1e-13
            assert report.sd_prediction[m][0] <= 1e-12

    def test_stability_direction_jacobian_vs_cv(self):
        # bandwidth spread under leave-one-out: the closed form moves only
        # when the data diameter moves; CV re-picks from its grid
        data = generate_synthetic(40, 0.1, seed=12)
        report = run_jackknife(data, 1e-3, methods=("jacobian", "cv"),
                               eval_grid=np.zeros((1, 1)))
        assert report.sd_sigma["jacobian"] < report.sd_sigma["cv"]

    def test_exclusions_recorded(self):
        # every leave-one-out set has identical rows, so l_max = 0
        data = Dataset(np.zeros((4, 1)), np.arange(4.0))
        report = run_jackknife(data, 1e-3, methods=("jacobian",))
        assert report.excluded["jacobian"] == 4
        assert math.isnan(report.mean_sigma["jacobian"])

    def test_training_size_below_jacobian_minimum_raises(self):
        # n=3: every leave-one-out set has 2 rows, known before any replicate runs
        with pytest.raises(ValueError, match="Jacobian selection needs n >= 3, got 2"):
            run_jackknife(generate_synthetic(3, 0.1, seed=1), 1e-3, methods=("jacobian",))

    def test_n_below_three_rejected(self):
        with pytest.raises(ValueError):
            run_jackknife(generate_synthetic(2, 0.1, seed=0), 1e-3)

    def test_csv_layout(self):
        data = generate_synthetic(5, 0.1, seed=2)
        report = run_jackknife(data, 1e-3, methods=("jacobian",),
                               eval_grid=np.array([[0.0], [1.0]]))
        lines = jackknife_to_csv(report).strip().split("\n")
        assert lines[0] == (
            "method,point,x0,mean_prediction,sd_prediction,"
            "mean_sigma,sd_sigma,excluded,replicates"
        )
        assert len(lines) == 3  # header + 2 grid points x 1 method

    def test_csv_layout_multidim(self):
        rng = np.random.default_rng(20)
        data = Dataset(rng.uniform(0, 1, size=(6, 2)), rng.normal(size=6))
        report = run_jackknife(data, 1e-3, methods=("silverman",))
        lines = jackknife_to_csv(report).strip().split("\n")
        assert lines[0].startswith("method,point,x0,x1,mean_prediction")
        assert len(lines) == 1 + 6  # eval grid defaults to the training rows

    def test_eval_grid_column_mismatch_rejected(self):
        data = generate_synthetic(6, 0.1, seed=3)
        with pytest.raises(ValueError, match="columns"):
            run_jackknife(data, 1e-3, methods=("jacobian",), eval_grid=np.zeros((2, 2)))

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(ValueError, match="threads"):
            run_jackknife(generate_synthetic(6, 0.1, seed=3), 1e-3,
                          methods=("jacobian",), threads=threads)

    @pytest.mark.parametrize("lam", [-1.0, math.inf, math.nan])
    def test_invalid_lambda_raises(self, lam):
        # raised before any replicate runs, not turned into n exclusions
        with pytest.raises(ValueError, match="lambda must be finite and >= 0"):
            run_jackknife(generate_synthetic(6, 0.1, seed=3), lam, methods=("jacobian",))

    @pytest.mark.parametrize("kw, match", CV_FLAG_ERRORS)
    def test_invalid_cv_settings_raise(self, kw, match):
        # raised before any replicate runs, not turned into n exclusions
        with pytest.raises(ValueError, match=match):
            run_jackknife(generate_synthetic(6, 0.1, seed=3), 1e-3, methods=("jacobian", "cv"), **kw)

    def test_training_size_below_folds_raises(self):
        # each replicate trains on n - 1 = 5 rows
        data = generate_synthetic(6, 0.1, seed=3)
        with pytest.raises(ValueError, match="n=5 smaller than fold count 6"):
            run_jackknife(data, 1e-3, methods=("jacobian", "seeded-cv"), folds=6)
        report = run_jackknife(data, 1e-3, methods=("jacobian", "cv"), folds=5, grid_size=4)
        assert report.excluded == {"jacobian": 0, "cv": 0}

    def test_cv_settings_checked_before_row_minimums(self):
        # n=3: 2 training rows break both jacobian's minimum and the fold count
        with pytest.raises(ValueError, match="n=2 smaller than fold count 10"):
            run_jackknife(generate_synthetic(3, 0.1, seed=1), 1e-3, methods=("jacobian", "cv"),
                          folds=10)

    def test_threads_identical(self):
        data = generate_synthetic(8, 0.1, seed=3)
        a = run_jackknife(data, 1e-3, methods=("jacobian", "silverman"), threads=1)
        b = run_jackknife(data, 1e-3, methods=("jacobian", "silverman"), threads=4)
        assert jackknife_to_csv(a) == jackknife_to_csv(b)


def sequential_sweep_oracle(axis_value, repeats, seed, lam, methods, noise_sd=0.1,
                            test_size=50, folds=5, grid_size=20, grid_min=0.01):
    """Straight-line reference: the documented per-replicate seed derivation,
    then select -> fit -> score for each method in order."""
    per_method = {m: [] for m in methods}
    for r in range(repeats):
        train_seed = int(np.random.SeedSequence([seed, 1, r]).generate_state(1, dtype=np.uint64)[0])
        test_seed = int(np.random.SeedSequence([seed, 2, r]).generate_state(1, dtype=np.uint64)[0])
        fold_seed = int(np.random.SeedSequence([seed, 3, r]).generate_state(1, dtype=np.uint64)[0])
        train = generate_synthetic(axis_value, noise_sd, train_seed)
        test = generate_synthetic(test_size, noise_sd, test_seed)
        for m in methods:
            res = select_bandwidth(m, train, lam, folds=folds, grid_size=grid_size,
                                   grid_min=grid_min, seed=fold_seed)
            model = krr.fit(train, res.sigma, lam)
            pred = krr.predict(model, test.features)
            ss_tot = float(np.sum((test.response - test.response.mean()) ** 2))
            r2 = 1.0 - float(np.sum((test.response - pred) ** 2)) / ss_tot
            per_method[m].append((res.sigma, r2))
    out = {}
    for m in methods:
        sig = np.array([s for s, _ in per_method[m]])
        r2 = np.array([v for _, v in per_method[m]])
        out[m] = (
            float(r2.mean()), *map(float, np.percentile(r2, [5, 95])),
            float(sig.mean()), *map(float, np.percentile(sig, [5, 95])),
            float(sig.std(ddof=1)),
        )
    return out


class TestRunSweep:
    def test_matches_sequential_reference(self):
        methods = ("jacobian", "cv")
        report = run_sweep(
            AXIS_N, [20], fixed_lambda=1e-3, repeats=3, test_size=50,
            methods=methods, folds=5, grid_size=20, seed=4,
        )
        oracle = sequential_sweep_oracle(20, 3, 4, 1e-3, methods)
        stats = report.points[0].stats
        for m in methods:
            got = (
                stats[m].mean_r2, stats[m].p05_r2, stats[m].p95_r2,
                stats[m].mean_sigma, stats[m].p05_sigma, stats[m].p95_sigma,
                stats[m].sd_sigma,
            )
            assert got == oracle[m]

    def test_deterministic_same_seed(self):
        kw = dict(fixed_lambda=1e-3, repeats=3, test_size=30,
                  methods=("jacobian",), seed=7)
        a = run_sweep(AXIS_N, [10, 15], **kw)
        b = run_sweep(AXIS_N, [10, 15], **kw)
        assert sweep_to_csv(a) == sweep_to_csv(b)

    def test_threads_identical(self):
        kw = dict(fixed_lambda=1e-3, repeats=6, test_size=30,
                  methods=("jacobian", "silverman"), seed=8)
        a = run_sweep(AXIS_N, [12], threads=1, **kw)
        b = run_sweep(AXIS_N, [12], threads=8, **kw)
        assert sweep_to_csv(a) == sweep_to_csv(b)

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(ValueError, match="threads"):
            run_sweep(AXIS_N, [10], fixed_lambda=1e-3, repeats=2, test_size=20,
                      methods=("jacobian",), threads=threads)

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="workers see the parent's monkeypatch only when forked")
    def test_worker_exception_reaches_caller(self, monkeypatch):
        # an error the runner does not turn into an exclusion must surface
        # from the pool instead of hanging it
        def boom(*args, **kwargs):
            raise RuntimeError("boom in a replicate")

        monkeypatch.setattr("gkrr.evaluate.select_bandwidth", boom)
        caught = []

        def call():
            try:
                run_sweep(AXIS_N, [10, 12], fixed_lambda=1e-3, repeats=4, test_size=20,
                          methods=("jacobian",), threads=2)
            except RuntimeError as exc:
                caught.append(exc)

        worker = threading.Thread(target=call, daemon=True)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert len(caught) == 1 and "boom in a replicate" in str(caught[0])

    def test_percentile_convention_two_repeats(self):
        # type-7 linear interpolation between the two order statistics
        report = run_sweep(AXIS_N, [15], fixed_lambda=1e-3, repeats=2,
                           test_size=30, methods=("jacobian",), seed=9)
        s = report.points[0].stats["jacobian"]
        lo, hi = sorted([s.p05_sigma, s.p95_sigma])
        assert s.p05_sigma <= s.mean_sigma <= s.p95_sigma or lo == hi

    def test_lambda_axis_pairing_and_clamp(self):
        # replicate seeds ignore the axis value, so the training data is
        # shared across lambdas: above the threshold the clamped bandwidth
        # is bitwise constant, below it strictly increases
        from gkrr.bandwidth import lambda_threshold

        n = 12
        thr = lambda_threshold(n)
        lams = [0.1 * thr, 0.5 * thr, 0.99 * thr, 1.5 * thr, 10 * thr]
        report = run_sweep(AXIS_LAMBDA, lams, fixed_n=n, repeats=3, test_size=30,
                           methods=("jacobian",), seed=10)
        sig = [pt.stats["jacobian"].mean_sigma for pt in report.points]
        assert sig[0] < sig[1] < sig[2]
        assert sig[3] == sig[4]
        assert sig[2] < sig[3]

    def test_bandwidth_spread_direction_small_n(self):
        # resampled synthetic splits: the closed form's bandwidth spread
        # stays far below CV's
        report = run_sweep(AXIS_N, [25], fixed_lambda=1e-3, repeats=20,
                           test_size=200, methods=("jacobian", "cv"),
                           folds=5, grid_size=50, seed=14)
        s = report.points[0].stats
        assert s["jacobian"].sd_sigma < s["cv"].sd_sigma

    def test_dataset_split_mode(self):
        data = generate_synthetic(30, 0.1, seed=11)
        report = run_sweep(AXIS_N, [10], data=data, fixed_lambda=1e-3, repeats=4,
                           test_size=0.3, methods=("jacobian",), seed=11)
        s = report.points[0].stats["jacobian"]
        assert s.excluded == 0
        assert math.isfinite(s.mean_r2)

    def test_method_fully_excluded_reports_nan(self):
        # at lambda=0 a CV grid that starts at half the diameter leaves every
        # training fold's kernel singular: every replicate fails for that
        # method while the others proceed
        report = run_sweep(AXIS_N, [40], fixed_lambda=0.0, repeats=3, test_size=20,
                           methods=("jacobian", "cv"), folds=10, grid_min=5.0, grid_size=5,
                           seed=15)
        s = report.points[0].stats
        assert s["cv"].excluded == 3
        assert math.isnan(s["cv"].mean_r2)
        assert s["jacobian"].excluded == 0

    def test_split_too_large_rejected(self):
        data = generate_synthetic(20, 0.1, seed=12)
        with pytest.raises(ValueError, match="cannot split"):
            run_sweep(AXIS_N, [18], data=data, fixed_lambda=1e-3, repeats=2,
                      test_size=5, methods=("jacobian",), seed=0)

    def test_validation(self):
        with pytest.raises(ValueError, match="axis"):
            run_sweep("bogus", [1], fixed_lambda=0.0)
        with pytest.raises(ValueError, match="fixed_lambda"):
            run_sweep(AXIS_N, [10])
        with pytest.raises(ValueError, match="fixed_n"):
            run_sweep(AXIS_LAMBDA, [0.1])
        with pytest.raises(ValueError, match="repeats"):
            run_sweep(AXIS_N, [10], fixed_lambda=0.0, repeats=1)

    @pytest.mark.parametrize("axis, values, kw", [
        (AXIS_N, [10, 12], dict(fixed_lambda=-1.0)),
        (AXIS_N, [10], dict(fixed_lambda=math.inf)),
        (AXIS_LAMBDA, [1e-3, math.nan], dict(fixed_n=10)),
        (AXIS_LAMBDA, [-0.5, 1e-3], dict(fixed_n=10, fixed_lambda=1e-3)),
    ])
    def test_invalid_lambda_raises(self, axis, values, kw):
        # raised before any replicate runs, not turned into all-nan rows
        with pytest.raises(ValueError, match="lambda must be finite and >= 0"):
            run_sweep(axis, values, repeats=2, test_size=20, methods=("jacobian",), **kw)

    @pytest.mark.parametrize("kw, match", CV_FLAG_ERRORS)
    def test_invalid_cv_settings_raise(self, kw, match):
        # raised before any replicate runs, not turned into all-nan rows
        with pytest.raises(ValueError, match=match):
            run_sweep(AXIS_N, [10], fixed_lambda=1e-3, repeats=2, test_size=20,
                      methods=("jacobian", "cv"), **kw)

    @pytest.mark.parametrize("axis, values, kw", [
        (AXIS_N, [12, 5], dict(fixed_lambda=1e-3)),
        (AXIS_LAMBDA, [1e-3, 1.0], dict(fixed_n=5)),
    ])
    @pytest.mark.parametrize("method", ["cv", "seeded-cv"])
    def test_training_size_below_folds_raises(self, axis, values, kw, method):
        # the smallest training size decides, before any replicate runs
        with pytest.raises(ValueError, match="n=5 smaller than fold count 10"):
            run_sweep(axis, values, repeats=2, test_size=20, methods=("jacobian", method),
                      folds=10, grid_size=5, **kw)

    def test_cv_settings_checked_before_row_minimums(self):
        # 2 training rows break both jacobian's minimum and the fold count
        with pytest.raises(ValueError, match="n=2 smaller than fold count 10"):
            run_sweep(AXIS_N, [12, 2], fixed_lambda=1e-3, repeats=2, test_size=20,
                      methods=("jacobian", "cv"), folds=10)

    @pytest.mark.parametrize("data, test_size", [
        (None, 1), (generate_synthetic(50, 0.1, seed=4), 0.01),
    ], ids=["count", "fraction"])
    def test_test_set_below_two_rows_raises(self, data, test_size):
        # R^2 needs 2 test rows: raised before any replicate runs, not turned
        # into all-nan rows
        with pytest.raises(ValueError, match=r"test set of 1 row\(s\)"):
            run_sweep(AXIS_N, [10], data=data, fixed_lambda=1e-3, repeats=2,
                      test_size=test_size, methods=("jacobian", "silverman"))

    @pytest.mark.parametrize("kw", [dict(folds=1), dict(grid_size=0), dict(grid_min=math.nan),
                                    dict(folds=20)])
    def test_cv_settings_unchecked_without_cv(self, kw):
        report = run_sweep(AXIS_N, [10], fixed_lambda=1e-3, repeats=2, test_size=20,
                           methods=("jacobian",), **kw)
        assert report.points[0].stats["jacobian"].excluded == 0

    def test_seeded_cv_ignores_grid_min(self):
        report = run_sweep(AXIS_N, [10], fixed_lambda=1e-3, repeats=2, test_size=20,
                           methods=("seeded-cv",), folds=2, grid_size=4, grid_min=0.0)
        assert report.points[0].stats["seeded-cv"].excluded == 0

    @pytest.mark.parametrize("value", [10.5, math.inf, math.nan])
    def test_non_whole_n_rejected(self, value):
        with pytest.raises(ValueError, match="whole numbers"):
            run_sweep(AXIS_N, [12, value], fixed_lambda=1e-3, repeats=2, test_size=20,
                      methods=("jacobian",))

    @pytest.mark.parametrize("data", [None, generate_synthetic(200, 0.1, seed=4)],
                             ids=["synthetic", "split"])
    def test_non_whole_test_count_rejected(self, data):
        # 20.7 was read as 20 test rows; the CLI's --test-size rejects it too
        with pytest.raises(ValueError, match="whole row count, got 20.7"):
            run_sweep(AXIS_N, [10], data=data, fixed_lambda=1e-3, repeats=2,
                      test_size=20.7, methods=("jacobian",))

    def test_whole_float_test_count_accepted(self):
        kw = dict(fixed_lambda=1e-3, repeats=2, methods=("jacobian",), seed=5)
        assert (sweep_to_csv(run_sweep(AXIS_N, [10], test_size=1000.0, **kw))
                == sweep_to_csv(run_sweep(AXIS_N, [10], test_size=1000, **kw)))

    def test_lambda_axis_ignores_fixed_lambda(self):
        kw = dict(fixed_n=10, repeats=2, test_size=20, methods=("jacobian",), seed=3)
        a = run_sweep(AXIS_LAMBDA, [1e-3], **kw)
        b = run_sweep(AXIS_LAMBDA, [1e-3], fixed_lambda=-1.0, **kw)
        assert sweep_to_csv(a) == sweep_to_csv(b)


def captured_tasks(monkeypatch, run, *args, **kw) -> list:
    """The tasks ``run`` hands to the replicate runner, which then runs none of
    them and reports every method excluded."""
    tasks = []

    def capture(batch, threads):
        tasks.extend(batch)
        return [dict.fromkeys(t.methods) for t in batch]

    monkeypatch.setattr(evaluate, "_map_replicates", capture)
    run(*args, **kw)
    return tasks


class TestReplicateRunner:
    @pytest.mark.parametrize("kind", ["synthetic", "split", "jackknife"])
    def test_task_pickles_and_reruns_identically(self, monkeypatch, kind):
        data = generate_synthetic(20, 0.1, seed=16)
        kw = dict(methods=("jacobian", "cv", "silverman"), folds=4, grid_size=15,
                  grid_min=0.01, seed=17)
        if kind == "jackknife":
            tasks = captured_tasks(monkeypatch, run_jackknife, data, 1e-3,
                                   eval_grid=np.linspace(-4, 4, 7).reshape(-1, 1), **kw)
        else:
            tasks = captured_tasks(monkeypatch, run_sweep, AXIS_N, [12], fixed_lambda=1e-3,
                                   repeats=2, data=data if kind == "split" else None,
                                   test_size=5 if kind == "split" else 30, **kw)
        task = tasks[1]
        copy = pickle.loads(pickle.dumps(task))
        a, b = _run_replicate(task), _run_replicate(copy)
        assert list(a) == list(b) == ["jacobian", "cv", "silverman"]
        for m in a:
            assert a[m] is not None
            assert a[m][0] == b[m][0]
            np.testing.assert_array_equal(a[m][1], b[m][1])

    def test_split_task_carries_only_its_rows(self, monkeypatch):
        data = generate_synthetic(60, 0.1, seed=16)
        tasks = captured_tasks(monkeypatch, run_sweep, AXIS_N, [12, 20], data=data,
                               fixed_lambda=1e-3, repeats=3, test_size=0.25,
                               methods=("jacobian",))
        assert [t.train.n for t in tasks] == [12] * 3 + [20] * 3
        rows = set(data.features[:, 0])
        for t in tasks:
            assert t.X_eval.shape == (15, 1) and t.y_eval.shape == (15,)
            train, held = set(t.train.features[:, 0]), set(t.X_eval[:, 0])
            assert train <= rows and held <= rows and not train & held

    @pytest.mark.parametrize("threads,tasks,cpus,expect", [
        (1, 200, 2, 1), (2, 200, 2, 2), (64, 200, 2, 2), (8, 3, 16, 3), (4, 200, 16, 4),
    ])
    def test_worker_count(self, threads, tasks, cpus, expect):
        assert _worker_count(threads, tasks, cpus) == expect

    def test_worker_count_rejects_below_one(self):
        with pytest.raises(ValueError, match="threads"):
            _worker_count(0, 10, 2)


def call_within(seconds, fn, *args, **kw):
    """``fn``'s result, or the exception it raised, failing the test if it
    runs longer than ``seconds``."""
    out = []

    def call():
        try:
            out.append(fn(*args, **kw))
        except Exception as exc:
            out.append(exc)

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=seconds)
    assert not caller.is_alive(), f"no return within {seconds} s"
    return out[0]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="worker processes see the caller's monkeypatch only when forked")
class TestWorkerProcesses:
    """With w workers the caller runs ``tasks[0::w]``; each of w - 1 forked
    processes runs one stride ``tasks[k::w]`` and sends back its results."""

    @pytest.fixture(autouse=True)
    def no_cpu_cap(self, monkeypatch):
        # w = threads, so three strides run even on a 2-CPU host
        monkeypatch.setattr(evaluate, "_worker_count", lambda threads, tasks, cpus: min(threads, tasks))

    def in_workers(self, monkeypatch, replicate):
        """Run ``replicate`` on task t in a forked process, t squared in the caller."""
        caller = os.getpid()
        monkeypatch.setattr(evaluate, "_run_replicate",
                            lambda t: t * t if os.getpid() == caller else replicate(t))

    @pytest.mark.parametrize("threads", [2, 3, 4])
    def test_results_in_task_order(self, monkeypatch, threads):
        monkeypatch.setattr(evaluate, "_run_replicate", lambda t: t * t)
        assert evaluate._map_replicates(list(range(11)), threads) == [t * t for t in range(11)]
        assert multiprocessing.active_children() == []

    def test_stride_exception_reaches_caller(self, monkeypatch):
        def boom(t):
            raise RuntimeError(f"boom in task {t}")

        self.in_workers(monkeypatch, boom)
        exc = call_within(60, evaluate._map_replicates, list(range(6)), 3)
        assert isinstance(exc, RuntimeError) and str(exc) == "boom in task 1"
        assert multiprocessing.active_children() == []

    def test_process_that_exits_without_sending(self, monkeypatch):
        self.in_workers(monkeypatch, lambda t: os._exit(7))
        started = time.monotonic()
        exc = call_within(60, evaluate._map_replicates, list(range(6)), 2)
        assert isinstance(exc, RuntimeError) and "exited with code 7" in str(exc)
        assert time.monotonic() - started < 10
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("threads", [2, 3])
    def test_caller_runs_its_own_stride(self, monkeypatch, threads):
        # counted in the caller only: a forked process counts in its own copy
        calls = []

        def counted(task):
            calls.append(task)
            return _run_replicate(task)

        monkeypatch.setattr(evaluate, "_run_replicate", counted)
        kw = dict(fixed_lambda=1e-3, repeats=4, test_size=20, methods=("jacobian",), seed=6)
        report = run_sweep(AXIS_N, [10, 12], threads=threads, **kw)
        assert len(calls) == len(range(8)[::threads])
        calls.clear()
        assert sweep_to_csv(report) == sweep_to_csv(run_sweep(AXIS_N, [10, 12], **kw))
        assert len(calls) == 8


def test_mean_sd_over_replicates():
    # n-1 sd over the replicates (axis 0); sd 0 for one replicate, nan for none
    mean, sd = _mean_sd([1.0, 2.0, 4.0])
    assert mean == 7.0 / 3.0 and sd == pytest.approx(math.sqrt(7.0 / 3.0), rel=1e-15)
    mean, sd = _mean_sd([[1.0, 5.0]], (2,))
    np.testing.assert_array_equal(mean, [1.0, 5.0])
    np.testing.assert_array_equal(sd, [0.0, 0.0])
    mean, sd = _mean_sd([], (3,))
    assert mean.shape == sd.shape == (3,) and np.isnan(mean).all() and np.isnan(sd).all()
    assert all(math.isnan(v) for v in _mean_sd([]))


def test_derived_seed_stable():
    # pinned: the documented SeedSequence derivation must never drift
    assert _derived_seed(0, 1, 0) == int(
        np.random.SeedSequence([0, 1, 0]).generate_state(1, dtype=np.uint64)[0]
    )


def test_harness_leaves_selector_needs_to_bandwidth():
    # what each selector needs lives in bandwidth.check_selects alone
    source = Path(evaluate.__file__).read_text()
    for name in ("METHOD_JACOBIAN", "METHOD_SILVERMAN", "METHOD_CV", "METHOD_SEEDED_CV",
                 "check_rows", "check_cv_settings"):
        assert name not in source


def test_replicate_runner_draws_no_data():
    # the harness draws every replicate's rows and seeds; the runner only
    # selects, fits and scores
    source = inspect.getsource(_run_replicate)
    for name in ("generate_synthetic", "seeded_split", "_derived_seed"):
        assert name not in source


def refuse_replicates(tasks, threads):
    raise AssertionError("a replicate ran")


@pytest.mark.parametrize("methods, message", [
    (("jacobain",), "unknown method 'jacobain'; expected one of"),
    (("jacobian", "CV"), "unknown method 'CV'"),
    ((), "methods is empty"),
], ids=["misspelt", "second-unknown", "empty"])
class TestMethodNamesCheckedFirst:
    def test_sweep(self, monkeypatch, methods, message):
        monkeypatch.setattr(evaluate, "_map_replicates", refuse_replicates)
        with pytest.raises(ValueError, match=message):
            run_sweep(AXIS_N, [10], fixed_lambda=1e-3, repeats=2, test_size=20, methods=methods)

    def test_jackknife(self, monkeypatch, methods, message):
        monkeypatch.setattr(evaluate, "_map_replicates", refuse_replicates)
        with pytest.raises(ValueError, match=message):
            run_jackknife(generate_synthetic(8, 0.1, seed=1), 1e-3, methods=methods)
