"""Workloads and the worker process of the gkrr benchmark.

``run.py`` starts this file as a worker with ``PYTHONPATH`` pointing at the
checkout's ``src`` and BLAS threads pinned to 1. A worker sets up one
workload (imports, inputs, one untimed warm-up op), prints ``ready``, runs
ops in a closed loop with one client, checks every output against the
oracles outside the timed region, and prints one JSON line.

An op is one timed call into gkrr's public API, looked up on its module at
call time so the tracer's wrappers see it. Inputs come from the workload
seed only: op ``i`` of stream ``k`` uses the sub-seed ``[seed, k, i]``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gkrr
import gkrr.cli
import gkrr.evaluate

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

# Replicate threads for sweep-n: at most nproc on the 2-core reference box.
SWEEP_THREADS = 2
WARMUP_STREAM = 99
TRACE_STREAM = 50
METHODS = ("jacobian", "cv", "seeded-cv")
LAM = 1e-3
CV_ORACLE_SHARE = 1 / 3
ORACLE_ROWS = 200  # rows of K and of the predictions each oracle samples


def sub_seed(*parts: int) -> int:
    ss = np.random.SeedSequence([int(p) for p in parts])
    return int(ss.generate_state(1, dtype=np.uint64)[0] % (2 ** 31))


# -- workloads ---------------------------------------------------------------


class Workload:
    """An op's inputs come from ``inputs``, the timed call is ``call`` and the
    oracle is ``check`` (a list of error strings). ``check`` imports
    ``oracles`` when first called, after set-up is timed, so the oracles'
    scipy imports do not count in ``setup_s``."""

    def exclusions(self, out):
        """(results the library excluded, results attempted) in one op."""
        return 0, 0

    def close(self):
        pass


class Sweep(Workload):
    """One op is one ``run_sweep`` call; the op's sub-seed is its ``seed``."""

    def __init__(self, name, seed, tiny):
        self.name = name
        self.seed = seed
        common = dict(methods=METHODS, repeats=2, folds=10,
                      grid_size=8 if tiny else 100, test_size=50 if tiny else 1000)
        if name == "sweep-n":
            self.kw = dict(axis="n", axis_values=[12, 15] if tiny else [25, 40],
                           fixed_lambda=LAM, threads=SWEEP_THREADS, **common)
        else:
            self.kw = dict(axis="lambda", axis_values=[0.0, LAM, 20.0],
                           fixed_n=15 if tiny else 40, threads=1, **common)

    def inputs(self, stream, i):
        return sub_seed(self.seed, stream, i)

    def call(self, op_seed):
        return gkrr.evaluate.run_sweep(seed=op_seed, **self.kw)

    def check(self, op_seed, report):
        import oracles

        # The dense CV re-run costs about a fifth of an op, so it checks one
        # seeded axis point of a seeded third of the ops.
        rng = np.random.default_rng(op_seed)
        cv_point = int(rng.integers(len(report.points))) if rng.random() < CV_ORACLE_SHARE else None
        return oracles.check_sweep(report, self.kw, op_seed, cv_point)

    def exclusions(self, report):
        excluded = sum(st.excluded for pt in report.points for st in pt.stats.values())
        return excluded, len(report.points) * len(report.methods) * report.repeats


class FitLarge(Workload):
    """One op is ``select_jacobian`` + ``fit`` + ``predict`` on fresh data."""

    def __init__(self, name, seed, tiny):
        self.name = name
        self.seed = seed
        self.n = 60 if tiny else 2000
        self.queries = 40 if tiny else 2000

    def inputs(self, stream, i):
        rng = np.random.default_rng(sub_seed(self.seed, stream, i))
        X = rng.uniform(-5.0, 5.0, size=(self.n, 3))
        y = np.sin(2.0 * np.pi * X).sum(axis=1) / 3.0 + rng.normal(0.0, 0.1, size=self.n)
        Q = rng.uniform(-5.0, 5.0, size=(self.queries, 3))
        rows = rng.choice(self.n, size=min(ORACLE_ROWS, self.n), replace=False)
        return X, y, Q, rows

    def call(self, inp):
        X, y, Q, _ = inp
        sigma = gkrr.select_jacobian(X, LAM).sigma
        model = gkrr.fit(gkrr.Dataset(X, y), sigma, LAM)
        return model, gkrr.predict(model, Q)

    def check(self, inp, out):
        import oracles

        X, y, Q, rows = inp
        model, pred = out
        return oracles.check_fit_predict(X, y, LAM, model.sigma, model.alpha, Q, pred, rows)


class Cli(Workload):
    """One op is one CLI command; ops cycle synth -> select -> fit -> predict.

    End-to-end runs start ``python -m gkrr.cli`` as a subprocess per op;
    traced runs call ``gkrr.cli.main(argv)`` in-process so spans can be taken.
    """

    COMMANDS = ("synth", "select", "fit", "predict")

    def __init__(self, name, seed, tiny, tag, in_process=False):
        self.name = name
        self.seed = seed
        self.n = 50 if tiny else 1000
        self.queries = 60 if tiny else 5000
        self.in_process = in_process
        self.dir = OUT / f"cli-{tag}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.data = self.dir / "data.csv"
        self.model = self.dir / "model.csv"
        self.query = self.dir / "query.csv"
        self.pred = self.dir / "pred.csv"
        q = np.random.default_rng(sub_seed(seed, 7, 0)).uniform(-5.0, 5.0, size=self.queries)
        self.query.write_text("".join(f"{v:.17g}\n" for v in q), encoding="utf-8")
        self.Q = q.reshape(-1, 1)

    def inputs(self, stream, i):
        cmd = self.COMMANDS[i % 4]
        synth_seed = sub_seed(self.seed, stream, i // 4)
        argv = {
            "synth": ["synth", "--n", str(self.n), "--seed", str(synth_seed),
                      "--output", str(self.data)],
            "select": ["select", "--input", str(self.data), "--method", "jacobian"],
            "fit": ["fit", "--input", str(self.data), "--method", "jacobian",
                    "--output", str(self.model)],
            "predict": ["predict", "--model", str(self.model), "--input", str(self.query),
                        "--output", str(self.pred)],
        }[cmd]
        return cmd, synth_seed, argv

    def call(self, inp):
        _, _, argv = inp
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = gkrr.cli.main(argv)
            return code, out.getvalue(), err.getvalue()
        proc = subprocess.run([sys.executable, "-m", "gkrr.cli", *argv],
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, inp, out):
        import oracles

        cmd, synth_seed, _ = inp
        code, stdout, stderr = out
        if code != 0:
            return [f"{cmd}: exit code {code}: {stderr.strip()[-200:]}"]
        fields = dict(ln.split("=", 1) for ln in stdout.splitlines() if "=" in ln)
        data = np.loadtxt(self.data, delimiter=",", ndmin=2)
        X, y = data[:, :-1], data[:, -1]
        if cmd == "synth":
            want_X, want_y = oracles.synthetic(self.n, 0.1, synth_seed)
            if fields.get("rows") != str(self.n) or not (
                    np.array_equal(X, want_X) and np.array_equal(y, want_y)):
                return ["synth: data differs from the seeded draw"]
            return []
        want = oracles.jacobian_sigma(X, LAM)
        if cmd == "select":
            got = float(fields.get("sigma", "nan"))
            return [] if oracles.close(got, want, oracles.SIGMA_RTOL) else [
                f"select: sigma {got!r} != closed form {want!r}"]
        model = oracles.read_model(self.model)
        rows = np.random.default_rng(synth_seed).choice(self.n, size=min(ORACLE_ROWS, self.n),
                                                        replace=False)
        if cmd == "fit":
            if not np.array_equal(model["X"], X):
                return ["fit: model features differ from the data file"]
            return ["fit: " + e for e in oracles.check_fit_predict(
                X, y, LAM, model["sigma"], model["alpha"], None, None, rows)]
        # predict: byte-equal to the in-process library call, and right
        got = self.pred.read_bytes()
        pred = gkrr.predict(gkrr.load_model(self.model), self.Q)
        errors = []
        if fields.get("predictions") != str(self.queries):
            errors.append(f"predict: stdout {stdout.strip()!r}")
        if got != "".join(f"{v:.17g}\n" for v in pred).encode():
            errors.append("predict: CLI file differs from in-process predict(load_model())")
        got_pred = np.loadtxt(self.pred, ndmin=1)
        errors += ["predict: " + e for e in oracles.check_fit_predict(
            X, y, LAM, model["sigma"], model["alpha"], self.Q, got_pred, rows)]
        return errors

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def make_workload(name, seed, tiny=False, tag="0", in_process=False):
    if name in ("sweep-n", "sweep-lambda"):
        return Sweep(name, seed, tiny)
    if name == "fit-large":
        return FitLarge(name, seed, tiny)
    if name == "cli":
        return Cli(name, seed, tiny, tag, in_process)
    raise ValueError(f"unknown workload {name!r}")


# -- measurement -------------------------------------------------------------


class Tally:
    """Attempted and failed ops, library exclusions, first few error messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.excluded = 0
        self.results = 0
        self.errors: list[str] = []

    def timed(self, wl, call):
        """Run one op; returns (output or None if it raised, seconds)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # an op that raises counts as failed; keep going
            self._fail(f"{wl.name}: op raised {type(exc).__name__}: {exc}")
            return None, time.perf_counter() - t0
        return out, time.perf_counter() - t0

    def check(self, wl, inp, out):
        """Oracle check of one op's output, outside the timed region."""
        if out is None:
            return
        try:
            errors = wl.check(inp, out)
        except Exception as exc:
            errors = [f"oracle could not check the output: {type(exc).__name__}: {exc}"]
        if errors:
            self._fail(f"{wl.name}: " + "; ".join(errors))
        excluded, attempted = wl.exclusions(out)
        self.excluded += excluded
        self.results += attempted

    def run(self, wl, inp, call):
        """Time ``call()`` (one op), then check its output. Returns seconds."""
        out, dt = self.timed(wl, call)
        self.check(wl, inp, out)
        return dt

    def _fail(self, message):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message[:500])
        print(f"perfbench: {message[:500]}", file=sys.stderr)

    def as_dict(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "excluded": self.excluded, "results": self.results, "errors": self.errors}


def measure_untraced(wl, budget_s, stream, tally):
    """Closed loop of steps until the summed op time is nearest ``budget_s``.

    A step is one op; for cli it is a full synth..predict cycle, so every run
    has the same command mix. The loop stops after a step unless one more
    step of the mean length would end nearer the budget.
    """
    lat = []
    step = 4 if isinstance(wl, Cli) else 1
    while True:
        for _ in range(step):
            inp = wl.inputs(stream, len(lat))
            lat.append(tally.run(wl, inp, lambda: wl.call(inp)))
        busy = math.fsum(lat)
        if busy + 0.5 * busy * step / len(lat) >= budget_s:
            return lat


def versions() -> dict:
    """numpy, scipy and BLAS versions, for the record of each result."""
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version")}


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def traced_op_count(name, seconds, tiny):
    """Fixed by the run length so every run of one seed traces the same ops."""
    if tiny:
        return 4 if name == "cli" else 1
    per_pair_s = {"sweep-n": 4.0, "sweep-lambda": 4.0, "fit-large": 1.0, "cli": 0.5}[name]
    k = max(1, round(seconds / per_pair_s))
    return 4 * math.ceil(k / 4) if name == "cli" else k


def median_process_s(argv, repeats=5):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure_traced(wl, seconds, tiny, tally):
    """Per-layer metrics from paired untraced/traced runs of the same ops."""
    from tracer import Tracer

    k = traced_op_count(wl.name, seconds, tiny)
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    cpu_s = wall_s = 0.0
    for i in range(k):
        inp = wl.inputs(TRACE_STREAM, i)
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                def call():
                    with tracer.op(i):
                        return wl.call(inp)
                with tracer:  # wrappers go in and out outside the timed call
                    traced_s += tally.run(wl, inp, call)
            else:
                c0 = time.process_time()
                dt = tally.run(wl, inp, lambda: wl.call(inp))
                cpu_s += time.process_time() - c0
                wall_s += dt
                untraced_s += dt
    metrics = tracer.layer_metrics()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{wl.name}-seed{wl.seed}.csv")
    metrics["trace.overhead"] = 1.0 - untraced_s / traced_s if traced_s > 0 else 0.0
    calls_sweep = metrics["evaluate.run_sweep.calls"] > 0
    metrics["evaluate.cpu_per_wall"] = cpu_s / wall_s if calls_sweep and wall_s > 0 else 0.0
    if isinstance(wl, Cli):
        metrics["cli.interp_s"] = median_process_s([sys.executable, "-c", "pass"])
        metrics["cli.import_s"] = median_process_s([sys.executable, "-c", "import gkrr.cli"])
    else:
        metrics["cli.interp_s"] = metrics["cli.import_s"] = 0.0
    metrics["error_frac"] = tally.failed / tally.attempted
    metrics["excluded_frac"] = tally.excluded / tally.results if tally.results else 0.0
    return metrics


def main(argv):
    cfg = json.loads(argv[1])
    src = Path(gkrr.__file__).resolve().parent.parent
    if src != ROOT / "src":
        raise SystemExit(f"perfbench: gkrr imported from {src}, not {ROOT / 'src'}")
    name, seed, tiny, trace = cfg["workload"], cfg["seed"], cfg["tiny"], cfg["trace"]
    wl = make_workload(name, seed, tiny, tag=str(cfg["index"]), in_process=bool(trace))
    tally = Tally()
    try:
        warm = wl.inputs(WARMUP_STREAM, 0)
        warm_out, _ = tally.timed(wl, lambda: wl.call(warm))
        print("ready", flush=True)
        tally.check(wl, warm, warm_out)  # the warm-up is checked like every op
        if trace:
            result = {"metrics": measure_traced(wl, cfg["seconds"], tiny, tally)}
        else:
            lat = measure_untraced(wl, cfg["budget_s"], cfg["index"], tally)
            result = {"lat": lat, "rss_mb": peak_rss_mb(children=isinstance(wl, Cli))}
    finally:
        wl.close()
    result.update(tally.as_dict(), versions=versions())
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main(sys.argv)
