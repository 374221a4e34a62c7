"""gkrr benchmark: run one workload and print its metrics as one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-n --seed 1 --seconds 33 --trace 0

Workloads: sweep-n, sweep-lambda, fit-large, cli (see ``WHY``);
``BENCHMARK.json`` lists all but sweep-lambda, which is run by hand. The
default seed is 1; confirm a claimed gain on seed 2 as well.

``--trace 0`` measures the end-to-end metrics with tracing off. It starts
``WORKERS`` worker processes one after another; each sets up once and
measures its share of ``--seconds`` of summed op time. ``setup_s`` is the
median of their set-up times (process start to ready, including imports,
input generation and one warm-up op).

``--trace 1`` runs one worker that times a fixed list of ops (its length set
by ``--seconds``) untraced and traced in pairs, and reports per-layer metrics
from spans taken around gkrr's public functions, plus the trace overhead.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
Lines before it (prefixed ``#``) record the environment, the tail percentile
and the exclusion and error fractions; the same record is written to
``.perfbench/result-<workload>-seed<seed>-trace<t>.json``. Exit status is
non-zero, with no result printed, when the checkout has no ``src/gkrr`` or a
worker fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

DEFAULT_SEED = 1
# A second seed, not used while tuning, for confirming a claimed gain.
CONFIRM_SEED = 2

# Each end-to-end run starts this many workers one after another; each sets up
# once (imports, inputs, one warm-up op) and measures its share of the run.
# setup_s is the median of their set-up times.
WORKERS = 3

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

WHY = {
    "sweep-n": (
        "The accuracy_sweep protocol with threads capped at nproc: the paper's "
        "experiment and Tier-1's dominant cost, so batched CV and the thread "
        "pool both show here."
    ),
    "sweep-lambda": (
        "Same data selected on at every lambda across all three Prop-1 regimes "
        "(lambda=0 factor failures, clamping at 20); the plain single-threaded "
        "baseline where cross-call reuse shows."
    ),
    "fit-large": (
        "BLAS- and memory-bound select/fit/predict at n=2000, p=3 that never "
        "touches CV: distance centring, chunked diameters and fit-path copies "
        "show here."
    ),
    "cli": (
        "One python -m gkrr.cli subprocess per op, cycling synth/select/fit/"
        "predict: interpreter start, numpy/scipy import and CSV/model I/O "
        "show only here."
    ),
}
WORKLOADS = tuple(WHY)

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
WORKER_TIMEOUT_S = 150


def per_layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "calls/op"
    if name.endswith(".self_s"):
        return "s/op"
    if name.endswith(".elems"):
        return "elems/op"
    if name.endswith(".flops"):
        return "flop/op"
    if name.endswith((".grid_points", ".inf_points")):
        return "points/op"
    if name.endswith(".fails"):
        return "fails/op"
    if name.endswith("_per_select"):
        return "calls/select"
    if name.endswith("_s"):
        return "s"
    return "ratio"


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least 10 ops above
    it, never below the median."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 21:
        return 50.0, statistics.median(xs)
    return 100.0 * (n - 10) / n, xs[n - 11]


def environment(seed: int, versions: dict) -> dict:
    env = {
        "nproc": os.cpu_count(),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "blas_threads_env": {v: worker_env()[v] for v in BLAS_THREAD_VARS},
        "seed": seed,
        "confirm_seed": CONFIRM_SEED,
        "git_commit": None,
        **versions,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        env["git_commit"] = proc.stdout.strip() or None
    return env


def worker_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_worker(cfg: dict) -> tuple[float, dict]:
    """Start one worker; returns (seconds from start to ready, its result)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "bench.py"), json.dumps(cfg)],
                            stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    lines = rest.strip().splitlines()
    if first.strip() != "ready" or code != 0 or not lines:
        raise RuntimeError(f"worker for {cfg['workload']} failed (exit code {code})")
    return setup_s, json.loads(lines[-1])


def end_to_end(args) -> tuple[dict, dict, dict]:
    setups, lat, rss, parts = [], [], [], []
    for index in range(WORKERS):
        cfg = {"workload": args.workload, "seed": args.seed, "trace": 0, "index": index,
               "tiny": args.tiny, "seconds": args.seconds,
               "budget_s": args.seconds / WORKERS}
        setup_s, res = run_worker(cfg)
        setups.append(setup_s)
        lat += res["lat"]
        rss.append(res["rss_mb"])
        parts.append(res)
    pct, tail_s = tail(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / math.fsum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": statistics.median(rss),
    }
    tally = merge(parts)
    info = {
        "ops": len(lat),
        "op_tail_percentile": round(pct, 2),
        "setup_s_each": setups,
        "peak_rss_mb_each": rss,
        "error_frac": tally["failed"] / tally["attempted"],
        "excluded_frac": tally["excluded"] / tally["results"] if tally["results"] else 0.0,
    }
    return metrics, tally, info


def merge(parts: list[dict]) -> dict:
    out = {"attempted": 0, "failed": 0, "excluded": 0, "results": 0, "errors": [],
           "versions": parts[0]["versions"]}
    for p in parts:
        for key in ("attempted", "failed", "excluded", "results"):
            out[key] += p[key]
        out["errors"] += p["errors"]
    return out


def traced(args) -> tuple[dict, dict, dict]:
    cfg = {"workload": args.workload, "seed": args.seed, "trace": 1, "index": 0,
           "tiny": args.tiny, "seconds": args.seconds}
    _, res = run_worker(cfg)
    return res["metrics"], merge([res]), {}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; confirm claims on {CONFIRM_SEED})")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="summed op time measured per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's self-test only")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gkrr" / "__init__.py").is_file():
        print(f"perfbench: no gkrr sources under {SRC}", file=sys.stderr)
        return 2
    try:
        metrics, tally, info = (traced if args.trace else end_to_end)(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    units = END_TO_END_UNITS if not args.trace else None
    result = {
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": value,
                           "unit": units[name] if units else per_layer_unit(name)}
                    for name, value in metrics.items()},
    }
    record = {"workload": args.workload, "why": WHY[args.workload], "trace": args.trace,
              "seconds": args.seconds, "environment": environment(args.seed, tally["versions"]),
              "errors": tally["errors"], **info, **result}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print("# environment " + json.dumps(record["environment"]))
    if info:
        print(f"# op_tail_ms is p{info['op_tail_percentile']} of {info['ops']} ops; "
              f"error_frac={info['error_frac']} excluded_frac={info['excluded_frac']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
