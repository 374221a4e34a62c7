"""Self-test of the gkrr benchmark.

Run from the repository root with either of

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

It runs every workload at a tiny size in both modes and checks that each
metric listed in BENCHMARK.json is emitted with its unit, that deterministic
counts repeat exactly across runs of one seed, and that a deliberately
corrupted prediction is caught by the oracles (error_frac above 0).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

from run import WORKLOADS  # noqa: E402

DETERMINISTIC_SUFFIXES = (".calls", ".elems", ".flops", ".fails", ".grid_points",
                          ".inf_points", ".dist_calls_per_select")


def run_bench(workload: str, trace: int, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_every_metric_emitted_with_its_unit():
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        want = declared(kind)
        for workload in WORKLOADS:
            result = run_bench(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            assert result["attempted"] >= 1
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (workload, name)


def test_deterministic_counts_repeat():
    for workload in ("sweep-lambda", "cli"):
        a, b = (run_bench(workload, 1)["metrics"] for _ in range(2))
        for name in a:
            if name.endswith(DETERMINISTIC_SUFFIXES) or name == "excluded_frac":
                assert a[name]["value"] == b[name]["value"], (workload, name)


def test_corrupted_prediction_is_caught():
    import gkrr
    import gkrr.krr

    import bench
    from tracer import replace_everywhere, restore

    original = gkrr.krr.predict

    def corrupted(model, X_new):
        return original(model, X_new) + 1e-3

    for workload in WORKLOADS:
        wl = bench.make_workload(workload, 3, tiny=True, tag="selftest", in_process=True)
        tally = bench.Tally()
        patched = replace_everywhere(original, corrupted)
        try:
            bench.measure_untraced(wl, 1e-9, 0, tally)  # one op (one CLI cycle)
        finally:
            restore(patched)
            wl.close()
        assert tally.attempted >= 1
        assert tally.failed > 0, f"{workload}: corrupted predictions passed the oracles"


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"ok {name}")
