"""Guards on the names other code reaches into gkrr for, and on where file
I/O lives.

``perfbench/tracer.py`` wraps functions by (module, name); renaming one of
them would break the benchmark's traced mode without failing any other test.
Every file gkrr writes or reads goes through ``gkrr.data``, so the table
format is decided in one module. Feature matrices are checked by
``data.as_features`` alone, and log-spaced bandwidth grids are built in
``bandwidth`` alone. Squared distances, blocked ones included, come from
``kernel.pairwise_sq_dists`` alone, so the tracer's count of it sees every
block; LAPACK's ``dpotrf`` and ``dpotrs`` are called from ``linalg`` alone, the
one module that reads their ``info`` codes. The CLI's flag checks are the rows
of one table, so no command raises a flag error of its own. scipy and the
process pool load only when used: on the first factorization (before a pool
forks, so workers inherit it) and on the first run on more than one worker.
The first factorization loads scipy's LAPACK extension, ``scipy.linalg._flapack``,
from its file rather than importing ``scipy.linalg``, and its routines are the
very objects ``scipy.linalg.lapack`` exports, whichever is imported first.
"""

import ast
import collections
import importlib
import importlib.util
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import gkrr

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
PACKAGE = Path(gkrr.__file__).resolve().parent


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_all_names_resolve():
    missing = [name for name in gkrr.__all__ if not hasattr(gkrr, name)]
    assert missing == []


def test_traced_functions_exist():
    missing = [
        f"{module}.{fn}"
        for module, fns in _tracer_targets().items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"gkrr.{module}"), fn, None))
    ]
    assert missing == []


def test_only_data_opens_files():
    offenders = [
        f"{path.name}: {needle}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "data.py"
        for needle in ("open(", "import csv")
        if needle in path.read_text(encoding="utf-8")
    ]
    assert offenders == []


def test_no_feature_reshaping_outside_as_features():
    # np.atleast_2d reads a 1-D array as one point; as_features rejects it
    offenders = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if "atleast_2d" in path.read_text(encoding="utf-8")
    ]
    assert offenders == []


def test_only_bandwidth_builds_log_grids():
    offenders = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "bandwidth.py" and "geomspace" in path.read_text(encoding="utf-8")
    ]
    assert offenders == []


def test_distance_blocks_go_through_pairwise_sq_dists(monkeypatch):
    # the diameter, fit and predict take every distance from it, so the
    # tracer's kernel.pairwise_sq_dists counts their distance work. The
    # diameter makes three n x 1 calls (two farthest-point passes, the radii)
    # and then one 256-row block per kept row block; on 1-D data it keeps
    # the two end points
    from gkrr import kernel

    calls = []
    real = kernel.pairwise_sq_dists
    monkeypatch.setattr(kernel, "pairwise_sq_dists", lambda A, B: calls.append((len(A), len(B))) or real(A, B))
    data = gkrr.generate_synthetic(600, 0.1, seed=2)
    gkrr.select_jacobian(data.features, 1e-3)
    diameter = len(calls)
    kept = calls[3][1]
    assert calls[:3] == [(600, 1)] * 3 and kept == 2
    assert diameter == 3 + math.ceil(kept / 256) and sum(rows for rows, _ in calls[3:]) == kept
    model = gkrr.fit(data, 0.5, 1e-3)
    fit = len(calls) - diameter
    gkrr.predict(model, np.linspace(-5.0, 5.0, 700).reshape(-1, 1))
    predict = len(calls) - diameter - fit
    assert (fit, predict) == (math.ceil(600 / 256), math.ceil(700 / 256))

    def refuse(A, B):
        raise RuntimeError("distance taken outside pairwise_sq_dists' count")

    monkeypatch.setattr(kernel, "pairwise_sq_dists", refuse)
    with pytest.raises(RuntimeError, match="outside"):
        gkrr.select_jacobian(data.features, 1e-3)


def test_only_linalg_calls_lapack_cholesky():
    offenders = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "linalg.py" and re.search(r"\bdpotr[fs]\(", path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def test_cli_input_errors_raised_only_by_flag_table_parsers_and_data_checks():
    # a new flag rule goes in cli._FLAG_RULES; the commands raise _InputError
    # only for what a file holds: a model that fails to load, a query column
    # count, a jackknife holdout leaving fewer than 3 rows
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    raisers = collections.Counter(
        getattr(fn, "name", "<module>")
        for fn in tree.body
        for node in ast.walk(fn)
        if isinstance(node, ast.Raise) and "_InputError" in ast.unparse(node.exc or node)
    )
    assert raisers == {"_parse_values": 1, "_parse_test_size": 1, "_check_flags": 1,
                       "cmd_predict": 2, "cmd_jackknife": 1}


def _fresh(code: str, cwd: Path) -> object:
    """The JSON that ``code`` prints when run in a new interpreter."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=cwd, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy_or_pool(tmp_path):
    loaded = _fresh("""
        import json, sys
        import gkrr, gkrr.cli
        lazy = ("scipy", "multiprocessing", "concurrent.futures.process")
        print(json.dumps([m for m in lazy if m in sys.modules]))
    """, tmp_path)
    assert loaded == []


def test_commands_that_never_factor_load_no_scipy(tmp_path):
    data = gkrr.generate_synthetic(20, 0.1, seed=1)
    gkrr.save_model(gkrr.fit(data, 0.5, 1e-3), tmp_path / "model.csv")
    (tmp_path / "queries.csv").write_text("0.5\n-1.25\n")
    result = _fresh("""
        import json, sys
        from gkrr.cli import main
        codes = [main(argv.split()) for argv in (
            "synth --n 30 --output d.csv",
            "select --input d.csv --method jacobian",
            "select --input d.csv --method silverman",
            "predict --model model.csv --input queries.csv --output p.csv",
        )]
        print(json.dumps([codes, "scipy" in sys.modules]))
    """, tmp_path)
    assert result == [[0, 0, 0, 0], False]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="workers inherit the parent's modules only when forked")
def test_pool_parent_imports_lapack_before_forking(tmp_path):
    result = _fresh("""
        import json, sys
        from gkrr import evaluate, linalg
        before = "scipy" in sys.modules
        evaluate.run_sweep("n", [10, 12], fixed_lambda=1e-3, repeats=2, test_size=20,
                           methods=("jacobian",), threads=2)
        print(json.dumps([before, "scipy.linalg._flapack" in sys.modules,
                          linalg.load_lapack.cache_info().currsize]))
    """, tmp_path)
    assert result == [False, True, 1]


@pytest.mark.parametrize("scipy_first", [False, True], ids=["loader-first", "scipy-first"])
def test_loader_returns_scipys_own_routines(tmp_path, scipy_first):
    result = _fresh(f"""
        import json, sys
        if {scipy_first}:
            import scipy.linalg.lapack
        from gkrr import linalg
        lapack = linalg.load_lapack()
        linalg_before = "scipy.linalg" in sys.modules
        import scipy.linalg.lapack
        flapack = sys.modules["scipy.linalg._flapack"]
        same = [getattr(lapack, f) is getattr(scipy.linalg.lapack, f) is getattr(flapack, f)
                for f in ("dposv", "dpotrf", "dpotrs")]
        print(json.dumps([linalg_before, lapack is flapack, same]))
    """, tmp_path)
    # loaded first, the loader returns the extension itself, and scipy.linalg reuses it
    assert result == [scipy_first, not scipy_first, [True, True, True]]


_FIT_ALPHA = """
    import json
    import scipy
    {patch}
    import gkrr
    lapack = gkrr.linalg.load_lapack()
    alpha = gkrr.fit(gkrr.generate_synthetic(60, 0.1, seed=3), 0.4, 1e-3).alpha
    print(json.dumps([lapack.__name__, alpha.tobytes().hex()]))
"""


def test_loader_falls_back_to_scipy_linalg_without_the_extension_file(tmp_path):
    # a fresh interpreter, so load_lapack's cache is empty; the loader looks for
    # _flapack beside scipy.__file__, here a directory without it
    direct = _fresh(_FIT_ALPHA.format(patch=""), tmp_path)
    fallback = _fresh(_FIT_ALPHA.format(patch=f"scipy.__file__ = {str(tmp_path / '__init__.py')!r}"),
                      tmp_path)
    assert [direct[0], fallback[0]] == ["scipy.linalg._flapack", "scipy.linalg.lapack"]
    assert fallback[1] == direct[1]


def test_fit_and_cv_load_lapack_without_scipy_linalg(tmp_path):
    gkrr.write_csv(gkrr.generate_synthetic(30, 0.1, seed=1), tmp_path / "d.csv")
    result = _fresh("""
        import json, sys
        from gkrr.cli import main
        codes = [main(argv.split()) for argv in (
            "fit --input d.csv --method jacobian --output m.csv",
            "select --input d.csv --method cv",
        )]
        print(json.dumps([codes, "scipy.linalg" in sys.modules, "scipy.linalg._flapack" in sys.modules]))
    """, tmp_path)
    assert result == [[0, 0], False, True]


def test_first_factorization_reports_pivot(tmp_path):
    # rows 2 and 3 coincide, so K is singular at lambda = 0 from pivot 3
    result = _fresh("""
        import json, sys
        import numpy as np
        from gkrr import Dataset, FactorizationError, fit
        before = "scipy" in sys.modules
        data = Dataset(np.array([[0.0], [1.0], [1.0], [2.0]]), np.array([0.0, 1.0, 2.0, 0.5]))
        try:
            fit(data, 1.0, 0.0)
        except FactorizationError as exc:
            print(json.dumps([before, exc.pivot]))
    """, tmp_path)
    assert result == [False, 3]
