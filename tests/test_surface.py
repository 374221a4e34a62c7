"""Guards on the names other code reaches into gkrr for, and on where file
I/O lives.

``perfbench/tracer.py`` wraps functions by (module, name); renaming one of
them would break the benchmark's traced mode without failing any other test.
Every file gkrr writes or reads goes through ``gkrr.data``, so the table
format is decided in one module. Feature matrices are checked by
``data.as_features`` alone, and log-spaced bandwidth grids are built in
``bandwidth`` alone.
"""

import importlib
import importlib.util
from pathlib import Path

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
