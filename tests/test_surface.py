"""Guards on the names other code reaches into gkrr for.

``perfbench/tracer.py`` wraps functions by (module, name); renaming one of
them would break the benchmark's traced mode without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

import gkrr

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
