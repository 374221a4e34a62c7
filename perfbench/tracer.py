"""Outside-in span tracer for gkrr.

The tracer wraps gkrr's public functions from outside the library: each
function is replaced at every ``gkrr.*`` module that holds a reference to it,
because names such as ``kernel_matrix`` and ``factor_spd`` are imported into
``bandwidth`` and ``krr`` and patching only their home module would miss
those call sites. Spans (name, start, end, parent, thread id, op id) are kept
in memory while ops run and written out when the run ends. Calls made outside
an op (warm-up, oracles) pass straight through and are not recorded.

Self time of a span is its duration minus the union of the intervals its
child spans cover. A span opened on a thread with no open span of its own
(a replicate in ``run_sweep``'s thread pool) is a child of the innermost open
span of the thread that started the op.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import sys
import threading
import time
from collections import defaultdict

# module -> functions wrapped there; cli's cmd_<name> functions trace as cli.<name>
TARGETS = {
    "kernel": ("pairwise_sq_dists", "kernel_matrix", "max_pairwise_distance"),
    "linalg": ("factor_spd", "solve"),
    "lambertw": ("lambert_w",),
    "bandwidth": ("select_jacobian", "select_cv", "select_seeded_cv"),
    "krr": ("fit", "predict", "save_model", "load_model"),
    "data": ("generate_synthetic", "make_kfold", "load_csv", "write_csv"),
    "evaluate": ("run_sweep",),
    "cli": ("main", "cmd_synth", "cmd_select", "cmd_fit", "cmd_predict"),
}

OP = "op"
CV_SELECTORS = ("bandwidth.select_cv", "bandwidth.select_seeded_cv")


def span_name(module: str, fn: str) -> str:
    return f"{module}.{fn[4:] if fn.startswith('cmd_') else fn}"


SPAN_NAMES = tuple(span_name(m, f) for m, fns in TARGETS.items() for f in fns)


def _rows(a) -> int:
    shape = getattr(a, "shape", None)
    return shape[0] if shape is not None and len(shape) == 2 else 1


def _pairwise_extra(args, kwargs, result):
    A = args[0] if args else kwargs["A"]
    B = args[1] if len(args) > 1 else kwargs["B"]
    return {"elems": _rows(A) * _rows(B)}


def _diameter_extra(args, kwargs, result):
    n = _rows(args[0] if args else kwargs["X"])
    return {"elems": n * n}


def _factor_extra(args, kwargs, result):
    n = _rows(args[0] if args else kwargs["K"])
    return {"flops": n ** 3 / 3.0}


def _cv_extra(args, kwargs, result):
    curve = result.cv_curve or ()
    return {
        "grid_points": len(curve),
        "inf_points": sum(1 for _, loss in curve if math.isinf(loss)),
    }


# Counters read from a call's arguments or result at the layer boundary.
# They are evaluated for failed calls too (result None) where they need only
# the arguments.
EXTRAS = {
    "kernel.pairwise_sq_dists": _pairwise_extra,
    "kernel.max_pairwise_distance": _diameter_extra,
    "linalg.factor_spd": _factor_extra,
    "bandwidth.select_cv": _cv_extra,
    "bandwidth.select_seeded_cv": _cv_extra,
}
_NEEDS_RESULT = {"bandwidth.select_cv", "bandwidth.select_seeded_cv"}


def replace_everywhere(original, replacement) -> list:
    """Point every ``gkrr.*`` module attribute bound to ``original`` at
    ``replacement``; returns what ``restore`` needs to undo it."""
    patched = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "gkrr" or name.startswith("gkrr.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                patched.append((mod, attr, original))
    return patched


def restore(patched: list) -> None:
    for mod, attr, original in reversed(patched):
        setattr(mod, attr, original)


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "op", "error", "extra")

    def __init__(self, name, parent, thread, op):
        self.name = name
        self.start = self.end = math.nan
        self.parent = parent
        self.thread = thread
        self.op = op
        self.error = None
        self.extra = None


class Tracer:
    """Install with ``with Tracer() as t:``; time ops with ``with t.op(i):``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stacks: dict[int, list] = {}  # thread id -> open spans
        self._op_id = None
        self._op_stack = None
        self._patched = []  # (module, attribute, original)

    # -- installation -----------------------------------------------------

    def __enter__(self):
        for mod_name, fns in TARGETS.items():
            home = importlib.import_module(f"gkrr.{mod_name}")
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(span_name(mod_name, fn_name), original)
                self._patched += replace_everywhere(original, wrapper)
        return self

    def __exit__(self, *exc):
        restore(self._patched)
        self._patched.clear()
        return False

    def _stack(self) -> list:
        """Open spans of the calling thread, innermost last."""
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks[tid] = []
        return stack

    def _open(self, name: str, stack: list) -> Span:
        if stack:
            parent = stack[-1]
        else:
            op_stack = self._op_stack
            parent = op_stack[-1] if op_stack else None
        span = Span(name, parent, threading.get_ident(), self._op_id)
        self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _wrap(self, name, fn):
        tracer = self
        extra_fn = EXTRAS.get(name)
        needs_result = name in _NEEDS_RESULT
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op_id is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span = tracer._open(name, stack)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
                if extra_fn is not None and (result is not None or not needs_result):
                    span.extra = extra_fn(args, kwargs, result)

        return wrapper

    # -- ops ----------------------------------------------------------------

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Open the root span of one op; gkrr calls inside it are recorded."""
        stack = self._stack()
        self._op_id = op_id
        self._op_stack = stack
        span = self._open(OP, stack)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self._op_id = self._op_stack = None

    # -- results --------------------------------------------------------------

    def self_times(self) -> dict:
        """Span -> duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[id(s.parent)].append((s.start, s.end))
        out = {}
        for s in self.spans:
            covered = 0.0
            kids = children.get(id(s))
            if kids:
                kids.sort()
                lo, hi = kids[0]
                for a, b in kids[1:]:
                    if a > hi:
                        covered += hi - lo
                        lo, hi = a, b
                    elif b > hi:
                        hi = b
                covered += hi - lo
            out[id(s)] = (s.end - s.start) - covered
        return out

    def layer_metrics(self) -> dict:
        """Per-op layer counters and self times, plus trace coverage.

        Every wrapped function reports ``<name>.calls`` and ``<name>.self_s``
        (zero when the workload never reaches it). Values are means per op.
        """
        ops = [s for s in self.spans if s.name == OP]
        n_ops = max(1, len(ops))
        self_t = self.self_times()
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        extra = defaultdict(float)
        fails = 0
        cv_selects = 0
        cv_dist_calls = 0
        for s in self.spans:
            if s.name == OP:
                continue
            calls[s.name] += 1
            self_s[s.name] += self_t[id(s)]
            if s.extra:
                for k, v in s.extra.items():
                    extra[f"{s.name}.{k}"] += v
            if s.name == "linalg.factor_spd" and s.error == "FactorizationError":
                fails += 1
            if s.name in CV_SELECTORS:
                cv_selects += 1
            elif s.name == "kernel.pairwise_sq_dists":
                p = s.parent
                while p is not None and p.name not in CV_SELECTORS:
                    p = p.parent
                if p is not None:
                    cv_dist_calls += 1
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name] / n_ops
            out[f"{name}.self_s"] = self_s[name] / n_ops
        for key in ("kernel.pairwise_sq_dists.elems", "kernel.max_pairwise_distance.elems",
                    "linalg.factor_spd.flops"):
            out[key] = extra[key] / n_ops
        out["linalg.factor_spd.fails"] = fails / n_ops
        out["bandwidth.cv.grid_points"] = sum(
            extra[f"{n}.grid_points"] for n in CV_SELECTORS) / n_ops
        out["bandwidth.cv.inf_points"] = sum(
            extra[f"{n}.inf_points"] for n in CV_SELECTORS) / n_ops
        out["bandwidth.cv.dist_calls_per_select"] = (
            cv_dist_calls / cv_selects if cv_selects else 0.0)
        wall = sum(s.end - s.start for s in ops)
        covered = sum(self_s.values())
        out["trace.coverage"] = covered / wall if wall > 0 else 0.0
        return out

    def write(self, path) -> None:
        """Write every span as one CSV row (times relative to the first span)."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        t0 = self.spans[0].start if self.spans else 0.0
        lines = ["id,name,start_s,end_s,parent,thread,op,error"]
        for i, s in enumerate(self.spans):
            parent = index.get(id(s.parent), "") if s.parent is not None else ""
            lines.append(
                f"{i},{s.name},{s.start - t0:.9f},{s.end - t0:.9f},{parent},"
                f"{s.thread},{s.op},{s.error or ''}"
            )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
