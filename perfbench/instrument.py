"""Tracing from the benchmark's side of each layer boundary.

``Tracer.install`` replaces the public names a caller looks up (for
example ``hmot.tracker.predict``) with wrappers that record a span (name,
start, end, parent) in memory and, for some layers, a work count. Nothing in
``hmot`` is edited: the wrappers sit between the caller and the callee. A
name that no longer exists is listed in ``Tracer.missing`` instead of
failing, so a later refactor that removes or merges a function leaves the
benchmark running with that metric reported as missing.

This module imports only the standard library at load time, so a cold
``hmot`` command started through it pays little for the harness.
"""

from __future__ import annotations

import array
import collections
import contextlib
import ctypes
import enum
import functools
import importlib
import inspect
import json
import os
import platform
import sys
import time
import types
from typing import Any, Callable

_clock = time.perf_counter


def set_clock(clock: Callable[[], float]) -> None:
    """Time spans with ``clock`` instead of ``time.perf_counter``."""
    global _clock
    _clock = clock


def _cells(tracer, args, kwargs, result, key):
    tracer.counts[key] += len(args[0]) * len(args[1])


def _count_step(tracer, args, kwargs, result):
    tracker, counts = args[0], tracer.counts
    counts["tracker.steps"] += 1
    if tracer.state_every and counts["tracker.steps"] % tracer.state_every == 1:
        tracer.sample_state(tracker)
    s1, s2, s3 = result.stage_matches
    counts["tracker.stage1_matches"] += s1
    counts["tracker.stage2_matches"] += s2
    counts["tracker.stage3_matches"] += s3
    counts["tracker.births"] += len(result.created_ids)
    counts["tracker.deaths"] += len(result.deleted_ids)
    counts["tracker.live_tracks"] += len(tracker.tracks)


def _count_cosine(tracer, args, kwargs, result):
    galleries, embeddings, counts = args[0], args[1], tracer.counts
    counts["metrics.cosine_cells"] += len(galleries) * len(embeddings)
    counts["metrics.cosine_gallery_rows"] += sum(len(g) for g in galleries)


def _count_solve(tracer, args, kwargs, result):
    import numpy as np

    counts = tracer.counts
    costs = np.asarray(args[0])
    gate = args[1] if len(args) > 1 else kwargs["gate"]
    counts["assignment.cells"] += costs.size
    counts["assignment.admissible"] += int(np.count_nonzero(costs <= gate))
    counts["assignment.matches"] += len(result.matches)
    counts["assignment.matchable"] += min(costs.shape) if costs.size else 0


# (module, attribute path, span name, work counter). The attribute is the
# name the caller looks up at call time, so patching it intercepts the call.
TRACKER_LAYERS = (
    ("hmot.tracker", "TrackerInstance.step", "tracker.step", _count_step),
    ("hmot.tracker", "stage1_cascade", "tracker.stage1", None),
    ("hmot.tracker", "stage2_relaxed", "tracker.stage2", None),
    ("hmot.tracker", "stage3_secondary", "tracker.stage3", None),
    ("hmot.tracker", "predict", "kalman.predict", None),
    ("hmot.tracker", "update", "kalman.update", None),
    ("hmot.tracker", "init_track_state", "kalman.init", None),
    ("hmot.tracker", "solve_gated_assignment", "assignment.solve", _count_solve),
    ("hmot.tracker", "cosine_gallery_dist_matrix", "metrics.cosine", _count_cosine),
    ("hmot.tracker", "gauss_center_dist_matrix", "metrics.gauss",
     functools.partial(_cells, key="metrics.gauss_cells")),
    ("hmot.tracker", "iou_dist_matrix", "metrics.iou",
     functools.partial(_cells, key="metrics.iou_cells")),
)

# Step timing alone, for the untraced CLI runs.
STEP_ONLY = (("hmot.tracker", "TrackerInstance.step", "tracker.step", None),)

CLI_LAYERS = (
    ("hmot.cli", "read_detections", "io.read_detections", None),
    ("hmot.cli", "write_detections", "io.write_detections", None),
    ("hmot.cli", "write_tracks", "io.write_tracks", None),
    ("hmot.cli", "read_tracks", "io.read_tracks", None),
    ("hmot.cli", "generate", "simulation.generate", None),
    ("hmot.cli", "evaluate", "evaluation.evaluate", None),
)

# Called about a million times per ``simulate``: counted, never spanned.
COUNTED = (("hmot.io", "qfloat", "io.qfloat_calls"),)


def _resolve(module: str, path: str) -> tuple[Any, str, Any]:
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Spans and counters kept in memory until ``dump``.

    Span ``i`` is ``names[i]``, ``starts[i]``, ``ends[i]`` and ``parents[i]``,
    the index of the enclosing span or -1. Flat arrays keep the garbage
    collector from walking one object per span. Recording is on while
    ``enabled`` is true; the benchmark turns it off for warm-up frames.
    With ``state_every`` n > 0 the step wrapper samples the tracker's state
    size every n steps.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.parents = array.array("q")
        self.counts: collections.Counter = collections.Counter()
        self.missing: list[str] = []
        self.enabled = True
        self.state_every = 0
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(_clock())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = _clock()
        self._stack.pop()

    def _timed_iter(self, name: str, it):
        """Charge the time spent producing each item of a lazy result to
        ``name``, so a layer that streams its output is still measured."""
        while True:
            idx = self._open(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._close(idx)
            yield item

    def wrap(self, name: str, fn: Callable, counter: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if inspect.isgenerator(result):
                return self._timed_iter(name, result)
            if counter is not None:
                try:
                    counter(self, args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError, ValueError):
                    self._lost(name + " counter")
            return result

        return traced

    def sample_state(self, tracker) -> None:
        self.counts["tracker.state_bytes"] += deep_size(tracker)
        self.counts["tracker.state_samples"] += 1

    def _lost(self, what: str) -> None:
        if what not in self.missing:
            self.missing.append(what)

    def install(self, layers) -> None:
        for module, path, name, counter in layers:
            try:
                owner, attr, fn = _resolve(module, path)
            except (AttributeError, ImportError):
                self._lost(name)
                continue
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(name, fn, counter))

    def install_counters(self) -> None:
        for module, path, key in COUNTED:
            try:
                owner, attr, fn = _resolve(module, path)
            except (AttributeError, ImportError):
                self._lost(key)
                continue
            self._patched.append((owner, attr, fn))
            counts = self.counts

            @functools.wraps(fn)
            def counted_fn(*args, _fn=fn, _key=key, **kwargs):
                counts[_key] += 1
                return _fn(*args, **kwargs)

            setattr(owner, attr, counted_fn)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def intervals(self, name: str) -> list[tuple[float, float]]:
        """(start, end) of every span called ``name``."""
        return [(self.starts[i], self.ends[i])
                for i, n in enumerate(self.names) if n == name]

    def aggregate(self) -> dict:
        """Per span name: calls, total seconds and self seconds (duration
        minus the time its child spans cover)."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parents[i] >= 0:
                child[self.parents[i]] += dur[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            row = out.setdefault(self.names[i], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        return {"spans": out, "counts": dict(self.counts), "missing": list(self.missing)}

    def dump(self, path: str) -> None:
        """Write every span, as parallel columns, to a JSON file."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"name": self.names, "start": self.starts.tolist(),
                       "end": self.ends.tolist(), "parent": self.parents.tolist()},
                      fh, separators=(",", ":"))


def merge_aggregates(aggs: list[dict]) -> dict:
    """Sum several ``Tracer.aggregate`` results (e.g. one per command)."""
    out: dict = {"spans": {}, "counts": collections.Counter(), "missing": []}
    for agg in aggs:
        for name, row in agg["spans"].items():
            acc = out["spans"].setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key, value in row.items():
                acc[key] += value
        out["counts"].update(agg["counts"])
        out["missing"] += [m for m in agg["missing"] if m not in out["missing"]]
    out["counts"] = dict(out["counts"])
    return out


def deep_size(root: Any) -> int:
    """Bytes of every object reachable from ``root`` (arrays with their
    buffers), each counted once; classes, modules, functions and enum
    members are shared program state and are skipped."""
    seen: set[int] = set()
    stack = [root]
    total = 0
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType,
            types.MethodType, enum.Enum)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        base = getattr(obj, "base", None) if hasattr(obj, "__array_interface__") else None
        if base is not None:
            stack.append(base)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset, collections.deque)):
            stack.extend(obj)
        if hasattr(obj, "__dict__"):
            stack.append(vars(obj))
        for cls in type(obj).__mro__:
            for slot in getattr(cls, "__slots__", ()):
                if hasattr(obj, slot):
                    stack.append(getattr(obj, slot))
    return total


def library_info() -> dict:
    """Interpreter, numpy, scipy and OpenBLAS versions and BLAS threads,
    read from the running process (call after ``import hmot``)."""
    hmot = sys.modules.get("hmot")
    info: dict[str, Any] = {"hmot": os.path.dirname(getattr(hmot, "__file__", "") or ""),
                            "python": platform.python_version(),
                            "nproc": len(os.sched_getaffinity(0))}
    for mod in ("numpy", "scipy"):
        m = sys.modules.get(mod)
        info[mod] = getattr(m, "__version__", None)
    info["openblas"] = None
    info["blas_threads"] = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if get_config is None or get_threads is None:
                    continue
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                info["openblas"] = get_config().decode()
                info["blas_threads"] = get_threads()
                return info
    return info
