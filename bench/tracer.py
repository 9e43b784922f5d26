"""Out-of-tree span tracing for acdkit: wrap public functions, aggregate per layer.

`install` wraps every public function of each acdkit layer module and
rebinds the wrapper in every acdkit namespace that holds the original, so
calls made through `from .kernels import cross_gram` and the like are seen
too. Spans (id, parent, name, start, end, thread, counts) are kept in
memory and written once, when the traced process ends.

A span opened on a worker thread whose own stack is empty takes as parent
the innermost open span of the thread that installed the tracer. In acdkit
only `detectors.xi_pixels` starts worker threads, and it blocks on them, so
that span is the one that caused the work.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import itertools
import json
import math
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("cli", "io_formats", "raster", "simulate", "kernels", "linalg",
          "detectors", "metrics", "tune")


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans = []
        self.names = []
        self._ids = itertools.count(1)
        self._root_thread = threading.get_ident()
        self._root_stack = []
        self._local = threading.local()

    def _stack(self):
        if threading.get_ident() == self._root_thread:
            return self._root_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, counter=None):
        self.names.append(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = self._root_stack[-1]
                except IndexError:
                    parent = 0
            span_id = next(self._ids)
            stack.append(span_id)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                span = [span_id, parent, name, t0, t1, threading.get_ident(), None]
                self.spans.append(span)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[6] = counter(bound.arguments, result)
            return result

        return traced

    def dump(self, path):
        record = {"pid": os.getpid(), "wrapped": self.names, "spans": self.spans}
        Path(path).write_text(json.dumps(record))


# ---------------------------------------------------------------------------
# counters: exact counts, or quantities computed from array shapes
# ---------------------------------------------------------------------------

def _nbytes_f32(cube):
    return int(cube.data.size) * 4


def _dir_bytes(directory):
    return sum(p.stat().st_size for p in Path(directory).iterdir() if p.is_file())


def _gram(a, r):
    rows = a["rows"]
    key = hashlib.sha1(rows.tobytes()).hexdigest() + repr(a["spec"])
    return {"evals": int(rows.shape[0]) ** 2, "key": key}


def _spd_retries(a, factor):
    """Retries inferred from the returned ridge against the starting ridge."""
    c = np.asarray(a["c"], dtype=np.float64)
    scale = max(float(np.trace(c)) / c.shape[0], 0.0)
    eps0 = a["ridge_scale"] * scale
    if factor.ridge == eps0:
        retries = 0
    elif eps0 == 0.0:
        floor = np.finfo(np.float64).eps * max(scale, 1.0)
        retries = 1 + round(math.log10(factor.ridge / floor))
    else:
        retries = round(math.log10(factor.ridge / eps0))
    return {"retries": retries, "retried_calls": int(retries > 0)}


COUNTERS = {
    "io_formats.read_raster": lambda a, r: {"bytes": _nbytes_f32(r)},
    "io_formats.write_raster": lambda a, r: {"bytes": _nbytes_f32(a["cube"])},
    "io_formats.write_roc_csv": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "io_formats.save_model": lambda a, r: {"bytes": _dir_bytes(a["directory"])},
    "raster.as_pixel_matrix": lambda a, r: {"bytes": int(r.nbytes)},
    "kernels.gram": _gram,
    "kernels.cross_gram": lambda a, r: {"evals": int(r.size)},
    "linalg.spd_factorize": _spd_retries,
    "detectors.fit_kernel_term": lambda a, r: {"flops": 2 * int(r.train.shape[0]) ** 3},
    "detectors.xi_pixels": lambda a, r: {"rows": int(r[0].shape[0])},
    "metrics.roc_curve": lambda a, r: {"vertices": int(r.fpr.size)},
    "tune.grid_search": lambda a, r: {"points": len(r.trace)},
}


def install(tracer: Tracer) -> None:
    """Wrap each public function of every layer in every acdkit namespace."""
    modules = {layer: importlib.import_module(f"acdkit.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            wrapped[obj] = tracer.wrap(name, obj, COUNTERS.get(name))
    for namespace in (importlib.import_module("acdkit"), *modules.values()):
        for attr, obj in list(vars(namespace).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(namespace, attr, wrapped[obj])


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals.

    Children may overlap one another (worker threads); each child interval
    is clipped to its parent's before the union is taken.
    """
    children = defaultdict(list)
    for s in spans:
        children[s[1]].append((s[3], s[4]))
    out = {}
    for s in spans:
        t0, t1 = s[3], s[4]
        clipped = [(max(a, t0), min(b, t1)) for a, b in children.get(s[0], ()) if b > t0 and a < t1]
        out[s[0]] = (t1 - t0) - union_length(clipped)
    return out


def process_layers(record) -> dict:
    """Per-name metrics for one traced process.

    name.s       busy wall time (union of the name's spans)
    name.self_s  sum over spans of duration minus child spans
    name.calls   number of spans
    name.<k>     sum of each counter k; gram keys are kept as a set
    Also `_in_span_s`: process time covered by some root span.
    """
    spans = [tuple(s) for s in record["spans"]]
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[2]].append(s)
    out = {}
    for name, group in by_name.items():
        out[f"{name}.s"] = union_length([(s[3], s[4]) for s in group])
        out[f"{name}.self_s"] = sum(selfs[s[0]] for s in group)
        out[f"{name}.calls"] = len(group)
        for s in group:
            for k, v in (s[6] or {}).items():
                if k == "key":
                    out.setdefault(f"{name}._keys", set()).add(v)
                else:
                    out[f"{name}.{k}"] = out.get(f"{name}.{k}", 0) + v
    ids = {s[0] for s in spans}
    out["_in_span_s"] = union_length([(s[3], s[4]) for s in spans if s[1] not in ids])
    return out


def merge(per_process) -> dict:
    """Sum per-process metrics of one repetition and derive the ratios."""
    out = {}
    for metrics in per_process:
        for k, v in metrics.items():
            if isinstance(v, set):
                out[k] = out.get(k, set()) | v
            else:
                out[k] = out.get(k, 0) + v
    gram_calls = out.get("kernels.gram.calls", 0)
    keys = out.pop("kernels.gram._keys", set())
    out["kernels.gram.distinct_frac"] = len(keys) / gram_calls if gram_calls else 0.0
    spd_calls = out.get("linalg.spd_factorize.calls", 0)
    retried = out.get("linalg.spd_factorize.retried_calls", 0)
    out["linalg.spd_factorize.first_try_frac"] = (
        (spd_calls - retried) / spd_calls if spd_calls else 0.0
    )
    out["tune.points"] = out.get("tune.grid_search.points", 0)
    return out
