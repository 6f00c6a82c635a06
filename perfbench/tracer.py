"""In-memory span tracer that wraps functions where their callers look them up.

Every wrapped call records one span (name, start, end, parent span, operation
id) in flat arrays, so a traced operation with ~10^5 calls costs a few MB.
Counters are kept per operation next to the spans.  Self times are computed
from the spans at the end: a span's duration minus the durations of the spans
whose parent it is (calls are sequential, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict = defaultdict(float)   # (op, key) -> summed value
        self.peaks: dict = {}                     # (op, key) -> max value
        self.op_id = -1
        self.last_matrix = None                   # (matrix, permc_spec) of the last linear solve
        self.absent: list[str] = []
        self.installed: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[(self.op_id, key)] += value

    def peak(self, key: str, value: float) -> None:
        k = (self.op_id, key)
        self.peaks[k] = max(self.peaks.get(k, value), value)

    # -- seams -------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace owner.attr by a traced wrapper; owner is a module path or a class.

        A missing module or attribute is recorded in `absent` instead of
        raising, so the benchmark runs against commits that lack a seam.
        `after(tracer, result, args, kwargs)` runs once the span has closed.
        """
        label = owner if isinstance(owner, str) else owner.__qualname__
        if isinstance(owner, str):
            try:
                owner = importlib.import_module(owner)
            except ImportError:
                owner = None
        if owner is None or not hasattr(owner, attr):
            self.absent.append(f"{label}.{attr}")
            return
        raw = vars(owner).get(attr, getattr(owner, attr)) if isinstance(owner, type) \
            else getattr(owner, attr)
        binder = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if binder else raw
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.count(name + ".errors")
                raise
            finally:
                tracer.finish(i)
            if after is not None:
                after(tracer, out, args, kwargs)
            return out

        setattr(owner, attr, binder(traced) if binder else traced)
        self._undo.append((owner, attr, raw))
        self.installed.append(f"{label}.{attr}")

    def unwrap_all(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def per_op(self) -> dict:
        """{op: {name: (calls, total_s, self_s)}} from the recorded spans.

        calls and total_s count only spans whose parent has another name, so
        a function reached twice on one call path is not counted twice;
        self_s sums over every span of the name.
        """
        a = self.arrays()
        n = a["name"].size
        if n == 0:
            return {}
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        parent_name = np.where(has_parent, a["name"][np.maximum(a["parent"], 0)], -1)
        outer = parent_name != a["name"]
        k = len(self.names)
        ops = np.unique(a["op"])
        out = {}
        for op in ops.tolist():
            sel = a["op"] == op
            key = a["name"][sel]
            calls = np.bincount(key[outer[sel]], minlength=k)
            total = np.bincount(key[outer[sel]], weights=dur[sel][outer[sel]], minlength=k)
            selft = np.bincount(key, weights=own[sel], minlength=k)
            out[op] = {self.names[j]: (int(calls[j]), float(total[j]), float(selft[j]))
                       for j in range(k) if calls[j] or selft[j]}
        return out

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
