"""In-memory span recorder for the traced benchmark run.

Tracing replaces every public function of the traced klsf modules, in its
defining module and in every klsf module that imported it by name, with a
wrapper that records one span per call: (name, start, end, parent).  Spans
are kept in flat arrays while the pass runs and summarised afterwards, so a
traced pass pays one perf_counter pair and four appends per call.  The
library itself is never edited; untraced passes run the original functions.

Self time of a span is its duration minus the durations of its direct
children.  Calls are synchronous and single-threaded, so children never
overlap and that difference is exactly the uncovered part of the interval.
"""

from __future__ import annotations

import sys
import types
from array import array
from time import perf_counter

import numpy as np

TRACED_MODULES = ("search", "covering", "classify", "vecset", "constructions", "zpset", "spectral")


class Recorder:
    """Spans of one traced pass, plus per-call counters filled by extractors."""

    def __init__(self):
        self.names: list[str] = []           # qualified names, indexed by name id
        self.ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.attrs: dict[int, tuple] = {}    # span index -> (p, n) for classify spans

    def intern(self, name: str) -> int:
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))


def _wrap(fn, rec: Recorder, nid: int, extract):
    stack = rec._stack

    def traced(*args, **kwargs):
        idx = len(rec.parent)
        rec.name_id.append(nid)
        rec.parent.append(stack[-1] if stack else -1)
        rec.end.append(0.0)
        stack.append(idx)
        rec.start.append(perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end[idx] = perf_counter()
            stack.pop()
        if extract is not None:
            extract(rec, idx, args, result)
        return result

    traced.__wrapped__ = fn
    traced.__name__ = fn.__name__
    return traced


class Tracer:
    """Context manager: installs span wrappers bound to a fresh Recorder into
    the loaded klsf modules on entry and restores the originals on exit."""

    def __init__(self, extractors: dict):
        self.extractors = extractors
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def __enter__(self) -> Recorder:
        rec = Recorder()
        wrappers: dict[int, object] = {}
        for modname, mod in sorted(sys.modules.items()):
            if mod is None or not (modname == "klsf" or modname.startswith("klsf.")):
                continue
            for attr, obj in list(vars(mod).items()):
                qual = _public_qualname(attr, obj)
                if qual is None:
                    continue
                w = wrappers.get(id(obj))
                if w is None:
                    w = wrappers[id(obj)] = _wrap(obj, rec, rec.intern(qual), self.extractors.get(qual))
                setattr(mod, attr, w)
                self._patched.append((mod, attr, obj))
        return rec

    def __exit__(self, *exc) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()


def _public_qualname(attr: str, obj) -> str | None:
    if not isinstance(obj, types.FunctionType) or attr.startswith("_") or attr != obj.__name__:
        return None
    home = obj.__module__ or ""
    if not home.startswith("klsf."):
        return None
    module = home.rsplit(".", 1)[1]
    return f"{module}.{attr}" if module in TRACED_MODULES else None


def self_times(rec: Recorder) -> tuple[np.ndarray, np.ndarray]:
    """(inclusive duration, self time) per span."""
    _, parent, start, end = rec.arrays()
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur, dur - child


def under(rec: Recorder, ancestor: str) -> np.ndarray:
    """Boolean mask of spans that have a span called `ancestor` above them."""
    names, parent, _, _ = rec.arrays()
    target = rec.ids.get(ancestor, -1)
    out = np.zeros(len(names), dtype=bool)
    cur = parent.astype(np.int64)
    while True:
        live = cur >= 0
        if not live.any():
            return out
        out |= live & (names[np.where(live, cur, 0)] == target)
        cur = np.where(live, parent[np.where(live, cur, 0)], -1)


def save(path, rec: Recorder) -> None:
    names, parent, start, end = rec.arrays()
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, names=np.array(rec.names), name_id=names, parent=parent,
                        start=start, end=end)
