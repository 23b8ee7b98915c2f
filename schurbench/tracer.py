"""Spans around the public functions and classes of each package module.

Installing a Tracer rebinds, in every module of the package, each function
and class listed in a module's `__all__` (or, for a module without one,
each public name it defines), including the names other modules imported
from it.  A class is traced through its `__init__`, as `<Class>.new`.

A span is (name, start, end, parent).  Each span is folded into per-name
totals when it closes: calls, and self time, its duration minus the part
its child spans cover.  Keeping every span would hold millions in memory,
so only the spans of the top KEEP_DEPTH levels are kept whole.  Time
outside any span is the harness's own.
"""

from __future__ import annotations

import importlib
import time

LAYERS = ("affine", "partitions", "shapes", "kcode", "orderlab", "oracles",
          "symfunc", "verify", "cli")
PACKAGE = "affineschur"
KEEP_DEPTH = 3
MAX_KEPT = 50_000
# Functions whose results are counted as well as timed: name -> metric.
SIZED = {"affine.ball": "elements", "affine.grassmannian_ball": "elements"}


def _public_names(module) -> list[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n, obj in vars(module).items()
                 if not n.startswith("_") and getattr(obj, "__module__", None) == module.__name__]
    return list(names)


class Tracer:
    def __init__(self):
        self.modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        self.stats: dict[str, list] = {}   # name -> [calls, self_s, counted]
        self.memos: dict[str, object] = {}  # name -> object with cache_info()
        self.memo_totals: dict[str, dict] = {}
        self.spans: list[list] = []         # [name, start, end, parent index]
        self._stack = [0.0]                 # child time of each open span; root first
        self._open = [-1]                   # kept span index at each open depth
        self.started = None

    def install(self) -> None:
        wrapped: dict[int, tuple[object, object]] = {}
        for layer, module in self.modules.items():
            for name in _public_names(module):
                obj = getattr(module, name)
                home = getattr(obj, "__module__", "")
                if id(obj) in wrapped or not home.startswith(PACKAGE + "."):
                    continue
                short = home.rsplit(".", 1)[1]
                if short not in self.modules:
                    continue
                key = f"{short}.{getattr(obj, '__name__', name)}"
                if isinstance(obj, type):
                    obj.__init__ = self._wrap(obj.__init__, key + ".new")
                    wrapped[id(obj)] = (obj, obj)
                    continue
                if not callable(obj):
                    continue
                if hasattr(obj, "cache_info"):
                    self.memos[key] = obj
                wrapped[id(obj)] = (obj, self._wrap(obj, key))
        package = importlib.import_module(PACKAGE)
        for module in (package, *self.modules.values()):
            for name, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, name, hit[1])
        self.started = time.perf_counter()

    def _wrap(self, fn, key: str):
        stat = self.stats.setdefault(key, [0, 0.0, 0])
        stack, opened, spans = self._stack, self._open, self.spans
        clock = time.perf_counter
        sized = key in SIZED

        def traced(*args, **kwargs):
            depth = len(stack)
            keep = depth <= KEEP_DEPTH and len(spans) < MAX_KEPT
            if keep:
                index = len(spans)
                spans.append([key, 0.0, 0.0, opened[-1]])
                opened.append(index)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                stat[0] += 1
                stat[1] += duration - stack.pop()
                stack[-1] += duration
                if keep:
                    spans[index][1] = start
                    spans[index][2] = end
                    opened.pop()
            if sized:
                stat[2] += len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def fold_memos(self) -> None:
        """Add the memo counters so far to the totals; call before cache_clear().

        Hits and misses add up; size is the largest a memo grew between clears.
        """
        for key, fn in self.memos.items():
            info = fn.cache_info()
            acc = self.memo_totals.setdefault(key, {"hits": 0, "misses": 0, "size": 0})
            acc["hits"] += info.hits
            acc["misses"] += info.misses
            acc["size"] = max(acc["size"], info.currsize)

    def report(self) -> dict:
        """Per-name totals, memo counters, and the wall-time accounting."""
        wall = time.perf_counter() - self.started
        self.fold_memos()
        names = {}
        for key, (calls, self_s, counted) in self.stats.items():
            if calls:
                names[key] = {"calls": calls, "self_s": self_s}
                if key in SIZED:
                    names[key][SIZED[key]] = counted
        return {
            "wall_s": wall,
            "in_spans_s": self._stack[0],
            "names": names,
            "memos": self.memo_totals,
            "spans": [
                {"name": n, "start": s - self.started, "end": e - self.started, "parent": p}
                for n, s, e, p in self.spans
            ],
        }
