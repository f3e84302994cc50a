"""Per-layer tracing for the benchmark's traced run.

The tracer wraps public functions of the `initrack` modules at every name
their callers use, so that calls from the benchmark and calls between the
package's own modules both pass through the wrapper.  Functions called once
per turn or more often only keep a count and summed times; the others also
keep one span per call (name, start, end, parent).  Everything stays in
memory until `write` at the end of the run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Callable


class Stat:
    __slots__ = ("calls", "ns", "child_ns", "ok_ns", "units", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.ns = 0  # time of all calls
        self.child_ns = 0  # part of it spent in other traced calls
        self.ok_ns = 0  # time of the calls that returned
        self.units = 0  # turns or points handled by the calls that returned
        self.depth = 0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.spans: list[tuple[str, int, int, int]] = []
        self._stack: list[list[int]] = []  # [span id, child ns] per open call
        self._undo: list[Callable[[], None]] = []
        self.origin = time.perf_counter_ns()

    def wrap(self, name: str, fn: Callable, *, hot: bool = False, units: Callable | None = None,
             outermost: bool = False) -> Callable:
        """A traced stand-in for fn.

        hot: keep no span per call.  units(args, result) counts the turns a
        call handled.  outermost: time only calls not nested in another call
        of the same stat.
        """
        stat = self.stats[name]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if outermost and stat.depth:
                return fn(*args, **kwargs)
            stat.depth += 1
            span_id = -1 if hot else len(spans)
            if not hot:
                spans.append((name, clock() - self.origin, 0, stack[-1][0] if stack else -1))
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.ns += elapsed
                stat.child_ns += frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if not hot:
                    spans[span_id] = (name, spans[span_id][1], clock() - self.origin, spans[span_id][3])
            if ok:
                stat.ok_ns += elapsed
                if units is not None:
                    stat.units += units(args, result)
            return result

        return traced

    def patch(self, module_name: str, attr: str, **options) -> None:
        """Replace module.attr at every initrack module that refers to it."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = self.wrap(f"{module_name.split('.')[-1]}.{attr}", original, **options)
        for name, module in list(sys.modules.items()):
            if name != "initrack" and not name.startswith("initrack."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._undo.append(lambda m=module, k=key, v=original: setattr(m, k, v))

    def patch_properties(self, cls: type, names: list[str], stat_name: str) -> None:
        """Trace a group of properties as one stat, timing outermost accesses only."""
        for prop in names:
            original = cls.__dict__[prop]
            setattr(cls, prop, property(self.wrap(stat_name, original.fget, hot=True, outermost=True)))
            self._undo.append(lambda p=prop, o=original: setattr(cls, p, o))

    def unpatch(self) -> None:
        while self._undo:
            self._undo.pop()()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run one call from the benchmark's own code as a span named `name`."""
        return self.wrap(name, fn)(*args, **kwargs)

    def write(self, path: str, extra: dict) -> None:
        data = {
            "stats": {name: {k: getattr(s, k) for k in Stat.__slots__ if k != "depth"}
                      for name, s in sorted(self.stats.items())},
            "spans": [{"name": n, "start_ns": a, "end_ns": b, "parent": p} for n, a, b, p in self.spans],
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)

