"""Spans recorded from outside the program, at each call the benchmark makes
into a layer of ``src/kpmod``.

A span is [name, start, end, parent, op id, refused].  Spans stay in memory
for the whole pass and are summarized once it ends.  ``NullTracer`` is the
untraced stand-in: the same interface, no recording.
"""

from __future__ import annotations

import statistics
import tracemalloc
from collections import Counter
from time import perf_counter

from kpmod import ModuleTooLargeError

#: Spans whose calls the alloc pass wraps in tracemalloc.
ALLOC_SPANS = ("modules.kp_module", "filtration.char_criterion")


class NullTracer:
    on = False

    def call(self, name, fn, *args):
        return fn(*args)

    def add(self, key, value=1):
        pass


class Tracer:
    """Records a span per call; with ``alloc`` set it also records the
    tracemalloc peak of each call named in ALLOC_SPANS."""

    on = True

    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        self.spans: list = []
        self.counts: Counter = Counter()
        self.peaks: dict = {}
        self.op = None
        self.kp_args: set = set()  # kp_module arguments seen, for the repeat share
        self._stack: list = []

    def call(self, name, fn, *args):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        measure = self.alloc and name in ALLOC_SPANS and not tracemalloc.is_tracing()
        if measure:
            tracemalloc.start()
        rec[1] = perf_counter()
        try:
            return fn(*args)
        except ModuleTooLargeError:
            rec[5] = True
            raise
        finally:
            rec[2] = perf_counter()
            self._stack.pop()
            if measure:
                self.peak(f"{name}.alloc_peak_kib", tracemalloc.get_traced_memory()[1] / 1024)
                tracemalloc.stop()

    def add(self, key, value=1):
        self.counts[key] += value

    def peak(self, key, value):
        self.peaks[key] = max(self.peaks.get(key, value), value)

    def summary(self) -> dict:
        """Per span name: calls, refused, self time (duration minus the
        durations of direct child spans) and duration percentiles."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        durs: dict = {}
        out: dict = {}
        for t, (name, t0, t1, _, _, refused) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "refused": 0, "self_s": 0.0})
            s["calls"] += 1
            s["refused"] += refused
            s["self_s"] += (t1 - t0) - child[t]
            durs.setdefault(name, []).append(t1 - t0)
        for name, ds in durs.items():
            out[name]["p50_ms"] = 1000 * statistics.median(ds)
            out[name]["p90_ms"] = 1000 * percentile(ds, 0.9)
        return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]
