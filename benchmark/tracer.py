"""Spans around the benchmark's own calls into ``qcsim``.

A :class:`Tracer` times each call the benchmark makes into a module's
public function and adds it to that function's busy time; it also keeps
counters.  Nothing inside ``qcsim`` is instrumented, so a layer's time is
the time of the calls the benchmark makes into it.  :class:`NullTracer`
has the same interface and calls straight through; the end-to-end run
uses it so that its numbers carry no tracing cost.
"""
from __future__ import annotations

import time
from collections import defaultdict


class NullTracer:
    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def add(self, name, value):
        pass

    def peak(self, name, value):
        pass

    def job_begin(self):
        pass

    def job_end(self):
        pass


class Tracer(NullTracer):
    """Busy time per ``layer.function`` span plus named counters.

    Spans that run while a job is being timed also add to
    ``covered_s``; ``trace.coverage`` divides that by the jobs' wall
    time, so a call counted twice shows as a coverage above 1.
    """

    enabled = True

    def __init__(self):
        self.busy: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self.covered_s = 0.0
        self.in_job_calls = 0
        self._in_job = False

    def call(self, name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self.busy[name] += dt
            self.calls[name] += 1
            if self._in_job:
                self.covered_s += dt
                self.in_job_calls += 1

    def add(self, name, value):
        self.counts[name] += value

    def peak(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def job_begin(self):
        self._in_job = True

    def job_end(self):
        self._in_job = False


def call_overhead_s(calls: int = 20000) -> float:
    """Measured cost of one ``Tracer.call`` span over a direct call."""
    def noop():
        return None

    tracer = Tracer()
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    direct = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        tracer.call("noop", noop)
    traced = time.perf_counter() - t0
    return max(traced - direct, 0.0) / calls
