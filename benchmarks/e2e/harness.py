"""Timing, span recording and summary statistics for the end-to-end benchmark.

Every call the benchmark makes into the program goes through
:meth:`Recorder.span`, which times it from the outside with
``time.perf_counter`` and keeps a span (name, start, end, op id, parent)
in memory. The same recorder optionally switches a ``cProfile.Profile``
on for exactly the duration of each span, so the profiled run measures
the same calls the untraced run times and nothing of the benchmark's own
bookkeeping.
"""

from __future__ import annotations

import json
import math
import resource
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``p``% of
    the samples at or below it. Deterministic, no interpolation."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Recorder:
    """Times calls into the program and keeps their spans in memory."""

    def __init__(self, profiler=None):
        #: Optional ``cProfile.Profile`` enabled only inside spans.
        self.profiler = profiler
        self.origin = time.perf_counter()
        #: (name, start_s, end_s, op, parent) relative to ``origin``.
        self.spans: List[tuple] = []
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.timed_s = 0.0
        #: Seconds of the most recently closed span.
        self.last = 0.0
        #: The process's peak resident set as of the last span's end, so
        #: untimed work after the last call (replays) does not count.
        self.peak_rss_mb = 0.0

    @contextmanager
    def span(self, name: str, op: int = -1, parent: str = ""):
        """Time one call into the program."""
        profiler = self.profiler
        if profiler is not None:
            profiler.enable()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            if profiler is not None:
                profiler.disable()
            elapsed = self.last = end - start
            self.timed_s += elapsed
            self.durations[name].append(elapsed)
            self.spans.append((name, start - self.origin, end - self.origin,
                               op, parent))
            self.peak_rss_mb = peak_rss_mb()

    def group(self, name: str, start: float, parent: str = "") -> None:
        """Record an untimed grouping span (a session, epoch or rung) that
        encloses the call spans naming it as their parent."""
        self.spans.append((name, start - self.origin,
                           time.perf_counter() - self.origin, -1, parent))

    def now(self) -> float:
        return time.perf_counter()

    def write_chrome_trace(self, path) -> None:
        """Write the spans as Chrome-trace JSON (open in Perfetto)."""
        events = [{
            "name": name,
            "ph": "X",
            "ts": round(start * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "pid": 1,
            "tid": 1,
            "args": {"op": op, "parent": parent},
        } for name, start, end, op, parent in self.spans]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)


class Tally:
    """Correctness bookkeeping: every check counts as attempted; a check
    that does not hold counts as failed, and the first few are logged."""

    LOGGED = 20

    def __init__(self, log=None):
        self.attempted = 0
        self.failed = 0
        self.log = log

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.log is not None and self.failed <= self.LOGGED:
                self.log(f"check failed: {what}")
        return ok


def close_enough(actual, expected, rel: float = 1e-9) -> bool:
    """Exact for integers, rows and containers; relative for floats."""
    if isinstance(expected, float) or isinstance(actual, float):
        if not isinstance(actual, (int, float)):
            return False
        scale = max(abs(expected), abs(actual), 1e-300)
        return abs(actual - expected) <= rel * scale
    if isinstance(expected, dict):
        return (isinstance(actual, dict) and actual.keys() == expected.keys()
                and all(close_enough(actual[k], expected[k], rel)
                        for k in expected))
    return actual == expected


class Metric:
    """One reported number with its unit and sample count."""

    __slots__ = ("name", "value", "unit", "samples")

    def __init__(self, name: str, value: float, unit: str, samples: int):
        self.name = name
        self.value = float(value)
        self.unit = unit
        self.samples = int(samples)


class MetricSet:
    """An ordered collection of :class:`Metric` by name."""

    def __init__(self):
        self._metrics: Dict[str, Metric] = {}

    def add(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self._metrics[name] = Metric(name, value, unit, samples)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def __iter__(self):
        return iter(self._metrics.values())
