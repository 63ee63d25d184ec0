"""Lightweight statistics instruments shared by all hardware models.

Every component keeps a :class:`StatSet` — a lazily created bag of three
instrument kinds:

* :class:`Counter` — monotonic count plus an accumulated value;
* :class:`Gauge` — a last-written level (buffer occupancy, window count);
* :class:`Histogram` — a log-linear latency distribution with percentile
  queries (``p50``/``p99`` of DRAM service time, trapper stalls, ...).

The top-level system gathers the sets into a
:class:`repro.sim.metrics.MetricsRegistry` for the experiment reports
(cache requests/misses for Figure 7, DRAM row hit rates for the ablation
benchmarks, latency breakdowns for the observability tooling, and so on).

The fast-forward layer (:mod:`repro.sim.fastpath`) replays thousands of
observations at once through :meth:`Counter.add_all`,
:meth:`Counter.add_repeated` and :meth:`Histogram.observe_all`, each
bit-identical to the element-by-element calls. Counts, extremes and
bucket tallies are order-free integer and compare operations. Float
totals are not: float addition is not associative, so a total is
accumulated by the same sequential loop, except where a constant run is
provably summed exactly (:func:`_sum_run_exact`).
"""

from __future__ import annotations

import collections
import math
from typing import Dict, Iterator, Optional, Sequence, Tuple

#: Most fetch-side timing values land on a coarse dyadic grid (PL cycles
#: of 10 ns, DRAM timings in whole ns, AXI hops in halves); scaling by 16
#: makes them integers, where addition is exact. PS-clock values (2/3 ns
#: cycles) do not, so every run is checked before the shortcut is taken.
_DYADIC_SCALE = 16
#: Integer magnitude below which float arithmetic on scaled values is exact.
_EXACT_LIMIT = float(2**53)


def _sum_run_exact(total: float, value: float, n: int) -> Optional[float]:
    """``total`` after ``n`` sequential ``+= value``, or None if inexact.

    Exact cases: ``value == 0.0`` (identity on a non-negative total), and
    dyadic-grid values where the whole computation fits integer float
    range — there each intermediate sum is exactly representable, so the
    sequential loop and the closed form produce the same bits.
    """
    if value == 0.0:
        # -0.0 + 0.0 == +0.0 flips the sign bit; totals here are sums of
        # non-negative durations, but guard anyway.
        if total == 0.0 and math.copysign(1.0, total) < 0.0:
            return None
        return total
    scaled_total = total * _DYADIC_SCALE
    scaled_value = float(value) * _DYADIC_SCALE  # values may be ints
    if not (scaled_total.is_integer() and scaled_value.is_integer()):
        return None
    if abs(scaled_value) >= _EXACT_LIMIT:
        return None  # the float conversion above may already have rounded
    # Integer arithmetic from here: every intermediate sum of the loop is
    # monotone between start and end (constant-sign step), so bounding
    # |start| and |end| below 2**53 bounds them all; each is then exactly
    # representable and each float add of the loop is exact.
    start_int = int(scaled_total)
    end_int = start_int + n * int(scaled_value)
    if abs(end_int) >= _EXACT_LIMIT or abs(start_int) >= _EXACT_LIMIT:
        return None
    return float(end_int) / _DYADIC_SCALE


def _sequential_total(start: float, values: Sequence[float]) -> float:
    """``start`` after sequentially adding every value, bit-identically.

    A constant list (one C-speed ``count``) collapses through
    :func:`_sum_run_exact` where exact; anything else runs the element
    loop, which is the reference itself — and, for a mixed list, faster
    than scanning it for runs in Python.
    """
    n = len(values)
    if n and values.count(values[0]) == n:
        shortcut = _sum_run_exact(start, values[0], n)
        if shortcut is not None:
            return shortcut
    total = start
    for value in values:
        total += value
    return total


class Counter:
    """A named monotonic counter with an optional accumulated value.

    ``count`` is the number of increments; ``total`` accumulates the values
    passed to :meth:`add` (e.g. bytes transferred, ns of busy time).
    """

    __slots__ = ("name", "count", "total")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0

    def add(self, value: float = 1.0) -> None:
        self.count += 1
        self.total += value

    def add_all(self, values: Sequence[float]) -> None:
        """Replay ``add(v) for v in values``, bit-identically."""
        if values:
            self.total = _sequential_total(self.total, values)
            self.count += len(values)

    def add_repeated(self, n: int, value: float = 1.0) -> None:
        """Replay ``n`` calls of ``add(value)``, bit-identically."""
        if n <= 0:
            return
        total = _sum_run_exact(self.total, value, n)
        if total is None:
            total = self.total
            for _ in range(n):
                total += value
        self.total = total
        self.count += n

    @property
    def mean(self) -> float:
        """Average accumulated value per increment (0 when never hit)."""
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Counter") -> None:
        """Fold ``other`` into this counter (associative, commutative)."""
        self.count += other.count
        self.total += other.total

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}: count={self.count}, total={self.total:.1f})"


class Gauge:
    """A named level: the last value written, plus the extremes seen."""

    __slots__ = ("name", "value", "min", "max", "updates")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = value
        self.updates += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def merge(self, other: "Gauge") -> None:
        """Fold ``other`` into this gauge.

        Extremes and update counts combine associatively and
        commutatively; ``value`` ("last written") keeps the value of the
        *later* operand whenever it saw any update, so merging shards in
        shard-index order is deterministic regardless of which worker
        finished first.
        """
        if other.updates:
            self.value = other.value
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        self.updates += other.updates

    def reset(self) -> None:
        self.value = 0.0
        self.min = None
        self.max = None
        self.updates = 0

    def as_dict(self) -> Dict[str, float]:
        return {
            "value": self.value,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """A log-linear histogram: power-of-two ranges, linear sub-buckets.

    Values land in buckets whose width is ``1/subbuckets`` of their
    power-of-two range, so any percentile estimate is within
    ``1/subbuckets`` relative error (~6 % at the default 16) of the true
    value — the HdrHistogram idea, sized for simulation latencies. Exact
    ``min``/``max``/``mean`` are tracked on the side; percentile results
    are clamped into ``[min, max]``.

    Non-positive observations (zero-delay events) are counted in a
    dedicated underflow bucket reported as 0.
    """

    __slots__ = ("name", "subbuckets", "count", "total", "min", "max",
                 "_buckets", "_underflow")

    def __init__(self, name: str, subbuckets: int = 16):
        if subbuckets < 1:
            raise ValueError("histogram needs at least one sub-bucket")
        self.name = name
        self.subbuckets = subbuckets
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._buckets: Dict[Tuple[int, int], int] = {}
        self._underflow = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value <= 0:
            self._underflow += 1
            return
        mantissa, exponent = math.frexp(value)  # mantissa in [0.5, 1)
        sub = int((mantissa - 0.5) * 2 * self.subbuckets)
        key = (exponent, min(sub, self.subbuckets - 1))
        self._buckets[key] = self._buckets.get(key, 0) + 1

    def observe_all(self, values: Sequence[float]) -> None:
        """Replay ``observe(v) for v in values``, bit-identically.

        ``count``, ``min``/``max``, underflow and bucket tallies are
        order-free and computed in bulk; ``total`` keeps the sequential
        float-accumulation order. Replayed observations repeat heavily (a
        steady-state epoch waits the same few durations over and over),
        so each distinct value is bucketed once and credited its
        multiplicity, with the bucket expression of :meth:`observe`.
        """
        n = len(values)
        if not n:
            return
        self.count += n
        self.total = _sequential_total(self.total, values)
        lo = min(values)
        hi = max(values)
        if self.min is None or lo < self.min:
            self.min = lo
        if self.max is None or hi > self.max:
            self.max = hi
        if hi <= 0:
            self._underflow += n
            return
        buckets = self._buckets
        subbuckets = self.subbuckets
        for value, seen in collections.Counter(values).items():
            if value <= 0:
                self._underflow += seen
                continue
            mantissa, exponent = math.frexp(value)
            sub = int((mantissa - 0.5) * 2 * subbuckets)
            key = (exponent, min(sub, subbuckets - 1))
            buckets[key] = buckets.get(key, 0) + seen

    def _bucket_upper(self, key: Tuple[int, int]) -> float:
        exponent, sub = key
        return math.ldexp(0.5 + (sub + 1) / (2 * self.subbuckets), exponent)

    def percentile(self, p: float) -> float:
        """The value below which ``p`` percent of observations fall.

        Returns the upper edge of the containing bucket, clamped to the
        exact observed ``[min, max]``; 0.0 when nothing was observed.
        ``p=0`` and ``p=100`` return the exact observed minimum and
        maximum — the rank clamp below would otherwise force ``p=0`` to
        the first occupied bucket's upper edge instead of the minimum.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self.count:
            return 0.0
        if p == 0:
            return self.min
        if p == 100:
            return self.max
        rank = max(1, math.ceil(self.count * p / 100.0))
        cumulative = self._underflow
        estimate = 0.0
        if cumulative < rank:
            for key in sorted(self._buckets):
                cumulative += self._buckets[key]
                if cumulative >= rank:
                    estimate = self._bucket_upper(key)
                    break
        return max(self.min, min(self.max, estimate))

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s distribution into this one.

        Bucket, underflow and observation counts add exactly, and the
        observed extremes combine, so every percentile of the merged
        histogram equals the percentile of one histogram that saw all
        observations — the property the sharded execution layer relies
        on. ``total`` is a float sum, so the merged mean can differ from
        a sequentially accumulated one by float rounding; the percentile
        algebra is exact.
        """
        if other.subbuckets != self.subbuckets:
            raise ValueError(
                f"cannot merge histograms with different sub-bucket counts "
                f"({self.subbuckets} vs {other.subbuckets})"
            )
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        self._underflow += other._underflow
        for key, n in other._buckets.items():
            self._buckets[key] = self._buckets.get(key, 0) + n

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        self._buckets.clear()
        self._underflow = 0

    def as_dict(self) -> Dict[str, Optional[float]]:
        """Snapshot of the histogram's summary statistics.

        ``min``/``max`` are ``None`` when nothing was observed — a 0.0
        there would be indistinguishable from a real observation of 0.0
        in exported CSV/JSON.
        """
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Histogram({self.name}: n={self.count}, "
                f"p50={self.percentile(50):.1f}, p99={self.percentile(99):.1f})")


class StatSet:
    """A named bag of counters, gauges and histograms, created lazily."""

    def __init__(self, owner: str):
        self.owner = owner
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def bump(self, name: str, value: float = 1.0) -> None:
        """Shorthand for ``stat.counter(name).add(value)``.

        Inlined (dict probe + field updates) rather than delegating: this
        is the hottest call in cycle-level runs, fired once per cache
        probe, DRAM command and scheduler hand-off.
        """
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        counter.count += 1
        counter.total += value

    def count(self, name: str) -> int:
        """Current count of ``name`` (0 if never bumped)."""
        counter = self._counters.get(name)
        return counter.count if counter else 0

    def total(self, name: str) -> float:
        counter = self._counters.get(name)
        return counter.total if counter else 0.0

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def set_gauge(self, name: str, value: float) -> None:
        """Shorthand for ``stat.gauge(name).set(value)``."""
        self.gauge(name).set(value)

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name)
        return histogram

    def observe(self, name: str, value: float) -> None:
        """Shorthand for ``stat.histogram(name).observe(value)``."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name)
        histogram.observe(value)

    def percentile(self, name: str, p: float) -> float:
        """Percentile of histogram ``name`` (0.0 if never observed)."""
        histogram = self._histograms.get(name)
        return histogram.percentile(p) if histogram else 0.0

    def merge(self, other: "StatSet") -> None:
        """Fold every instrument of ``other`` into this set by name.

        Instruments missing on this side are created (with ``other``'s
        sub-bucket geometry for histograms), so merging shard StatSets
        into a fresh set reconstructs the union. Merging is associative,
        and commutative up to gauge ``value`` (last-writer) semantics.
        """
        for name, counter in other._counters.items():
            self.counter(name).merge(counter)
        for name, gauge in other._gauges.items():
            self.gauge(name).merge(gauge)
        for name, histogram in other._histograms.items():
            mine = self._histograms.get(name)
            if mine is None:
                mine = self._histograms[name] = Histogram(
                    name, subbuckets=histogram.subbuckets
                )
            mine.merge(histogram)

    def reset(self) -> None:
        for counter in self._counters.values():
            counter.reset()
        for gauge in self._gauges.values():
            gauge.reset()
        for histogram in self._histograms.values():
            histogram.reset()

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """Snapshot of every instrument, suitable for reports and assertions.

        Counters keep their historical ``{"count", "total"}`` shape; gauges
        and histograms contribute richer dicts (``value``/``min``/``max``
        and ``count``/``total``/``mean``/``min``/``max``/``p50``/``p90``/
        ``p99`` respectively), all merged under their instrument name.
        """
        snapshot: Dict[str, Dict[str, float]] = {
            name: {"count": c.count, "total": c.total}
            for name, c in self._counters.items()
        }
        for name, gauge in self._gauges.items():
            snapshot[name] = gauge.as_dict()
        for name, histogram in self._histograms.items():
            snapshot[name] = histogram.as_dict()
        return dict(sorted(snapshot.items()))

    def __iter__(self) -> Iterator[Tuple[str, Counter]]:
        return iter(sorted(self._counters.items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{n}={c.count}" for n, c in self)
        return f"StatSet({self.owner}: {inner})"
