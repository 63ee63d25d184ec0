"""A set-associative write-back cache with true-LRU replacement.

The cache is a *functional* structure: it tracks which lines are present
and in what recency order, and counts requests/misses/evictions. Timing is
owned by :class:`repro.memsys.hierarchy.MemoryHierarchy`, which consults
the caches and charges the appropriate hit/miss latencies.

Lines are identified by their line address (byte address with the offset
bits already stripped: ``addr // line_size``-style, we keep byte-aligned
line base addresses for readability).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional

from ..config import CacheGeometry
from ..errors import ConfigurationError
from ..sim import StatSet


class Cache:
    """One cache level (used for both the 32 KB L1-D and the 1 MB L2)."""

    def __init__(self, name: str, geometry: CacheGeometry):
        geometry.validate()
        self.name = name
        self.geometry = geometry
        self.line_size = geometry.line_size
        self.n_sets = geometry.n_sets
        self.assoc = geometry.assoc
        self.stats = StatSet(name)
        #: Whether the victim of the most recent fill needed a write-back.
        self.last_victim_dirty = False
        # Each set is an OrderedDict {line_base: dirty}; LRU at the front.
        self._sets: Dict[int, "OrderedDict[int, bool]"] = {}
        # Lookup-path counters, pre-created once: every scanned element
        # probes the L1, so lookup() must be straight-line field updates
        # (StatSet.reset() mutates counters in place, so these references
        # stay valid across experiment resets).
        self._c_requests = self.stats.counter("requests")
        self._c_requests_demand = self.stats.counter("requests_demand")
        self._c_requests_prefetch = self.stats.counter("requests_prefetch")
        self._c_hits = self.stats.counter("hits")
        self._c_misses = self.stats.counter("misses")
        self._c_misses_demand = self.stats.counter("misses_demand")
        self._c_misses_prefetch = self.stats.counter("misses_prefetch")

    # -- address helpers -------------------------------------------------------
    def line_base(self, addr: int) -> int:
        return addr - (addr % self.line_size)

    def set_index(self, line_base: int) -> int:
        return (line_base // self.line_size) % self.n_sets

    def _set_for(self, line_base: int) -> "OrderedDict[int, bool]":
        line_size = self.line_size
        if line_base % line_size:
            raise ConfigurationError(
                f"{self.name}: {line_base:#x} is not line-aligned"
            )
        index = (line_base // line_size) % self.n_sets  # set_index, inlined
        cache_set = self._sets.get(index)
        if cache_set is None:
            cache_set = self._sets[index] = OrderedDict()
        return cache_set

    # -- operations -------------------------------------------------------------
    def lookup(self, line_base: int, *, demand: bool = True) -> bool:
        """Probe for a line; updates LRU on hit. Counts requests/misses."""
        cache_set = self._set_for(line_base)
        counter = self._c_requests
        counter.count += 1
        counter.total += 1.0
        counter = self._c_requests_demand if demand else self._c_requests_prefetch
        counter.count += 1
        counter.total += 1.0
        if line_base in cache_set:
            cache_set.move_to_end(line_base)
            counter = self._c_hits
            counter.count += 1
            counter.total += 1.0
            return True
        counter = self._c_misses
        counter.count += 1
        counter.total += 1.0
        counter = self._c_misses_demand if demand else self._c_misses_prefetch
        counter.count += 1
        counter.total += 1.0
        return False

    def contains(self, line_base: int) -> bool:
        """Presence check with no statistics or LRU side effects."""
        return line_base in self._set_for(line_base)

    def note_repeat_hits(self, n: int) -> None:
        """Account ``n`` further demand loads to a line just accessed.

        The scan driver batches the elements that share a cache line into
        one ``load_line`` call; the remaining element loads are guaranteed
        L1 hits, and this keeps the request/hit counters equal to what a
        per-element trace would produce (Figure 7 counts accesses).
        """
        if n <= 0:
            return
        for name in ("requests", "requests_demand", "hits"):
            counter = self.stats.counter(name)
            counter.count += n
            counter.total += n

    def fill(self, line_base: int, dirty: bool = False) -> Optional[int]:
        """Insert a line; returns the evicted victim's address, if any.

        Filling a line that is already present just refreshes its LRU
        position (and ORs in the dirty bit). ``last_victim_dirty`` reports
        whether the returned victim needs a write-back.
        """
        cache_set = self._set_for(line_base)
        self.last_victim_dirty = False
        if line_base in cache_set:
            cache_set[line_base] = cache_set[line_base] or dirty
            cache_set.move_to_end(line_base)
            return None
        victim = None
        if len(cache_set) >= self.assoc:
            victim, victim_dirty = cache_set.popitem(last=False)
            self.stats.bump("evictions")
            if victim_dirty:
                self.stats.bump("writebacks")
                self.last_victim_dirty = True
        cache_set[line_base] = dirty
        self.stats.bump("fills")
        return victim

    def touch_write(self, line_base: int) -> bool:
        """Mark a present line dirty; returns False if the line is absent."""
        cache_set = self._set_for(line_base)
        if line_base not in cache_set:
            return False
        cache_set[line_base] = True
        cache_set.move_to_end(line_base)
        return True

    def invalidate(self, line_base: int) -> None:
        self._set_for(line_base).pop(line_base, None)

    def flush(self) -> None:
        """Drop every line (between experiments)."""
        self._sets.clear()
