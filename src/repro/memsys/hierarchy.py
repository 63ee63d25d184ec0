"""The CPU-side load path: L1 -> L2 -> (DRAM | programmable logic).

:class:`MemoryHierarchy` strings the cache levels together, merges
concurrent requests for the same line (MSHR semantics), issues prefetches
suggested by the stream prefetcher, and routes line fills to the backend
device that owns the address — the DRAM for ordinary regions, the RME's
Trapper for ephemeral-variable regions.

Statistics mirror the counters of the paper's Figure 7: requests and
misses per level, split into demand and prefetch traffic.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Tuple

from ..config import PlatformConfig
from ..errors import MemoryMapError
from ..sim import Event, Resource, Simulator, StatSet
from ..sim.trace import emit_span
from .cache import Cache
from .memmap import Region
from .prefetcher import StreamPrefetcher


#: Sentinel a backend may return instead of data: the request was not
#: served (e.g. a prefetch into a reorganization-buffer window that is not
#: current). The line is NOT filled; merged demand requests retry.
DECLINED = object()


class LineBackend:
    """Protocol for devices that can fill a cache line.

    ``read_line(line_base)`` must be a simulation process (generator); its
    completion marks the moment the line's data reaches the cache. A
    backend may return :data:`DECLINED` to refuse the fill.
    """

    def read_line(self, line_base: int, source: str = "cpu"):
        raise NotImplementedError


class DRAMBackend(LineBackend):
    """Adapter exposing the DRAM model as a line-fill backend: each fill
    reads one ``line_size``-byte cache line."""

    def __init__(self, dram, line_size: int):
        self.dram = dram
        self.line_size = line_size

    def read_line(self, line_base: int, source: str = "cpu"):
        if self.dram.faults is None:
            return self.dram.access(line_base, self.line_size, source=source)
        return self._read_with_ecc(line_base, source)

    def _read_with_ecc(self, line_base: int, source: str):
        """Retry detected-uncorrectable reads; escalate when they persist.

        A re-read usually succeeds (the flip was in flight, the array is
        intact); a persistently poisoned line raises
        :class:`~repro.errors.UncorrectableMemoryError` up the CPU load
        chain, where the query layer degrades to another access path.
        """
        from ..errors import UncorrectableMemoryError
        from ..faults import POISONED

        policy = self.dram.faults.recovery
        attempt = 0
        while True:
            data = yield from self.dram.access(line_base, self.line_size,
                                               source=source)
            if data is not POISONED:
                return data
            attempt += 1
            delay = policy.retry_delay_ns(attempt)
            if delay is None:
                self.dram.faults.stats.bump("dram_unrecoverable")
                raise UncorrectableMemoryError(
                    f"uncorrectable DRAM error at {line_base:#x} after "
                    f"{attempt - 1} retries",
                    addr=line_base,
                )
            self.dram.faults.stats.bump("dram_read_retries")
            yield self.dram.sim.timeout(delay)


class RoutingTable:
    """Mapped regions and the backends serving them, sorted by base.

    Regions never overlap (:class:`~repro.memsys.memmap.MemoryMap`
    allocates by bumping a pointer), so the region holding an address is
    the last one whose base is at or below it: one bisection per lookup,
    however many variables a run registers. Every core's hierarchy shares
    one table.
    """

    __slots__ = ("bases", "entries")

    def __init__(self) -> None:
        self.bases: List[int] = []
        self.entries: List[Tuple[Region, LineBackend]] = []

    def add(self, region: Region, backend: LineBackend) -> None:
        """Route ``region`` to ``backend``, keeping the bases sorted."""
        index = bisect_right(self.bases, region.base)
        self.bases.insert(index, region.base)
        self.entries.insert(index, (region, backend))

    def lookup(self, addr: int) -> Optional[Tuple[Region, LineBackend]]:
        """The ``(region, backend)`` pair holding ``addr``, or None."""
        index = bisect_right(self.bases, addr) - 1
        if index >= 0:
            entry = self.entries[index]
            if addr < entry[0].limit:
                return entry
        return None


class MemoryHierarchy:
    """L1 + L2 + routed backends, as seen by one CPU core.

    The Cortex-A53 cluster shares its L2 across cores: pass an existing
    cache as ``shared_l2`` (and optionally a shared backend list) to model
    multiple cores — each core keeps a private L1, stream prefetcher and
    MSHRs, while L2 capacity and contents are common, so one core's
    streaming evicts another core's working set (the cache-pollution
    interference the RME's packed lines reduce).
    """

    def __init__(
        self,
        sim: Simulator,
        platform: PlatformConfig,
        shared_l2: "Cache" = None,
        shared_backends: Optional[RoutingTable] = None,
        core_id: int = 0,
    ):
        platform.validate()
        self.sim = sim
        self.platform = platform
        self.core_id = core_id
        self.line_size = platform.cache_line
        self.l1 = Cache(f"l1.{core_id}" if core_id else "l1", platform.l1)
        self.l2 = shared_l2 if shared_l2 is not None else Cache("l2", platform.l2)
        self.stats = StatSet(f"cpu{core_id}")
        self.prefetcher = StreamPrefetcher(
            self.line_size,
            platform.prefetch_degree,
            platform.max_prefetch_stride_lines,
        )
        self.mshrs = Resource(sim, platform.cpu_mshrs, f"mshrs.{core_id}")
        self._backends: RoutingTable = (
            shared_backends if shared_backends is not None else RoutingTable()
        )
        self._inflight: Dict[int, Event] = {}
        # Fixed per-access latencies, pre-resolved: load_line runs once per
        # scanned cache line and the platform config is frozen.
        self._l1_hit_ns = platform.l1_hit_ns
        self._l1_miss_issue_ns = platform.l1_miss_issue_ns
        self._l2_hit_ns = platform.l2_hit_ns

    # -- routing ---------------------------------------------------------------
    def add_backend(self, region: Region, backend: LineBackend) -> None:
        self._backends.add(region, backend)

    def route(self, addr: int) -> LineBackend:
        entry = self._backends.lookup(addr)
        if entry is not None:
            return entry[1]
        # Fault triage needs to know how far off the address is, not just
        # that it missed: name the nearest mapped region and its bounds.
        nearest = min(
            (r for r, _b in self._backends.entries),
            key=lambda r: min(abs(addr - r.base), abs(addr - (r.limit - 1))),
            default=None,
        )
        if nearest is None:
            raise MemoryMapError(
                f"no backend serves address {addr:#x} (no regions are mapped)"
            )
        raise MemoryMapError(
            f"no backend serves address {addr:#x}; nearest mapped region is "
            f"{nearest.name!r} [{nearest.base:#x}, {nearest.limit:#x})"
        )

    def _region_of(self, addr: int) -> Optional[Region]:
        entry = self._backends.lookup(addr)
        return entry[0] if entry is not None else None

    # -- the load path -----------------------------------------------------------
    def line_base(self, addr: int) -> int:
        return addr - (addr % self.line_size)

    def load(self, addr: int, nbytes: int = 1):
        """Demand-load ``[addr, addr+nbytes)``; a process touching each line."""
        first = self.line_base(addr)
        last = self.line_base(addr + nbytes - 1)
        line = first
        while line <= last:
            yield from self.load_line(line, demand=True)
            line += self.line_size
        return None

    def load_line(self, line_base: int, demand: bool = True):
        """Bring one line to L1; a process that ends when the data is usable.

        Demand accesses feed the prefetcher and always pay the L1 hit
        latency on top of any miss handling; prefetch accesses are silent
        background fills.
        """
        cfg = self.platform
        sim = self.sim
        if demand:
            targets = self.prefetcher.observe(line_base)
            if targets:
                self._issue_prefetches(targets, line_base)

        if self.l1.lookup(line_base, demand=demand):
            if demand:
                yield sim.timeout(self._l1_hit_ns)
            return None

        if demand:
            # In-order miss handling: the core burns issue/replay slots for
            # every demand access that does not hit L1.
            yield sim.timeout(self._l1_miss_issue_ns)

        while True:
            pending = self._inflight.get(line_base)
            if pending is None:
                break
            # The line is already on its way (typically a prefetch racing
            # just ahead of the demand stream): wait for that fill instead
            # of issuing a duplicate request.
            self.l1.stats.bump("misses_merged")
            filled = yield pending
            if filled or not demand:
                # Prefetches give up if the fill they merged with declined.
                if demand:
                    yield self.sim.timeout(cfg.l1_hit_ns)
                return None
            if self.l1.contains(line_base):
                yield self.sim.timeout(cfg.l1_hit_ns)
                return None
            # The merged request was declined (windowed RME): retry as our
            # own request so a demand can force the window switch.

        arrival = self._inflight[line_base] = self.sim.event()
        filled = True
        yield self.mshrs.acquire()
        try:
            if self.l1.lookup(line_base, demand=False):
                # Filled while we waited for an MSHR slot.
                pass
            elif self.l2.lookup(line_base, demand=demand):
                yield self.sim.timeout(cfg.l2_hit_ns)
                self._fill_l1(line_base)
            else:
                backend = self.route(line_base)
                fill_start = self.sim.now
                dest = "dram" if isinstance(backend, DRAMBackend) else "pl"
                yield self.sim.timeout(cfg.l1_hit_ns + cfg.l2_hit_ns)
                source = "cpu" if demand else "prefetch"
                result = yield from backend.read_line(line_base, source=source)
                self.stats.observe("fill_ns", self.sim.now - fill_start)
                emit_span(self.sim, f"cpu{self.core_id}", "line_fill",
                          fill_start, dest=dest, source=source)
                if result is DECLINED:
                    filled = False
                    self.l1.stats.bump("fills_declined")
                else:
                    self._fill_l2(line_base)
                    self._fill_l1(line_base)
        finally:
            self.mshrs.release()
            del self._inflight[line_base]
            arrival.succeed(filled)
        if demand:
            yield self.sim.timeout(cfg.l1_hit_ns)
        return None

    def store(self, addr: int, nbytes: int = 1):
        """Demand-write ``[addr, addr+nbytes)``; a process.

        Write-allocate / write-back, like the A53: the line is brought in
        (read-for-ownership) if absent, then dirtied in L1. Ephemeral
        regions are read-only per the paper's Section 4 ("we treat all
        ephemeral variables as read-only columns"); storing to one raises.
        """
        region = self._region_of(addr)
        if region is not None and region.kind == "pl":
            raise MemoryMapError(
                f"store to {addr:#x}: ephemeral variables are read-only; "
                "updates go to the row-oriented base data"
            )
        first = self.line_base(addr)
        last = self.line_base(addr + max(1, nbytes) - 1)
        line = first
        while line <= last:
            yield from self.load_line(line, demand=True)
            self.l1.touch_write(line)
            self.l1.stats.bump("stores")
            line += self.line_size
        return None

    # -- fills and prefetch ---------------------------------------------------------
    def _fill_l1(self, line_base: int) -> None:
        victim = self.l1.fill(line_base)
        if victim is not None:
            # An L1 victim falls into L2, carrying its dirty bit; that fill
            # may in turn push a dirty L2 victim out to DRAM.
            self._fill_l2(victim, dirty=self.l1.last_victim_dirty)

    def _fill_l2(self, line_base: int, dirty: bool = False) -> None:
        victim = self.l2.fill(line_base, dirty=dirty)
        if victim is not None and self.l2.last_victim_dirty:
            self._issue_writeback(victim)

    def _issue_writeback(self, victim_line: int) -> None:
        """Dirty L2 victims drain to DRAM as background write traffic."""
        try:
            backend = self.route(victim_line)
        except MemoryMapError:
            return
        dram = getattr(backend, "dram", None)
        if dram is None:
            return
        self.sim.process(
            dram.write(victim_line, self.line_size, source="writeback"),
            name="writeback",
        )

    def _issue_prefetches(self, targets: Iterable[int], trigger: int) -> None:
        # Prefetches never cross a region boundary (hardware prefetchers
        # stop at page boundaries) — crossing from one ephemeral alias into
        # a neighbouring one would read a projection that is not active.
        home = self._region_of(trigger)
        for target in targets:
            if target < 0 or target in self._inflight:
                continue
            if self.l1.contains(target):
                continue
            if home is None or not home.contains(target):
                continue
            self.prefetcher.stats.bump("issued")
            self.sim.process(self.load_line(target, demand=False), name="prefetch")

    # -- bookkeeping ------------------------------------------------------------------
    def flush(self) -> None:
        """Empty both cache levels and the stream table (cold caches)."""
        self.l1.flush()
        self.l2.flush()
        self.prefetcher.reset()

    def cache_stats(self) -> Dict[str, Dict[str, float]]:
        """Figure-7-style snapshot: per-level requests and misses."""
        return {
            "l1": {
                "requests": self.l1.stats.count("requests_demand"),
                "misses": self.l1.stats.count("misses_demand"),
            },
            "l2": {
                "requests": self.l2.stats.count("requests"),
                "misses": self.l2.stats.count("misses"),
            },
        }

    def reset_stats(self) -> None:
        self.l1.stats.reset()
        self.l2.stats.reset()
        self.prefetcher.stats.reset()
        self.stats.reset()
