"""Tests for the L1/L2/backend load path."""

import pytest

from repro.config import ZCU102
from repro.errors import MemoryMapError
from repro.memsys import DRAM, MemoryHierarchy, MemoryMap, PhysicalMemory
from repro.memsys.hierarchy import DRAMBackend
from repro.sim import Simulator


def build(sim, platform=ZCU102, region_size=1 << 20):
    mm = MemoryMap()
    region = mm.map("data", region_size)
    mem = PhysicalMemory(mm)
    dram = DRAM(sim, platform.dram, mem)
    hier = MemoryHierarchy(sim, platform)
    hier.add_backend(region, DRAMBackend(dram, hier.line_size))
    return hier, region, dram


def load(sim, hier, addr):
    proc = sim.process(hier.load_line(addr))
    sim.run()
    return proc


def test_first_load_misses_second_hits(sim):
    hier, region, _dram = build(sim)
    load(sim, hier, region.base)
    assert hier.l1.stats.count("misses_demand") == 1
    t_after_miss = sim.now
    load(sim, hier, region.base)
    assert hier.l1.stats.count("hits") == 1
    hit_latency = sim.now - t_after_miss
    assert hit_latency == pytest.approx(ZCU102.l1_hit_ns)


def test_miss_fills_both_levels(sim):
    hier, region, _dram = build(sim)
    load(sim, hier, region.base)
    assert hier.l1.contains(region.base)
    assert hier.l2.contains(region.base)


def test_l2_hit_cheaper_than_dram(sim):
    hier, region, _dram = build(sim)
    load(sim, hier, region.base)
    t0 = sim.now
    hier.l1.invalidate(region.base)  # still in L2
    load(sim, hier, region.base)
    l2_time = sim.now - t0
    t0 = sim.now
    hier.flush()
    load(sim, hier, region.base)
    dram_time = sim.now - t0
    assert l2_time < dram_time


def test_unrouted_address_raises(sim):
    hier, region, _dram = build(sim)
    with pytest.raises(MemoryMapError):
        proc = sim.process(hier.load_line(region.limit + (1 << 30)))
        sim.run()


def test_sequential_scan_triggers_prefetch(sim):
    hier, region, _dram = build(sim)
    for i in range(8):
        load(sim, hier, region.base + 64 * i)
    assert hier.prefetcher.stats.count("issued") > 0
    # Some later demand accesses should have been converted to hits/merges.
    merged_or_hit = (
        hier.l1.stats.count("hits") + hier.l1.stats.count("misses_merged")
    )
    assert merged_or_hit > 0


def test_prefetch_makes_streaming_faster(sim):
    platform_off = ZCU102.with_overrides(prefetch_degree=0)
    hier_off, region_off, _ = build(Simulator(), platform_off)
    sim_off = hier_off.sim

    def scan(hier, region, n=64):
        def run():
            for i in range(n):
                yield from hier.load_line(region.base + 64 * i)
        proc = hier.sim.process(run())
        hier.sim.run()
        return hier.sim.now

    t_off = scan(hier_off, region_off)
    hier_on, region_on, _ = build(Simulator())
    t_on = scan(hier_on, region_on)
    assert t_on < t_off


def test_inflight_merge_single_backend_request(sim):
    hier, region, dram = build(sim)

    def demand():
        yield from hier.load_line(region.base)

    sim.process(demand())
    sim.process(demand())
    sim.run()
    assert dram.stats.count("requests_cpu") == 1
    assert hier.l1.stats.count("misses_merged") == 1


def test_flush_resets_contents(sim):
    hier, region, _dram = build(sim)
    load(sim, hier, region.base)
    hier.flush()
    assert not hier.l1.contains(region.base)
    assert not hier.l2.contains(region.base)


def test_cache_stats_shape(sim):
    hier, region, _dram = build(sim)
    load(sim, hier, region.base)
    stats = hier.cache_stats()
    assert set(stats) == {"l1", "l2"}
    assert stats["l1"]["requests"] == 1
    assert stats["l1"]["misses"] == 1


def test_load_spanning_lines_touches_both(sim):
    hier, region, _dram = build(sim)
    proc = sim.process(hier.load(region.base + 60, 8))
    sim.run()
    assert hier.l1.contains(region.base)
    assert hier.l1.contains(region.base + 64)


def test_l2_capacity_eviction_under_pressure(sim):
    """Scanning more than the L2 capacity evicts early lines."""
    platform = ZCU102
    hier, region, _dram = build(sim, region_size=4 << 20)
    n_lines = (platform.l2.size // 64) + 512
    def run():
        for i in range(n_lines):
            yield from hier.load_line(region.base + 64 * i)
    sim.process(run())
    sim.run()
    assert hier.l2.stats.count("evictions") > 0
    assert not hier.l2.contains(region.base)
