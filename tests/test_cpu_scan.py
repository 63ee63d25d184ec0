"""Tests for the CPU scan driver."""

import pytest

from repro.config import ZCU102
from repro.errors import ConfigurationError
from repro.memsys import DRAM, MemoryHierarchy, MemoryMap, PhysicalMemory, ScanSegment
from repro.memsys.cpu import measure_scan
from repro.memsys.hierarchy import DRAMBackend
from repro.sim import Simulator


def build(sim):
    mm = MemoryMap()
    region = mm.map("data", 1 << 20)
    mem = PhysicalMemory(mm)
    dram = DRAM(sim, ZCU102.dram, mem)
    hier = MemoryHierarchy(sim, ZCU102)
    hier.add_backend(region, DRAMBackend(dram))
    return hier, region


def test_segment_validation():
    with pytest.raises(ConfigurationError):
        ScanSegment(0, -1, 4, 4)
    with pytest.raises(ConfigurationError):
        ScanSegment(0, 1, 0, 4)
    with pytest.raises(ConfigurationError):
        ScanSegment(0, 1, 8, 4)  # stride < elem size
    with pytest.raises(ConfigurationError):
        ScanSegment(0, 1, 4, 4, compute_ns=-1)


def test_segment_footprint():
    seg = ScanSegment(0, 10, 4, 64)
    assert seg.footprint_bytes == 9 * 64 + 4
    assert ScanSegment(0, 0, 4, 4).footprint_bytes == 0


def test_empty_scan_takes_no_time(sim):
    hier, region = build(sim)
    elapsed = measure_scan(sim, hier, [ScanSegment(region.base, 0, 4, 4)])
    assert elapsed == 0.0


def test_packed_scan_touches_fewer_lines_than_strided(sim):
    hier, region = build(sim)
    measure_scan(sim, hier, [ScanSegment(region.base, 256, 4, 4)])
    packed_misses = hier.l1.stats.count("misses_demand")

    sim2 = Simulator()
    hier2, region2 = build(sim2)
    measure_scan(sim2, hier2, [ScanSegment(region2.base, 256, 4, 64)])
    strided_misses = hier2.l1.stats.count("misses_demand")
    assert packed_misses * 8 <= strided_misses


def test_packed_scan_is_faster(sim):
    hier, region = build(sim)
    t_packed = measure_scan(sim, hier, [ScanSegment(region.base, 512, 4, 4)])
    sim2 = Simulator()
    hier2, region2 = build(sim2)
    t_strided = measure_scan(sim2, hier2, [ScanSegment(region2.base, 512, 4, 64)])
    assert t_packed < t_strided / 4


def test_compute_cost_adds_time(sim):
    hier, region = build(sim)
    t_free = measure_scan(sim, hier, [ScanSegment(region.base, 1024, 4, 4)])
    sim2 = Simulator()
    hier2, region2 = build(sim2)
    t_compute = measure_scan(
        sim2, hier2, [ScanSegment(region2.base, 1024, 4, 4, compute_ns=10.0)]
    )
    assert t_compute > t_free + 1024 * 10.0 * 0.8


def test_per_element_request_accounting(sim):
    """L1 request counters reflect one load per element, not per line."""
    hier, region = build(sim)
    measure_scan(sim, hier, [ScanSegment(region.base, 256, 4, 4)])
    assert hier.l1.stats.count("requests_demand") == 256


def test_second_pass_benefits_from_caches(sim):
    hier, region = build(sim)
    seg = ScanSegment(region.base, 128, 4, 4)
    t_two = measure_scan(sim, hier, [seg, seg])
    assert t_two > 0
    sim2 = Simulator()
    hier2, region2 = build(sim2)
    t_one = measure_scan(sim2, hier2, [ScanSegment(region2.base, 128, 4, 4)])
    # Second pass hits the caches: cheaper than double the single pass.
    assert t_two < 2 * t_one


def test_element_straddling_lines_loads_both(sim):
    hier, region = build(sim)
    # 8-byte elements at stride 60: some straddle a line boundary.
    measure_scan(sim, hier, [ScanSegment(region.base + 60, 1, 8, 60)])
    assert hier.l1.contains(region.base)
    assert hier.l1.contains(region.base + 64)


def test_zero_stride_consumes_all_elements_in_one_batch(sim):
    hier, region = build(sim)
    elapsed = measure_scan(
        sim, hier, [ScanSegment(region.base, 100, 4, 0, compute_ns=1.0)]
    )
    assert hier.l1.stats.count("misses_demand") == 1
    assert elapsed >= 100.0
