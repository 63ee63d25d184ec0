"""Tests for the banked DRAM model."""

import pytest

from repro.config import DRAMTimings
from repro.errors import SimulationError
from repro.memsys import DRAM, MemoryMap, PhysicalMemory
from repro.sim import Simulator


def make_dram(sim, **overrides):
    mm = MemoryMap()
    region = mm.map("data", 1 << 20)
    mem = PhysicalMemory(mm)
    mem.write(region.base, bytes(range(256)) * 16)
    import dataclasses
    timings = dataclasses.replace(DRAMTimings(), **overrides)
    return DRAM(sim, timings, mem), region


def run_access(sim, dram, addr, nbytes, source="cpu"):
    proc = sim.process(dram.access(addr, nbytes, source))
    sim.run()
    return proc.value


def test_access_returns_actual_bytes(sim):
    dram, region = make_dram(sim)
    data = run_access(sim, dram, region.base, 16)
    assert data == bytes(range(16))


def test_first_access_is_row_empty(sim):
    dram, region = make_dram(sim)
    run_access(sim, dram, region.base, 64)
    assert dram.stats.count("row_empty") == 1
    assert dram.stats.count("row_hits") == 0


def test_same_row_hits_different_row_misses(sim):
    dram, region = make_dram(sim)
    t = dram.t
    run_access(sim, dram, region.base, 16)
    run_access(sim, dram, region.base + 64, 16)          # same 2K row
    assert dram.stats.count("row_hits") == 1
    # Same bank, different row: n_banks rows apart in block units.
    far = region.base + t.row_buffer_bytes * t.n_banks
    run_access(sim, dram, far, 16)
    assert dram.stats.count("row_misses") == 1


def test_row_hit_faster_than_row_miss(sim):
    dram, region = make_dram(sim)
    t = dram.t
    run_access(sim, dram, region.base, 16)
    start = sim.now
    run_access(sim, dram, region.base + 16, 16)
    hit_time = sim.now - start
    start = sim.now
    far = region.base + t.row_buffer_bytes * t.n_banks
    run_access(sim, dram, far, 16)
    miss_time = sim.now - start
    assert miss_time > hit_time


def test_beats_for_counts_bus_beats(sim):
    dram, _region = make_dram(sim)
    assert dram.beats_for(0, 16) == 1
    assert dram.beats_for(0, 17) == 2
    assert dram.beats_for(12, 8) == 2  # straddles a beat boundary
    assert dram.beats_for(16, 16) == 1
    with pytest.raises(SimulationError):
        dram.beats_for(0, 0)


def test_bank_mapping_interleaves_blocks(sim):
    dram, _region = make_dram(sim)
    t = dram.t
    bank0, row0 = dram.locate(0)
    bank1, row1 = dram.locate(t.row_buffer_bytes)
    assert bank0 != bank1 or t.n_banks == 1
    bank_again, row_again = dram.locate(t.row_buffer_bytes * t.n_banks)
    assert bank_again == bank0
    assert row_again == row0 + 1


def test_parallel_banks_overlap_sequential_banks_do_not(sim):
    """Requests to different banks overlap latency; to one bank they queue."""
    dram, region = make_dram(sim)
    t = dram.t

    def burst(addrs):
        return [dram.access(a, 16) for a in addrs]

    # Two requests in the same bank and row (serialise on t_ccd).
    for gen in burst([region.base, region.base + 64]):
        sim.process(gen)
    sim.run()
    same_bank_time = sim.now

    sim2 = Simulator()
    dram2, region2 = make_dram(sim2)
    for gen in [dram2.access(region2.base, 16),
                dram2.access(region2.base + t.row_buffer_bytes, 16)]:
        sim2.process(gen)
    sim2.run()
    cross_bank_time = sim2.now
    assert cross_bank_time <= same_bank_time


def test_bus_serialises_beats(sim):
    """Many single-beat requests cannot finish faster than the bus allows."""
    dram, region = make_dram(sim)
    t = dram.t
    n = 32
    for i in range(n):
        sim.process(dram.access(region.base + i * t.row_buffer_bytes, 64))
    sim.run()
    min_bus_time = n * (64 // t.bus_bytes) * t.t_beat
    assert sim.now >= min_bus_time


def test_stats_by_source(sim):
    dram, region = make_dram(sim)
    run_access(sim, dram, region.base, 64, source="cpu")
    run_access(sim, dram, region.base, 16, source="rme")
    assert dram.stats.count("requests_cpu") == 1
    assert dram.stats.count("requests_rme") == 1
    assert dram.stats.total("bytes_cpu") == 64
    assert dram.stats.total("bytes_rme") == 16


def test_row_hit_rate(sim):
    dram, region = make_dram(sim)
    for i in range(4):
        run_access(sim, dram, region.base + 16 * i, 16)
    assert dram.stats.count("row_hits") == 3
    assert (dram.stats.count("row_misses")
            + dram.stats.count("row_empty")) == 1


def test_reset_state_closes_rows(sim):
    dram, region = make_dram(sim)
    run_access(sim, dram, region.base, 16)
    dram.reset_state()
    run_access(sim, dram, region.base, 16)
    assert dram.stats.count("row_empty") == 2
