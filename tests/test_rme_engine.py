"""End-to-end tests of the assembled RME engine (functional + lifecycle)."""

import pytest

from repro.config import RMEConfig, ZCU102
from repro.errors import CapacityError, ConfigurationError, MemoryMapError
from repro.memsys import DRAM, MemoryMap, PhysicalMemory
from repro.rme import BSL, MLP, PCK, RMEngine
from repro.sim import Simulator


def build_engine(sim, design=MLP, R=64, N=64, C=4, O=0, capacity=1 << 16):
    mm = MemoryMap()
    mem = PhysicalMemory(mm)
    dram = DRAM(sim, ZCU102.dram, mem)
    table = mm.map("table", R * N + 64)
    rows = bytearray()
    for i in range(N):
        row = bytes((i * 7 + j) % 256 for j in range(R))
        rows.extend(row)
    mem.write(table.base, bytes(rows))
    n_lines = -(-C * N // 64)
    eph = mm.map("eph", n_lines * 64, kind="pl")
    engine = RMEngine(sim, ZCU102, dram, design, capacity)
    engine.configure(RMEConfig(R, N, ((O, C),)), table.base, eph.base, table.limit)
    return engine, table, eph, bytes(rows)


def software_projection(rows, R, N, C, O):
    return b"".join(rows[i * R + O : i * R + O + C] for i in range(N))


def prefill(sim, engine):
    engine.prefill()
    sim.run()


@pytest.mark.parametrize("design", [BSL, PCK, MLP])
def test_prefill_produces_exact_projection(sim, design):
    engine, table, eph, rows = build_engine(sim, design)
    prefill(sim, engine)
    assert engine.is_hot
    assert engine.packed_bytes() == software_projection(rows, 64, 64, 4, 0)


@pytest.mark.parametrize("offset", [0, 3, 13, 15, 31, 47, 60])
def test_projection_correct_at_any_offset(sim, offset):
    engine, table, eph, rows = build_engine(sim, MLP, O=offset)
    prefill(sim, engine)
    assert engine.packed_bytes() == software_projection(rows, 64, 64, 4, offset)


@pytest.mark.parametrize("R,C,O", [
    (96, 8, 8),     # Listing-1-like row
    (32, 32, 0),    # full-row projection
    (80, 20, 60),   # group ends exactly at the row boundary
    (64, 1, 63),    # single trailing byte
])
def test_projection_correct_odd_geometries(sim, R, C, O):
    engine, table, eph, rows = build_engine(sim, MLP, R=R, C=C, O=O)
    prefill(sim, engine)
    assert engine.packed_bytes() == software_projection(rows, R, 64, C, O)


def test_last_row_burst_clipped_to_region(sim):
    """An aligned burst at the last row must not read past the table."""
    # R=20 (not beat aligned), C=20: last useful byte is the table's last.
    engine, table, eph, rows = build_engine(sim, MLP, R=20, C=20, O=0)
    prefill(sim, engine)
    assert engine.packed_bytes() == software_projection(rows, 20, 64, 20, 0)


def test_access_before_configure_raises(sim):
    mm = MemoryMap()
    mem = PhysicalMemory(mm)
    dram = DRAM(sim, ZCU102.dram, mem)
    engine = RMEngine(sim, ZCU102, dram, MLP)
    with pytest.raises(ConfigurationError):
        engine.read_line(0)


def test_read_line_validates_addresses(sim):
    engine, table, eph, rows = build_engine(sim)
    prefill(sim, engine)
    with pytest.raises(MemoryMapError):
        engine.read_line(eph.base + 2)  # not line aligned
    with pytest.raises(MemoryMapError):
        engine.read_line(eph.base + (1 << 20))  # beyond the projection


def test_cpu_read_triggers_pipeline_and_returns_line(sim):
    engine, table, eph, rows = build_engine(sim)
    proc = sim.process(engine.read_line(eph.base))
    sim.run()
    expected = software_projection(rows, 64, 64, 4, 0)[:64]
    assert proc.value == expected
    assert engine.trapper.stats.count("buffer_misses") >= 1
    # The whole projection completes even though only line 0 was demanded.
    assert engine.is_hot


def test_hot_read_is_buffer_hit(sim):
    engine, table, eph, rows = build_engine(sim)
    prefill(sim, engine)
    proc = sim.process(engine.read_line(eph.base + 64))
    sim.run()
    assert engine.trapper.stats.count("buffer_hits") == 1
    assert engine.trapper.stats.count("buffer_misses") == 0


def test_reconfigure_goes_cold(sim):
    engine, table, eph, rows = build_engine(sim)
    prefill(sim, engine)
    assert engine.is_hot
    engine.configure(RMEConfig(64, 64, ((8, 8),)), table.base, eph.base, table.limit)
    assert not engine.is_hot
    prefill(sim, engine)
    assert engine.packed_bytes() == software_projection(rows, 64, 64, 8, 8)


def test_projection_over_buffer_capacity_rejected(sim):
    with pytest.raises(CapacityError):
        build_engine(sim, MLP, N=64, C=64, capacity=1024)


def test_cold_designs_ranked_bsl_slowest(sim):
    """BSL > PCK > MLP in fill time (the Section 5.2 progression)."""
    times = {}
    for design in (BSL, PCK, MLP):
        local = Simulator()
        engine, *_ = build_engine(local, design, N=128)
        engine.prefill()
        local.run()
        times[design.name] = local.now
    assert times["BSL"] > times["PCK"] > times["MLP"]


def test_fetch_stats_track_waste(sim):
    engine, table, eph, rows = build_engine(sim, MLP, C=4)
    prefill(sim, engine)
    pool = engine.fetch_pool
    assert pool.stats.total("bytes_useful") == 4 * 64
    assert pool.stats.total("bytes_fetched") == 16 * 64  # one beat per row
