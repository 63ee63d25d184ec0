"""The scan ladder: fallback reasons, write-backs, traffic and routing.

``RelationalMemorySystem.measure`` runs an eligible scan on the scan
ladder of :mod:`repro.sim.fastpath` and every other one on the
event-driven ``ScanDriver``. Each fallback reason is exercised here: its
``scan_fallback_<reason>`` counter must move, and the result must be
bit-identical to the cycle-level reference. Dirty write-backs, which
start a DRAM write in the middle of a scan, must order exactly as the
kernel orders them. A forwarded scan calls no model object per line, so
its instrument and model calls do not grow with the rows it scans. Region
routing bisects a table shared by every core.
"""

import dataclasses

import pytest

from repro import QueryExecutor, RelationalMemorySystem
from repro.config import ZCU102, CacheGeometry
from repro.errors import MemoryMapError
from repro.faults import FaultPlan
from repro.memsys.cache import Cache
from repro.memsys.cpu import ScanSegment
from repro.memsys.dram import DRAM
from repro.memsys.hierarchy import DRAMBackend, MemoryHierarchy
from repro.memsys.memmap import MemoryMap, PhysicalMemory
from repro.query.queries import q1, q4
from repro.rme.designs import MLP
from repro.sim import Simulator
from repro.sim.fastpath import FASTPATH_STATS
from repro.sim.stats import Histogram, StatSet
from tests.conftest import build_relation
from tests.test_replay_property import _registry_snapshot

FASTPATH = dataclasses.replace(ZCU102, fastpath=True)
CYCLE_LEVEL = dataclasses.replace(ZCU102, fastpath=False)


def _moved(run, platform):
    """``run(platform)``'s result and the fastpath counters it moved."""
    before = {name: counter.count for name, counter in FASTPATH_STATS}
    result = run(platform)
    moved = {name: counter.count - before.get(name, 0)
             for name, counter in FASTPATH_STATS
             if counter.count > before.get(name, 0)}
    return result, moved


def _assert_fallback(run, reason):
    reference, _ = _moved(run, CYCLE_LEVEL)
    fast, moved = _moved(run, FASTPATH)
    assert moved.get("scan_fallback_" + reason, 0) >= 1, moved
    assert "scans" not in moved, moved
    assert fast == reference


def _rme_scan(setup=None, design=MLP, **system_kwargs):
    def run(platform):
        system = RelationalMemorySystem(platform, design, **system_kwargs)
        loaded = system.load_table(build_relation(n_rows=256))
        if setup is not None:
            var = setup(system, loaded)
        else:
            var = system.register_var(loaded, ["A1"])
        result = QueryExecutor(system).run_rme(q4(), var)
        return repr(result), system.sim.now
    return run


def test_tracer_falls_back():
    def setup(system, loaded):
        system.enable_tracing()
        return system.register_var(loaded, ["A1"])

    _assert_fallback(_rme_scan(setup), "tracer")


def test_faults_fall_back():
    def setup(system, loaded):
        system.enable_faults(FaultPlan())
        return system.register_var(loaded, ["A1"])

    _assert_fallback(_rme_scan(setup), "faults")


def test_multicore_falls_back():
    def run(platform):
        system = RelationalMemorySystem(platform, MLP, n_cores=2)
        loaded = system.load_table(build_relation(n_rows=256))
        result = QueryExecutor(system).run_direct(q1(), loaded)
        return repr(result), system.sim.now

    _assert_fallback(run, "multicore")


def test_busy_falls_back():
    # An event still pending at entry: the scan must interleave with it.
    def run(platform):
        system = RelationalMemorySystem(platform, MLP)
        loaded = system.load_table(build_relation(n_rows=256))
        segment = ScanSegment(loaded.base_addr, 256, 4, 64, 1.0)
        system.sim.schedule(500.0, lambda _arg: None)
        elapsed = system.measure([segment])
        return elapsed, system.sim.now, _registry_snapshot(system)

    _assert_fallback(run, "busy")


def test_windowed_falls_back():
    def setup(system, loaded):
        return system.register_var(loaded, ["A1"], windowed=True)

    _assert_fallback(_rme_scan(setup, buffer_capacity=256), "windowed")


def test_cycle_level_epoch_falls_back():
    # A parallel-lane row filter's epoch runs cycle-level, so the scan
    # that would activate it runs on the event path.
    def setup(system, loaded):
        return system.register_filtered_var(loaded, ["A1"], "A1", "<", 0)

    _assert_fallback(_rme_scan(setup), "epoch")


def test_fastpath_false_runs_the_event_path_uncounted():
    _, moved = _moved(_rme_scan(), CYCLE_LEVEL)
    assert not any(name.startswith("scan") for name in moved), moved


def test_unmapped_segment_raises_as_the_event_path_does():
    def run(platform):
        system = RelationalMemorySystem(platform, MLP)
        loaded = system.load_table(build_relation(n_rows=64))
        segment = ScanSegment(loaded.region.limit - 64, 4, 64, 64)
        with pytest.raises(MemoryMapError) as excinfo:
            system.measure([segment])
        return str(excinfo.value)

    reference, _ = _moved(run, CYCLE_LEVEL)
    fast, moved = _moved(run, FASTPATH)
    assert fast == reference
    assert not any(name.startswith("scan") for name in moved), moved


def test_unpadded_dram_region_raises_as_the_event_path_does():
    # The ladder reads no line bytes, so a region whose last line read
    # leaves it must run on the event path, which raises.
    def run(platform):
        system = RelationalMemorySystem(platform, MLP)
        region = system.memmap.map("unpadded", 100)
        system.hierarchy.add_backend(region, system._dram_backend)
        with pytest.raises(MemoryMapError) as excinfo:
            system.measure([ScanSegment(region.base, 25, 4, 4)])
        return str(excinfo.value)

    reference, _ = _moved(run, CYCLE_LEVEL)
    fast, moved = _moved(run, FASTPATH)
    assert fast == reference
    assert "crosses out of region" in fast
    assert not any(name.startswith("scan") for name in moved), moved


def test_dirty_write_backs_order_as_the_kernel_does():
    # Small caches so stored lines fall out of L2 during the next scan:
    # each dirty victim starts a DRAM write-back process mid-scan.
    small = dict(l1=CacheGeometry(1024, 2), l2=CacheGeometry(4096, 4))

    def run(platform):
        system = RelationalMemorySystem(
            dataclasses.replace(platform, **small), MLP)
        loaded = system.load_table(build_relation(n_rows=512))
        hierarchy = system.hierarchy
        system.sim.process(hierarchy.store(loaded.base_addr, 64 * 128))
        system.sim.run()
        dirty = sum(dirty for lines in hierarchy.l2._sets.values()
                    for dirty in lines.values())
        result = QueryExecutor(system).run_direct(q1(), loaded, flush=False)
        return repr(result), dirty, _registry_snapshot(system)

    reference, _ = _moved(run, CYCLE_LEVEL)
    fast, moved = _moved(run, FASTPATH)
    assert moved.get("scans", 0) == 1, moved
    assert fast == reference
    assert fast[1] > 0  # the scan started from dirty lines
    writebacks = fast[2][("dram", "counter", "writes_writeback")]
    assert writebacks[0] > 0  # and evicted some of them


# -- traffic ------------------------------------------------------------------

#: The per-event calls the event path makes for every scanned line.
PER_LINE_CALLS = ((StatSet, "bump"), (Histogram, "observe"),
                  (Cache, "lookup"), (DRAM, "access"))


def _scan_traffic(monkeypatch, kind, n_rows):
    """Calls of each ``PER_LINE_CALLS`` method during one forwarded scan."""
    system = RelationalMemorySystem(FASTPATH, MLP)
    loaded = system.load_table(build_relation(n_rows=n_rows))
    if kind == "direct":
        segments = [ScanSegment(loaded.base_addr + 4, n_rows, 4,
                                loaded.schema.row_size, 1.0)]
    else:
        var = system.register_var(loaded, ["A2", "A3"])
        if kind == "hot":
            system.warm_up(var)
            system.flush_caches()
        segments = var.scan_segment(1.0)
    calls = {}
    for owner, name in PER_LINE_CALLS:
        method = getattr(owner, name)

        def counted(*args, _key=(owner.__name__, name), _method=method,
                    **kwargs):
            calls[_key] = calls.get(_key, 0) + 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    scans = FASTPATH_STATS.count("scans")
    system.measure(segments)
    monkeypatch.undo()
    assert FASTPATH_STATS.count("scans") == scans + 1
    return calls


@pytest.mark.parametrize("kind", ["direct", "cold", "hot"])
def test_forwarded_scan_traffic_does_not_grow_with_rows(monkeypatch, kind):
    small = _scan_traffic(monkeypatch, kind, 1024)
    large = _scan_traffic(monkeypatch, kind, 4096)
    assert small == large


# -- region routing ---------------------------------------------------------


def test_a_second_core_routes_regions_registered_later():
    system = RelationalMemorySystem(n_cores=2)
    loaded = system.load_table(build_relation(n_rows=64))
    var = system.register_var(loaded, ["A1"])
    core1 = system.hierarchies[1]
    assert core1.route(loaded.base_addr) is system._dram_backend
    assert core1.route(var.region.base) is system.rme
    assert core1.route(var.region.limit - 1) is system.rme
    assert core1._region_of(var.region.base) is var.region


def _two_region_hierarchy():
    sim = Simulator()
    mm = MemoryMap()
    low = mm.map("low", 4096)
    mm.map("gap", 4096)
    high = mm.map("high", 4096)
    hier = MemoryHierarchy(sim, ZCU102)
    backend = DRAMBackend(DRAM(sim, ZCU102.dram, PhysicalMemory(mm)),
                          hier.line_size)
    hier.add_backend(low, backend)
    hier.add_backend(high, backend)
    return hier, low, high


@pytest.mark.parametrize("where", ["between", "above"])
def test_unrouted_addresses_name_the_nearest_region(where):
    hier, low, high = _two_region_hierarchy()
    addr = low.limit + 16 if where == "between" else high.limit + 1024
    nearest = low if where == "between" else high
    with pytest.raises(MemoryMapError) as excinfo:
        hier.route(addr)
    assert str(excinfo.value) == (
        f"no backend serves address {addr:#x}; nearest mapped region is "
        f"{nearest.name!r} [{nearest.base:#x}, {nearest.limit:#x})"
    )
    assert hier.route(low.limit - 1) is hier.route(high.base)


def test_addresses_below_every_region_name_the_first():
    sim = Simulator()
    mm = MemoryMap()
    mm.map("pad", 4096)
    region = mm.map("data", 4096)
    hier = MemoryHierarchy(sim, ZCU102)
    hier.add_backend(
        region, DRAMBackend(DRAM(sim, ZCU102.dram, PhysicalMemory(mm)),
                            hier.line_size))
    with pytest.raises(MemoryMapError) as excinfo:
        hier.route(16)
    assert str(excinfo.value) == (
        "no backend serves address 0x10; nearest mapped region is "
        f"'data' [{region.base:#x}, {region.limit:#x})"
    )
    assert mm.find(region.base) is region
    with pytest.raises(MemoryMapError, match="address 0x2000 is not mapped"):
        mm.find(region.limit)


def test_dram_fills_move_whole_lines_on_wide_line_platforms():
    """With 128-byte cache lines every DRAM line fill moves 128 bytes, on
    the scan ladder and on the cycle-level reference alike."""
    runs = []
    for fast in (True, False):
        platform = dataclasses.replace(
            ZCU102, cache_line=128, l1=CacheGeometry(32 * 1024, 4, 128),
            l2=CacheGeometry(1 << 20, 16, 128), fastpath=fast)
        system = RelationalMemorySystem(platform)
        loaded = system.load_table(build_relation(1024, n_cols=32))
        result = QueryExecutor(system).run_direct(q1("A2"), loaded)
        stats = system.dram.stats
        fills = stats.total("requests_cpu") + stats.total("requests_prefetch")
        moved = stats.total("bytes_cpu") + stats.total("bytes_prefetch")
        assert fills == 1025  # every 128-byte row, plus one prefetch past
        assert moved == 128 * fills
        assert stats.total("beats") == fills * 128 // platform.dram.bus_bytes
        runs.append((result.elapsed_ns, result.value,
                     _registry_snapshot(system)))
    assert runs[0] == runs[1]
