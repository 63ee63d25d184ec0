"""Tests for the memory map and physical backing storage."""

import pytest

from repro.errors import CapacityError, MemoryMapError
from repro.memsys import MemoryMap, PhysicalMemory
from repro.memsys.memmap import DRAM_KIND, PL_KIND


def test_map_allocates_aligned_regions():
    mm = MemoryMap(alignment=64)
    a = mm.map("a", 100)
    b = mm.map("b", 10)
    assert a.base % 64 == 0 and b.base % 64 == 0
    assert b.base >= a.limit
    assert a.contains(a.base) and a.contains(a.limit - 1)
    assert not a.contains(a.limit)


def test_regions_never_overlap():
    mm = MemoryMap()
    regions = [mm.map(f"r{i}", 77 + i) for i in range(10)]
    for i, first in enumerate(regions):
        for second in regions[i + 1:]:
            assert first.limit <= second.base or second.limit <= first.base


def test_duplicate_name_rejected():
    mm = MemoryMap()
    mm.map("x", 64)
    with pytest.raises(MemoryMapError):
        mm.map("x", 64)


def test_find_and_region_lookup():
    mm = MemoryMap()
    r = mm.map("table", 256)
    assert mm.find(r.base + 100) is r
    assert mm.region("table") is r
    with pytest.raises(MemoryMapError):
        mm.find(r.limit + 1024)
    with pytest.raises(MemoryMapError):
        mm.region("nope")


def test_address_space_exhaustion():
    mm = MemoryMap(size=1024)
    mm.map("big", 1000)
    with pytest.raises(CapacityError):
        mm.map("more", 100)


def test_invalid_sizes_and_kinds():
    mm = MemoryMap()
    with pytest.raises(MemoryMapError):
        mm.map("zero", 0)
    with pytest.raises(MemoryMapError):
        mm.map("weird", 64, kind="flash")


def test_dram_region_has_backing_pl_does_not():
    mm = MemoryMap()
    dram = mm.map("d", 128, kind=DRAM_KIND)
    pl = mm.map("p", 128, kind=PL_KIND)
    assert dram.backing is not None and len(dram.backing) == 128
    assert pl.backing is None


def test_physical_memory_read_write_roundtrip():
    mm = MemoryMap()
    region = mm.map("d", 256)
    mem = PhysicalMemory(mm)
    mem.write(region.base + 10, b"hello")
    assert mem.read(region.base + 10, 5) == b"hello"
    assert mem.read(region.base, 3) == b"\x00\x00\x00"


def test_physical_memory_rejects_pl_reads():
    mm = MemoryMap()
    region = mm.map("p", 128, kind=PL_KIND)
    mem = PhysicalMemory(mm)
    with pytest.raises(MemoryMapError):
        mem.read(region.base, 4)


def test_physical_memory_rejects_region_overrun():
    mm = MemoryMap()
    region = mm.map("d", 64)
    mem = PhysicalMemory(mm)
    with pytest.raises(MemoryMapError):
        mem.read(region.base + 60, 8)
    with pytest.raises(MemoryMapError):
        mem.write(region.base + 62, b"xyz")
