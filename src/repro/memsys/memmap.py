"""Physical address space management with byte-exact backing storage.

The simulator keeps a real backing buffer for every mapped region so the
modelled hardware moves *actual bytes*: the RME's fetch units read the
row-store's bytes out of the DRAM region, extract the column bytes and park
them in the reorganization buffer, and tests verify the packed bytes equal
a software projection.

Two region kinds exist:

* ``dram`` — backed by main memory; accesses are serviced by the DRAM model.
* ``pl`` — an ephemeral-variable alias region; accesses are trapped by the
  RME. ``pl`` regions have *no* backing storage: the data they expose never
  exists in main memory (the paper's central point).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import CapacityError, MemoryMapError

#: Region kinds understood by the router.
DRAM_KIND = "dram"
PL_KIND = "pl"


@dataclass
class Region:
    """One mapped region of the physical address space.

    ``limit`` (the first address past the region) is computed once: a
    region's base and size never change after mapping.
    """

    name: str
    base: int
    size: int
    kind: str
    backing: Optional[bytearray] = field(default=None, repr=False)
    limit: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.limit = self.base + self.size

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.limit


class MemoryMap:
    """Allocates regions bump-pointer style inside a fixed address budget.

    DRAM regions get a backing ``bytearray``; PL regions are pure aliases.
    A generous alignment (the cache-line size by default) keeps region
    bases line-aligned, matching how a real driver would map the RME's
    aperture.
    """

    def __init__(self, size: int = 1 << 34, alignment: int = 64):
        if alignment <= 0 or alignment & (alignment - 1):
            raise MemoryMapError(f"alignment must be a power of two, got {alignment}")
        self.size = size
        self.alignment = alignment
        self._next = 0
        #: Mapped regions in base order (bump allocation maps them in
        #: that order), with their bases alongside for bisection.
        self._regions: List[Region] = []
        self._bases: List[int] = []
        self._by_name: Dict[str, Region] = {}

    def map(self, name: str, size: int, kind: str = DRAM_KIND) -> Region:
        """Map a new region and return it. Names must be unique."""
        if size <= 0:
            raise MemoryMapError(f"region {name!r}: size must be positive")
        if kind not in (DRAM_KIND, PL_KIND):
            raise MemoryMapError(f"region {name!r}: unknown kind {kind!r}")
        if name in self._by_name:
            raise MemoryMapError(f"region {name!r} already mapped")
        base = -(-self._next // self.alignment) * self.alignment
        if base + size > self.size:
            raise CapacityError(
                f"address space exhausted mapping {name!r} "
                f"({base + size} > {self.size})"
            )
        backing = bytearray(size) if kind == DRAM_KIND else None
        region = Region(name=name, base=base, size=size, kind=kind, backing=backing)
        self._next = base + size
        self._regions.append(region)
        self._bases.append(base)
        self._by_name[name] = region
        return region

    def find(self, addr: int) -> Region:
        """The region containing ``addr``.

        Regions never overlap, so the only candidate is the last one
        whose base is at or below ``addr``.
        """
        index = bisect_right(self._bases, addr) - 1
        if index >= 0:
            region = self._regions[index]
            if addr < region.limit:
                return region
        raise MemoryMapError(f"address {addr:#x} is not mapped")

    def region(self, name: str) -> Region:
        try:
            return self._by_name[name]
        except KeyError:
            raise MemoryMapError(f"region {name!r} is not mapped") from None

    @property
    def regions(self) -> List[Region]:
        return list(self._regions)


class PhysicalMemory:
    """Byte-level read/write access to the DRAM-backed part of a memory map."""

    def __init__(self, memmap: MemoryMap):
        self.memmap = memmap

    def _backing(self, addr: int, nbytes: int) -> tuple:
        region = self.memmap.find(addr)
        if region.backing is None:
            raise MemoryMapError(
                f"address {addr:#x} falls in PL region {region.name!r}; "
                "ephemeral data has no main-memory backing"
            )
        offset = addr - region.base
        if offset + nbytes > region.size:
            raise MemoryMapError(
                f"access [{addr:#x}, +{nbytes}) crosses out of region {region.name!r}"
            )
        return region, offset

    def read(self, addr: int, nbytes: int) -> bytes:
        region, offset = self._backing(addr, nbytes)
        return bytes(region.backing[offset : offset + nbytes])

    def write(self, addr: int, data: bytes) -> None:
        region, offset = self._backing(addr, len(data))
        region.backing[offset : offset + len(data)] = data
