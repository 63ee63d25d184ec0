"""The assembled system: CPU hierarchy + DRAM + RME + loaded relations.

:class:`RelationalMemorySystem` is the façade a database engine would link
against. It owns one simulated platform instance and provides:

* ``load_table`` — place a row-store in simulated DRAM;
* ``load_column_group`` — materialise a columnar copy (baseline only);
* ``register_var`` — create an ephemeral variable over a column group
  (the paper's ``register_var`` of Listing 4), contiguous unless the
  caller allows several runs;
* ``activate`` — program the RME configuration port for a variable
  (cold); re-activating the already-active variable keeps the buffer hot;
* ``measure`` — price an access pattern (a list of scan segments) in
  simulated nanoseconds;
* ``flush_caches`` / ``reset_stats`` — experiment hygiene.

One RME instance serves one configured geometry at a time, like the
prototype: registering a different variable evicts the previous
projection (its next access is cold again).
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..config import PlatformConfig, RMEConfig, ZCU102
from ..errors import CapacityError, ConfigurationError
from ..memsys.cpu import ScanDriver, ScanSegment
from ..memsys.dram import DRAM
from ..memsys.hierarchy import DRAMBackend, MemoryHierarchy
from ..memsys.memmap import MemoryMap, PhysicalMemory, Region
from ..rme.designs import MLP, DesignParams
from ..rme.engine import RMEngine
from ..rme.reorg_buffer import DEFAULT_DATA_CAPACITY
from ..sim import MetricsRegistry, Simulator, Tracer
from ..storage.mvcc import VersionedRowTable
from ..storage.row_table import RowTable
from ..storage.schema import Schema
from .ephemeral import EphemeralVariable

#: Least padding appended to every table region so bus-aligned RME bursts
#: at the last row, and a line filled past it, never cross out of it.
_REGION_PAD = 64


def _field(group: Schema, column: str) -> Tuple[int, int]:
    """``column``'s offset and width in the packed group, refused unless
    the engine's field readers decode its type."""
    from ..rme.pushdown import unreadable_field

    reason = unreadable_field(group, column)
    if reason:
        raise ConfigurationError(reason)
    return group.offset_of(column), group.column(column).size


def _hw_selection(group: Schema, predicate_column, op, constant):
    """The PL comparator ``predicate_column OP constant`` over the packed
    group, or None when none of the three is given."""
    from ..rme.pushdown import HWSelection

    given = {"predicate_column": predicate_column, "op": op, "constant": constant}
    missing = [name for name, value in given.items() if value is None]
    if len(missing) == len(given):
        return None
    if missing:
        raise ConfigurationError(
            "a pushdown predicate needs predicate_column, op and constant; "
            f"missing {', '.join(missing)}"
        )
    offset, width = _field(group, predicate_column)
    return HWSelection(
        field_offset=offset, field_width=width, op=op, constant=constant,
    )


@dataclass
class LoadedTable:
    """A row table resident in simulated DRAM."""

    table: RowTable
    region: Region
    versioned: Optional[VersionedRowTable] = None
    manager: Any = None  #: TransactionManager when versioned
    loaded_rows: int = 0

    @property
    def name(self) -> str:
        return self.table.name

    @property
    def schema(self) -> Schema:
        return self.table.schema

    @property
    def base_addr(self) -> int:
        return self.region.base

    def current_ts(self) -> int:
        return self.manager.now_ts if self.manager is not None else 0


@dataclass
class LoadedIndex:
    """A B+-tree index whose serialised nodes live in simulated DRAM."""

    index: Any  #: BPlusTreeIndex
    region: Region
    table: "LoadedTable"

    @property
    def base_addr(self) -> int:
        return self.region.base

    def probe_points(self, key) -> List[Tuple[int, int]]:
        """(addr, nbytes) touches of a root-to-leaf probe."""
        node = self.index.node_bytes
        return [(self.base_addr + off, node) for off in self.index.probe_offsets(key)]

    def leaf_points(self, low, high) -> List[Tuple[int, int]]:
        node = self.index.node_bytes
        return [
            (self.base_addr + off, node)
            for off in self.index.leaf_offsets_for_range(low, high)
        ]


@dataclass
class LoadedColumnGroup:
    """A materialised columnar copy of one column group (baseline)."""

    name: str
    columns: List[str]
    region: Region
    width: int
    n_rows: int

    @property
    def base_addr(self) -> int:
        return self.region.base


class RelationalMemorySystem:
    """One simulated ZCU102-like platform with an RME in the PL."""

    def __init__(
        self,
        platform: PlatformConfig = ZCU102,
        design: DesignParams = MLP,
        buffer_capacity: int = DEFAULT_DATA_CAPACITY,
        n_cores: int = 1,
    ):
        platform.validate()
        if not 1 <= n_cores <= platform.n_cpus:
            raise ConfigurationError(
                f"n_cores must be in [1, {platform.n_cpus}], got {n_cores}"
            )
        self.platform = platform
        self.design = design
        self.sim = Simulator()
        self.memmap = MemoryMap(alignment=platform.cache_line)
        self.memory = PhysicalMemory(self.memmap)
        self.dram = DRAM(self.sim, platform.dram, self.memory)
        # Core 0 owns the shared L2 and the routing table; further cores
        # get private L1s over the same L2, backends and DRAM.
        self.hierarchy = MemoryHierarchy(self.sim, platform, core_id=0)
        self.hierarchies = [self.hierarchy]
        for core in range(1, n_cores):
            self.hierarchies.append(
                MemoryHierarchy(
                    self.sim,
                    platform,
                    shared_l2=self.hierarchy.l2,
                    shared_backends=self.hierarchy._backends,
                    core_id=core,
                )
            )
        self.rme = RMEngine(self.sim, platform, self.dram, design,
                            buffer_capacity, n_cores=n_cores)
        self._dram_backend = DRAMBackend(self.dram, platform.cache_line)
        self._tables: Dict[str, LoadedTable] = {}
        #: The variable the engine holds, by weak reference: a variable
        #: refers to its system, and a dropped variable cannot be scanned.
        self._active_ref: Optional[weakref.ref] = None
        self._names = itertools.count()
        #: Optional :class:`repro.faults.FaultInjector`; see enable_faults.
        self.faults = None
        self.metrics = self._build_metrics()

    def _build_metrics(self) -> MetricsRegistry:
        """One registry addressing every component's StatSet by dotted path.

        The Requestor is recreated on every reconfiguration, so it is
        attached as a provider callable that resolves the current instance
        (or ``None`` before the first configuration).
        """
        registry = MetricsRegistry()
        registry.attach("dram", self.dram.stats)
        registry.attach("l2", self.hierarchy.l2.stats)
        for core, hierarchy in enumerate(self.hierarchies):
            registry.attach(f"cpu{core}", hierarchy.stats)
            registry.attach(f"cpu{core}.l1", hierarchy.l1.stats)
            registry.attach(f"cpu{core}.prefetcher", hierarchy.prefetcher.stats)
        registry.attach("rme", self.rme.stats)
        registry.attach("rme.trapper", self.rme.trapper.stats)
        registry.attach("rme.monitor", self.rme.monitor.stats)
        registry.attach("rme.fetch", self.rme.fetch_pool.stats)
        registry.attach("rme.buffer", self.rme.buffer.stats)
        rme = self.rme  # not ``self``: the registry is this system's own
        registry.attach(
            "rme.requestor",
            lambda: rme.requestor.stats if rme.requestor else None,
        )
        return registry

    def enable_tracing(self, capacity: int = 100_000) -> Tracer:
        """Attach a :class:`~repro.sim.Tracer` so components emit events
        and spans; returns it. Call before the accesses you want to see.
        Tracing never changes simulated timing — only bookkeeping runs."""
        tracer = Tracer(capacity=capacity)
        tracer.attach(self.sim)
        return tracer

    def enable_faults(self, plan, recovery=None):
        """Arm a fault-injection plan across every hardware component.

        ``plan`` is a :class:`repro.faults.FaultPlan`; ``recovery`` a
        :class:`repro.faults.RecoveryPolicy` (defaults to
        ``DEFAULT_RECOVERY``). Returns the shared
        :class:`~repro.faults.FaultInjector` so tests can inspect its log.
        Components check a single attribute when disarmed, so a system
        that never calls this is cycle-identical to one without the fault
        subsystem at all.
        """
        from ..faults import DEFAULT_RECOVERY, FaultInjector

        injector = FaultInjector(
            plan, recovery if recovery is not None else DEFAULT_RECOVERY
        )
        self.faults = injector
        self.dram.faults = injector
        self.rme.faults = injector
        self.rme.trapper.faults = injector
        self.rme.fetch_pool.faults = injector
        self.rme.fetch_pool.axi.faults = injector
        self.metrics.attach("faults", injector.stats)
        return injector

    # -- loading relations ------------------------------------------------------------
    def load_table(
        self, table: Union[RowTable, VersionedRowTable], manager: Any = None
    ) -> LoadedTable:
        """Copy a table's bytes into a DRAM region and route it.

        Accepts either a plain :class:`RowTable` or a
        :class:`VersionedRowTable` (whose physical versions, including the
        hidden timestamps, are what lands in memory — exactly the paper's
        base-data layout).
        """
        versioned = table if isinstance(table, VersionedRowTable) else None
        physical = versioned.table if versioned is not None else table
        if physical.n_rows == 0:
            raise ConfigurationError(f"table {physical.name!r} is empty")
        if physical.name in self._tables:
            raise ConfigurationError(f"table {physical.name!r} already loaded")
        region = self.memmap.map(
            f"table:{physical.name}", self._padded(physical.nbytes)
        )
        self.memory.write(region.base, physical.raw_bytes())
        self.hierarchy.add_backend(region, self._dram_backend)
        loaded = LoadedTable(
            table=physical,
            region=region,
            versioned=versioned,
            manager=manager,
            loaded_rows=physical.n_rows,
        )
        self._tables[physical.name] = loaded
        return loaded

    def _padded(self, nbytes: int) -> int:
        """Region size for ``nbytes`` of data: line-aligned plus slack, so
        both cache-line fills and bus-aligned RME bursts stay in-region."""
        line = self.platform.cache_line
        return -(-nbytes // line) * line + max(_REGION_PAD, line)

    def sync_table(self, loaded: LoadedTable) -> None:
        """Re-copy a table's bytes after in-place writes or appends.

        Appends must fit the originally mapped region (load with headroom
        by padding the table before loading if needed). A variable over
        this table that is active loses its reorganization buffer, which
        holds the old bytes: its next scan reconfigures and transforms
        cold.
        """
        data = loaded.table.raw_bytes()
        if self._padded(len(data)) > loaded.region.size:
            raise CapacityError(
                f"table {loaded.name!r} grew past its mapped region; "
                "reload it into a fresh system"
            )
        self.memory.write(loaded.region.base, data)
        loaded.loaded_rows = loaded.table.n_rows
        active = self._active_var()
        if active is not None and active.loaded is loaded:
            self.deactivate()

    def load_column_group(
        self, table: RowTable, columns: Sequence[str], name: str = ""
    ) -> LoadedColumnGroup:
        """Materialise a columnar copy of a group (the Columnar baseline).

        This is the copy HTAP systems maintain in software; the RME makes
        it unnecessary, but the benchmarks need it for comparison.
        """
        packed = table.project_bytes(columns)
        _offset, width = table.schema.column_group(columns)
        label = name or f"columnar:{table.name}:{'+'.join(columns)}:{next(self._names)}"
        region = self.memmap.map(label, self._padded(len(packed)))
        self.memory.write(region.base, packed)
        self.hierarchy.add_backend(region, self._dram_backend)
        return LoadedColumnGroup(
            name=label,
            columns=list(columns),
            region=region,
            width=width,
            n_rows=table.n_rows,
        )

    def load_index(
        self, loaded: LoadedTable, column: str, fanout: int = 16
    ) -> LoadedIndex:
        """Build a B+-tree over a key column and map its nodes into DRAM.

        The node array is what the index probe path touches; its content
        is the Python-side index structure (the simulator prices the
        accesses; the lookups answer from the structure). A versioned
        table is refused: the tree would hold every physical version,
        apply no visibility, and go stale as commits append versions.
        """
        from ..storage.index import BPlusTreeIndex

        if loaded.versioned is not None:
            raise ConfigurationError(
                f"cannot index versioned table {loaded.name!r}: a B+-tree "
                "over physical versions cannot apply MVCC visibility"
            )
        index = BPlusTreeIndex.build(loaded.table, column, fanout)
        region = self.memmap.map(
            f"index:{loaded.name}:{column}:{next(self._names)}",
            self._padded(index.nbytes),
        )
        self.hierarchy.add_backend(region, self._dram_backend)
        return LoadedIndex(index=index, region=region, table=loaded)

    # -- ephemeral variables ---------------------------------------------------------------
    def register_var(
        self,
        loaded: LoadedTable,
        columns: Sequence[str],
        snapshot_ts: Optional[int] = None,
        activate: bool = True,
        allow_noncontiguous: bool = False,
        windowed: bool = False,
    ) -> EphemeralVariable:
        """Create an ephemeral variable over a column group.

        Mirrors Listing 4's ``register_var(the_table, num_fld1, ...)``:
        the geometry of the access is defined here; the RME starts
        projecting at the first access. With ``activate=False`` the
        variable is created without programming the configuration port
        (call :meth:`activate` before accessing it).

        By default the columns must be contiguous (the paper's prototype
        constraint). ``allow_noncontiguous=True`` programs one ``(O, C)``
        pair per contiguous run of the columns — the paper's future-work
        item — and the engine packs each row's runs back to back
        (Listing 2's layout).
        """
        return self._register(
            loaded, columns, snapshot_ts, activate,
            allow_noncontiguous=allow_noncontiguous, windowed=windowed,
        )

    def register_filtered_var(
        self,
        loaded: LoadedTable,
        columns: Sequence[str],
        predicate_column: str,
        op: str,
        constant: int,
        snapshot_ts: Optional[int] = None,
        activate: bool = True,
    ) -> EphemeralVariable:
        """Selection pushdown: an ephemeral view of only the matching rows.

        The engine's comparator evaluates ``predicate_column OP constant``
        on every extracted group and packs only the rows that pass —
        the CPU never sees the rest. ``predicate_column`` must belong to
        the (contiguous) column group.
        """
        from .ephemeral import FilteredEphemeralVariable

        offset, width = loaded.schema.column_group(columns)
        group = loaded.schema.group_schema(columns)
        if predicate_column not in group:
            raise ConfigurationError(
                f"predicate column {predicate_column!r} must be inside the "
                f"projected group {list(columns)}"
            )
        return self._register(
            loaded, columns, snapshot_ts, activate,
            cls=FilteredEphemeralVariable,
            pushdown=_hw_selection(group, predicate_column, op, constant),
        )

    def register_hw_aggregate(
        self,
        loaded: LoadedTable,
        column: str,
        func: str,
        predicate_column: Optional[str] = None,
        op: Optional[str] = None,
        constant: Optional[int] = None,
        activate: bool = True,
    ) -> EphemeralVariable:
        """Aggregation pushdown: SUM/COUNT/MIN/MAX computed in the engine.

        The result arrives as a single register line; only one cache line
        ever travels toward the CPU. An optional comparator pre-filters
        the rows (``predicate_column OP constant``); the predicate column
        is included in the projected group automatically.
        """
        from ..rme.pushdown import HWAggregation
        from .ephemeral import HWAggregateVariable

        columns = [column]
        if predicate_column is not None and predicate_column != column:
            columns = loaded.schema.covering_columns(
                sorted({column, predicate_column}, key=loaded.schema.index_of)
            )
        group = loaded.schema.group_schema(columns)
        offset, width = _field(group, column)
        aggregation = HWAggregation(
            func=func,
            field_offset=offset,
            field_width=width,
            predicate=_hw_selection(group, predicate_column, op, constant),
        )
        return self._register(
            loaded, columns, None, activate,
            cls=HWAggregateVariable, pushdown=aggregation,
            region_bytes=HWAggregation.RESULT_BYTES,
        )

    def register_semijoin_var(
        self,
        loaded: LoadedTable,
        columns: Sequence[str],
        key_column: str,
        keys,
        snapshot_ts: Optional[int] = None,
        activate: bool = True,
    ) -> EphemeralVariable:
        """Join pre-processing: keep only rows whose key is in ``keys``.

        The build side of a semi-join (the filtered dimension's distinct
        keys) loads into the engine as a membership filter; the fact-side
        ephemeral view then contains only joinable rows — "supporting
        joins in hardware", per the paper's groundwork list.
        """
        from ..rme.pushdown import HWJoinFilter
        from .ephemeral import FilteredEphemeralVariable

        group = loaded.schema.group_schema(columns)
        if key_column not in group:
            raise ConfigurationError(
                f"join key {key_column!r} must be inside the projected group"
            )
        offset, width = _field(group, key_column)
        join_filter = HWJoinFilter(
            field_offset=offset, field_width=width, keys=frozenset(keys),
        )
        return self._register(
            loaded, columns, snapshot_ts, activate,
            cls=FilteredEphemeralVariable, pushdown=join_filter,
        )

    def register_hw_group_by(
        self,
        loaded: LoadedTable,
        agg_column: str,
        group_column: str,
        func: str = "sum",
        predicate_column: Optional[str] = None,
        op: Optional[str] = None,
        constant: Optional[int] = None,
        max_groups: int = 256,
        activate: bool = True,
    ) -> EphemeralVariable:
        """GROUP BY pushdown: a PL group table over a bounded key domain.

        Best paired with dictionary-encoded group keys (small, dense —
        the Section 4 encodings); the CPU receives one 16-byte entry per
        group instead of the whole column.
        """
        from ..rme.pushdown import HWGroupBy
        from .ephemeral import HWGroupByVariable

        wanted = {agg_column, group_column}
        if predicate_column is not None:
            wanted.add(predicate_column)
        columns = loaded.schema.covering_columns(
            sorted(wanted, key=loaded.schema.index_of)
        )
        group = loaded.schema.group_schema(columns)
        group_offset, group_width = _field(group, group_column)
        agg_offset, agg_width = _field(group, agg_column)
        group_by = HWGroupBy(
            group_offset=group_offset,
            group_width=group_width,
            func=func,
            agg_offset=agg_offset,
            agg_width=agg_width,
            predicate=_hw_selection(group, predicate_column, op, constant),
            max_groups=max_groups,
        )
        return self._register(
            loaded, columns, None, activate,
            cls=HWGroupByVariable, pushdown=group_by,
            region_bytes=group_by.result_buffer_bytes,
        )

    def _register(
        self,
        loaded: LoadedTable,
        columns: Sequence[str],
        snapshot_ts,
        activate: bool,
        allow_noncontiguous: bool = False,
        windowed: bool = False,
        cls=EphemeralVariable,
        pushdown=None,
        region_bytes: Optional[int] = None,
    ) -> EphemeralVariable:
        """Build the variable's configuration, map and route its alias
        region, and activate it: every ``register_*`` method ends here.

        ``region_bytes`` sizes a reduction's result region. Otherwise the
        alias region is sized exactly: no padding, so neither demand
        accesses nor prefetches can reach past the projection.
        """
        if pushdown is not None and loaded.versioned is not None:
            # The PL comparator would see every physical version, including
            # superseded ones, and silently disagree with snapshot reads.
            # Supporting this needs timestamp awareness in the engine
            # (fetch the hidden columns and compare against the snapshot) —
            # future work; fail loudly instead of answering wrong.
            raise ConfigurationError(
                "operator pushdown over MVCC-versioned tables is not "
                "supported; use a plain ephemeral variable"
            )
        n_rows = loaded.table.n_rows
        if loaded.loaded_rows != n_rows:
            raise ConfigurationError(
                f"table {loaded.name!r} has unsynced appends; call sync_table()"
            )
        runs = loaded.schema.column_runs(columns)
        if len(runs) > 1 and not allow_noncontiguous:
            # Raises SchemaError with the prototype-constraint explanation.
            loaded.schema.column_group(columns)
        config = RMEConfig(
            row_size=loaded.schema.row_size, row_count=n_rows, runs=tuple(runs)
        )
        line = self.platform.cache_line
        size = region_bytes if region_bytes is not None else (
            -(-config.projected_bytes // line) * line
        )
        region = self.memmap.map(f"eph:{next(self._names)}:{loaded.name}", size, kind="pl")
        self.hierarchy.add_backend(region, self.rme)
        var = cls(
            self, loaded, columns, config, region, snapshot_ts,
            windowed=windowed, pushdown=pushdown,
        )
        if activate:
            self.activate(var)
        return var

    def activate(self, var: EphemeralVariable) -> None:
        """Program the RME configuration port for this variable (cold).

        Re-activating the currently active variable is a no-op, keeping
        the reorganization buffer hot across queries on the same group.
        """
        if self.is_active(var):
            return
        self.rme.configure(
            var.config,
            var.loaded.base_addr,
            var.region.base,
            var.loaded.region.limit,
            windowed=var.windowed,
            pushdown=getattr(var, "pushdown", None),
        )
        self._active_ref = weakref.ref(var)

    def deactivate(self) -> None:
        """Drop the active variable so its next activation reconfigures.

        The degraded-mode executor calls this after a fault: the engine's
        failed state is only cleared by :meth:`RMEngine.configure`, and a
        hot-buffer shortcut must not mask it.
        """
        self._active_ref = None

    def _active_var(self) -> Optional[EphemeralVariable]:
        """The variable the engine holds (None once it was dropped)."""
        return self._active_ref() if self._active_ref is not None else None

    def is_active(self, var: EphemeralVariable) -> bool:
        """Whether this variable's geometry is the one the engine holds."""
        return self._active_var() is var

    def warm_up(self, var: EphemeralVariable) -> float:
        """Activate and prefill the variable's projection; returns the ns
        the fetch pipeline took (useful to report transformation cost)."""
        self.activate(var)
        start = self.sim.now
        self.rme.prefill()
        self.sim.run()
        return self.sim.now - start

    # -- timing surface ----------------------------------------------------------------------
    def measure(self, segments: Sequence[ScanSegment]) -> float:
        """Run a scan pattern to completion; returns simulated ns.

        Under ``platform.fastpath`` an eligible scan runs on the scan
        ladder of :mod:`repro.sim.fastpath`, bit-identical to the
        event-driven :class:`~repro.memsys.cpu.ScanDriver` below, which
        stays the reference and the fallback.
        """
        segments = list(segments)
        if self.platform.fastpath:
            from ..sim.fastpath import forward_scan

            elapsed = forward_scan(self, segments)
            if elapsed is not None:
                return elapsed
        driver = ScanDriver(self.sim, self.hierarchy)
        process = self.sim.process(driver.run(segments), name="measure")
        self.sim.run()
        return process.value

    def measure_points(
        self, points: Sequence[Tuple[int, int]], compute_ns: float = 0.0
    ) -> float:
        """Time a pointer-chasing access sequence (index probes, row
        fetches); returns simulated ns."""
        driver = ScanDriver(self.sim, self.hierarchy)
        process = self.sim.process(
            driver.run_points(list(points), compute_ns), name="points"
        )
        self.sim.run()
        return process.value

    def measure_parallel(self, workloads: Sequence[Sequence]) -> List[float]:
        """Run one workload per core concurrently; returns per-core ns.

        Each workload is a list whose items are either
        :class:`~repro.memsys.cpu.ScanSegment` objects or ``(addr, nbytes)``
        point tuples (they may be mixed). Cores contend on the shared L2
        and DRAM exactly as the co-running HTAP experiment needs.
        """
        if len(workloads) > len(self.hierarchies):
            raise ConfigurationError(
                f"{len(workloads)} workloads for {len(self.hierarchies)} cores"
            )
        processes = []
        for core, work in enumerate(workloads):
            driver = ScanDriver(self.sim, self.hierarchies[core])
            segments = [w for w in work if isinstance(w, ScanSegment)]
            points = [w for w in work if not isinstance(w, ScanSegment)]

            def job(driver=driver, segments=segments, points=points):
                start = self.sim.now
                if segments:
                    yield from driver.run(segments)
                if points:
                    yield from driver.run_points(points)
                return self.sim.now - start

            processes.append(self.sim.process(job(), name=f"core{core}"))
        self.sim.run()
        return [process.value for process in processes]

    def flush_caches(self) -> None:
        """Cold CPU caches + stream table (between experiment runs)."""
        for hierarchy in self.hierarchies:
            hierarchy.flush()
        self.dram.reset_state()

    def reset_stats(self) -> None:
        """Zero the activity counters (between measured runs)."""
        self.hierarchy.reset_stats()
        self.dram.stats.reset()

    # -- introspection ----------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, Dict[str, float]]:
        """Core 0's Figure-7-style L1/L2 request and miss counters."""
        return self.hierarchy.cache_stats()

    @property
    def tables(self) -> List[str]:
        return sorted(self._tables)
