"""Property test: fast-forward replay is bit-identical to per-event simulation.

Hypothesis drives randomized mixes of fetch epochs and CPU scans —
projection / windowed / multirun (including a group whose writes reach
the port out of emission order) / pushdown epochs across designs, cold
and hot, plus direct and columnar scans over 16–256 B rows, 28 B rows
whose int64 elements straddle lines, two-pass Q7, ``flush=False``
sequences such as a join's right side, and one scan over a DRAM segment
then a cold trapped one — and asserts that the fast path
(epoch replay plus the scan ladder) produces *exactly* the simulated
observables of the cycle-level run: elapsed nanoseconds, query answers,
final simulation time, every instrument of every StatSet in
``system.metrics`` (counters bit-for-bit, gauges, histograms
bucket-for-bucket), the L1 and L2 sets in LRU order with their dirty
bits, the prefetcher's stream, the trapper's response-port watermark
and the DRAM bank and bus state.

Three more observables exist only under fast-forwarded epochs: the
monitor's armed wake set, the DRAM guard and the kernel's sequence
counter. They are
compared between the fast path and the fastpath event path (the same
run with the scan ladder switched off for the test), so the ladder is
pinned on them too.

The fast run asserts that the scan counter moved (or, for windowed
variables, their fallback counter), so a mix cannot pass by falling
back to the event path.
"""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import QueryExecutor, RelationalMemorySystem, RowTable
from repro.config import ZCU102
from repro.memsys.cpu import ScanSegment
from repro.query.queries import Query, q1, q2, q7
from repro.rme.designs import BSL, MLP, PCK
from repro.sim import fastpath
from repro.sim.fastpath import FASTPATH_STATS
from repro.storage.schema import Column, Schema, int32, int64
from tests.conftest import build_relation

FASTPATH = dataclasses.replace(ZCU102, fastpath=True)
CYCLE_LEVEL = dataclasses.replace(ZCU102, fastpath=False)

#: Multi-run column groups: two narrow runs, and a wide run followed by a
#: narrow one (its writes reach the port out of emission order on MLP).
MULTIRUN_GROUPS = (
    ("A1", "A3"),
    tuple(f"A{i}" for i in range(1, 11)) + ("A12",),
)

#: Row sizes of the CPU-side mixes; 28 B rows mix int32 and int64 columns.
ROW_BYTES = (16, 28, 64, 96, 256)

EPOCH_KINDS = ("project", "windowed", "multirun", "aggregate", "filtered")
SCAN_KINDS = ("direct", "columnar", "join")


def _registry_snapshot(system) -> dict:
    """Every simulated observable the cycle-level run defines, comparable."""
    snap = {}
    for path, stats in system.metrics:
        for name, counter in sorted(stats._counters.items()):
            if name.startswith("fastpath"):
                continue  # fastpath bookkeeping differs by construction
            snap[(path, "counter", name)] = (counter.count, counter.total)
        for name, gauge in sorted(stats._gauges.items()):
            snap[(path, "gauge", name)] = (
                gauge.value, gauge.min, gauge.max, gauge.updates)
        for name, hist in sorted(stats._histograms.items()):
            snap[(path, "histogram", name)] = (
                hist.count, hist.total, hist.min, hist.max,
                hist._underflow, tuple(sorted(hist._buckets.items())),
            )
    hierarchy = system.hierarchy
    for cache in (hierarchy.l1, hierarchy.l2):
        snap[("cache", cache.name)] = tuple(
            (index, tuple(lines.items()))  # LRU order, dirty bits
            for index, lines in sorted(cache._sets.items())
        )
    prefetcher = hierarchy.prefetcher
    snap["prefetcher"] = (
        prefetcher._last_line, prefetcher._stride, prefetcher._confidence)
    snap["response_port"] = system.rme.trapper._response_port_free_at
    dram = system.dram
    snap["dram"] = (
        tuple((bank.open_row, bank.ready_at) for bank in dram._banks),
        dram._bus_free_at,
    )
    snap["now"] = system.sim.now
    return snap


def _fastpath_state(system) -> tuple:
    """What only fast-forwarded epochs define: the armed wakes, the DRAM
    guard, the kernel's sequence counter."""
    return (sorted(system.rme.monitor._ff_armed), system.dram.guard_until,
            system.sim._seq)


def _mixed_relation(n_rows: int) -> RowTable:
    """28-byte rows: int32, int64, int32, int64, int32 — 8-byte elements
    start at offsets 4 and 16, so some straddle a line boundary."""
    schema = Schema([
        Column("A1", int32()), Column("A2", int64()), Column("A3", int32()),
        Column("A4", int64()), Column("A5", int32()),
    ])
    table = RowTable("m", schema)
    for row in range(n_rows):
        table.append([row * 7 - 500, row * 13 - 900, -row, row * 3, row % 11])
    return table


def _relation(row_bytes: int, n_rows: int) -> RowTable:
    if row_bytes == 28:
        return _mixed_relation(n_rows)
    return build_relation(n_rows=n_rows, n_cols=row_bytes // 4)


def _query(name: str) -> Query:
    return {"q1": q1("A2"), "q2": q2("A2", "A1"), "q7": q7("A2")}[name]


def _execute_epoch(platform, *, kind, design, n_rows, hot, group):
    """An RME-centred mix: one epoch kind, then its CPU scans."""
    table = build_relation(n_rows=n_rows)
    if kind == "aggregate":
        system = RelationalMemorySystem(platform, design)
        loaded = system.load_table(table)
        avar = system.register_hw_aggregate(loaded, "A1", "sum")
        system.warm_up(avar)
        if hot:
            system.flush_caches()
            system.warm_up(avar)
        result = QueryExecutor(system).run_rme(q1("A1"), avar)
        return (system.rme.aggregate_result(), repr(result)), system
    kwargs = {}
    columns = ["A1"]
    var_kwargs = {}
    query = q1("A1")
    if kind == "multirun":
        columns = list(group)
        var_kwargs = {"allow_noncontiguous": True}
        query = q2(group[0], group[-1])
    elif kind == "windowed":
        kwargs["buffer_capacity"] = 256
        var_kwargs = {"windowed": True}
    system = RelationalMemorySystem(platform, design, **kwargs)
    loaded = system.load_table(table)
    if kind == "filtered":
        var = system.register_filtered_var(loaded, ["A1"], "A1", "<", 0)
        # A parallel-lane row filter's epoch runs cycle-level; scan it hot.
        if hot or design.outstanding_txns > 1:
            system.warm_up(var)
            system.flush_caches()
    else:
        var = system.register_var(loaded, columns, **var_kwargs)
        if hot:
            system.warm_up(var)
            system.flush_caches()
    executor = QueryExecutor(system)
    result = executor.run_rme(query, var)
    # A flush=False direct scan after the RME scan: a join's right side.
    direct = executor.run_direct(q1("A2"), loaded, flush=False)
    return (repr(result), repr(direct)), system


def _execute_scan(platform, *, kind, row_bytes, n_rows, query, flush):
    """A CPU-side mix: direct, columnar, or a join's two scans."""
    table = _relation(row_bytes, n_rows)
    system = RelationalMemorySystem(platform, MLP)
    loaded = system.load_table(table)
    executor = QueryExecutor(system)
    query = _query(query)
    if kind == "direct":
        first = executor.run_direct(query, loaded, flush=flush)
    elif kind == "columnar":
        system.load_column_group(loaded, ["A1", "A2"])
        first = executor.run_columnar(query, loaded, flush=flush)
    else:  # join: left side flushes, right side reuses the warm caches
        first = executor.run_direct(query, loaded, flush=True)
    second = executor.run_direct(q1("A1"), loaded, flush=False)
    return (repr(first), repr(second)), system


def _observe(run, platform, case, ladder=True):
    """``run`` under ``platform``; returns (answers, snapshot, ff state,
    scans forwarded, windowed fallbacks)."""
    scans = FASTPATH_STATS.count("scans")
    windowed = FASTPATH_STATS.count("scan_fallback_windowed")
    forward = fastpath.forward_scan
    if not ladder:
        fastpath.forward_scan = lambda system, segments: None
    try:
        answers, system = run(platform, **case)
    finally:
        fastpath.forward_scan = forward
    return (answers, _registry_snapshot(system), _fastpath_state(system),
            FASTPATH_STATS.count("scans") - scans,
            FASTPATH_STATS.count("scan_fallback_windowed") - windowed)


def _check(run, case, windowed=False):
    reference = _observe(run, CYCLE_LEVEL, case)
    event_path = _observe(run, FASTPATH, case, ladder=False)
    fast = _observe(run, FASTPATH, case)

    assert reference[3] == event_path[3] == 0, case
    assert fast[:2] == reference[:2], case
    assert fast[:3] == event_path[:3], case
    if windowed:
        assert fast[4] > 0, case
    else:
        assert fast[3] > 0, case  # the scan ran on the ladder


@settings(max_examples=12, deadline=None)
@given(
    kind=st.sampled_from(EPOCH_KINDS),
    design=st.sampled_from([BSL, PCK, MLP]),
    n_rows=st.sampled_from([128, 192, 256]),
    hot=st.booleans(),
    group=st.sampled_from(MULTIRUN_GROUPS),
)
@example(kind="multirun", design=MLP, n_rows=128, hot=False,
         group=MULTIRUN_GROUPS[1])
@example(kind="project", design=MLP, n_rows=256, hot=False,
         group=MULTIRUN_GROUPS[0])
# At scale: a wide group's 88 KB of packed lines overflow the L1, cold
# (the epoch opens and closes DRAM pages) and hot.
@example(kind="multirun", design=MLP, n_rows=2048, hot=False,
         group=MULTIRUN_GROUPS[1])
@example(kind="multirun", design=PCK, n_rows=2048, hot=True,
         group=MULTIRUN_GROUPS[1])
def test_batched_replay_bit_identical(kind, design, n_rows, hot, group):
    case = dict(kind=kind, design=design, n_rows=n_rows, hot=hot,
                group=group)
    _check(_execute_epoch, case, windowed=kind == "windowed")


@settings(max_examples=12, deadline=None)
@given(
    kind=st.sampled_from(SCAN_KINDS),
    row_bytes=st.sampled_from(ROW_BYTES),
    n_rows=st.sampled_from([96, 160, 256]),
    query=st.sampled_from(["q1", "q2", "q7"]),
    flush=st.booleans(),
)
@example(kind="direct", row_bytes=28, n_rows=160, query="q7", flush=False)
@example(kind="columnar", row_bytes=256, n_rows=96, query="q2", flush=True)
# At scale: the L1 evicts and the scans cross DRAM pages; the columnar
# copy's lines also evict the table's from the L2.
@example(kind="direct", row_bytes=256, n_rows=2048, query="q2", flush=False)
@example(kind="columnar", row_bytes=256, n_rows=4096, query="q2", flush=True)
def test_scan_ladder_bit_identical(kind, row_bytes, n_rows, query, flush):
    case = dict(kind=kind, row_bytes=row_bytes, n_rows=n_rows, query=query,
                flush=flush)
    _check(_execute_scan, case)


def _execute_mixed(platform, *, design, n_rows, compute_ns):
    """One measure() over a DRAM segment, then a cold trapped one: the
    engine activates on the DRAM banks, bus and statistics the first
    segment left behind."""
    system = RelationalMemorySystem(platform, design)
    loaded = system.load_table(build_relation(n_rows=n_rows))
    var = system.register_var(loaded, ["A2", "A3"])
    direct = ScanSegment(loaded.base_addr + 4, n_rows, 4,
                         loaded.schema.row_size, compute_ns)
    elapsed = system.measure([direct] + var.scan_segment(compute_ns))
    return (elapsed, system.rme.packed_bytes()), system


@pytest.mark.parametrize("design", [BSL, MLP], ids=["bsl", "mlp"])
def test_mixed_segments_bit_identical(design):
    # A compute cost off the dyadic grid makes DRAM service times inexact
    # floats, so their sums depend on the order they are committed in.
    _check(_execute_mixed, dict(design=design, n_rows=512,
                                compute_ns=1.0 / 3.0))
