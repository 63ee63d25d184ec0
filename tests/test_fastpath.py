"""Fast-forward replay tests: bit-identity and fallback triggers.

The fast path (``repro.sim.fastpath``) must be *invisible* in every
simulated observable — elapsed nanoseconds, query answers, statistics —
and must refuse to engage whenever the epoch is not an isolated,
reconstructible descriptor stream. These tests pin both halves:
cycle-level (``fastpath=False``) and fast-forwarded runs are compared
bit-for-bit, and every fallback trigger is exercised and asserted via
the engine's ``fastpath_fallback_<reason>`` counters.
"""

import dataclasses
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro import (
    Processor,
    QueryExecutor,
    RelationalMemorySystem,
    RowTable,
    uniform_schema,
)
from repro.config import ZCU102
from repro.faults import FaultPlan
from repro.query.queries import Query, q1, q2, q4, q7
from repro.rme.designs import BSL, MLP, PCK
from repro.sim.fastpath import FASTPATH_STATS
from tests.conftest import build_relation
from tests.test_replay_property import _registry_snapshot

FASTPATH = dataclasses.replace(ZCU102, fastpath=True)
#: The reference every fast run is compared against, pinned explicitly.
CYCLE_LEVEL = dataclasses.replace(ZCU102, fastpath=False)


def _run(platform, query=None, n_rows=512, design=MLP, hot=False,
         columns=None, var_kwargs=None, **system_kwargs):
    """One RME measurement; returns (result, system)."""
    query = query or q1("A1")
    table = build_relation(n_rows=n_rows)
    system = RelationalMemorySystem(platform, design, **system_kwargs)
    loaded = system.load_table(table)
    var = system.register_var(loaded, columns or list(query.columns()),
                              **(var_kwargs or {}))
    if hot:
        system.warm_up(var)
        system.flush_caches()
    result = QueryExecutor(system).run_rme(query, var)
    return result, system


# -- bit-identity -----------------------------------------------------------------


@pytest.mark.parametrize("design", [BSL, PCK, MLP])
@pytest.mark.parametrize("hot", [False, True])
def test_fastpath_bit_identical_timing_and_answer(design, hot):
    slow, _ = _run(CYCLE_LEVEL, design=design, hot=hot)
    fast, system = _run(FASTPATH, design=design, hot=hot)
    assert system.rme.stats.count("fastpath_hits") >= 1
    assert fast.elapsed_ns == slow.elapsed_ns
    assert fast.value == slow.value
    assert fast.selectivity == slow.selectivity


@pytest.mark.parametrize("query", [q2("A1", "A2"), q4("A1")])
def test_fastpath_bit_identical_other_queries(query):
    slow, _ = _run(CYCLE_LEVEL, query=query)
    fast, _ = _run(FASTPATH, query=query)
    assert fast.elapsed_ns == slow.elapsed_ns
    assert fast.value == slow.value


def test_fastpath_replicates_statistics_exactly():
    _, slow_sys = _run(CYCLE_LEVEL)
    _, fast_sys = _run(FASTPATH)
    for attr in ("dram", "rme"):
        slow_stats = getattr(slow_sys, attr).stats
        fast_stats = getattr(fast_sys, attr).stats
        for name, counter in slow_stats:
            if name.startswith("fastpath"):
                continue
            other = fast_stats.counter(name)
            assert (other.count, other.total) == (counter.count, counter.total), name
    for name in ("row_hits", "row_empty", "row_misses", "beats"):
        assert fast_sys.dram.stats.count(name) == slow_sys.dram.stats.count(name)
    slow_hist = slow_sys.dram.stats.histogram("service_latency_ns")
    fast_hist = fast_sys.dram.stats.histogram("service_latency_ns")
    assert (fast_hist.count, fast_hist.total, fast_hist.min, fast_hist.max) == (
        slow_hist.count, slow_hist.total, slow_hist.min, slow_hist.max)


def test_fastpath_on_by_default():
    assert ZCU102.fastpath
    before = FASTPATH_STATS.count("epochs")
    _, system = _run(ZCU102)
    assert system.rme.stats.count("fastpath_hits") >= 1
    assert system.rme.stats.count("fastpath_fallbacks") == 0
    assert FASTPATH_STATS.count("epochs") - before == system.rme.stats.count(
        "fastpath_hits")


#: Run in a fresh process: a meta-path finder installed before ``repro``
#: is imported records every attempt to import numpy (found or not), then
#: cold and hot RME scans and PIM filter, aggregate, GROUP BY and join
#: runs execute, each checked against the CPU answer.
_IMPORT_BLOCKER_SCRIPT = """
import sys


class NumpyImportRecorder:
    attempts = []

    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            self.attempts.append(name)
        return None


sys.meta_path.insert(0, NumpyImportRecorder())

from repro import QueryExecutor, RelationalMemorySystem, RowTable
from repro.core.access_path import AccessPath
from repro.query.engines import CPU, PIM
from repro.query.expr import Col
from repro.query.processor import Processor
from repro.query.queries import Query, q1
from repro.storage.schema import Column, Schema, intn
from tests.conftest import build_relation

system = RelationalMemorySystem()
loaded = system.load_table(build_relation(n_rows=512))
var = system.register_var(loaded, ["A1"])
executor = QueryExecutor(system)
states = [executor.run_rme(q1("A1"), var).state for _ in range(2)]
assert states == ["cold", "hot"], states
assert system.rme.stats.count("fastpath_hits") == 1

processor = Processor(system)
for query in (
    Query(name="filter", sql="", select=("A1", "A2"), predicate=Col("A1") < 0),
    Query(name="sum", sql="", select=(), aggregate="sum", agg_expr=Col("A2"),
          predicate=(Col("A1") < 0).and_(Col("A3") > 0)),
    Query(name="group", sql="", select=(), aggregate="count",
          agg_expr=Col("A1"), predicate=Col("A2") >= 0, group_by="A4"),
):
    pim = processor.run(query, loaded, engine=PIM).result
    cpu = processor.run(query, loaded, engine=CPU).result
    assert pim.path is AccessPath.PIM, query.name
    assert repr(pim.value) == repr(cpu.value), query.name

i4 = intn(4)
dim = RowTable("D", Schema([Column("K", i4), Column("D1", i4)]))
fact = RowTable("F", Schema([Column("K", i4), Column("F1", i4)]))
for k in range(64):
    dim.append([k, k - 32])
    fact.append([(7 * k) % 48, 32 - k])
tables = {"D": system.load_table(dim), "F": system.load_table(fact)}
dim_q = Query(name="dim", sql="", select=("K", "D1"), predicate=Col("D1") > -8)
fact_q = Query(name="fact", sql="", select=("K", "F1"), predicate=Col("F1") > 0)
joined = {}
for engine in (PIM, CPU):
    plan = processor.plan_join("K", dim_q, tables["D"], fact_q, tables["F"],
                               engine=engine)
    joined[engine] = processor.execute(plan.relation, tables=tables)
assert joined[PIM].path is AccessPath.PIM
assert joined[PIM].value == joined[CPU].value and joined[PIM].value

print(NumpyImportRecorder.attempts)
"""


def test_replay_never_imports_numpy():
    # Neither the replay nor the PIM comparator imports numpy (about
    # 12 MB of RSS); recording attempts, not sys.modules, makes the check
    # independent of whether numpy is installed.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root)] + [env.get("PYTHONPATH", "")]
    )
    out = subprocess.run([sys.executable, "-c", _IMPORT_BLOCKER_SCRIPT],
                         cwd=root, env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


# -- fallback triggers -------------------------------------------------------------


def _assert_fell_back(system, reason):
    stats = system.rme.stats
    assert stats.count("fastpath_hits") == 0
    assert stats.count("fastpath_fallbacks") >= 1
    assert stats.count("fastpath_fallback_" + reason) >= 1


def test_tracer_forces_cycle_level():
    table = build_relation(n_rows=256)
    system = RelationalMemorySystem(FASTPATH, MLP)
    system.enable_tracing()
    loaded = system.load_table(table)
    var = system.register_var(loaded, ["A1"])
    result = QueryExecutor(system).run_rme(q1("A1"), var)
    _assert_fell_back(system, "tracer")
    slow, _ = _run(CYCLE_LEVEL, n_rows=256)
    assert result.elapsed_ns == slow.elapsed_ns


def test_armed_faults_force_cycle_level():
    table = build_relation(n_rows=256)
    system = RelationalMemorySystem(FASTPATH, MLP)
    system.enable_faults(FaultPlan())
    loaded = system.load_table(table)
    var = system.register_var(loaded, ["A1"])
    QueryExecutor(system).run_rme(q1("A1"), var)
    _assert_fell_back(system, "faults")


def test_windowed_mode_fast_forwards_each_window():
    kwargs = dict(n_rows=2048, buffer_capacity=2048,
                  var_kwargs={"windowed": True})
    result, system = _run(FASTPATH, **kwargs)
    assert system.rme.n_windows > 1
    assert system.rme.stats.count("fastpath_hits") >= system.rme.n_windows
    assert system.rme.stats.count("fastpath_fallbacks") == 0
    slow, slow_sys = _run(CYCLE_LEVEL, **kwargs)
    assert result.elapsed_ns == slow.elapsed_ns
    assert result.value == slow.value
    assert (system.rme.stats.count("window_switches")
            == slow_sys.rme.stats.count("window_switches"))


#: A 40-byte run followed by a 4-byte one: the narrow descriptor's
#: one-beat burst leaves the extractor before the wide one's three-beat
#: burst, so on MLP every row's two writes reach the port out of emission
#: order, and the replay must serve them in extractor-completion order.
WIDE_THEN_NARROW = [f"A{i}" for i in range(1, 11)] + ["A12"]


@pytest.mark.parametrize(
    "columns", [["A1", "A3"], WIDE_THEN_NARROW],
    ids=["two-runs", "wide-then-narrow"],
)
def test_multirun_geometry_fast_forwards(columns):
    # Non-contiguous columns -> multi-run geometry.
    query = q2(columns[0], columns[-1])
    kwargs = dict(columns=columns,
                  var_kwargs={"allow_noncontiguous": True})
    result, system = _run(FASTPATH, query=query, **kwargs)
    assert system.rme.stats.count("fastpath_hits") >= 1
    assert system.rme.stats.count("fastpath_fallbacks") == 0
    slow, slow_sys = _run(CYCLE_LEVEL, query=query, **kwargs)
    assert (result.elapsed_ns, result.value, system.sim.now) == (
        slow.elapsed_ns, slow.value, slow_sys.sim.now)
    assert _registry_snapshot(system) == _registry_snapshot(slow_sys)


@pytest.mark.parametrize("design", [BSL, PCK, MLP])
def test_unaligned_rows_fast_forward(design):
    # 3 cols x 4 B = 12-byte rows: not a multiple of the 16-byte bus beat,
    # so lead skips and burst lengths drift between descriptors.
    def run(platform):
        table = build_relation(n_rows=256, n_cols=3)
        system = RelationalMemorySystem(platform, design)
        loaded = system.load_table(table)
        var = system.register_var(loaded, ["A1"])
        return QueryExecutor(system).run_rme(q1("A1"), var), system

    fast, system = run(FASTPATH)
    assert system.rme.stats.count("fastpath_hits") >= 1
    assert system.rme.stats.count("fastpath_fallbacks") == 0
    slow, _ = run(CYCLE_LEVEL)
    assert fast.elapsed_ns == slow.elapsed_ns
    assert fast.value == slow.value


@pytest.mark.parametrize("design", [BSL, PCK, MLP])
def test_group_wider_than_a_line_fast_forwards(design):
    # A 148-byte group out of 256-byte rows: most writes span three packed
    # lines, and the middle one completes with that write alone.
    columns = [f"A{i}" for i in range(3, 40)]

    def run(platform):
        table = build_relation(n_rows=256, n_cols=64)
        system = RelationalMemorySystem(platform, design)
        loaded = system.load_table(table)
        var = system.register_var(loaded, columns)
        query = q2(columns[0], columns[-1])
        return QueryExecutor(system).run_rme(query, var), system

    fast, system = run(FASTPATH)
    assert system.rme.stats.count("fastpath_hits") >= 1
    assert system.rme.stats.count("fastpath_fallbacks") == 0
    slow, slow_sys = run(CYCLE_LEVEL)
    assert (fast.elapsed_ns, fast.value, system.sim.now) == (
        slow.elapsed_ns, slow.value, slow_sys.sim.now)
    assert _registry_snapshot(system) == _registry_snapshot(slow_sys)


def test_parallel_rowfilter_pushdown_forces_cycle_level():
    # An MLP row filter's in-order commit stage interleaves with 16 lanes;
    # only single-lane designs replay row filters analytically.
    table = build_relation(n_rows=256)
    system = RelationalMemorySystem(FASTPATH, MLP)
    loaded = system.load_table(table)
    fvar = system.register_filtered_var(loaded, ["A1"], "A1", "<", 0)
    system.warm_up(fvar)
    _assert_fell_back(system, "pushdown")


@pytest.mark.parametrize("design", [BSL, PCK])
def test_serial_rowfilter_pushdown_fast_forwards(design):
    def run(platform):
        table = build_relation(n_rows=256)
        system = RelationalMemorySystem(platform, design)
        loaded = system.load_table(table)
        fvar = system.register_filtered_var(loaded, ["A1"], "A1", "<", 0)
        system.warm_up(fvar)
        system.flush_caches()
        result = QueryExecutor(system).run_rme(q1("A1"), fvar)
        return result, system

    fast, system = run(FASTPATH)
    assert system.rme.stats.count("fastpath_hits") >= 1
    assert system.rme.stats.count("fastpath_fallbacks") == 0
    slow, slow_sys = run(CYCLE_LEVEL)
    assert fast.elapsed_ns == slow.elapsed_ns
    assert fast.value == slow.value
    assert system.rme.match_count == slow_sys.rme.match_count


@pytest.mark.parametrize("design", [BSL, PCK, MLP])
def test_aggregation_pushdown_fast_forwards(design):
    def run(platform):
        table = build_relation(n_rows=256)
        system = RelationalMemorySystem(platform, design)
        loaded = system.load_table(table)
        avar = system.register_hw_aggregate(loaded, "A1", "sum")
        system.warm_up(avar)
        return system

    fast_sys = run(FASTPATH)
    assert fast_sys.rme.stats.count("fastpath_hits") >= 1
    assert fast_sys.rme.stats.count("fastpath_fallbacks") == 0
    slow_sys = run(CYCLE_LEVEL)
    assert fast_sys.rme.aggregate_result() == slow_sys.rme.aggregate_result()
    assert fast_sys.sim.now == slow_sys.sim.now


def test_multicore_system_falls_back():
    # A second core can reach DRAM while an epoch is in flight, which the
    # replay's no-cross-traffic premise (enforced by the DRAM guard)
    # forbids; such systems run every epoch cycle-level.
    before = FASTPATH_STATS.count("fallback_multicore")
    result, system = _run(FASTPATH, n_rows=256, n_cores=2)
    _assert_fell_back(system, "multicore")
    assert FASTPATH_STATS.count("fallback_multicore") - before == system.rme.stats.count(
        "fastpath_fallback_multicore")
    slow, _ = _run(CYCLE_LEVEL, n_rows=256, n_cores=2)
    assert repr(result) == repr(slow)


def test_ext_isolation_identical_on_both_clocks():
    from repro.bench.extensions import ext_isolation

    fast = ext_isolation(n_rows=512, platform=FASTPATH)
    slow = ext_isolation(n_rows=512, platform=CYCLE_LEVEL)
    assert fast.xs == slow.xs
    assert fast.series == slow.series


def test_midscan_reconfiguration_falls_back_once():
    table = build_relation(n_rows=512)
    system = RelationalMemorySystem(FASTPATH, MLP)
    loaded = system.load_table(table)
    system.register_var(loaded, ["A1"])
    rme = system.rme
    # Activate: the epoch fast-forwards and schedules its visibility plan.
    rme.monitor.notice_access()
    assert rme.stats.count("fastpath_hits") == 1
    assert rme.monitor.fastforward_pending
    # Advance partway into the epoch, then reconfigure mid-scan.
    system.sim.run(until=rme.monitor._ff_end / 2)
    assert rme.monitor.fastforward_pending
    system.register_var(loaded, ["A2"])
    assert rme.dram.guard_until == 0.0
    # The next activation must run cycle-level (state is mid-epoch).
    rme.monitor.notice_access()
    system.sim.run()
    _stats = rme.stats
    assert _stats.count("fastpath_fallback_interrupted") == 1
    # The flag is one-shot: a fresh configuration fast-forwards again.
    system.register_var(loaded, ["A1"])
    rme.monitor.notice_access()
    system.sim.run()
    assert _stats.count("fastpath_hits") == 2


# -- a long-lived system ------------------------------------------------------------


def _scan_sessions(seed):
    """Two seeded int32 tables and eight sessions over them: one- and
    four-column groups at a seeded offset, two per table and width, in
    shuffled order."""
    rng = random.Random(seed)
    tables = {}
    for name, n_cols in (("S64", 16), ("S256", 64)):
        table = RowTable(name, uniform_schema(n_cols, 4))
        for _ in range(256):
            table.append([rng.randrange(-(1 << 20), 1 << 20)
                          for _ in range(n_cols)])
        tables[name] = table
    sessions = []
    for name, n_cols in (("S64", 16), ("S256", 64)):
        for width in (1, 4):
            for _ in range(2):
                offset = rng.randrange(n_cols - width + 1)
                sessions.append(
                    (name, [f"A{i + 1}" for i in range(offset, offset + width)])
                )
    rng.shuffle(sessions)
    return tables, sessions


def _platform_with(platform, tables):
    system = RelationalMemorySystem(platform)
    loaded = {name: system.load_table(table) for name, table in tables.items()}
    return system, loaded, Processor(system)


def _run_session(system, loaded, processor, name, columns):
    """Register the group, then project it, Q7 its first column and Q1
    its last, each planned for the variable's current temperature."""
    table = loaded[name]
    var = system.register_var(table, columns)
    queries = (
        Query(name="P", sql=f"SELECT {', '.join(columns)} FROM S",
              select=tuple(columns)),
        q7(columns[0]),
        q1(columns[-1]),
    )
    results = []
    for query in queries:
        plan = processor.plan(query, table, hot=var.is_hot)
        results.append(
            repr(processor.execute(plan.relation, loaded=table, var=var))
        )
    return results


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_long_lived_fast_system_matches_cycle_level(seed):
    # Sessions run back to back on one fast system leave its devices at
    # ever later instants; every epoch must still replay exactly, both on
    # that system and when each session is replayed on a fresh one.
    tables, sessions = _scan_sessions(seed)
    fast_system = _platform_with(FASTPATH, tables)
    slow_system = _platform_with(CYCLE_LEVEL, tables)
    for sid, (name, columns) in enumerate(sessions):
        assert (_run_session(*fast_system, name, columns)
                == _run_session(*slow_system, name, columns)), (sid, columns)
    for sid, (name, columns) in enumerate(sessions):
        fast = _run_session(*_platform_with(FASTPATH, tables), name, columns)
        slow = _run_session(*_platform_with(CYCLE_LEVEL, tables), name, columns)
        assert fast == slow, (sid, columns)
