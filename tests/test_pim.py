"""Tests for the bank-level PIM pushdown engine (``repro.pim``).

Covers the bitmap algebra, the DRAM-geometry bank partition, the
predicate compiler and its refusal reasons, the bank comparator sweep
against the row-by-row comparator, byte-identity of PIM answers
against the software paths, the cost model's shape, optimizer placement,
plan printing, and fault degradation mirroring the RME contract.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench.workloads import make_relation
from repro.config import DRAMTimings, ZCU102
from repro.core.access_path import AccessPath
from repro.core.relmem import RelationalMemorySystem
from repro.errors import ConfigurationError, FaultError, QueryError
from repro.faults import DEFAULT_RECOVERY, NO_RECOVERY, FaultPlan
from repro.pim import (
    BankLayout,
    BankPIM,
    PimUnsupportedError,
    PIMCostModel,
    SelectionBitmap,
    bank_of_key,
    estimate_join_ns,
    estimate_query_ns,
    expected_pages_touched,
    predicate_spec,
    supports_join,
    supports_query,
)
from repro.pim.predicate import sweep_bank
from repro.query.engines import CPU, PIM
from repro.query.executor import QueryExecutor
from repro.query.expr import Col
from repro.query.optimizer import choose_access_path, choose_join_path
from repro.query.processor import Processor, join_relation
from repro.query.relation import print_tree
from repro.query.queries import Query, q1, q2, q4
from repro.rme.pushdown import CMP_OPS, HWSelection
from repro.storage.row_table import RowTable
from repro.query.sql import parse_query
from repro.storage.schema import Column, Schema, intn
from tests.conftest import build_mixed_relation


# -- bitmap algebra ---------------------------------------------------------------


def test_bitmap_bitwise_ops_mask_to_size():
    a = SelectionBitmap(4, 0b0011)
    b = SelectionBitmap(4, 0b0110)
    assert list((a & b).indices()) == [1]
    assert list((a | b).indices()) == [0, 1, 2]
    inverted = SelectionBitmap(4, -1)
    assert inverted == SelectionBitmap(4, 0b1111)
    assert inverted.count() == 4  # no bits above n_rows leak in


def test_bitmap_peer_size_mismatch_rejected():
    with pytest.raises(ConfigurationError):
        SelectionBitmap(4, 0b1111) & SelectionBitmap(5, 0b11111)


def test_bitmap_nbytes_is_packed():
    assert SelectionBitmap(1).nbytes == 1
    assert SelectionBitmap(8).nbytes == 1
    assert SelectionBitmap(9).nbytes == 2


# -- bank partitioning ------------------------------------------------------------


def test_bank_layout_matches_dram_interleave():
    timings = DRAMTimings()
    layout = BankLayout(0, 64, 256, timings)
    # 64 B rows, 2048 B pages -> 32 rows per page, pages round-robin the
    # banks, so 256 rows land 32 per bank across all 8 banks.
    assert [s.n_rows for s in layout.slices] == [32] * timings.n_banks
    covered = sorted(r for s in layout.slices for rows in s.ranges
                     for r in rows)
    assert covered == list(range(256))
    # page_of agrees with the DRAM mapping block = addr // page_size.
    assert layout.page_of(0) == 0
    assert layout.page_of(32) == 1


def test_bank_layout_respects_base_addr():
    timings = DRAMTimings()
    shifted = BankLayout(timings.row_buffer_bytes, 64, 32, timings)
    # One page past base 0: the first rows now live in bank 1, not 0.
    assert shifted.slices[0].bank == 1


@settings(max_examples=300, deadline=None)
@given(
    base=st.integers(0, 1 << 20),
    row_size=st.one_of(st.integers(1, 128), st.integers(1, 5000)),
    n_rows=st.integers(0, 600),
    n_banks=st.integers(1, 16),
    page=st.integers(64, 2048),
)
@example(base=0, row_size=64, n_rows=256, n_banks=8, page=2048)
@example(base=2000, row_size=24, n_rows=90, n_banks=8, page=2048)
@example(base=100, row_size=5000, n_rows=9, n_banks=3, page=2048)
def test_bank_layout_matches_row_by_row_reference(base, row_size, n_rows,
                                                  n_banks, page):
    # Reference: each row goes to the bank of the page holding its first
    # byte; a bank's pages are the distinct pages its rows start in.
    rows, pages = {}, {}
    for row in range(n_rows):
        block = (base + row * row_size) // page
        rows.setdefault(block % n_banks, []).append(row)
        pages.setdefault(block % n_banks, set()).add(block)
    timings = DRAMTimings(n_banks=n_banks, row_buffer_bytes=page)
    layout = BankLayout(base, row_size, n_rows, timings)
    assert [s.bank for s in layout.slices] == sorted(rows)
    for bank_slice in layout.slices:
        expected = rows[bank_slice.bank]
        assert [r for rng in bank_slice.ranges for r in rng] == expected
        assert bank_slice.n_rows == len(expected)
        assert bank_slice.n_pages == len(pages[bank_slice.bank])


def test_bank_layout_rejects_bad_geometry():
    with pytest.raises(ConfigurationError):
        BankLayout(0, 0, 16, DRAMTimings())
    with pytest.raises(ConfigurationError):
        BankLayout(0, 64, 16, DRAMTimings()).page_of(99)


# -- predicate compiler -----------------------------------------------------------


def test_predicate_spec_counts_comparators():
    spec = predicate_spec((Col("A1") < 5).and_(Col("A2") >= 0))
    assert spec.n_compare == 2
    assert spec.n_combine == 1
    assert spec.columns == ("A1", "A2")


def test_predicate_spec_mirrors_const_on_left():
    spec = predicate_spec(Col("A1") > 7)
    mirrored = predicate_spec(~(Col("A1") <= 7)) if False else spec
    assert mirrored.leaves[0].column == "A1"


def test_predicate_spec_folds_negative_literals():
    # The SQL parser spells -5 as (0 - 5); the comparator takes an
    # immediate, so the compiler folds column-free subtrees.
    from repro.query.sql import parse_query

    query = parse_query("SELECT A1 FROM S WHERE A2 < -5")
    spec = predicate_spec(query.predicate)
    assert spec.leaves[0].constant == -5


def test_predicate_spec_rejects_column_vs_column():
    with pytest.raises(PimUnsupportedError):
        predicate_spec(Col("A1") < Col("A2"))


def test_predicate_spec_rejects_arithmetic():
    with pytest.raises(PimUnsupportedError):
        predicate_spec((Col("A1") * Col("A2")) > 0)


def test_supports_query_reasons():
    assert supports_query(q2(k=0)) == ""
    assert supports_query(q4()) == ""
    assert "push down" in supports_query(q1())  # bare full projection
    grouped_sum = Query(name="g", sql="", select=(), aggregate="sum",
                        agg_expr=Col("A1"), group_by="A2")
    assert supports_query(grouped_sum) == ""  # banks fold per-group state
    grouped_avg = Query(name="ga", sql="", select=(), aggregate="avg",
                        agg_expr=Col("A1"), group_by="A2")
    assert "group accumulators" in supports_query(grouped_avg)
    bare_group = Query(name="bg", sql="", select=("A1",), group_by="A2")
    assert "GROUP BY without an aggregate" in supports_query(bare_group)
    arithmetic = Query(name="m", sql="", select=(), aggregate="sum",
                       agg_expr=Col("A1") * Col("A2"))
    assert supports_query(arithmetic) != ""


def test_supports_join_reasons():
    lhs = Query(name="dim", sql="", select=("K", "D1"))
    rhs = Query(name="fact", sql="", select=("K", "A1"),
                predicate=Col("F1") > 0)
    assert supports_join("K", lhs, rhs) == ""
    no_key = Query(name="nokey", sql="", select=("D1",))
    assert "does not project the join key" in supports_join("K", no_key, rhs)
    agg = Query(name="agg", sql="", select=(), aggregate="sum",
                agg_expr=Col("A1"))
    assert "aggregate" in supports_join("K", lhs, agg)
    arith = Query(name="arith", sql="", select=("K",),
                  predicate=(Col("A1") * Col("A2")) > 0)
    assert supports_join("K", lhs, arith) != ""


# -- the in-bank comparator sweep ------------------------------------------------

#: Constants at and beyond the int64 range: Python ints compare exactly.
EDGE_CONSTANTS = (-(2**64), -(2**63) - 1, -(2**63), 2**63 - 1, 2**63, 2**64)


@settings(max_examples=300, deadline=None)
@given(
    n_rows=st.integers(0, 200),
    width=st.sampled_from([1, 2, 4, 8]),
    lead=st.integers(0, 12),
    trail=st.integers(0, 12),
    op=st.sampled_from(sorted(CMP_OPS)),
    constant=st.one_of(st.integers(-300, 300), st.sampled_from(EDGE_CONSTANTS),
                       st.integers(-(2**70), 2**70)),
    from_row=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_rows=0, width=8, lead=0, trail=0, op="<", constant=0,
         from_row=False, seed=0)
@example(n_rows=31, width=8, lead=3, trail=5, op=">=", constant=-(2**63),
         from_row=False, seed=1)
@example(n_rows=32, width=1, lead=0, trail=0, op="!=", constant=2**63,
         from_row=False, seed=2)
def test_bank_sweep_matches_hwselection_row_by_row(
        n_rows, width, lead, trail, op, constant, from_row, seed):
    rng = random.Random(seed)
    row_size = lead + width + trail
    blob = bytearray(rng.randbytes(n_rows * row_size))
    extremes = (-(2 ** (8 * width - 1)), 2 ** (8 * width - 1) - 1, 0, -1)
    for row in range(0, n_rows, 3):  # plant field extremes in some rows
        value = rng.choice(extremes)
        start = row * row_size + lead
        blob[start:start + width] = value.to_bytes(width, "little",
                                                   signed=True)
    rows = [bytes(blob[i * row_size:(i + 1) * row_size])
            for i in range(n_rows)]
    if from_row and rows:  # make == and != verdicts non-trivial
        constant = int.from_bytes(rng.choice(rows)[lead:lead + width],
                                  "little", signed=True)
    comparator = HWSelection(lead, width, op, constant)
    comparator.validate(row_size)
    expected = sum(1 << i for i, row in enumerate(rows)
                   if comparator.matches(row))
    assert sweep_bank(comparator, bytes(blob), n_rows) == expected


# -- byte-identity against the software paths -------------------------------------


def shootout(query, n_rows=512):
    table = make_relation(n_rows)
    software = RelationalMemorySystem()
    direct = QueryExecutor(software).run_direct(
        query, software.load_table(table))
    hardware = RelationalMemorySystem()
    pim = BankPIM(hardware).run(query, hardware.load_table(table))
    return direct, pim


@pytest.mark.parametrize("query", [
    Query(name="proj", sql="", select=("A1", "A2"),
          predicate=Col("A1") < -500_000),
    Query(name="sum", sql="", select=(), aggregate="sum",
          agg_expr=Col("A2"), predicate=Col("A1") < 0),
    Query(name="count", sql="", select=(), aggregate="count",
          agg_expr=Col("A1"),
          predicate=(Col("A1") < 0).and_(Col("A2") > 0)),
    Query(name="min", sql="", select=(), aggregate="min",
          agg_expr=Col("A3")),
    Query(name="max-or", sql="", select=(), aggregate="max",
          agg_expr=Col("A1"),
          predicate=(Col("A2") < -900_000).or_(Col("A2") > 900_000)),
], ids=lambda q: q.name)
def test_pim_answers_byte_identical(query):
    direct, pim = shootout(query)
    assert pim.value == direct.value
    assert pim.selectivity == direct.selectivity
    assert pim.elapsed_ns > 0


def test_pim_runs_are_deterministic():
    query = q2(k=0)
    _, first = shootout(query)
    _, second = shootout(query)
    assert first.value == second.value
    assert first.elapsed_ns == second.elapsed_ns
    assert first.bitmap == second.bitmap


def test_pim_rejects_ineligible_queries():
    table = make_relation(64)
    system = RelationalMemorySystem()
    loaded = system.load_table(table)
    with pytest.raises(QueryError, match="not PIM-evaluable"):
        BankPIM(system).run(q1(), loaded)


# -- field types the banks can read -----------------------------------------------


@pytest.mark.parametrize("sql", [
    "SELECT SUM(F) FROM T WHERE A1 < 0",
    "SELECT MAX(U) FROM T WHERE A1 < 0",
    "SELECT A1 FROM T WHERE F < 2",
    "SELECT A1 FROM T WHERE U > 3000000060",
    "SELECT SUM(A1) FROM T GROUP BY U",
])
def test_pim_refuses_fields_it_cannot_read(sql):
    system = RelationalMemorySystem()
    loaded = system.load_table(build_mixed_relation())
    with pytest.raises(QueryError, match="read only signed integer fields"):
        QueryExecutor(system).run_pim(parse_query(sql), loaded)


def test_pim_gathers_projected_columns_of_any_type():
    # The banks read only A1; the CPU gathers F and U with their own types.
    system = RelationalMemorySystem()
    loaded = system.load_table(build_mixed_relation())
    executor = QueryExecutor(system)
    query = parse_query("SELECT F, U FROM T WHERE A1 >= 30")
    pim = executor.run_pim(query, loaded)
    assert pim.value == executor.run_direct(query, loaded).value
    assert pim.value == [(31.0, 3_000_000_062), (31.5, 3_000_000_063)]


def test_planner_never_prices_pim_on_unreadable_fields():
    system = RelationalMemorySystem()
    loaded = system.load_table(build_mixed_relation())
    processor = Processor(system)
    query = parse_query("SELECT SUM(F) FROM T WHERE A1 < -30")
    plan = processor.plan(query, loaded, selectivity=2 / 64)
    assert AccessPath.PIM not in plan.choice.estimates_ns
    assert processor.execute(plan.relation, loaded=loaded).value == 0.5
    signed = parse_query("SELECT SUM(A1) FROM T WHERE A1 < -30")
    choice = processor.plan(signed, loaded, selectivity=2 / 64).choice
    assert AccessPath.PIM in choice.estimates_ns


def test_pim_join_on_unreadable_key_refused():
    system = RelationalMemorySystem()
    lhs = system.load_table(build_mixed_relation("L"))
    rhs = system.load_table(build_mixed_relation("R"))
    lhs_q = Query(name="l", sql="", select=("U", "A1"),
                  predicate=Col("A1") < -30)
    rhs_q = Query(name="r", sql="", select=("U", "F"))
    choice = choose_join_path("U", lhs_q, lhs, rhs_q, rhs,
                              lhs_selectivity=2 / 64)
    assert AccessPath.PIM not in choice.estimates_ns
    with pytest.raises(QueryError, match="read only signed integer fields"):
        QueryExecutor(system).run_pim_join("U", lhs_q, lhs, rhs_q, rhs)


# -- cost model -------------------------------------------------------------------


def test_expected_pages_touched_bounds():
    assert expected_pages_touched(16, 0) == 0.0
    assert expected_pages_touched(16, 1) == 1.0
    assert expected_pages_touched(16, 10_000) == pytest.approx(16.0, rel=1e-6)


def test_estimate_grows_with_selectivity_for_projections():
    query = Query(name="p", sql="", select=("A1", "A2"),
                  predicate=Col("A1") < 0)
    table = make_relation(256)
    costs = [estimate_query_ns(query, table.schema, 256, s)
             for s in (0.01, 0.1, 0.5, 1.0)]
    assert costs == sorted(costs)
    assert costs[0] < costs[-1]


def test_aggregate_estimate_is_flat_in_projectivity():
    # Aggregation reads out one result line however many rows match, so
    # its estimate must undercut the projection's at full selectivity.
    agg = Query(name="a", sql="", select=(), aggregate="sum",
                agg_expr=Col("A1"), predicate=Col("A1") < 0)
    proj = Query(name="p", sql="", select=("A1",),
                 predicate=Col("A1") < 0)
    table = make_relation(256)
    assert estimate_query_ns(agg, table.schema, 256, 1.0) < \
        estimate_query_ns(proj, table.schema, 256, 1.0)


def test_cost_model_uses_platform_timings():
    fast = PIMCostModel(ZCU102)
    assert fast.setup_ns() > 0
    assert fast.bank_scan_ns(2, 64, 1) > fast.bank_scan_ns(1, 32, 1)
    assert fast.readout_ns(64) > 0


# -- optimizer placement ----------------------------------------------------------


def placement(query, n_rows=4096, selectivity=0.5):
    table = make_relation(n_rows)
    system = RelationalMemorySystem()
    loaded = system.load_table(table)
    return choose_access_path(query, loaded, design=system.design,
                              selectivity=selectivity)


def test_optimizer_picks_pim_at_low_selectivity():
    query = Query(name="needle", sql="", select=("A1", "A2"),
                  predicate=Col("A1") < -999_000)
    choice = placement(query, selectivity=0.001)
    assert choice.best is AccessPath.PIM
    assert AccessPath.PIM in choice.estimates_ns


def test_optimizer_avoids_pim_for_wide_full_scans():
    query = Query(name="haystack", sql="",
                  select=tuple(f"A{i}" for i in range(1, 17)),
                  predicate=Col("A1") < 1_000_001)
    choice = placement(query, selectivity=1.0)
    assert choice.best is not AccessPath.PIM


def test_optimizer_skips_pim_for_ineligible_queries():
    choice = placement(q1())
    assert AccessPath.PIM not in choice.estimates_ns


# -- processor integration --------------------------------------------------------


def test_pinned_pim_plan_shows_bank_boundary():
    table = make_relation(128)
    system = RelationalMemorySystem()
    loaded = system.load_table(table)
    plan = Processor(system).plan(q4(), loaded, engine=PIM)
    text = plan.explain()
    assert "@pim" in text
    assert "Transfer[pim → cpu]" in text
    assert plan.engine is PIM


def test_processor_executes_pinned_pim_plan():
    table = make_relation(256)
    system = RelationalMemorySystem()
    loaded = system.load_table(table)
    processor = Processor(system)
    report = processor.run(q4(), loaded, engine=PIM)
    fresh = RelationalMemorySystem()
    baseline = QueryExecutor(fresh).run_direct(q4(), fresh.load_table(table))
    assert report.result.value == baseline.value
    assert report.result.path is AccessPath.PIM
    assert not report.degraded


# -- fault degradation (the RME contract, verbatim) -------------------------------


def faulted_system(recovery):
    table = make_relation(256)
    system = RelationalMemorySystem()
    loaded = system.load_table(table)
    injector = system.enable_faults(
        FaultPlan.single("dram_bitflip", 0.0, severity=2), recovery
    )
    return system, loaded, injector, table


def test_uncorrectable_fault_degrades_to_cpu():
    system, loaded, injector, table = faulted_system(DEFAULT_RECOVERY)
    result = QueryExecutor(system).run_pim(q4(), loaded)
    assert result.state == "degraded"
    assert result.path is AccessPath.DIRECT_ROW
    fresh = RelationalMemorySystem()
    baseline = QueryExecutor(fresh).run_direct(q4(), fresh.load_table(table))
    assert result.value == baseline.value  # staleness-free fallback
    assert injector.stats.count("pim_uncorrectable") == 1
    assert injector.stats.count("cpu_fallbacks") == 1
    assert injector.stats.count("pim_faults") == 1


def test_corrected_fault_stays_on_pim():
    table = make_relation(256)
    system = RelationalMemorySystem()
    loaded = system.load_table(table)
    injector = system.enable_faults(
        FaultPlan.single("dram_bitflip", 0.0, severity=1), DEFAULT_RECOVERY
    )
    result = QueryExecutor(system).run_pim(q4(), loaded)
    assert result.state == "-"
    assert result.path is AccessPath.PIM
    assert injector.stats.count("pim_corrected") == 1


def test_unrecoverable_without_fallback_raises():
    system, loaded, _, _ = faulted_system(NO_RECOVERY)
    with pytest.raises(FaultError):
        QueryExecutor(system).run_pim(q4(), loaded)


def test_degraded_plan_reroots_like_rme():
    system, loaded, _, _ = faulted_system(DEFAULT_RECOVERY)
    processor = Processor(system)
    report = processor.run(q4(), loaded, engine=PIM)
    assert report.degraded
    assert "@degraded" in report.explain()
    assert "@pim" in print_tree(report.planned)


# -- in-bank joins and grouped aggregation ----------------------------------------


def make_join_pair(n_fact=256, n_dim=32, seed=7):
    """A dim/fact pair sharing an integer join key column ``K``."""
    import random

    rng = random.Random(seed)
    i4 = intn(4)
    dim = RowTable("D", Schema([Column("K", i4), Column("D1", i4)]))
    fact = RowTable("F", Schema([Column("K", i4), Column("A1", i4),
                                 Column("F1", i4)]))
    for k in range(n_dim):
        dim.append([k, rng.randint(-1000, 1000)])
    for _ in range(n_fact):
        fact.append([rng.randrange(n_dim), rng.randint(-1000, 1000),
                     rng.randint(-1000, 1000)])
    return dim, fact


DIM_Q = Query(name="dim", sql="", select=("K", "D1"))
FACT_Q = Query(name="fact", sql="", select=("K", "A1"),
               predicate=Col("F1") > 0)
GROUPED_Q = Query(name="gsum", sql="", select=(), aggregate="sum",
                  agg_expr=Col("A1"), predicate=Col("F1") > 0,
                  group_by="K")


def test_bank_of_key_spreads_keys():
    assert {bank_of_key(k, 8) for k in range(64)} == set(range(8))
    assert bank_of_key(-3, 8) in range(8)
    with pytest.raises(ConfigurationError):
        bank_of_key(1, 0)


def join_shootout(lhs_q=DIM_Q, rhs_q=FACT_Q, **kwargs):
    dim, fact = make_join_pair(**kwargs)
    results = []
    for engine in (CPU, PIM):
        system = RelationalMemorySystem()
        ld, lf = system.load_table(dim), system.load_table(fact)
        processor = Processor(system)
        plan = processor.plan_join("K", lhs_q, ld, rhs_q, lf, engine=engine)
        results.append(processor.execute(plan.relation,
                                         tables={"D": ld, "F": lf}))
    return results


def test_pim_join_byte_identical_to_cpu():
    cpu, pim = join_shootout()
    assert pim.value == cpu.value
    assert len(pim.value) > 0
    assert pim.path is AccessPath.PIM
    assert cpu.path is AccessPath.DIRECT_ROW
    assert pim.elapsed_ns > 0 and cpu.elapsed_ns > 0


def test_pim_join_unfiltered_sides_byte_identical():
    bare = Query(name="fact", sql="", select=("K", "A1"))
    cpu, pim = join_shootout(rhs_q=bare)
    assert pim.value == cpu.value
    assert len(pim.value) == 256


def test_pim_grouped_aggregation_byte_identical():
    _, fact = make_join_pair()
    system = RelationalMemorySystem()
    loaded = system.load_table(fact)
    processor = Processor(system)
    cpu = processor.run(GROUPED_Q, loaded, engine=CPU).result
    pim = processor.run(GROUPED_Q, loaded, engine=PIM).result
    assert repr(pim.value) == repr(cpu.value)  # same values, same order
    assert pim.path is AccessPath.PIM


@pytest.mark.parametrize("func", ["count", "min", "max"])
def test_pim_grouped_other_folds_byte_identical(func):
    query = Query(name=f"g{func}", sql="", select=(), aggregate=func,
                  agg_expr=Col("A1"), group_by="K")
    _, fact = make_join_pair()
    system = RelationalMemorySystem()
    loaded = system.load_table(fact)
    processor = Processor(system)
    cpu = processor.run(query, loaded, engine=CPU).result
    pim = processor.run(query, loaded, engine=PIM).result
    assert repr(pim.value) == repr(cpu.value)


def test_pim_join_plan_shows_bank_boundary():
    tree = join_relation("K", DIM_Q, FACT_Q, engine=PIM)
    from repro.query.relation import print_tree

    text = print_tree(tree)
    assert "Join[K] @pim" in text
    assert "Transfer[pim → cpu]" in text


def test_pim_join_rejects_ineligible_sides():
    dim, fact = make_join_pair()
    system = RelationalMemorySystem()
    ld, lf = system.load_table(dim), system.load_table(fact)
    no_key = Query(name="nokey", sql="", select=("D1",))
    with pytest.raises(QueryError, match="not PIM-evaluable"):
        Processor(system).plan_join("K", no_key, ld, FACT_Q, lf, engine=PIM)


def test_join_optimizer_prefers_pim_at_low_selectivity():
    dim, fact = make_join_pair(n_fact=4096, n_dim=64)
    system = RelationalMemorySystem()
    ld, lf = system.load_table(dim), system.load_table(fact)
    selective = Query(name="fact", sql="", select=("K", "A1"),
                      predicate=Col("F1") > 990)
    choice = choose_join_path("K", DIM_Q, ld, selective, lf,
                              rhs_selectivity=0.005)
    assert choice.best is AccessPath.PIM
    wide = choose_join_path("K", DIM_Q, ld, FACT_Q, lf,
                            rhs_selectivity=1.0)
    assert wide.best is AccessPath.DIRECT_ROW


def test_estimate_join_scales_with_matches():
    dim, fact = make_join_pair()
    low = estimate_join_ns("K", DIM_Q, dim.schema, 32, FACT_Q, fact.schema,
                           4096, rhs_selectivity=0.01)
    high = estimate_join_ns("K", DIM_Q, dim.schema, 32, FACT_Q, fact.schema,
                            4096, rhs_selectivity=1.0)
    assert low < high


def test_more_ranks_shrink_bank_time_not_readout():
    one = PIMCostModel(n_ranks=1)
    four = PIMCostModel(n_ranks=4)
    assert four.bank_scan_ns(2, 64, 1) < one.bank_scan_ns(2, 64, 1)
    assert four.group_fold_ns(64, 4, 4) < one.group_fold_ns(64, 4, 4)
    assert four.readout_ns(256) == one.readout_ns(256)
    assert four.merge_groups_ns(64) == one.merge_groups_ns(64)
    with pytest.raises(ConfigurationError):
        PIMCostModel(n_ranks=0)


def test_pim_join_fault_degrades_to_software():
    dim, fact = make_join_pair()
    system = RelationalMemorySystem()
    ld, lf = system.load_table(dim), system.load_table(fact)
    injector = system.enable_faults(
        FaultPlan.single("dram_bitflip", 0.0, severity=2), DEFAULT_RECOVERY
    )
    processor = Processor(system)
    plan = processor.plan_join("K", DIM_Q, ld, FACT_Q, lf, engine=PIM)
    result = processor.execute(plan.relation, tables={"D": ld, "F": lf})
    assert result.state == "degraded"
    assert result.path is AccessPath.DIRECT_ROW
    assert injector.stats.count("cpu_fallbacks") == 1
    report = processor.last_report
    assert report.degraded
    assert "@degraded" in report.explain()
    fresh = RelationalMemorySystem()
    fd, ff = fresh.load_table(dim), fresh.load_table(fact)
    clean = Processor(fresh)
    baseline = clean.execute(
        clean.plan_join("K", DIM_Q, fd, FACT_Q, ff, engine=CPU).relation,
        tables={"D": fd, "F": ff})
    assert result.value == baseline.value


def test_pim_join_fault_without_fallback_raises():
    dim, fact = make_join_pair()
    system = RelationalMemorySystem()
    ld, lf = system.load_table(dim), system.load_table(fact)
    system.enable_faults(
        FaultPlan.single("dram_bitflip", 0.0, severity=2), NO_RECOVERY
    )
    processor = Processor(system)
    plan = processor.plan_join("K", DIM_Q, ld, FACT_Q, lf, engine=PIM)
    with pytest.raises(FaultError):
        processor.execute(plan.relation, tables={"D": ld, "F": lf})
