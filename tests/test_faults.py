"""Fault injection, detection and recovery at the engine level.

Every scenario pins the subsystem's contract: answers are either
byte-identical to the fault-free run (recovered or degraded) or
explicitly flagged — never silently wrong with recovery on — and the
whole pipeline is a ``None`` attribute check when injection is off.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import make_join_tables
from repro.config import ZCU102
from repro.core.access_path import AccessPath
from repro.core.relmem import RelationalMemorySystem
from repro.errors import FaultError, MemoryMapError
from repro.faults import (
    DEFAULT_RECOVERY,
    NO_RECOVERY,
    FaultEvent,
    FaultPlan,
    RecoveryPolicy,
)
from repro.memsys import DRAM, MemoryHierarchy, MemoryMap, PhysicalMemory
from repro.memsys.hierarchy import DRAMBackend
from repro.query.executor import QueryExecutor
from repro.query.expr import Col
from repro.query.queries import Query, q4
from repro.sim import Simulator

from tests.conftest import build_relation

N_ROWS = 192


def fresh(plan=None, recovery=None):
    system = RelationalMemorySystem()
    loaded = system.load_table(build_relation(n_rows=N_ROWS))
    var = system.register_var(loaded, ["A1"])
    injector = None
    if plan is not None:
        injector = system.enable_faults(plan, recovery or DEFAULT_RECOVERY)
    return system, var, injector


@pytest.fixture(scope="module")
def baseline():
    system, var, _ = fresh()
    return QueryExecutor(system).run_rme(q4(), var)


# -- zero cost when off -----------------------------------------------------------


def test_disabled_injection_is_none_attribute(baseline):
    system, var, _ = fresh()
    assert system.faults is None
    assert system.rme.faults is None
    assert system.rme.fetch_pool.faults is None
    assert system.dram.faults is None


def test_empty_plan_armed_is_bit_identical(baseline):
    """An armed-but-empty plan changes neither answers nor timing."""
    system, var, injector = fresh(FaultPlan())
    result = QueryExecutor(system).run_rme(q4(), var)
    assert result.value == baseline.value
    assert result.elapsed_ns == baseline.elapsed_ns  # bit-identical
    assert injector.stats.count("fired_total") == 0


# -- DRAM bit flips through SECDED ECC --------------------------------------------


def test_ecc_corrects_single_bit_flip(baseline):
    system, var, _ = fresh(FaultPlan.single("dram_bitflip", 0.0, severity=1))
    result = QueryExecutor(system).run_rme(q4(), var)
    assert result.state == "cold"
    assert result.value == baseline.value
    assert system.dram.stats.count("ecc_corrected") >= 1


def test_poisoned_read_recovers_by_retry(baseline):
    """Severity 2 is detected-uncorrectable; the transient clears on retry."""
    system, var, injector = fresh(
        FaultPlan.single("dram_bitflip", 0.0, severity=2)
    )
    result = QueryExecutor(system).run_rme(q4(), var)
    assert result.value == baseline.value
    assert result.state != "corrupt"
    assert injector.stats.count("fired_total") == 1


def test_unrecoverable_read_degrades_to_cpu_scan(baseline):
    """Retries exhausted: FaultError -> transparent CPU row-scan fallback."""
    strict = RecoveryPolicy(max_retries=0)
    system, var, injector = fresh(
        FaultPlan.single("dram_bitflip", 0.0, severity=2), strict
    )
    result = QueryExecutor(system).run_rme(q4(), var)
    assert result.state == "degraded"
    assert result.value == baseline.value  # staleness-free fallback
    assert system.rme.stats.count("session_failures") == 1
    assert injector.stats.count("cpu_fallbacks") == 1
    # The next run heals: the engine reconfigures and serves normally.
    again = QueryExecutor(system).run_rme(q4(), var)
    assert again.state == "cold"
    assert again.value == baseline.value


def test_unrecoverable_without_recovery_raises(baseline):
    persistent = FaultPlan(
        events=tuple(
            FaultEvent("dram_bitflip", 0.0, severity=2) for _ in range(16)
        )
    )
    system, var, _ = fresh(persistent, NO_RECOVERY)
    with pytest.raises(FaultError):
        QueryExecutor(system).run_rme(q4(), var)


def test_escaped_flip_is_caught_by_audit(baseline):
    """Severity 3 slips past ECC; the end-to-end audit must still catch it
    (or the flip landed in discarded burst bytes and the answer is clean)."""
    system, var, _ = fresh(FaultPlan.single("dram_bitflip", 0.0, severity=3))
    result = QueryExecutor(system).run_rme(q4(), var)
    assert result.value == baseline.value
    assert result.state in ("cold", "degraded")


# -- buffer, descriptor and fabric faults -----------------------------------------


def test_buffer_poison_parity_degrades_correctly(baseline):
    system, var, _ = fresh(FaultPlan.single("buffer_poison", 0.0))
    result = QueryExecutor(system).run_rme(q4(), var)
    assert result.state == "degraded"
    assert result.value == baseline.value


def test_descriptor_crc_catches_corruption(baseline):
    system, var, _ = fresh(FaultPlan.single("descriptor_corrupt", 0.0))
    result = QueryExecutor(system).run_rme(q4(), var)
    assert result.value == baseline.value
    assert system.rme.fetch_pool.stats.count("descriptor_crc_catches") >= 1


def test_descriptor_corruption_unchecked_is_flagged_corrupt(baseline):
    """Without CRC checks the tampered geometry serves wrong bytes — the
    result must carry the explicit "corrupt" state, never masquerade."""
    system, var, _ = fresh(
        FaultPlan.single("descriptor_corrupt", 0.0), NO_RECOVERY
    )
    result = QueryExecutor(system).run_rme(q4(), var)
    assert result.state == "corrupt"
    assert result.value != baseline.value
    assert system.rme.fetch_pool.stats.count("descriptor_corruptions") >= 1


def test_fetch_hang_watchdog_restarts_session(baseline):
    system, var, _ = fresh(
        FaultPlan.single("fetch_hang", 0.0, duration_ns=500_000.0)
    )
    result = QueryExecutor(system).run_rme(q4(), var)
    assert result.value == baseline.value
    assert system.rme.stats.count("watchdog_fires") >= 1
    assert system.rme.stats.count("fetch_restarts") >= 1


def test_axi_stall_is_timing_only(baseline):
    system, var, _ = fresh(
        FaultPlan.single("axi_stall", 0.0, duration_ns=3_000.0)
    )
    result = QueryExecutor(system).run_rme(q4(), var)
    assert result.state == "cold"
    assert result.value == baseline.value
    assert result.elapsed_ns > baseline.elapsed_ns


# -- the fallback bookkeeping every faulting path shares --------------------------


def _rme_scan(system):
    loaded = system.load_table(build_relation(n_rows=N_ROWS))
    var = system.register_var(loaded, ["A1"])
    return var, lambda: QueryExecutor(system).run_rme(q4(), var)


def _pim_scan(system):
    loaded = system.load_table(build_relation(n_rows=N_ROWS))
    return None, lambda: QueryExecutor(system).run_pim(q4(), loaded)


def _pim_join(system):
    dim, fact = make_join_tables(N_ROWS)
    lhs, rhs = system.load_table(dim), system.load_table(fact)
    dim_q = Query(name="dim", sql="", select=("K", "D1"))
    fact_q = Query(name="fact", sql="", select=("K", "A1"),
                   predicate=Col("F1") > 0)
    return None, lambda: QueryExecutor(system).run_pim_join(
        "K", dim_q, lhs, fact_q, rhs)


#: The paths that raise an unrecoverable FaultError and may recover:
#: (setup, the per-engine fault counter, the FaultError subclass raised).
FAULTING_PATHS = {
    "rme-scan": (_rme_scan, "rme_faults", "UncorrectableMemoryError"),
    "pim-scan": (_pim_scan, "pim_faults", "FaultError"),
    "pim-join": (_pim_join, "pim_faults", "FaultError"),
}


@pytest.mark.parametrize("fallback", [True, False],
                         ids=["cpu-fallback", "no-recovery"])
@pytest.mark.parametrize("path", list(FAULTING_PATHS))
def test_fault_fallback_books_each_counter_once(path, fallback):
    """One unrecoverable fault books the engine's fault counter, the error
    type and the wasted time once; the CPU fallback, when the policy
    allows it, is counted once and bills more than the wasted time."""
    setup, engine_counter, error_type = FAULTING_PATHS[path]
    system = RelationalMemorySystem()
    var, run = setup(system)
    recovery = RecoveryPolicy(max_retries=0) if fallback else NO_RECOVERY
    injector = system.enable_faults(
        FaultPlan.single("dram_bitflip", 0.0, severity=2), recovery)
    stats = injector.stats
    if fallback:
        result = run()
        assert result.state == "degraded"
        assert result.path is AccessPath.DIRECT_ROW
        assert stats.total("wasted_ns") > 0
        assert result.elapsed_ns > stats.total("wasted_ns")
    else:
        with pytest.raises(FaultError):
            run()
        if var is not None:
            assert not system.is_active(var)
    assert stats.count(engine_counter) == 1
    assert stats.count(f"fault_{error_type}") == 1
    assert stats.count("wasted_ns") == 1
    assert stats.count("cpu_fallbacks") == (1 if fallback else 0)


# -- determinism (satellite: same seed => bit-identical chaos) --------------------


def _chaos_run(seed):
    plan = FaultPlan.poisson(
        duration_ns=40_000.0,
        rates_per_ms={
            "dram_bitflip": 400.0,
            "buffer_poison": 150.0,
            "descriptor_corrupt": 150.0,
            "fetch_hang": 50.0,
            "axi_stall": 100.0,
        },
        seed=seed,
    )
    system, var, injector = fresh(plan)
    executor = QueryExecutor(system)
    outcomes = [
        (r.state, r.value, r.elapsed_ns)
        for r in (executor.run_rme(q4(), var) for _ in range(4))
    ]
    return outcomes, tuple(injector.log), injector.stats.count("fired_total")


def test_chaos_is_seed_deterministic(baseline):
    first = _chaos_run(seed=7)
    second = _chaos_run(seed=7)
    other = _chaos_run(seed=8)
    # Same seed + plan: bit-identical fault timestamps, recovery counts
    # and answers. A different seed produces a different storm.
    assert first == second
    assert first != other
    assert first[2] > 0  # the storm actually struck
    for state, value, _elapsed in first[0]:
        if state != "corrupt":
            assert value == baseline.value


# -- property: any single recovered fault preserves the answer --------------------


@st.composite
def single_fault_plans(draw):
    kind = draw(st.sampled_from(
        ["dram_bitflip", "axi_stall", "fetch_hang",
         "descriptor_corrupt", "buffer_poison"]
    ))
    at_ns = draw(st.floats(min_value=0.0, max_value=30_000.0,
                           allow_nan=False, allow_infinity=False))
    severity = draw(st.integers(1, 3)) if kind == "dram_bitflip" else 1
    duration = 0.0
    if kind == "fetch_hang":
        duration = draw(st.floats(min_value=10_000.0, max_value=200_000.0))
    elif kind == "axi_stall":
        duration = draw(st.floats(min_value=100.0, max_value=5_000.0))
    seed = draw(st.integers(0, 2**16))
    return FaultPlan.single(kind, at_ns, severity=severity,
                            duration_ns=duration, seed=seed)


@given(single_fault_plans())
@settings(max_examples=20, deadline=None)
def test_any_single_fault_with_recovery_preserves_answer(plan):
    """For any single injected fault, full recovery yields an answer
    byte-identical to the fault-free run — never a silent corruption."""
    clean_system, clean_var, _ = fresh()
    golden = QueryExecutor(clean_system).run_rme(q4(), clean_var).value
    system, var, _ = fresh(plan)
    result = QueryExecutor(system).run_rme(q4(), var)
    assert result.state != "corrupt"
    assert result.value == golden


# -- satellite: MemoryMapError names the nearest mapped region --------------------


def test_unmapped_address_error_names_nearest_region():
    sim = Simulator()
    mm = MemoryMap()
    region = mm.map("data", 1 << 20)
    hier = MemoryHierarchy(sim, ZCU102)
    hier.add_backend(
        region, DRAMBackend(DRAM(sim, ZCU102.dram, PhysicalMemory(mm)),
                            hier.line_size)
    )
    with pytest.raises(MemoryMapError) as excinfo:
        hier.route(region.limit + (1 << 30))
    message = str(excinfo.value)
    assert "'data'" in message
    assert f"{region.base:#x}" in message
    assert f"{region.limit:#x}" in message


def test_no_regions_mapped_error_says_so():
    sim = Simulator()
    hier = MemoryHierarchy(sim, ZCU102)
    with pytest.raises(MemoryMapError, match="no regions are mapped"):
        hier.route(0x1000)


# -- circuit breaker state machine ------------------------------------------------


def test_breaker_half_open_probe_failure_reopens():
    from repro.faults.recovery import CLOSED, HALF_OPEN, OPEN, CircuitBreaker

    breaker = CircuitBreaker(threshold=2, cooldown_ns=1000.0)
    assert breaker.state == CLOSED
    breaker.record_failure(0.0)
    breaker.record_failure(10.0)
    assert breaker.state == OPEN and breaker.opens == 1
    # Cooldown not yet elapsed: requests stay rejected.
    assert not breaker.allow(500.0)
    # Cooldown elapsed: exactly one probe is admitted...
    assert breaker.allow(1500.0)
    assert breaker.state == HALF_OPEN
    assert not breaker.allow(1500.0)  # ...and only one
    # The probe fails -> straight back to OPEN, cooldown restarted.
    breaker.record_failure(1600.0)
    assert breaker.state == OPEN and breaker.opens == 2
    assert not breaker.allow(1700.0)
    # Second probe succeeds -> CLOSED, traffic flows again.
    assert breaker.allow(2700.0)
    breaker.record_success(2800.0)
    assert breaker.state == CLOSED
    assert breaker.allow(2900.0)


def test_breaker_release_probe_reopens_the_slot():
    from repro.faults.recovery import HALF_OPEN, CircuitBreaker

    breaker = CircuitBreaker(threshold=1, cooldown_ns=100.0)
    breaker.record_failure(0.0)
    assert breaker.allow(200.0)  # the probe
    assert breaker.state == HALF_OPEN
    assert not breaker.allow(200.0)
    # The probe was abandoned (hedge won the race): without a verdict
    # the slot must reopen, or the breaker wedges forever-probing.
    breaker.release_probe()
    assert breaker.allow(201.0)
    assert breaker.state == HALF_OPEN


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("attempt", [1, 2, 3, 4])
def test_retry_delay_ns(enabled, attempt):
    """Linear backoff for retries 1..max_retries; past the budget, or
    with recovery off, the answer is None."""
    policy = RecoveryPolicy(enabled=enabled, max_retries=3,
                            retry_backoff_ns=200.0)
    delay = policy.retry_delay_ns(attempt)
    if enabled and attempt <= policy.max_retries:
        assert delay == 200.0 * attempt
    else:
        assert delay is None


# -- node-level fault plans -------------------------------------------------------


def test_node_fault_event_validation():
    from repro.faults import NODE_FAULT_KINDS

    assert NODE_FAULT_KINDS == ("node_crash", "node_slow", "replica_lag")
    event = FaultEvent(at_ns=10.0, kind="node_crash", target=1)
    assert event.target == 1
    with pytest.raises(Exception):
        FaultEvent(at_ns=10.0, kind="node_crash")  # node kinds need a target
    with pytest.raises(Exception):
        FaultEvent(at_ns=10.0, kind="node_crash", target=-2)
    # Engine-level kinds don't take targets but tolerate the default.
    engine_event = FaultEvent(at_ns=5.0, kind="dram_bitflip")
    assert engine_event.target == -1


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_node_poisson_seed_deterministic(seed):
    kwargs = dict(
        duration_ns=500_000.0, n_nodes=3,
        rates_per_ms={"node_crash": 2.0, "node_slow": 3.0,
                      "replica_lag": 3.0},
    )
    a = FaultPlan.node_poisson(seed=seed, **kwargs)
    b = FaultPlan.node_poisson(seed=seed, **kwargs)
    assert [(e.at_ns, e.kind, e.target, e.severity) for e in a.events] \
        == [(e.at_ns, e.kind, e.target, e.severity) for e in b.events]
    for event in a.events:
        assert 0 <= event.target < 3
        assert 0.0 <= event.at_ns <= 500_000.0


def test_node_poisson_different_seeds_differ():
    kwargs = dict(
        duration_ns=2_000_000.0, n_nodes=4,
        rates_per_ms={"node_crash": 5.0},
    )
    a = FaultPlan.node_poisson(seed=1, **kwargs)
    b = FaultPlan.node_poisson(seed=2, **kwargs)
    assert [(e.at_ns, e.target) for e in a.events] \
        != [(e.at_ns, e.target) for e in b.events]
