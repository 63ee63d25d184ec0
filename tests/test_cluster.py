"""The sharded cluster tier: placement, failover, hedging, staleness.

The contract under test mirrors the engine-level fault suite one level
up: node crashes, slow nodes and replica lag may move *where* a query
runs — replica failover, hedged duplicates, CPU degradation — but every
answered request carries the byte-identical fault-free golden value,
and the router's availability under crashes strictly beats a
no-failover baseline replaying the same arrival schedule.
"""

import pytest

from repro.cluster import (
    CPU_REPLICA,
    ClusterSystem,
    ConsistentHashPlacement,
    RangePlacement,
    capacity_plan,
    make_placement,
    routing_names,
)
from repro.errors import ConfigurationError
from repro.faults import FaultEvent, FaultPlan, RecoveryPolicy
from repro.serve import OpenLoopWorkload, default_tenants, profile_workload

N_ROWS = 128


@pytest.fixture(scope="module")
def profile():
    tenants = default_tenants(n_tenants=2, n_rows=N_ROWS, seed=7)
    return tenants, profile_workload(tenants)


def run_cluster(profile_fixture, n_requests=100, rate_factor=0.6, seed=7,
                **kwargs):
    tenants, profile = profile_fixture
    n_nodes = kwargs.get("n_nodes", 2)
    rate = rate_factor * n_nodes * profile.saturation_rate_qps()
    system = ClusterSystem(profile, **{"n_nodes": 2, **kwargs})
    workload = OpenLoopWorkload(
        tenants, rate_qps=rate, n_requests=n_requests, seed=seed
    )
    return system.run(workload)


def crash_plan(profile_fixture, n_nodes=2, seed=7, rate_factor=0.6,
               n_requests=100):
    _tenants, profile = profile_fixture
    rate = rate_factor * n_nodes * profile.saturation_rate_qps()
    return FaultPlan.node_poisson(
        duration_ns=1e9 * n_requests / rate, n_nodes=n_nodes,
        rates_per_ms={"node_crash": 3.0}, seed=seed,
    )


def golden_of(profile_fixture):
    tenants, profile = profile_fixture
    return {(spec.name, template): profile.profile(spec.name, template).value
            for spec in tenants for template, _query in spec.templates}


# -- placement --------------------------------------------------------------------


def test_routing_registry_names():
    assert routing_names() == ["consistent-hash", "range"]
    with pytest.raises(ConfigurationError, match="unknown routing policy"):
        make_placement("bogus", ["t0"], 2, 1)


@pytest.mark.parametrize("cls", [ConsistentHashPlacement, RangePlacement])
def test_placement_invariants(cls):
    tenants = [f"tenant{i}" for i in range(7)]
    placement = cls(tenants, n_nodes=4, replication=3)
    for tenant in tenants:
        replicas = placement.replicas_for(tenant)
        assert len(replicas) == 3
        assert len(set(replicas)) == 3  # distinct nodes
        assert all(0 <= n < 4 for n in replicas)
        assert placement.primary_for(tenant) == replicas[0]
        # Deterministic: same inputs, same answer.
        assert replicas == cls(tenants, 4, 3).replicas_for(tenant)
    assert set(placement.assignment()) == set(tenants)


def test_replication_capped_at_node_count():
    placement = RangePlacement(["a", "b"], n_nodes=2, replication=5)
    assert len(placement.replicas_for("a")) == 2


def test_range_placement_balances_when_divisible():
    tenants = [f"t{i}" for i in range(8)]
    placement = RangePlacement(tenants, n_nodes=4, replication=1)
    per_node = {}
    for tenant in tenants:
        per_node.setdefault(placement.primary_for(tenant), []).append(tenant)
    assert sorted(len(v) for v in per_node.values()) == [2, 2, 2, 2]


def test_consistent_hash_is_stable_under_node_growth():
    tenants = [f"tenant{i}" for i in range(12)]
    small = ConsistentHashPlacement(tenants, n_nodes=4, replication=1)
    grown = ConsistentHashPlacement(tenants, n_nodes=5, replication=1)
    moved = sum(
        1 for t in tenants if small.primary_for(t) != grown.primary_for(t)
    )
    # The point of the ring: growing the cluster remaps a minority of
    # shards, not (nearly) all of them as modulo placement would.
    assert moved < len(tenants) // 2


# -- clean runs -------------------------------------------------------------------


def test_clean_run_full_availability(profile):
    report = run_cluster(profile)
    assert report.availability == 1.0
    assert report.arrivals == 100 and report.failed == 0
    assert report.fault_events == 0 and report.breaker_opens == 0
    golden = golden_of(profile)
    for record in report.records:
        assert record.state in ("served", "degraded")
        assert record.value == golden[(record.tenant, record.template)]


def test_cluster_validates_inputs(profile):
    _tenants, prof = profile
    with pytest.raises(ConfigurationError, match="unknown scheduler policy"):
        ClusterSystem(prof, policy="lifo")
    with pytest.raises(ConfigurationError, match="unknown routing policy"):
        ClusterSystem(prof, routing="bogus")
    with pytest.raises(ConfigurationError, match="n_nodes"):
        ClusterSystem(prof, n_nodes=0)
    with pytest.raises(ConfigurationError, match="n_ports must be >= 1"):
        ClusterSystem(prof, policy="multi-port", n_ports=0)
    with pytest.raises(ConfigurationError, match="node-level kinds"):
        ClusterSystem(prof, fault_plan=FaultPlan(
            events=(FaultEvent(kind="dram_bitflip", at_ns=0.0),)
        ))
    with pytest.raises(ConfigurationError, match="has 2 nodes"):
        ClusterSystem(prof, n_nodes=2, fault_plan=FaultPlan(
            events=(FaultEvent(kind="node_crash", at_ns=0.0, target=5),)
        ))


# -- crashes and failover ---------------------------------------------------------


def test_failover_beats_no_failover_under_crashes(profile):
    plan = crash_plan(profile)
    routed = run_cluster(profile, fault_plan=plan)
    bare = run_cluster(
        profile, fault_plan=plan, failover=False, hedging=False,
        recovery=RecoveryPolicy(cpu_fallback=False),
    )
    assert routed.arrivals == bare.arrivals
    assert routed.fault_events > 0 and bare.fault_events > 0
    assert routed.availability == 1.0
    assert routed.availability > bare.availability
    assert routed.failover_routes > 0

    golden = golden_of(profile)
    for report in (routed, bare):
        for record in report.records:
            if record.state in ("served", "degraded"):
                assert record.value == golden[(record.tenant,
                                               record.template)]


def test_crash_triggers_health_ejection_and_events(profile):
    plan = crash_plan(profile)
    report = run_cluster(profile, fault_plan=plan)
    kinds = {event[1] for event in report.events}
    assert "node_crash" in kinds
    assert report.health_downs > 0 and "health_down" in kinds
    # The post-crash health probe brings the node back.
    assert "health_up" in kinds


def test_degraded_serves_record_staleness(profile):
    plan = crash_plan(profile)
    report = run_cluster(profile, fault_plan=plan)
    stale_or_degraded = (
        report.degraded + sum(n.stale_serves for n in report.nodes)
    )
    if stale_or_degraded:
        assert report.staleness_max_ns > 0
        assert report.staleness_p99_ns <= report.staleness_max_ns
    degraded = [r for r in report.records if r.state == "degraded"]
    assert len(degraded) == report.degraded
    for record in degraded:
        assert record.port == CPU_REPLICA


def test_replica_lag_bounds_staleness(profile):
    plan = FaultPlan(events=(
        FaultEvent(kind="replica_lag", at_ns=10_000.0, target=1,
                   duration_ns=400_000.0),
    ))
    report = run_cluster(profile, fault_plan=plan)
    lagged = report.node(1)
    if lagged.stale_serves:
        # Staleness is measured from the frozen replication watermark,
        # so it can reach the lag window's length but not exceed it by
        # more than one sync interval.
        assert report.staleness_max_ns <= 400_000.0 + 50_000.0


# -- slow nodes and hedging -------------------------------------------------------


#: One node slowed past the deadline: its timeouts retry onto the other
#: node, whose observed p99 then drifts over the SLO — the hedge
#: trigger. The breaker threshold is raised so the slow node stays an
#: admissible hedge target (that interaction is pinned separately).
_SLOW_NODE_PLAN = FaultPlan(events=(
    FaultEvent(kind="node_slow", at_ns=5_000.0, target=0, severity=7,
               duration_ns=3_000_000.0),
))


def test_slow_node_p99_drift_triggers_hedges(profile):
    report = run_cluster(
        profile, fault_plan=_SLOW_NODE_PLAN, n_requests=200,
        rate_factor=0.5, hedge_min_samples=4,
        recovery=RecoveryPolicy(breaker_threshold=100),
    )
    assert report.hedges > 0
    assert report.availability == 1.0
    assert any(event[1] == "hedge" for event in report.events)


def test_no_hedging_means_no_hedges(profile):
    report = run_cluster(
        profile, fault_plan=_SLOW_NODE_PLAN, hedging=False, n_requests=200,
        rate_factor=0.5, hedge_min_samples=4,
        recovery=RecoveryPolicy(breaker_threshold=100),
    )
    assert report.hedges == 0


def test_breaker_gates_hedge_targets(profile):
    # Default breaker threshold: the slow node's timeouts trip its
    # breaker, which then rejects it as a hedge target — same schedule,
    # (almost) no hedges, and the trips are visible in the report.
    report = run_cluster(
        profile, fault_plan=_SLOW_NODE_PLAN, n_requests=200,
        rate_factor=0.5, hedge_min_samples=4,
    )
    assert report.breaker_opens > 0


def test_shed_picks_release_half_open_probes(profile):
    """A node picked through its half-open probe slot, then shed by a
    full queue (or a hedge never sent), gives the slot back. Otherwise
    the breaker waits for a verdict no attempt will deliver, and the
    node refuses every request for the rest of the run."""
    tenants, prof = profile
    n_requests = 400
    rate = 2 * 2 * prof.saturation_rate_qps()  # twice two-node saturation
    span_ns = 1e9 * n_requests / rate
    plan = FaultPlan(events=(
        FaultEvent(kind="node_crash", at_ns=0.10 * span_ns, target=0,
                   duration_ns=50_000.0),
        FaultEvent(kind="node_crash", at_ns=0.15 * span_ns, target=1,
                   duration_ns=50_000.0),
    ))
    system = ClusterSystem(
        prof, n_nodes=2, replication=2, queue_depth=2, fault_plan=plan,
        recovery=RecoveryPolicy(breaker_threshold=1,
                                breaker_cooldown_ns=10_000.0),
    )
    system.run(OpenLoopWorkload(tenants, rate_qps=rate,
                                n_requests=n_requests, seed=38))
    for node in system.nodes:
        assert node.breaker.allow(float("inf")), node.name


# -- reports ----------------------------------------------------------------------


def test_report_accounting_consistent(profile):
    report = run_cluster(profile, fault_plan=crash_plan(profile))
    assert report.served + report.shed + report.failed == report.arrivals
    assert report.served == (
        sum(node.served for node in report.nodes) + report.degraded
    )
    assert 0.0 <= report.availability <= 1.0
    assert report.p50_ns <= report.p95_ns <= report.p99_ns
    assert report.throughput_qps > 0
    with pytest.raises(ConfigurationError):
        report.node(99)


def test_merged_registry_addressable(profile):
    report = run_cluster(profile)
    merged_slo = report.merged.statset("slo")
    assert merged_slo.histogram("latency_ns").count == report.served
    # Router-level counters live on the cluster registry, untouched by
    # the merge.
    assert report.metrics.statset("router").count("arrivals") \
        == report.arrivals


# -- capacity planning ------------------------------------------------------------


def test_capacity_plan_monotone_nodes(profile):
    _tenants, prof = profile
    points = capacity_plan(
        prof, node_counts=(1, 2), n_requests=80, routing="range"
    )
    assert [p.nodes for p in points] == [1, 2]
    assert all(p.max_qps > 0 for p in points)
    assert points[1].max_qps >= points[0].max_qps
    for point in points:
        assert point.rates_tried
        assert point.availability == 1.0


def test_capacity_plan_validates():
    with pytest.raises(ConfigurationError):
        capacity_plan(None, node_counts=())
