"""End-to-end tests for the serving loop: profiles, SLOs, correctness."""

import dataclasses
import gc
import weakref

import pytest

from repro import QueryExecutor, RelationalMemorySystem
from repro.cluster import ClusterSystem
from repro.config import ZCU102
from repro.errors import ConfigurationError
from repro.query.queries import q4
from repro.rme.designs import MLP
from repro.serve import (
    ClosedLoopWorkload,
    OpenLoopWorkload,
    ServingSystem,
    default_tenants,
    profile_workload,
)

N_ROWS = 128


@pytest.fixture(scope="module")
def specs():
    return default_tenants(n_tenants=2, n_rows=N_ROWS)


@pytest.fixture(scope="module")
def profile(specs):
    return profile_workload(specs)


def open_loop(specs, profile, factor=0.8, n=120, seed=7, **kwargs):
    return OpenLoopWorkload(
        specs, rate_qps=factor * profile.saturation_rate_qps(),
        n_requests=n, seed=seed, **kwargs,
    )


# -- profiles -----------------------------------------------------------------------


def test_profiles_cover_every_template(specs, profile):
    for spec in specs:
        for template, _query in spec.templates:
            entry = profile.profile(spec.name, template)
            assert entry.program_ns > 0
            assert entry.cold_ns > entry.hot_ns > 0
    with pytest.raises(ConfigurationError):
        profile.profile("tenant0", "nope")
    with pytest.raises(ConfigurationError):
        profile.profile("nobody", "sum")


def test_profile_descriptors_distinct_within_tenant(profile, specs):
    spec = specs[0]
    descriptors = {
        profile.profile(spec.name, name).descriptor
        for name, _query in spec.templates
    }
    assert len(descriptors) == len(spec.templates)


def test_profiled_answers_match_fresh_executor(specs, profile):
    """The golden values served to clients are byte-identical to what a
    fresh single-query executor computes for the same query."""
    for spec in specs:
        system = RelationalMemorySystem()
        loaded = system.load_table(spec.table)
        executor = QueryExecutor(system)
        for template, query in spec.templates:
            entry = profile.profile(spec.name, template)
            direct = executor.run_direct(query, loaded)
            assert entry.value == direct.value


def test_each_pair_profiled_on_its_own(specs, profile):
    """Dropping one template leaves every other pair's profile unchanged:
    no pair's costs depend on what else was measured."""
    first = specs[0]
    trimmed = [dataclasses.replace(first, templates=first.templates[1:])]
    trimmed += specs[1:]
    others = profile_workload(trimmed).profiles
    dropped = (first.name, first.templates[0][0])
    assert set(others) == set(profile.profiles) - {dropped}
    for key, entry in others.items():
        assert entry == profile.profiles[key], key


def test_template_outside_schema_refused(specs):
    stray = dataclasses.replace(specs[1], templates=(("stray", q4("A99")),))
    with pytest.raises(ConfigurationError, match="outside its schema"):
        profile_workload([specs[0], stray])


# -- serving ------------------------------------------------------------------------


def test_serving_answers_and_accounting(specs, profile):
    report = ServingSystem(profile, policy="fcfs").run(
        open_loop(specs, profile)
    )
    assert report.arrivals == 120
    assert report.served + report.shed == report.arrivals
    served = [r for r in report.records if not r.shed]
    assert len(served) == report.served
    for record in served:
        entry = profile.profile(record.tenant, record.template)
        # Served answers are the executor's answers, byte for byte.
        assert record.value == entry.value
        # The three accounted pieces recompose the request's life exactly.
        assert record.state in ("hot", "cold")
        assert record.exec_ns == entry.hot_ns
        if record.state == "cold":
            assert record.reconfig_ns == pytest.approx(
                entry.program_ns + entry.fill_ns
            )
            assert record.reconfig_ns + record.exec_ns == pytest.approx(
                entry.program_ns + entry.cold_ns
            )
        else:
            assert record.reconfig_ns == 0.0
        assert record.finish_ns == pytest.approx(
            record.arrival_ns + record.queue_ns
            + record.reconfig_ns + record.exec_ns
        )


def test_serving_metrics_registry(specs, profile):
    system = ServingSystem(profile, policy="fcfs")
    report = system.run(open_loop(specs, profile))
    snapshot = system.metrics.as_dict()
    assert snapshot["slo"]["latency_ns"]["count"] == report.served
    for spec in specs:
        scope = snapshot[f"tenant.{spec.name}"]
        assert scope["arrivals"]["count"] == report.tenant(spec.name).arrivals
    with pytest.raises(ConfigurationError):
        report.tenant("nobody")


def test_tiny_queue_sheds_overload(specs, profile):
    report = ServingSystem(profile, policy="fcfs", queue_depth=2).run(
        open_loop(specs, profile, factor=3.0)
    )
    assert report.shed > 0
    assert report.served + report.shed == report.arrivals
    assert 0 < report.shed_rate < 1
    assert report.max_backlog <= 2
    for record in report.records:
        if record.shed:
            assert record.finish_ns == 0.0 and record.value is None


def test_policies_rank_as_expected_at_saturation(specs, profile):
    """The acceptance sweep in miniature: at saturation the multi-port
    scheduler strictly beats single-port FCFS on p99, and context
    switching recovers hot-buffer hits."""
    workload = open_loop(specs, profile, factor=1.3, n=200)
    reports = {
        policy: ServingSystem(profile, policy=policy, queue_depth=48)
        .run(workload)
        for policy in ("fcfs", "ctx-switch", "multi-port")
    }
    assert reports["multi-port"].p99_ns < reports["fcfs"].p99_ns
    assert reports["ctx-switch"].hot_rate > reports["fcfs"].hot_rate
    for report in reports.values():
        assert report.arrivals == 200


def test_closed_loop_serves_budget(specs, profile):
    report = ServingSystem(profile, policy="ctx-switch").run(
        ClosedLoopWorkload(
            specs, n_clients=5, n_requests=60, think_ns=2_000, seed=3
        )
    )
    assert report.arrival == "closed"
    assert report.served == 60
    assert report.shed == 0  # at most n_clients requests are ever queued
    assert report.duration_ns > 0


def test_serving_system_validation(specs, profile):
    with pytest.raises(ConfigurationError):
        ServingSystem(profile, policy="lifo")
    with pytest.raises(ConfigurationError):
        ServingSystem(profile, policy="fcfs", n_ports=2)
    with pytest.raises(ConfigurationError):
        ServingSystem(profile, policy="multi-port", n_ports=0)


def test_workload_must_match_profile(specs):
    narrow = profile_workload(specs[:1])
    with pytest.raises(ConfigurationError):
        ServingSystem(narrow).run(
            OpenLoopWorkload(specs, rate_qps=10_000, n_requests=5)
        )


def test_serving_from_tenant_specs_directly(specs):
    """Passing specs instead of a profile profiles them on the fly."""
    report = ServingSystem(specs, policy="fcfs").run(
        OpenLoopWorkload(specs, rate_qps=20_000, n_requests=20)
    )
    assert report.served == 20


def test_finished_runs_are_freed_by_reference_counting(specs, profile,
                                                       monkeypatch):
    """With the cycle collector off, a finished serving or cluster system
    and a profiled pair's engine die at their last reference: none of
    them holds a reference cycle (a bound method of itself handed to a
    part, a back-pointer, a pair of closures naming each other)."""
    from repro.serve import profiles as profiles_module

    engines = []

    class Recorded(RelationalMemorySystem):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(weakref.ref(self))

    monkeypatch.setattr(profiles_module, "RelationalMemorySystem", Recorded)
    gc.collect()
    gc.disable()
    try:
        profiles_module._profile_pair(0, (tuple(specs), ZCU102, MLP, None))
        serving = ServingSystem(profile, policy="multi-port", fault_rate=0.2)
        serving.run(open_loop(specs, profile, factor=1.5))
        cluster = ClusterSystem(profile, n_nodes=2)
        cluster.run(open_loop(specs, profile))
        systems = [weakref.ref(serving), weakref.ref(cluster)]
        del serving, cluster
        assert len(engines) == 1 and engines[0]() is None
        assert [ref() for ref in systems] == [None, None]
    finally:
        gc.enable()
