"""Fault-aware serving: circuit breakers, retry budgets, degraded mode.

The serving layer's contract under injected faults: availability is
explicit (served / arrivals), every successfully served answer stays
byte-identical to the fault-free profiled value, fault-free fingerprints
are bit-identical to the pre-fault-subsystem format, and the whole run
is seed-deterministic.
"""

import pytest

from repro.errors import ConfigurationError
from repro.faults import NO_RECOVERY
from repro.serve import (
    OpenLoopWorkload,
    ServingSystem,
    default_tenants,
    profile_workload,
)

N_ROWS = 128
FAULT_RATE = 0.25


@pytest.fixture(scope="module")
def specs():
    return default_tenants(n_tenants=2, n_rows=N_ROWS)


@pytest.fixture(scope="module")
def profile(specs):
    return profile_workload(specs)


def workload(specs, profile, factor=0.5, n=150, seed=11):
    return OpenLoopWorkload(
        specs, rate_qps=factor * profile.saturation_rate_qps(),
        n_requests=n, seed=seed,
    )


@pytest.fixture(scope="module")
def clean(specs, profile):
    return ServingSystem(profile).run(workload(specs, profile))


@pytest.fixture(scope="module")
def faulty(specs, profile):
    return ServingSystem(profile, fault_rate=FAULT_RATE).run(
        workload(specs, profile)
    )


@pytest.fixture(scope="module")
def unprotected(specs, profile):
    return ServingSystem(
        profile, fault_rate=FAULT_RATE, recovery=NO_RECOVERY
    ).run(workload(specs, profile))


def test_fault_rate_validation(profile):
    with pytest.raises(ConfigurationError):
        ServingSystem(profile, fault_rate=1.0)
    with pytest.raises(ConfigurationError):
        ServingSystem(profile, fault_rate=-0.1)


def test_clean_run_fingerprint_is_prefault_format(specs, profile, clean):
    # No faults configured: the fingerprint stays the original 12-tuple,
    # bit-identical run to run, with no fault fields appended.
    again = ServingSystem(profile).run(workload(specs, profile))
    assert clean.fingerprint() == again.fingerprint()
    assert len(clean.fingerprint()) == 12
    assert clean.availability == 1.0
    assert clean.fault_events == 0 and clean.degraded == 0


def test_faulty_run_is_seed_deterministic(specs, profile, faulty):
    again = ServingSystem(profile, fault_rate=FAULT_RATE).run(
        workload(specs, profile)
    )
    assert faulty.fingerprint() == again.fingerprint()
    assert len(faulty.fingerprint()) == 18  # 12 base + 6 fault fields
    assert faulty.fault_events > 0


def test_recovery_beats_no_recovery_availability(faulty, unprotected):
    assert faulty.arrivals == unprotected.arrivals
    assert faulty.fault_events > 0 and unprotected.fault_events > 0
    assert faulty.availability > unprotected.availability
    # Without recovery every struck request is lost, nothing degrades.
    assert unprotected.failed > 0
    assert unprotected.degraded == 0 and unprotected.retries_total == 0


def test_served_answers_stay_byte_identical(profile, faulty, unprotected):
    for report in (faulty, unprotected):
        for record in report.records:
            if record.shed or record.failed:
                continue
            golden = profile.profile(record.tenant, record.template).value
            assert record.value == golden


def test_degraded_requests_are_counted_and_flagged(faulty):
    degraded = [r for r in faulty.records if r.degraded]
    assert len(degraded) == faulty.degraded
    for record in degraded:
        assert record.state == "degraded"
        assert not record.failed
    assert faulty.fallback_ratio == pytest.approx(
        faulty.degraded / faulty.served
    )
    # Per-tenant SLOs roll the same counts up.
    assert sum(slo.degraded for slo in faulty.tenants) == faulty.degraded


def test_failed_requests_never_carry_values(unprotected):
    failed = [r for r in unprotected.records if r.failed]
    assert len(failed) == unprotected.failed
    for record in failed:
        assert record.value is None
        assert record.state == "failed"


def test_breakers_only_exist_under_recovery(faulty, unprotected):
    # Breakers are recovery machinery: the unprotected baseline must not
    # trip any (or its availability would collapse below 1 - fault_rate).
    assert unprotected.breaker_opens == 0
    assert faulty.retries_total > 0


def test_load_gauges_published_incrementally(clean):
    slo = clean.metrics.scope("slo")
    assert slo.gauge("queue_depth").updates >= clean.arrivals
    assert 0.0 <= slo.gauge("shed_rate").value <= 1.0
