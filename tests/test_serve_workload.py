"""Tests for the serving workload generator (open and closed loop)."""

import math
import random

import pytest

from repro.errors import ConfigurationError
from repro.query.queries import q1, q4
from repro.serve import ClosedLoopWorkload, OpenLoopWorkload, TenantSpec, default_tenants
from repro.serve.workload import _Mix


def tenants(n=2):
    return default_tenants(n_tenants=n, n_rows=32)


# -- tenant specs -------------------------------------------------------------------


def test_tenant_spec_validation():
    table = tenants(1)[0].table
    with pytest.raises(ConfigurationError):
        TenantSpec(name="t", table=table, templates=())
    with pytest.raises(ConfigurationError):
        TenantSpec(name="t", table=table,
                   templates=(("a", q4()),), weight=0)
    for weight in (math.inf, -math.inf, math.nan):
        with pytest.raises(ConfigurationError, match="positive and finite"):
            TenantSpec(name="t", table=table,
                       templates=(("a", q4()),), weight=weight)
    with pytest.raises(ConfigurationError):
        TenantSpec(name="t", table=table,
                   templates=(("a", q4()), ("a", q1())))


def test_mix_refuses_weights_summing_past_the_float_range():
    # Each weight is finite, their total is not: ``choices`` would refuse
    # every draw, so the mix refuses at construction.
    specs = [TenantSpec(name=spec.name, table=spec.table,
                        templates=spec.templates, weight=1e308)
             for spec in tenants(2)]
    with pytest.raises(ConfigurationError, match="finite total"):
        _Mix(specs)


def test_tenant_template_lookup():
    spec = tenants(1)[0]
    assert [name for name, _ in spec.templates] == ["project", "filter", "sum"]
    assert spec.query("sum").aggregate == "sum"
    with pytest.raises(ConfigurationError):
        spec.query("nope")


def test_default_tenants_validation():
    with pytest.raises(ConfigurationError):
        default_tenants(n_tenants=0)
    with pytest.raises(ConfigurationError):
        default_tenants(n_cols=2)
    names = [t.name for t in default_tenants(n_tenants=4, n_rows=16)]
    assert names == ["tenant0", "tenant1", "tenant2", "tenant3"]


# -- open loop ----------------------------------------------------------------------


def test_open_loop_rejects_bad_parameters():
    specs = tenants()
    with pytest.raises(ConfigurationError):
        OpenLoopWorkload(specs, rate_qps=1000, n_requests=10, arrival="uniform")
    with pytest.raises(ConfigurationError):
        OpenLoopWorkload(specs, rate_qps=0, n_requests=10)
    with pytest.raises(ConfigurationError):
        OpenLoopWorkload(specs, rate_qps=1000, n_requests=0)
    with pytest.raises(ConfigurationError):
        OpenLoopWorkload(specs, rate_qps=1000, n_requests=10, burst_factor=1.0)
    with pytest.raises(ConfigurationError):
        OpenLoopWorkload([], rate_qps=1000, n_requests=10)


def test_schedule_is_deterministic_and_ordered():
    specs = tenants()
    workload = OpenLoopWorkload(specs, rate_qps=50_000, n_requests=200, seed=3)
    first = workload.schedule()
    second = workload.schedule()
    assert first == second
    assert [a.index for a in first] == list(range(200))
    times = [a.at_ns for a in first]
    assert times == sorted(times)
    assert all(t >= 0 for t in times)
    other = OpenLoopWorkload(specs, rate_qps=50_000, n_requests=200, seed=4)
    assert other.schedule() != first


def test_poisson_rate_is_honoured():
    workload = OpenLoopWorkload(
        tenants(), rate_qps=100_000, n_requests=2000, seed=1
    )
    span_ns = workload.schedule()[-1].at_ns
    realised_qps = 2000 / (span_ns / 1e9)
    assert realised_qps == pytest.approx(100_000, rel=0.15)


def test_bursty_compresses_gaps_but_keeps_rate():
    workload = OpenLoopWorkload(
        tenants(), rate_qps=100_000, n_requests=2000, arrival="bursty",
        burst_size=8, burst_factor=20.0, seed=1,
    )
    schedule = workload.schedule()
    gaps = [b.at_ns - a.at_ns for a, b in zip(schedule, schedule[1:])]
    intra = [g for i, g in enumerate(gaps, start=1) if i % 8 != 0]
    idle = [g for i, g in enumerate(gaps, start=1) if i % 8 == 0]
    assert sum(intra) / len(intra) < sum(idle) / len(idle) / 10
    span_ns = schedule[-1].at_ns
    realised_qps = 2000 / (span_ns / 1e9)
    assert realised_qps == pytest.approx(100_000, rel=0.2)


def test_mix_respects_tenant_weights():
    specs = tenants(2)
    heavy = TenantSpec(
        name="heavy", table=specs[0].table,
        templates=specs[0].templates, weight=10.0,
    )
    light = TenantSpec(
        name="light", table=specs[1].table,
        templates=specs[1].templates, weight=1.0,
    )
    schedule = OpenLoopWorkload(
        [heavy, light], rate_qps=10_000, n_requests=1000, seed=5
    ).schedule()
    counts = {"heavy": 0, "light": 0}
    for arrival in schedule:
        counts[arrival.tenant] += 1
    assert counts["heavy"] > 5 * counts["light"]


def test_mix_draws_as_with_plain_weights():
    # The mix accumulates its weights once; over one seeded stream it
    # must draw exactly what ``choices`` draws from the plain weights.
    base = tenants(4)
    specs = [
        TenantSpec(name=spec.name, table=spec.table,
                   templates=spec.templates, weight=weight)
        for spec, weight in zip(base, (0.3, 2.5, 1.0, 7.25))
    ]
    weights = [spec.weight for spec in specs]
    mix, ours, reference = _Mix(specs), random.Random(9), random.Random(9)
    for _ in range(5000):
        spec = reference.choices(specs, weights=weights)[0]
        template, _query = spec.templates[
            reference.randrange(len(spec.templates))
        ]
        assert mix.sample(ours) == (spec.name, template)


def test_schedule_draws_only_known_templates():
    specs = tenants()
    names = {spec.name: {name for name, _ in spec.templates}
             for spec in specs}
    for arrival in OpenLoopWorkload(
        specs, rate_qps=10_000, n_requests=300, seed=2
    ).schedule():
        assert arrival.template in names[arrival.tenant]


# -- closed loop --------------------------------------------------------------------


def test_closed_loop_rejects_bad_parameters():
    specs = tenants()
    with pytest.raises(ConfigurationError):
        ClosedLoopWorkload(specs, n_clients=0, n_requests=10)
    with pytest.raises(ConfigurationError):
        ClosedLoopWorkload(specs, n_clients=2, n_requests=0)
    with pytest.raises(ConfigurationError):
        ClosedLoopWorkload(specs, n_clients=2, n_requests=10, think_ns=-1)
    for think_ns in (math.inf, math.nan):
        with pytest.raises(ConfigurationError):
            ClosedLoopWorkload(specs, n_clients=2, n_requests=10,
                               think_ns=think_ns)


def test_closed_loop_client_streams_deterministic_and_distinct():
    workload = ClosedLoopWorkload(tenants(), n_clients=4, n_requests=40, seed=9)
    first = [rng.random() for rng in workload.client_rngs()]
    second = [rng.random() for rng in workload.client_rngs()]
    assert first == second
    assert len(set(first)) == 4  # independent streams, not one shared rng
