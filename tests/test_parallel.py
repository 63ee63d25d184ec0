"""The sharded execution layer: ``repro.parallel`` and the merge algebra.

Three contracts are pinned here:

* **instrument algebra** — ``Counter``/``Gauge``/``Histogram``/``StatSet``
  ``merge()`` is associative and commutative (up to gauge last-writer
  semantics and float-summed totals), and a histogram merged from shards
  reports the same percentiles as one histogram that saw every
  observation — the log-linear buckets add exactly;
* **dispatch determinism** — ``parallel_map`` returns results in item
  order and ``jobs=N`` output is bit-identical to ``jobs=1``, for plain
  functions, figure sweeps and the isolated-pair profiling protocol;
* **crash recovery** — a worker death (``BrokenProcessPool``) is retried
  by rebuilding the pool within the fault layer's budget, then degrades
  to inline execution instead of failing the sweep.

The percentile(0)/percentile(100) and empty-histogram regression tests
for the bugfix sweep live here too.
"""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ParallelConfig
from repro.errors import ConfigurationError
from repro.faults import RecoveryPolicy
from repro.parallel import derive_seed, parallel_map, resolve_jobs
from repro.sim.metrics import MetricsRegistry
from repro.sim.stats import Counter, Gauge, Histogram, StatSet


# ---------------------------------------------------------------------------
# histogram percentile regressions (the bugfix satellites)
# ---------------------------------------------------------------------------


def test_percentile_0_returns_observed_min():
    h = Histogram("lat")
    for v in (7.3, 900.0, 12.5, 450.0):
        h.observe(v)
    assert h.percentile(0) == 7.3  # exact min, not a bucket edge
    assert h.percentile(100) == 900.0  # exact max


def test_percentile_0_100_with_single_observation():
    h = Histogram("lat")
    h.observe(41.5)
    assert h.percentile(0) == 41.5
    assert h.percentile(100) == 41.5
    assert h.percentile(50) == 41.5  # clamped into [min, max]


def test_percentile_underflow_only_histogram():
    h = Histogram("lat")
    h.observe(0.0)
    h.observe(-3.0)
    assert h.percentile(0) == -3.0
    assert h.percentile(100) == 0.0
    # Interior percentiles clamp into the observed range too.
    assert -3.0 <= h.percentile(50) <= 0.0


def test_percentile_empty_histogram_is_zero():
    h = Histogram("lat")
    assert h.percentile(0) == 0.0
    assert h.percentile(100) == 0.0


def test_empty_histogram_as_dict_has_null_extremes():
    h = Histogram("lat")
    snap = h.as_dict()
    assert snap["min"] is None
    assert snap["max"] is None
    assert snap["count"] == 0
    h.observe(5.0)
    snap = h.as_dict()
    assert snap["min"] == 5.0 and snap["max"] == 5.0


# ---------------------------------------------------------------------------
# merge algebra
# ---------------------------------------------------------------------------


def _hist_of(values):
    h = Histogram("h")
    for v in values:
        h.observe(v)
    return h


def _merged(*parts):
    out = Histogram("h")
    for part in parts:
        out.merge(_hist_of(part))
    return out


_PERCENTILES = (0, 25, 50, 75, 90, 99, 100)


def _distribution(h):
    """Everything merge() promises exactly (totals are float-order
    sensitive, so the mean is compared approximately, separately)."""
    return (h.count, h.min, h.max,
            tuple(h.percentile(p) for p in _PERCENTILES))


values_st = st.lists(
    st.floats(min_value=-1e4, max_value=1e9,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(values=values_st, cut=st.integers(min_value=0, max_value=60))
def test_merged_percentiles_equal_unsharded(values, cut):
    cut = min(cut, len(values))
    whole = _hist_of(values)
    merged = _merged(values[:cut], values[cut:])
    assert _distribution(merged) == _distribution(whole)
    assert merged.mean == pytest.approx(whole.mean, rel=1e-9, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    a=values_st, b=values_st, c=values_st,
)
def test_histogram_merge_associative_commutative(a, b, c):
    left = _merged(a, b)
    left.merge(_hist_of(c))  # (a + b) + c
    right = _hist_of(a)
    bc = _merged(b, c)
    right.merge(bc)  # a + (b + c)
    swapped = _merged(c, b, a)
    assert _distribution(left) == _distribution(right) == _distribution(swapped)


def test_histogram_merge_rejects_mismatched_geometry():
    h16 = Histogram("h", subbuckets=16)
    h8 = Histogram("h", subbuckets=8)
    with pytest.raises(ValueError):
        h16.merge(h8)


def test_counter_and_gauge_merge():
    a, b = Counter("n"), Counter("n")
    a.add(3.0)
    a.add(2.0)
    b.add(5.0)
    a.merge(b)
    assert a.count == 3 and a.total == 10.0

    g1, g2 = Gauge("depth"), Gauge("depth")
    g1.set(4.0)
    g1.set(1.0)
    g2.set(9.0)
    g1.merge(g2)
    assert g1.value == 9.0  # later operand saw an update
    assert g1.min == 1.0 and g1.max == 9.0
    fresh = Gauge("depth")
    g1.merge(fresh)  # merging a never-set gauge keeps the value
    assert g1.value == 9.0


def test_statset_merge_creates_missing_instruments():
    a, b = StatSet("shard"), StatSet("shard")
    a.bump("tasks", 2)
    b.bump("tasks", 3)
    b.bump("only_b")
    b.histogram("lat").observe(5.0)
    b.set_gauge("depth", 7.0)
    a.merge(b)
    assert a.counter("tasks").count == 2  # one bump per shard
    assert a.counter("tasks").total == 5.0
    assert a.counter("only_b").count == 1
    assert a.histogram("lat").count == 1
    assert a.gauge("depth").value == 7.0


def test_registry_merged_equals_unsharded():
    shards = []
    for lo, hi in ((0, 40), (40, 100)):
        reg = MetricsRegistry("shard")
        stats = reg.scope("tenant.a")
        for v in range(lo, hi):
            stats.histogram("latency").observe(float(v) + 0.5)
            stats.bump("served")
        shards.append(reg)
    whole = MetricsRegistry("whole")
    stats = whole.scope("tenant.a")
    for v in range(100):
        stats.histogram("latency").observe(float(v) + 0.5)
        stats.bump("served")

    merged = MetricsRegistry.merged(shards)
    merged_hist = merged.scope("tenant.a").histogram("latency")
    whole_hist = whole.scope("tenant.a").histogram("latency")
    assert _distribution(merged_hist) == _distribution(whole_hist)
    assert merged.scope("tenant.a").counter("served").count == 100


# ---------------------------------------------------------------------------
# parallel_map dispatch
# ---------------------------------------------------------------------------


def _square(x):
    return x * x


def _slow_square(x):
    import time

    time.sleep(0.01)  # make the probe's first-shard timing meaningful
    return x * x


def _boom(x):
    raise ValueError(f"bad item {x}")


def _crash_in_worker(x):
    from repro import parallel

    if parallel._IN_WORKER:
        os._exit(1)  # simulate an OOM-killed worker
    return x + 100


def _crash_once(item):
    x, marker_dir = item
    from repro import parallel

    marker = os.path.join(marker_dir, f"crashed-{x}")
    if parallel._IN_WORKER and not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("x")
        os._exit(1)
    return x * 10


def test_resolve_jobs():
    assert resolve_jobs(3) == 3
    assert resolve_jobs(None) >= 1
    with pytest.raises(ConfigurationError):
        resolve_jobs(0)


def test_derive_seed_stable_and_spread():
    assert derive_seed(42, "fig06", 0) == derive_seed(42, "fig06", 0)
    seeds = {derive_seed(42, "fig06", i) for i in range(32)}
    assert len(seeds) == 32


def test_parallel_map_matches_inline():
    items = list(range(23))
    expected = [_square(x) for x in items]
    assert parallel_map(_square, items, jobs=1) == expected
    assert parallel_map(_square, items, jobs=2) == expected
    assert parallel_map(_square, items, jobs=2, batch_size=1) == expected
    assert parallel_map(_square, [], jobs=2) == []
    assert parallel_map(_square, [5], jobs=4) == [25]


def test_parallel_map_records_dispatch_stats():
    stats = StatSet("dispatch")
    parallel_map(_square, list(range(8)), jobs=2, stats=stats)
    assert stats.counter("tasks").total == 8
    assert stats.counter("batches").count >= 1
    assert stats.gauge("jobs").value == 2.0


def test_parallel_map_propagates_task_exceptions():
    with pytest.raises(ValueError, match="bad item"):
        parallel_map(_boom, [1, 2, 3], jobs=2,
                     config=ParallelConfig(inline_below=1))


def test_small_sweeps_fall_back_inline():
    items = [1, 2, 3]  # below the default break-even floor of 4
    stats = StatSet("dispatch")
    results = parallel_map(_square, items, jobs=2, stats=stats)
    assert results == [_square(x) for x in items]
    assert stats.counter("parallel_inline_fallback").count == 1
    assert stats.counter("batches").count == 1

    # At the floor, the pool dispatches normally.
    stats = StatSet("dispatch")
    parallel_map(_square, list(range(4)), jobs=2, stats=stats)
    assert stats.counter("parallel_inline_fallback").count == 0

    # inline_below=1 disables the fallback.
    stats = StatSet("dispatch")
    parallel_map(_square, [1, 2], jobs=2, stats=stats,
                 config=ParallelConfig(inline_below=1))
    assert stats.counter("parallel_inline_fallback").count == 0


def test_crashed_workers_fall_back_inline():
    stats = StatSet("dispatch")
    # Worker-crash recovery is a process-pool concern; pin the mode so
    # auto-selection can't route this small sweep through threads.
    config = ParallelConfig(max_restarts=1, mode="process")
    results = parallel_map(
        _crash_in_worker, list(range(6)), jobs=2, config=config, stats=stats,
    )
    assert results == [x + 100 for x in range(6)]
    assert stats.counter("worker_restarts").count == 1
    assert stats.counter("inline_fallbacks").count == 1


def test_crashed_worker_retry_succeeds_within_budget():
    with tempfile.TemporaryDirectory() as marker_dir:
        items = [(x, marker_dir) for x in range(2)]
        stats = StatSet("dispatch")
        results = parallel_map(
            _crash_once, items, jobs=2, batch_size=1, stats=stats,
            config=ParallelConfig(inline_below=1, mode="process"),
        )
        assert results == [0, 10]
        assert stats.counter("worker_restarts").count >= 1
        assert stats.counter("inline_fallbacks").count == 0


def test_disabled_recovery_means_no_restarts():
    policy = RecoveryPolicy(enabled=False)
    stats = StatSet("dispatch")
    results = parallel_map(
        _crash_in_worker, list(range(4)), jobs=2, recovery=policy,
        stats=stats, mode="process",
    )
    # No restart budget: the first broken pool degrades straight to inline.
    assert results == [x + 100 for x in range(4)]
    assert stats.counter("worker_restarts").count == 0
    assert stats.counter("inline_fallbacks").count == 1


# ---------------------------------------------------------------------------
# shard modes: thread pools and break-even auto-selection
# ---------------------------------------------------------------------------


def test_thread_mode_matches_inline_and_process():
    items = list(range(17))
    expected = [_square(x) for x in items]
    assert parallel_map(_square, items, jobs=2, mode="thread") == expected
    assert parallel_map(_square, items, jobs=2, mode="inline") == expected
    assert parallel_map(_square, items, jobs=2, mode="process") == expected


def test_thread_mode_records_dispatch_stats():
    stats = StatSet("dispatch")
    parallel_map(_square, list(range(12)), jobs=3, mode="thread", stats=stats)
    assert stats.counter("mode_thread").count == 1
    assert stats.counter("tasks").total == 12
    assert stats.counter("batches").count >= 1


def test_probe_mode_inline_when_effectively_single_core(monkeypatch):
    # min(jobs, cores) <= 1 can never win: the probe stays inline. This
    # is the "--jobs 2 never slower than --jobs 1 on a 1-core host" fix.
    import repro.parallel as pp

    monkeypatch.setattr(pp, "_usable_cores", lambda: 1)
    stats = StatSet("dispatch")
    assert pp._probe_mode(100.0, 2, (2, ParallelConfig()), stats) == "inline"
    assert stats.counter("probe_inline").count == 1


def test_probe_mode_picks_process_when_savings_beat_overhead(monkeypatch):
    import repro.parallel as pp

    monkeypatch.setattr(pp, "_usable_cores", lambda: 4)
    monkeypatch.setattr(pp, "_fork_available", lambda: True)
    monkeypatch.setattr(pp, "_process_overhead_s",
                        lambda key: (0.05, 0.002))
    stats = StatSet("dispatch")
    # 10 s of remaining work at 4-way: savings 7.5 s >> 0.104 s overhead.
    assert pp._probe_mode(10.0, 4, (4, ParallelConfig()), stats) == "process"
    # 0.01 s of remaining work: savings 0.0075 s < margin x overhead.
    assert pp._probe_mode(0.01, 4, (4, ParallelConfig()), stats) == "inline"
    assert stats.counter("probe_inline").count == 1


def test_probe_mode_uses_threads_only_without_fork(monkeypatch):
    import repro.parallel as pp

    monkeypatch.setattr(pp, "_usable_cores", lambda: 4)
    monkeypatch.setattr(pp, "_fork_available", lambda: False)
    monkeypatch.setattr(pp, "_thread_overhead_s", lambda: 0.001)
    stats = StatSet("dispatch")
    assert pp._probe_mode(10.0, 4, (4, ParallelConfig()), stats) == "thread"
    assert pp._probe_mode(0.0, 4, (4, ParallelConfig()), stats) == "inline"


def test_auto_mode_selects_by_measured_break_even(monkeypatch):
    import repro.parallel as pp

    # Pretend to be a 2-core host with a free, already-warm pool: the
    # probe times the first shard and routes the rest to the pool.
    monkeypatch.setattr(pp, "_usable_cores", lambda: 2)
    monkeypatch.setattr(pp, "_process_overhead_s", lambda key: (0.0, 0.0))
    stats = StatSet("dispatch")
    results = parallel_map(_slow_square, list(range(8)), jobs=2, stats=stats,
                           config=ParallelConfig(mode="auto"))
    assert results == [x * x for x in range(8)]
    assert stats.counter("mode_process").count == 1

    # Same sweep on a 1-core host: the probe keeps everything inline.
    monkeypatch.setattr(pp, "_usable_cores", lambda: 1)
    stats = StatSet("dispatch")
    results = parallel_map(_slow_square, list(range(8)), jobs=2, stats=stats,
                           config=ParallelConfig(mode="auto"))
    assert results == [x * x for x in range(8)]
    assert stats.counter("mode_inline").count == 1
    assert stats.counter("probe_inline").count == 1

    # Below inline_below the dispatch never even probes.
    stats = StatSet("dispatch")
    parallel_map(_square, [1, 2], jobs=2, stats=stats,
                 config=ParallelConfig(mode="auto"))
    assert stats.counter("mode_inline").count == 1
    assert stats.counter("parallel_inline_fallback").count == 1


def test_persistent_pool_reused_across_calls():
    import repro.parallel as pp

    pp.shutdown_pools()
    cfg = ParallelConfig(mode="process")
    parallel_map(_square, list(range(8)), jobs=2, config=cfg)
    assert len(pp._POOLS) == 1
    key = next(iter(pp._POOLS))
    pool_before = pp._POOLS[key]
    meta = pp._POOL_META[key]
    assert meta["spinup_s"] > 0.0 and meta["roundtrip_s"] > 0.0
    parallel_map(_square, list(range(8)), jobs=2, config=cfg)
    # Second dispatch reuses the same executor object (no re-fork) and
    # _process_overhead_s reports the spin-up as already paid.
    assert pp._POOLS[key] is pool_before
    assert pp._process_overhead_s(key) == (0.0, meta["roundtrip_s"])
    assert pp.shutdown_pools() >= 1
    assert key not in pp._POOLS and key not in pp._POOL_META


def test_mode_kwarg_overrides_config():
    stats = StatSet("dispatch")
    parallel_map(_square, list(range(20)), jobs=2, mode="thread", stats=stats,
                 config=ParallelConfig(mode="process"))
    assert stats.counter("mode_thread").count == 1


def test_unknown_mode_rejected():
    with pytest.raises(ConfigurationError, match="unknown parallel mode"):
        parallel_map(_square, [1, 2, 3, 4], jobs=2, mode="bogus")
    with pytest.raises(ConfigurationError, match="unknown parallel mode"):
        parallel_map(_square, [1, 2, 3, 4], jobs=2,
                     config=ParallelConfig(mode="bogus"))


def test_thread_mode_propagates_exceptions():
    with pytest.raises(ValueError, match="bad item"):
        parallel_map(_boom, [1, 2, 3], jobs=2, mode="thread",
                     config=ParallelConfig(inline_below=1))


# ---------------------------------------------------------------------------
# end-to-end determinism: sweeps and profiling
# ---------------------------------------------------------------------------


def test_fig06_sharded_bit_identical():
    from repro.bench.figures import fig06_q1_designs

    single = fig06_q1_designs(n_rows=128, widths=(1, 4, 8, 16), jobs=1)
    sharded = fig06_q1_designs(n_rows=128, widths=(1, 4, 8, 16), jobs=2)
    assert single.xs == sharded.xs
    assert single.series == sharded.series


def test_profile_workload_sharded_bit_identical():
    from repro.serve import PROFILE_CACHE, default_tenants, profile_workload

    tenants = default_tenants(n_tenants=2, n_rows=128, seed=7)
    PROFILE_CACHE.invalidate("test isolation")
    single = profile_workload(tenants, jobs=1)
    PROFILE_CACHE.invalidate("test isolation")
    sharded = profile_workload(tenants, jobs=2)
    assert single.profiles == sharded.profiles

    # The two protocols are cached under distinct keys: a legacy call
    # right after a sharded one must re-profile, not hit.
    misses = PROFILE_CACHE.misses
    legacy = profile_workload(tenants)
    assert PROFILE_CACHE.misses == misses + 1
    # Answers always agree across protocols; timings need not.
    for key, profile in legacy.profiles.items():
        assert profile.value == sharded.profiles[key].value
    PROFILE_CACHE.invalidate("test isolation")
