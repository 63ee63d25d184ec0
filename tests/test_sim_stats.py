"""Tests for the statistics instruments: counters, gauges, histograms."""

import random

import pytest

from repro.sim import Counter, Gauge, Histogram, StatSet


def test_counter_counts_and_totals():
    counter = Counter("bytes")
    counter.add(64)
    counter.add(16)
    assert counter.count == 2
    assert counter.total == 80
    assert counter.mean == 40


def test_counter_mean_empty_is_zero():
    assert Counter("x").mean == 0.0


def test_counter_reset():
    counter = Counter("x")
    counter.add(3)
    counter.reset()
    assert counter.count == 0 and counter.total == 0


def test_statset_lazy_creation_and_bump():
    stats = StatSet("dram")
    stats.bump("hits")
    stats.bump("hits", 2.0)
    assert stats.count("hits") == 2
    assert stats.total("hits") == 3.0
    assert stats.count("never") == 0
    assert stats.total("never") == 0.0


def test_statset_as_dict_sorted():
    stats = StatSet("x")
    stats.bump("b")
    stats.bump("a", 5)
    snapshot = stats.as_dict()
    assert list(snapshot) == ["a", "b"]
    assert snapshot["a"] == {"count": 1, "total": 5}


def test_statset_reset_keeps_names():
    stats = StatSet("x")
    stats.bump("a", 10)
    stats.reset()
    assert stats.count("a") == 0
    assert "a" in stats.as_dict()


def test_statset_iteration_sorted():
    stats = StatSet("x")
    for name in ("c", "a", "b"):
        stats.bump(name)
    assert [name for name, _ in stats] == ["a", "b", "c"]


# -- gauges ---------------------------------------------------------------------

def test_gauge_tracks_level_and_extremes():
    gauge = Gauge("occupancy")
    assert gauge.as_dict() == {"value": 0.0, "min": 0.0, "max": 0.0}
    for level in (4, 9, 2):
        gauge.set(level)
    assert gauge.value == 2 and gauge.min == 2 and gauge.max == 9
    assert gauge.updates == 3
    gauge.reset()
    assert gauge.value == 0.0 and gauge.min is None and gauge.updates == 0


# -- histograms ------------------------------------------------------------------

def test_histogram_empty_percentile_is_zero():
    assert Histogram("lat").percentile(50) == 0.0


def test_histogram_percentile_bounds():
    histogram = Histogram("lat")
    with pytest.raises(ValueError):
        histogram.percentile(-1)
    with pytest.raises(ValueError):
        histogram.percentile(101)
    with pytest.raises(ValueError):
        Histogram("x", subbuckets=0)


def test_histogram_single_value_exact():
    histogram = Histogram("lat")
    histogram.observe(42.0)
    for p in (0, 50, 99, 100):
        assert histogram.percentile(p) == 42.0
    assert histogram.mean == 42.0


def test_histogram_percentiles_within_relative_error():
    rng = random.Random(99)
    histogram = Histogram("lat")
    values = [rng.uniform(1.0, 100_000.0) for _ in range(5000)]
    for value in values:
        histogram.observe(value)
    values.sort()
    for p in (10, 50, 90, 99):
        exact = values[max(0, int(len(values) * p / 100.0) - 1)]
        estimate = histogram.percentile(p)
        # Log-linear buckets with 16 sub-buckets: <= 1/16 relative error,
        # plus one-rank slack for the ceil-based rank rounding.
        assert estimate == pytest.approx(exact, rel=0.08)
    assert histogram.percentile(100) == max(values)
    assert histogram.percentile(0) == pytest.approx(min(values), rel=0.08)


def test_histogram_clamps_to_observed_range():
    histogram = Histogram("lat")
    for value in (10.0, 10.5, 11.0):
        histogram.observe(value)
    assert 10.0 <= histogram.percentile(1) <= 11.0
    assert histogram.percentile(100) == 11.0


def test_histogram_underflow_bucket():
    histogram = Histogram("lat")
    histogram.observe(0.0)
    histogram.observe(-5.0)
    histogram.observe(8.0)
    assert histogram.count == 3
    assert histogram.percentile(10) == 0.0  # non-positive values report as 0
    assert histogram.percentile(100) == 8.0
    assert histogram.min == -5.0  # the exact extreme is still tracked


def test_histogram_reset():
    histogram = Histogram("lat")
    histogram.observe(3.0)
    histogram.reset()
    assert histogram.count == 0 and histogram.percentile(50) == 0.0
    assert histogram.min is None and histogram.max is None


# -- StatSet round trips ----------------------------------------------------------

def test_statset_mixed_instruments_as_dict():
    stats = StatSet("x")
    stats.bump("requests", 2)
    stats.set_gauge("occupancy", 7)
    stats.observe("latency_ns", 10.0)
    stats.observe("latency_ns", 30.0)
    snapshot = stats.as_dict()
    assert list(snapshot) == ["latency_ns", "occupancy", "requests"]
    assert snapshot["requests"] == {"count": 1, "total": 2}
    assert snapshot["occupancy"]["value"] == 7
    latency = snapshot["latency_ns"]
    assert latency["count"] == 2 and latency["total"] == 40.0
    assert latency["min"] == 10.0 and latency["max"] == 30.0
    assert set(latency) == {"count", "total", "mean", "min", "max",
                            "p50", "p90", "p99"}


def test_statset_reset_round_trip_all_instruments():
    stats = StatSet("x")
    stats.bump("a", 4)
    stats.set_gauge("g", 3)
    stats.observe("h", 12.0)
    before = stats.as_dict()
    stats.reset()
    zeroed = stats.as_dict()
    assert set(zeroed) == set(before)  # instruments survive, values zero
    assert zeroed["a"] == {"count": 0, "total": 0.0}
    assert zeroed["g"]["value"] == 0.0
    assert zeroed["h"]["count"] == 0
    # And the instruments keep working after the reset.
    stats.observe("h", 5.0)
    assert stats.percentile("h", 50) == 5.0
    assert stats.percentile("never_observed", 50) == 0.0


# -- bulk replay methods -----------------------------------------------------------

#: One PS cycle (1000 / 1500 MHz): not on the dyadic grid, so runs of it
#: take the sequential path.
PS_CYCLE = 1000.0 / 1500.0

BULK_INPUTS = {
    "ps-grid": [PS_CYCLE] * 40,
    "ps-grid-multiple": [7 * PS_CYCLE] * 25,
    "dyadic": [10.0] * 64,
    "dyadic-half": [0.5] * 33,
    "ints": [64] * 20,
    "float-zeros": [0.0] * 12,
    "int-zeros": [0] * 5,
    "signed-zeros": [-0.0, 0.0, -0.0],
    "mixed-runs": ([2.5] * 3 + [PS_CYCLE] * 4 + [0.0] * 2 + [7] * 5
                   + [-1.5, 3.25, 3.25]),
}


def _counter_state(counter):
    return counter.count, repr(counter.total)


def _histogram_state(histogram):
    return (histogram.count, repr(histogram.total), histogram.min,
            histogram.max, histogram._underflow,
            sorted(histogram._buckets.items()))


@pytest.mark.parametrize("start", [0.0, -0.0, 1.0 / 3.0],
                         ids=["zero", "negative-zero", "third"])
@pytest.mark.parametrize("values", list(BULK_INPUTS.values()),
                         ids=list(BULK_INPUTS))
def test_bulk_helpers_match_element_loop(values, start):
    loop = Counter("x")
    loop.total = start
    for value in values:
        loop.add(value)
    bulk = Counter("x")
    bulk.total = start
    bulk.add_all(values)
    assert _counter_state(bulk) == _counter_state(loop)
    if len({repr(value) for value in values}) == 1:
        repeated = Counter("x")
        repeated.total = start
        repeated.add_repeated(len(values), values[0])
        assert _counter_state(repeated) == _counter_state(loop)

    loop_histogram = Histogram("h")
    loop_histogram.total = start
    for value in values:
        loop_histogram.observe(value)
    bulk_histogram = Histogram("h")
    bulk_histogram.total = start
    bulk_histogram.observe_all(values)
    assert _histogram_state(bulk_histogram) == _histogram_state(loop_histogram)
