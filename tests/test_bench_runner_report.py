"""Tests for the experiment runner and the report rendering."""

import pytest

from repro.bench import ExperimentRunner, FigureResult, make_relation, render_figure, render_table
from repro.bench.report import to_csv
from repro.query import q1, q4
from repro.rme.designs import MLP


@pytest.fixture(scope="module")
def small_table():
    return make_relation(128, n_cols=16, col_width=4)


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(designs=(MLP,))


def test_time_direct_and_rme(runner, small_table):
    direct = runner.time_direct(small_table, q4())
    cold = runner.time_rme(small_table, q4(), MLP, hot=False)
    hot = runner.time_rme(small_table, q4(), MLP, hot=True)
    assert direct.value == cold.value == hot.value
    assert cold.state == "cold" and hot.state == "hot"
    assert hot.elapsed_ns < cold.elapsed_ns


def test_measure_paths_collects_everything(runner, small_table):
    times = runner.measure_paths(small_table, q1())
    assert times.direct_ns > 0
    assert times.columnar_ns > 0
    assert set(times.cold_ns) == {"MLP"}
    assert set(times.hot_ns) == {"MLP"}
    assert times.columnar_ns < times.direct_ns


def test_fastpath_baselines_match_the_event_path(small_table):
    """Direct and columnar timings forwarded on the scan ladder equal the
    cycle-level reference field for field, and move the scan counter."""
    import dataclasses

    from repro.config import ZCU102
    from repro.sim.fastpath import FASTPATH_STATS

    cycle = ExperimentRunner(
        platform=dataclasses.replace(ZCU102, fastpath=False), designs=(MLP,)
    )
    fast = ExperimentRunner(
        platform=dataclasses.replace(ZCU102, fastpath=True), designs=(MLP,)
    )
    for time_path in ("time_direct", "time_columnar"):
        reference = getattr(cycle, time_path)(small_table, q1())
        before = FASTPATH_STATS.count("scans")
        forwarded = getattr(fast, time_path)(small_table, q1())
        assert FASTPATH_STATS.count("scans") > before, time_path
        assert forwarded == reference, time_path


def test_direct_baseline_follows_the_schema():
    """One seeded byte stream packs into 256 128-byte rows or 512 64-byte
    rows alike; each relation's direct timing is its own, identical to
    the cycle-level reference."""
    import dataclasses

    from repro.config import ZCU102

    wide = make_relation(256, n_cols=32, col_width=4)
    narrow = make_relation(512, n_cols=16, col_width=4)
    assert wide.raw_bytes() == narrow.raw_bytes()
    fast = ExperimentRunner(
        platform=dataclasses.replace(ZCU102, fastpath=True), designs=(MLP,)
    )
    fast.time_direct(wide, q1())
    forwarded = fast.time_direct(narrow, q1())
    reference = ExperimentRunner(
        platform=dataclasses.replace(ZCU102, fastpath=False), designs=(MLP,)
    ).time_direct(narrow, q1())
    assert forwarded.elapsed_ns == reference.elapsed_ns
    assert forwarded.cache_stats == reference.cache_stats


def test_figure_result_normalization():
    fig = FigureResult(
        fig_id="X", title="t", x_label="x", xs=[1, 2],
        series={"Direct": [10.0, 20.0], "RME": [5.0, 5.0]},
    )
    norm = fig.normalized("Direct")
    assert norm.series["Direct"] == [1.0, 1.0]
    assert norm.series["RME"] == [0.5, 0.25]
    assert fig.ratio("Direct", "RME") == [2.0, 4.0]


def test_render_table_alignment():
    text = render_table(["a", "metric"], [[1, 2.5], [100, 0.001]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert len(set(len(line) for line in lines)) == 1  # all same width


def test_render_figure_contains_series_and_notes():
    fig = FigureResult(
        fig_id="Figure 99", title="demo", x_label="width", xs=[1, 2],
        series={"Direct": [10.0, 20.0], "RME": [5.0, 5.0]}, notes="hello",
    )
    text = render_figure(fig)
    assert "Figure 99" in text and "Direct" in text and "hello" in text
    normalized = render_figure(fig, normalized_to="Direct")
    assert "normalized to Direct" in normalized


def test_to_csv_roundtrips_values():
    fig = FigureResult(
        fig_id="X", title="t", x_label="x", xs=[1, 2],
        series={"A": [1.5, 2.5]},
    )
    csv = to_csv(fig)
    lines = csv.splitlines()
    assert lines[0] == "x,A"
    assert lines[1] == "1,1.5"
