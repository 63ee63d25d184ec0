"""Tests for the closed-form model, cross-checked against the simulator."""

import pytest

from repro import AnalyticalModel, RelationalMemorySystem, figure1_curves
from repro.errors import ConfigurationError
from repro.query import QueryExecutor, q1
from repro.rme.designs import BSL, MLP
from tests.conftest import build_relation

MODEL = AnalyticalModel()


def within(a, b, tol):
    return abs(a - b) <= tol * max(a, b)


@pytest.fixture(scope="module")
def measured():
    """Simulator timings for the canonical geometry (R=64, C=4, N=1024)."""
    table = build_relation(n_rows=1024, n_cols=16)
    out = {}
    system = RelationalMemorySystem()
    loaded = system.load_table(table)
    executor = QueryExecutor(system)
    query = q1()
    out["compute"] = query.row_compute_ns(1.0)
    out["direct"] = executor.run_direct(query, loaded).elapsed_ns
    system.load_column_group(loaded, ["A1"])
    out["columnar"] = executor.run_columnar(query, loaded).elapsed_ns
    var = system.register_var(loaded, ["A1"])
    out["cold"] = executor.run_rme(query, var).elapsed_ns
    out["hot"] = executor.run_rme(query, var).elapsed_ns
    return out


def test_direct_estimate_tracks_simulator(measured):
    est = MODEL.direct_ns(64, 4, 1024, measured["compute"])
    assert within(est, measured["direct"], 0.25)


def test_columnar_estimate_tracks_simulator(measured):
    est = MODEL.columnar_ns(4, 1024, measured["compute"])
    assert within(est, measured["columnar"], 0.3)


def test_rme_cold_estimate_tracks_simulator(measured):
    est = MODEL.rme_cold_ns(64, 4, 1024, measured["compute"], MLP)
    assert within(est, measured["cold"], 0.3)


def test_rme_hot_estimate_tracks_simulator(measured):
    est = MODEL.rme_hot_ns(4, 1024, measured["compute"])
    assert within(est, measured["hot"], 0.35)


def test_bsl_estimate_an_order_slower_than_direct():
    direct = MODEL.direct_ns(64, 4, 1024)
    bsl = MODEL.rme_cold_ns(64, 4, 1024, design=BSL)
    assert 10 < bsl / direct < 25


def test_wide_rows_pay_random_latency():
    seq = MODEL.direct_ns(64, 4, 1024)
    wide = MODEL.direct_ns(128, 4, 1024)
    assert wide > 2.5 * seq


def test_offset_affects_cold_estimate_at_beat_straddle():
    aligned = MODEL.rme_cold_ns(64, 4, 1024, design=BSL, col_offset=0)
    straddling = MODEL.rme_cold_ns(64, 4, 1024, design=BSL, col_offset=13)
    assert straddling > aligned


def test_model_validation():
    with pytest.raises(ConfigurationError):
        MODEL.direct_ns(0, 4, 10)
    with pytest.raises(ConfigurationError):
        MODEL.direct_ns(64, 65, 10)


# -- Figure 1 curves -------------------------------------------------------------


def test_figure1_row_cost_flat():
    curves = figure1_curves([0.1, 0.5, 1.0])
    rows = curves["row_store"]
    assert rows[0] == rows[1] == rows[2]


def test_figure1_column_cost_monotone_rising():
    proj = [i / 10 for i in range(1, 11)]
    curves = figure1_curves(proj)
    cols = curves["column_store"]
    assert all(a <= b for a, b in zip(cols, cols[1:]))


def test_figure1_ideal_is_min_and_rme_tracks_it():
    proj = [i / 10 for i in range(1, 11)]
    curves = figure1_curves(proj)
    for row, col, ideal, rme in zip(
        curves["row_store"], curves["column_store"],
        curves["ideal"], curves["relational_memory"],
    ):
        assert ideal == min(row, col)
        assert rme <= row + 1e-9
        assert rme <= col * 1.5  # no reconstruction term


def test_figure1_crossover_exists():
    """At low projectivity columns win; at 100% rows win (Figure 1's story)."""
    curves = figure1_curves([0.05, 1.0])
    assert curves["column_store"][0] < curves["row_store"][0]
    assert curves["column_store"][1] > curves["row_store"][1]


def test_figure1_validates_projectivity():
    with pytest.raises(ConfigurationError):
        figure1_curves([0.0, 0.5])


def test_bsl_pck_estimates_track_simulator():
    """The serial designs' closed forms stay within tolerance too."""
    from repro import RelationalMemorySystem, QueryExecutor
    from repro.query import q1
    from repro.rme.designs import PCK
    from tests.conftest import build_relation

    for design in (BSL, PCK):
        table = build_relation(n_rows=256)
        system = RelationalMemorySystem(design=design)
        loaded = system.load_table(table)
        var = system.register_var(loaded, ["A1"])
        measured = QueryExecutor(system).run_rme(q1(), var).elapsed_ns
        estimated = MODEL.rme_cold_ns(64, 4, 256, q1().row_compute_ns(), design)
        assert within(estimated, measured, 0.3), (design.name, estimated, measured)


def test_index_estimate_scales_with_matches():
    sparse = MODEL.index_ns(height=3, n_leaves=1, n_matches=4)
    dense = MODEL.index_ns(height=3, n_leaves=64, n_matches=1024)
    assert dense > 50 * sparse


def test_cache_resident_pass_cheaper_than_cold():
    cold = MODEL.direct_ns(64, 4, 4096)
    warm = MODEL.direct_repeat_ns(64, 4, 4096)
    assert warm < cold  # 256 KB table fits the 1 MB L2


def test_direct_repeat_falls_back_when_too_big():
    n_rows = 40_000  # 2.5 MB of 64-byte rows: larger than L2
    assert MODEL.direct_repeat_ns(64, 4, n_rows) == MODEL.direct_ns(64, 4, n_rows)
