"""Tests for the FPGA resource/timing/power estimator (Table 3)."""

import pytest

from repro.rme import BSL, MLP, PCK, estimate_resources
from repro.rme.resources import ZU9EG_BRAM36


def test_mlp_matches_paper_table3():
    """The MLP configuration must land on the published report."""
    report = estimate_resources(MLP)
    assert report.lut_pct == pytest.approx(2.78, abs=0.25)
    assert report.ff_pct == pytest.approx(0.68, abs=0.1)
    assert report.bram_pct == pytest.approx(60.69, abs=2.0)
    assert report.dsp_pct == pytest.approx(0.08, abs=0.02)
    assert report.wns_ns == pytest.approx(0.818, abs=0.1)
    assert report.static_w == pytest.approx(0.733, abs=0.01)
    assert report.dynamic_w == pytest.approx(3.599, abs=0.15)


def test_logic_footprint_is_marginal():
    """The paper's observation: excluding BRAM, utilization never exceeds 3%."""
    for design in (BSL, PCK, MLP):
        report = estimate_resources(design)
        assert report.lut_pct < 3.0
        assert report.ff_pct < 3.0
        assert report.dsp_pct < 3.0
        assert report.bram_pct > 50.0  # BRAM deliberately maxed out


def test_footprint_scales_with_workers():
    bsl = estimate_resources(BSL)
    mlp = estimate_resources(MLP)
    assert mlp.lut > bsl.lut
    assert mlp.ff > bsl.ff
    assert mlp.bram36 > bsl.bram36


def test_timing_closes_at_100_not_at_300():
    """100 MHz leaves sub-cycle slack; 300 MHz needs rework (Section 6.4)."""
    at_100 = estimate_resources(MLP, freq_mhz=100.0)
    assert at_100.timing_met
    assert 0.0 < at_100.wns_ns < at_100.period_ns
    at_300 = estimate_resources(MLP, freq_mhz=300.0)
    assert not at_300.timing_met


def test_bram_never_exceeds_device():
    report = estimate_resources(MLP, data_spm_bytes=16 * 1024 * 1024)
    assert report.bram36 <= ZU9EG_BRAM36


def test_smaller_buffer_fits_smaller_parts():
    """The Zybo-class claim: a small-buffer build uses little BRAM."""
    report = estimate_resources(MLP, data_spm_bytes=256 * 1024)
    assert report.bram_pct < 15.0


def test_rows_render_table3_labels():
    labels = [label for label, _value in estimate_resources(MLP).rows()]
    assert labels == [
        "LUT (%)", "FF (%)", "BRAM (%)", "DSP (%)",
        "WNS (ns)", "Static power (W)", "Dynamic power (W)",
    ]


def test_power_scales_with_frequency():
    slow = estimate_resources(MLP, freq_mhz=50.0)
    fast = estimate_resources(MLP, freq_mhz=100.0)
    assert fast.dynamic_w > slow.dynamic_w
    assert fast.static_w == slow.static_w
