"""Tests for clock domains, crossings and AXI transaction records."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.memsys import AXIReadRequest, AXIReadResponse, ClockDomain
from repro.memsys.axi import beats_for


def test_cycle_arithmetic():
    pl = ClockDomain("pl", 100.0)
    assert pl.cycle_ns == pytest.approx(10.0)
    assert pl.cycles(2.5) == pytest.approx(25.0)


def test_align_delay_on_edge_is_zero():
    pl = ClockDomain("pl", 100.0)
    assert pl.align_delay(0.0) == 0.0
    assert pl.align_delay(20.0) == 0.0


def test_align_delay_mid_cycle_waits_for_edge():
    pl = ClockDomain("pl", 100.0)
    assert pl.align_delay(23.0) == pytest.approx(7.0)
    assert pl.align_delay(29.999) == pytest.approx(0.001, abs=1e-6)


def test_invalid_frequency():
    with pytest.raises(ConfigurationError):
        ClockDomain("bad", 0.0)


def test_axi_request_ids_unique():
    a = AXIReadRequest(addr=0, nbytes=64)
    b = AXIReadRequest(addr=0, nbytes=64)
    assert a.txn_id != b.txn_id


def test_axi_request_validation():
    with pytest.raises(SimulationError):
        AXIReadRequest(addr=0, nbytes=0)
    with pytest.raises(SimulationError):
        AXIReadRequest(addr=-4, nbytes=4)


def test_axi_response_size():
    resp = AXIReadResponse(txn_id=7, data=b"\x00" * 64)
    assert resp.nbytes == 64


def test_beats_for():
    assert beats_for(1, 16) == 1
    assert beats_for(16, 16) == 1
    assert beats_for(17, 16) == 2
    assert beats_for(64, 16) == 4
    with pytest.raises(SimulationError):
        beats_for(0, 16)
