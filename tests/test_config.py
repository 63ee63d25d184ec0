"""Tests for platform and RME configuration (Tables 1 and 2)."""

import dataclasses

import pytest

from repro.config import CacheGeometry, DRAMTimings, RMEConfig, ZCU102
from repro.errors import ConfigurationError


# -- Table 2 constants ---------------------------------------------------------


def test_zcu102_matches_table2():
    assert ZCU102.n_cpus == 4
    assert ZCU102.ps_freq_mhz == 1500.0
    assert ZCU102.pl_freq_mhz == 100.0
    assert ZCU102.pl_max_freq_mhz == 300.0
    assert ZCU102.l1.size == 32 * 1024
    assert ZCU102.l2.size == 1024 * 1024
    assert ZCU102.cache_line == 64
    assert ZCU102.bram_bytes == int(4.5 * 1024 * 1024)


def test_clock_helpers():
    assert ZCU102.pl_cycle_ns == pytest.approx(10.0)
    assert ZCU102.pl_cycles(3) == pytest.approx(30.0)
    assert ZCU102.cdc_ns == pytest.approx(ZCU102.cdc_pl_cycles * 10.0)


def test_with_overrides_returns_validated_copy():
    faster = ZCU102.with_overrides(pl_freq_mhz=300.0)
    assert faster.pl_cycle_ns == pytest.approx(1000.0 / 300.0)
    assert ZCU102.pl_freq_mhz == 100.0  # original untouched
    with pytest.raises(ConfigurationError):
        ZCU102.with_overrides(pl_freq_mhz=-5)


def test_platform_rejects_mismatched_line_size():
    bad = dataclasses.replace(ZCU102, cache_line=128)
    with pytest.raises(ConfigurationError):
        bad.validate()


def test_platform_rejects_non_pow2_axi_bus():
    with pytest.raises(ConfigurationError):
        ZCU102.with_overrides(axi_bus_bytes=24)


# -- DRAM timings -----------------------------------------------------------------


def test_dram_latency_properties():
    t = DRAMTimings()
    assert t.row_hit_latency == pytest.approx(t.t_controller + t.t_cas)
    assert t.row_miss_latency == pytest.approx(
        t.t_controller + t.t_rp + t.t_rcd + t.t_cas
    )


@pytest.mark.parametrize("field,value", [
    ("bus_bytes", 12),
    ("bus_bytes", 0),
    ("n_banks", 0),
    ("t_cas", -1.0),
    ("row_buffer_bytes", 8),
])
def test_dram_validation_rejects(field, value):
    timings = dataclasses.replace(DRAMTimings(), **{field: value})
    with pytest.raises(ConfigurationError):
        timings.validate()


# -- cache geometry ------------------------------------------------------------------


def test_cache_geometry_sets():
    geom = CacheGeometry(size=32 * 1024, assoc=4, line_size=64)
    assert geom.n_sets == 128


@pytest.mark.parametrize("size,assoc,line", [
    (1000, 4, 64),   # not divisible
    (4096, 0, 64),   # zero ways
    (4096, 4, 48),   # non-pow2 line
])
def test_cache_geometry_rejects(size, assoc, line):
    with pytest.raises(ConfigurationError):
        CacheGeometry(size, assoc, line).validate()


# -- the RME configuration port (Table 1) ----------------------------------------------


def test_rme_config_register_map_matches_table1():
    cfg = RMEConfig(row_size=64, row_count=100, runs=((8, 4),))
    writes = dict(cfg.register_writes(base=0x1000))
    assert writes == {0x1000: 64, 0x1004: 100, 0x1008: 4, 0x100C: 8}


def test_rme_config_derived_quantities():
    cfg = RMEConfig(row_size=64, row_count=100, runs=((0, 4),))
    assert cfg.projected_bytes == 400
    assert cfg.base_bytes == 6400
    assert cfg.projectivity == pytest.approx(4 / 64)


@pytest.mark.parametrize("kwargs", [
    dict(row_size=0, row_count=1, runs=((0, 1),)),
    dict(row_size=64, row_count=0, runs=((0, 1),)),
    dict(row_size=64, row_count=1, runs=((0, 0),)),
    dict(row_size=64, row_count=1, runs=((0, 65),)),
    dict(row_size=64, row_count=1, runs=((64, 4),)),
    dict(row_size=64, row_count=1, runs=((60, 8),)),  # overruns row
])
def test_rme_config_validation_rejects(kwargs):
    with pytest.raises(ConfigurationError):
        RMEConfig(**kwargs).validate()


def test_rme_config_full_row_projection_allowed():
    RMEConfig(row_size=64, row_count=10, runs=((0, 64),)).validate()
