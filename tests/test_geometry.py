"""Tests for TableGeometry and the descriptor equations (1)-(6)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import RMEConfig
from repro.errors import GeometryError
from repro.rme import TableGeometry


def geom(R=64, N=100, C=4, O=0, base=0, bus=16):
    return TableGeometry(RMEConfig(R, N, ((O, C),)), base, bus)


# -- explicit examples -----------------------------------------------------------


def test_useful_start_eq1():
    g = geom(R=64, C=4, O=12, base=0x1000)
    assert g.useful_start(0) == 0x1000 + 12
    assert g.useful_start(5) == 0x1000 + 5 * 64 + 12


def test_row_out_of_range():
    g = geom(N=10)
    with pytest.raises(GeometryError):
        g.useful_start(10)
    with pytest.raises(GeometryError):
        g.descriptor(-1)


def test_descriptor_aligned_single_beat():
    d = geom(R=64, C=4, O=0).descriptor(3)
    assert d.r_addr == 3 * 64
    assert d.burst == 1
    assert d.lead_skip == 0
    assert d.trail_cut == 4
    assert d.w_addr == 12


def test_descriptor_straddling_offset_needs_burst2():
    """The Figure 8 spike condition: offset 13..15 with a 4-byte column."""
    for offset in (13, 14, 15):
        d = geom(R=64, C=4, O=offset).descriptor(0)
        assert d.burst == 2, offset
    for offset in (0, 4, 12, 16):
        d = geom(R=64, C=4, O=offset).descriptor(0)
        assert d.burst == 1, offset


def test_base_must_be_bus_aligned():
    with pytest.raises(GeometryError):
        geom(base=8)


def test_packed_line_count():
    assert geom(N=100, C=4).packed_line_count(64) == 7  # 400 bytes -> 7 lines
    assert geom(N=16, C=4).packed_line_count(64) == 1


def test_descriptors_iterates_all_rows():
    g = geom(N=17)
    descs = list(g.descriptors())
    assert len(descs) == 17
    assert [d.row for d in descs] == list(range(17))


# -- property-based checks of Eqs. (1)-(6) ---------------------------------------------

geometries = st.tuples(
    st.integers(min_value=1, max_value=256),   # row size R
    st.integers(min_value=1, max_value=64),    # row count N
    st.integers(min_value=0, max_value=255),   # offset seed
    st.integers(min_value=1, max_value=256),   # width seed
)


@st.composite
def run_layouts(draw):
    """A row size and 1-4 sorted, non-overlapping (offset, width) runs in it."""
    k = draw(st.integers(min_value=1, max_value=4))
    R = draw(st.integers(min_value=2 * k - 1, max_value=256))
    cuts = sorted(draw(st.lists(
        st.integers(min_value=0, max_value=R),
        min_size=2 * k, max_size=2 * k, unique=True,
    )))
    return R, tuple((start, end - start) for start, end in zip(cuts[::2], cuts[1::2]))


@st.composite
def valid_geometries(draw):
    R, runs = draw(run_layouts())
    N = draw(st.integers(min_value=1, max_value=64))
    base = draw(st.integers(min_value=0, max_value=64)) * 16
    return TableGeometry(RMEConfig(R, N, runs), base, 16)


def every_run(g, rows):
    """``(row, run, width, packed prefix)`` per descriptor, row-major."""
    for row in rows:
        prefix = 0
        for run, (_offset, width) in enumerate(g.config.runs):
            yield row, run, width, prefix
            prefix += width


@given(valid_geometries())
@settings(max_examples=200, deadline=None)
def test_descriptor_invariants(g):
    bw = g.bus_bytes
    for row, run, width, prefix in every_run(g, range(g.row_count)):
        p = g.useful_start(row, run)
        d = g.descriptor(row, run)
        # Eq. (2): read address is the bus-aligned floor of P_i.
        assert d.r_addr == (p // bw) * bw
        assert d.r_addr % bw == 0
        assert d.r_addr <= p
        # Eq. (3): the burst covers exactly [P_i, P_i + C).
        assert d.r_addr + d.burst * bw >= p + width
        assert d.r_addr + (d.burst - 1) * bw < p + width
        # Eq. (4): packed output is dense, a row's runs back to back.
        assert d.w_addr == g.col_width * row + prefix
        # Eq. (5)/(6): lead/trail markers.
        assert d.lead_skip == p % bw
        assert d.trail_cut == (p + width) % bw
        # The extraction window fits inside the fetched bytes.
        assert d.lead_skip + width <= d.read_bytes


@given(valid_geometries())
@settings(max_examples=100, deadline=None)
def test_extraction_matches_direct_slice(g):
    """Extracting from a synthetic burst equals slicing the source bytes."""
    table_bytes = bytes(
        (i * 37 + 11) % 256 for i in range(g.base_addr + g.row_size * g.row_count + g.bus_bytes)
    )
    for row, run, width, _prefix in every_run(g, range(g.row_count)):
        d = g.descriptor(row, run)
        payload = table_bytes[d.r_addr : d.r_addr + d.read_bytes]
        p = g.useful_start(row, run)
        assert d.extract(payload) == table_bytes[p : p + width]


@given(valid_geometries())
@settings(max_examples=100, deadline=None)
def test_wasted_bytes_less_than_two_beats(g):
    """Variable bursts never over-fetch more than the alignment slack."""
    for row, run, _width, _prefix in every_run(g, range(min(g.row_count, 8))):
        d = g.descriptor(row, run)
        assert 0 <= d.wasted_bytes < 2 * g.bus_bytes


# -- the replay's descriptor columns -------------------------------------------------


@given(valid_geometries(), st.data())
@settings(max_examples=200, deadline=None)
def test_replay_columns_match_requestor_descriptors(g, data):
    """The replay's Eqs. (1)-(5) columns equal the descriptors the
    cycle-level Requestor emits, row-major and run-minor, for every run
    layout, row window and write-address bias."""
    from repro.sim.fastpath import _descriptor_columns

    rows = None
    if data.draw(st.booleans(), label="windowed"):
        start = data.draw(st.integers(min_value=0, max_value=g.row_count - 1), label="start")
        stop = data.draw(st.integers(min_value=start + 1, max_value=g.row_count), label="stop")
        rows = range(start, stop)
    first_row = rows.start if rows is not None else 0
    w_bias = data.draw(
        st.integers(min_value=0, max_value=g.col_width * first_row), label="w_bias"
    )
    descs = list(g.descriptors(rows))
    expected = (
        [d.r_addr for d in descs],
        [d.lead_skip for d in descs],
        [d.burst for d in descs],
        [d.col_width for d in descs],
        [d.w_addr - w_bias for d in descs],
    )
    columns = _descriptor_columns(g, rows, w_bias)
    assert tuple(list(column) for column in columns) == expected
