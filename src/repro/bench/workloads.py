"""Workload generation: the benchmark relation S and friends.

Section 6.1: "The benchmark has a relation S with n columns A1..An. Each
column Ai has a tunable width C_Ai. [...] For simplicity, we assume that
every column has identical width."

The generator fills columns with uniformly random integers centred on
zero, so the benchmark's selection constant ``k = 0`` keeps roughly half
the rows — matching the paper's use of selections that do real filtering
work without degenerating.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

from ..errors import ConfigurationError
from ..sim.metrics import Memo
from ..storage.row_table import RowTable
from ..storage.schema import Column, Schema, intn, listing1_schema, uniform_schema

#: Value ranges per column width (signed, leaving headroom for SUMs).
_RANGES = {1: 100, 2: 10_000, 4: 1_000_000, 8: 1_000_000_000}

#: Packed-row cache of previously generated relations. The generators are
#: deterministic in their parameters, so the packed bytes can be reused;
#: :meth:`RowTable.from_raw` copies them, keeping each returned table
#: independently mutable. The sweeps use a handful of keys.
_PACKED_CACHE = Memo("packed_tables", capacity=64)


def make_relation(
    n_rows: int,
    n_cols: int = 16,
    col_width: int = 4,
    seed: int = 42,
    name: str = "S",
) -> RowTable:
    """The relation S: ``n_cols`` columns of ``col_width`` bytes each."""
    if n_rows <= 0 or n_cols <= 0:
        raise ConfigurationError("relation needs positive rows and columns")
    schema = uniform_schema(n_cols, col_width)
    key = ("s", n_rows, n_cols, col_width, seed)
    raw = _PACKED_CACHE.get(key)
    if raw is not None:
        return RowTable.from_raw(name, schema, raw)
    table = RowTable(name, schema)
    rng = random.Random(seed)
    bound = _RANGES.get(col_width, 1_000_000_000)
    for _ in range(n_rows):
        table.append([rng.randint(-bound, bound) for _ in range(n_cols)])
    _PACKED_CACHE.put(key, table.raw_bytes())
    return table


def make_relation_for_row_size(
    n_rows: int,
    row_size: int,
    col_width: int = 4,
    seed: int = 42,
    name: str = "S",
) -> RowTable:
    """A relation with a target row size (the Figure 10/12 sweeps)."""
    if row_size % col_width:
        raise ConfigurationError(
            f"row size {row_size} is not a multiple of the column width {col_width}"
        )
    return make_relation(n_rows, row_size // col_width, col_width, seed, name)


def make_join_tables(
    n_fact: int,
    n_dim: Optional[int] = None,
    seed: int = 42,
) -> Tuple[RowTable, RowTable]:
    """A dimension/fact pair for equi-join benchmarks.

    The dimension table ``D(K, D1)`` holds unique integer keys
    ``K = 0..n_dim-1`` (default ``n_fact // 8``) with a random payload;
    the fact table ``F(K, A1, F1)`` draws ``K`` uniformly over the
    dimension keys (the foreign-key shape) with a payload column ``A1``
    and a filter column ``F1`` uniform over ±1e6, so a predicate
    ``F1 < k`` dials the probe-side selectivity exactly like the scan
    benchmarks dial theirs.
    """
    if n_fact <= 0:
        raise ConfigurationError("fact table needs positive rows")
    n_dim = n_dim if n_dim is not None else max(1, n_fact // 8)
    if n_dim <= 0:
        raise ConfigurationError("dimension table needs positive rows")
    i4 = intn(4)
    dim_schema = Schema([Column("K", i4), Column("D1", i4)])
    fact_schema = Schema([Column("K", i4), Column("A1", i4),
                          Column("F1", i4)])
    key = ("join", n_fact, n_dim, seed)
    cached = _PACKED_CACHE.get(key)
    if cached is not None:
        dim_raw, fact_raw = cached
        return (RowTable.from_raw("D", dim_schema, dim_raw),
                RowTable.from_raw("F", fact_schema, fact_raw))
    rng = random.Random(seed)
    bound = _RANGES[4]
    dim = RowTable("D", dim_schema)
    for k in range(n_dim):
        dim.append([k, rng.randint(-bound, bound)])
    fact = RowTable("F", fact_schema)
    for _ in range(n_fact):
        fact.append([rng.randrange(n_dim), rng.randint(-bound, bound),
                     rng.randint(-bound, bound)])
    _PACKED_CACHE.put(key, (dim.raw_bytes(), fact.raw_bytes()))
    return dim, fact


def make_grouped_relation(
    n_rows: int,
    n_groups: int = 32,
    seed: int = 42,
    name: str = "g",
) -> RowTable:
    """A relation for GROUP BY benchmarks: a low-cardinality integer
    group key ``G = 0..n_groups-1``, a payload column ``A1`` and a
    filter column ``F1``, both uniform over ±1e6."""
    if n_rows <= 0 or n_groups <= 0:
        raise ConfigurationError("grouped relation needs positive rows "
                                 "and groups")
    i4 = intn(4)
    schema = Schema([Column("G", i4), Column("A1", i4), Column("F1", i4)])
    key = ("grouped", n_rows, n_groups, seed)
    raw = _PACKED_CACHE.get(key)
    if raw is not None:
        return RowTable.from_raw(name, schema, raw)
    rng = random.Random(seed)
    bound = _RANGES[4]
    table = RowTable(name, schema)
    for _ in range(n_rows):
        table.append([rng.randrange(n_groups), rng.randint(-bound, bound),
                      rng.randint(-bound, bound)])
    _PACKED_CACHE.put(key, table.raw_bytes())
    return table


def make_listing1_table(n_rows: int, seed: int = 42) -> RowTable:
    """The 96-byte example table of the paper's Listing 1."""
    schema = listing1_schema()
    key = ("listing1", n_rows, seed)
    raw = _PACKED_CACHE.get(key)
    if raw is not None:
        return RowTable.from_raw("the_table", schema, raw)
    table = RowTable("the_table", schema)
    rng = random.Random(seed)
    for row_id in range(n_rows):
        table.append(
            [
                row_id,
                f"t1-{row_id % 97:04d}".encode(),
                f"t2-{row_id % 89:06d}".encode(),
                f"t3-{row_id % 83:014d}".encode(),
                f"t4-{row_id % 79:010d}".encode(),
                rng.randint(-1_000_000, 1_000_000),
                rng.randint(-1_000_000, 1_000_000),
                rng.randint(-1_000_000, 1_000_000),
                rng.randint(-1_000_000, 1_000_000),
            ]
        )
    _PACKED_CACHE.put(key, table.raw_bytes())
    return table
