"""Pure-Python reference answers, computed from the benchmark's own rows.

Nothing here imports the program: each function takes the rows the
benchmark generated (tuples in schema order) and a column-index map, so a
wrong answer from the program cannot also be a wrong reference.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Any, Dict, List, Sequence, Tuple

Row = Tuple[int, ...]


def project(rows: Sequence[Row], idx: Sequence[int], where=None) -> List[Row]:
    """Row-ordered projection of the columns at ``idx``."""
    return [tuple(row[i] for i in idx) for row in rows
            if where is None or where(row)]


def std(values: Sequence[int]) -> float:
    """Two-pass sample standard deviation."""
    n = len(values)
    mean = sum(values) / n
    return math.sqrt(sum((x - mean) ** 2 for x in values) / (n - 1))


def fold(func: str, values: Sequence[int]) -> Any:
    """COUNT/SUM/MIN/MAX/STD over ``values``."""
    if func == "count":
        return len(values)
    if func == "sum":
        return sum(values)
    if func == "min":
        return min(values)
    if func == "max":
        return max(values)
    if func == "std":
        return std(values)
    raise ValueError(f"no reference for aggregate {func!r}")


def group_sum(rows: Sequence[Row], key: int, value: int, where) -> Dict[int, int]:
    """SUM(value) GROUP BY key over the rows passing ``where``."""
    groups: Dict[int, int] = {}
    for row in rows:
        if where(row):
            groups[row[key]] = groups.get(row[key], 0) + row[value]
    return groups


def hash_join(build: Sequence[Row], build_key: int, probe: Sequence[Row],
              probe_key: int, where) -> List[Tuple[Row, Row]]:
    """Equi-join: for each probe row passing ``where`` (in order), every
    build row with the same key (in order)."""
    index: Dict[int, List[Row]] = {}
    for row in build:
        index.setdefault(row[build_key], []).append(row)
    return [(match, row) for row in probe if where(row)
            for match in index.get(row[probe_key], ())]


def same_multiset(actual: Sequence[Row], expected: Sequence[Row]) -> bool:
    """Row outputs of versioned tables: order follows physical versions."""
    return Counter(actual) == Counter(expected)
