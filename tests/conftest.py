"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro import RelationalMemorySystem, RowTable, uniform_schema
from repro.config import ZCU102
from repro.rme.designs import MLP
from repro.sim import Simulator
from repro.storage.schema import Column, Schema, float64, int32, uint32


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def platform():
    return ZCU102


def build_relation(n_rows: int = 256, n_cols: int = 16, col_width: int = 4,
                   seed: int = 1234, name: str = "s") -> RowTable:
    """A small deterministic benchmark relation."""
    table = RowTable(name, uniform_schema(n_cols, col_width))
    rng = random.Random(seed)
    for _ in range(n_rows):
        table.append([rng.randint(-1000, 1000) for _ in range(n_cols)])
    return table


def build_mixed_relation(name: str = "T", n_rows: int = 64) -> RowTable:
    """A1 int32 = i - 32, F float64 = i / 2, U uint32 = 3e9 + i: one
    field the in-memory datapaths read, and two they must refuse."""
    table = RowTable(name, Schema([Column("A1", int32()),
                                   Column("F", float64()),
                                   Column("U", uint32())]))
    for i in range(n_rows):
        table.append((i - 32, i / 2, 3_000_000_000 + i))
    return table


@pytest.fixture
def relation() -> RowTable:
    return build_relation()


@pytest.fixture
def system() -> RelationalMemorySystem:
    return RelationalMemorySystem(ZCU102, MLP)


@pytest.fixture
def loaded(system, relation):
    return system.load_table(relation)
