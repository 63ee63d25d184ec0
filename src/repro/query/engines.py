"""Engines: the systems that can own and produce a relation's rows.

Following daf_relation, a relation tree is annotated with *engines* —
frozen, hashable tags identifying which subsystem holds (or can
compute) each subtree's rows — and :class:`~repro.query.relation
.Transfer` nodes mark the boundaries where rows move between them.

The reproduction ships five peer engines plus the fault-recovery one:

* :data:`CPU` — the row-store scan path: the CPU walks the base table
  in DRAM at row stride (the paper's Direct Access);
* :data:`RME` — the Relational Memory Engine: the PL fetches the
  column group on the fly and serves a packed ephemeral projection
  (cold or hot is *state*, not a different engine);
* :data:`COLUMNAR` — a materialised column-store copy in DRAM (the
  Columnar baseline: packed, but somebody pays to maintain it);
* :data:`INDEX` — a B+-tree probe fetching only qualifying rows;
* :data:`PIM` — bank-level processing-in-memory: predicates evaluate
  inside the DRAM banks as selection bitmaps and aggregates fold into
  in-bank accumulators, so only bitmaps or register lines cross the
  AXI boundary (see :mod:`repro.pim`);
* :data:`DEGRADED` — the CPU row scan *as a fallback*: the engine a
  subtree is re-rooted onto when an unrecoverable ``FaultError``
  escapes the RME or the PIM banks (see :mod:`repro.faults.recovery`).

An engine is a plain value: its ``@name`` tag plus the access path the
cost model prices it as. New backends are further :class:`Engine`
values registered in :data:`ENGINES`; the planner, the CLI's engine
flags/usage errors and ``--explain`` output pick them up from there.

>>> CPU.name, RME.name
('cpu', 'rme')
>>> CPU == Engine("cpu", AccessPath.DIRECT_ROW), CPU == RME
(True, False)
>>> RME.access_path.name
'RME'
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.access_path import AccessPath


@dataclass(frozen=True)
class Engine:
    """An engine identity: hashable, equal by value.

    ``name`` is the ``@name`` tag in printed plans; ``access_path`` is
    the measured path the executor machinery uses to price a scan
    served by this engine. :data:`DEGRADED` shares the CPU's access
    path under its own name, so re-rooted subtrees stay visible in
    plans and reports — a ``@degraded`` tag means "the RME or the banks
    faulted and the processor fell back", not "the planner chose rows".

    >>> DEGRADED.access_path is CPU.access_path, DEGRADED == CPU
    (True, False)
    """

    name: str
    access_path: AccessPath

    def __str__(self) -> str:
        return self.name


#: The engine values used throughout the query layer.
CPU = Engine("cpu", AccessPath.DIRECT_ROW)
RME = Engine("rme", AccessPath.RME)
COLUMNAR = Engine("columnar", AccessPath.COLUMNAR)
INDEX = Engine("index", AccessPath.INDEX)
PIM = Engine("pim", AccessPath.PIM)
DEGRADED = Engine("degraded", AccessPath.DIRECT_ROW)

#: Every planner-eligible engine, in display order.
ALL_ENGINES = (CPU, RME, COLUMNAR, INDEX, PIM)

#: Name → engine registry: the single source the CLI derives its
#: ``--engine`` choices, usage errors and ``--explain`` listings from.
#: ``degraded`` is present (plans mention it) but never planner-chosen.
ENGINES = {engine.name: engine for engine in ALL_ENGINES + (DEGRADED,)}


def engine_names(planner_only: bool = True):
    """Engine names in display order, for CLI listings.

    >>> engine_names()
    ('cpu', 'rme', 'columnar', 'index', 'pim')
    """
    pool = ALL_ENGINES if planner_only else ALL_ENGINES + (DEGRADED,)
    return tuple(engine.name for engine in pool)


def engine_by_name(name: str) -> Engine:
    """Resolve an engine tag, raising with the valid list on a miss.

    >>> engine_by_name("pim").access_path.name
    'PIM'
    """
    try:
        return ENGINES[name]
    except KeyError:
        raise KeyError(
            f"unknown engine {name!r} (choose from "
            f"{', '.join(engine_names())})"
        ) from None
