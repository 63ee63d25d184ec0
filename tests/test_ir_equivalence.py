"""Old-vs-new equivalence: the IR path is bit-identical to the executor API.

Every benchmark template runs twice per access path — once through the
historical :class:`repro.query.executor.QueryExecutor` methods, once
through the relational-algebra IR (:class:`repro.query.processor
.Processor` planning a placed tree and executing it). Both runs build
identical fresh systems, so *every* field of the result — the answer,
the simulated cycle count, the cache counters — must match byte for
byte. This is the acceptance gate for the IR refactor: same physics,
new planning surface.
"""

import pytest

from repro.bench.workloads import make_relation
from repro.core.relmem import RelationalMemorySystem
from repro.query.engines import COLUMNAR, CPU, INDEX, RME
from repro.query.executor import QueryExecutor
from repro.query.processor import Processor
from repro.query.queries import RELATIONAL_MEMORY_BENCHMARK, q2

N_ROWS = 192
SEED = 3

TEMPLATES = list(RELATIONAL_MEMORY_BENCHMARK)
IDS = [q.name for q in TEMPLATES]


def fingerprint(result):
    """Every observable field of a QueryResult, for byte-equality."""
    return (
        result.query,
        result.path,
        result.value,
        result.elapsed_ns,
        result.rows_scanned,
        result.selectivity,
        result.state,
        result.cache_stats,
    )


def fresh():
    table = make_relation(N_ROWS, seed=SEED)
    system = RelationalMemorySystem()
    loaded = system.load_table(table)
    return table, system, loaded


@pytest.mark.parametrize("query", TEMPLATES, ids=IDS)
def test_direct_bit_identical(query):
    _, system, loaded = fresh()
    old = QueryExecutor(system).run_direct(query, loaded)

    _, system2, loaded2 = fresh()
    processor = Processor(system2)
    plan = processor.plan(query, loaded2, engine=CPU)
    new = processor.execute(plan.relation, loaded=loaded2)

    assert fingerprint(new) == fingerprint(old)


@pytest.mark.parametrize("query", TEMPLATES, ids=IDS)
def test_columnar_bit_identical(query):
    table, system, loaded = fresh()
    columns = table.schema.covering_columns(query.columns())
    system.load_column_group(loaded, columns)
    old = QueryExecutor(system).run_columnar(query, loaded)

    table2, system2, loaded2 = fresh()
    system2.load_column_group(loaded2, columns)
    processor = Processor(system2)
    plan = processor.plan(query, loaded2, engine=COLUMNAR,
                          fetch_columns=columns)
    new = processor.execute(plan.relation, loaded=loaded2)

    assert fingerprint(new) == fingerprint(old)


@pytest.mark.parametrize("hot", [False, True], ids=["cold", "hot"])
@pytest.mark.parametrize("query", TEMPLATES, ids=IDS)
def test_rme_bit_identical(query, hot):
    _, system, loaded = fresh()
    var = system.register_var(loaded, list(query.columns()),
                              allow_noncontiguous=True)
    executor = QueryExecutor(system)
    if hot:
        system.warm_up(var)
        system.flush_caches()
    old = executor.run_rme(query, var)

    _, system2, loaded2 = fresh()
    var2 = system2.register_var(loaded2, list(query.columns()),
                                allow_noncontiguous=True)
    processor = Processor(system2)
    plan = processor.plan(query, loaded2, engine=RME)
    if hot:
        system2.warm_up(var2)
        system2.flush_caches()
    new = processor.execute(plan.relation, var=var2)

    assert fingerprint(new) == fingerprint(old)


def test_index_bit_identical():
    query = q2(col="A1", sel_col="A2", k=0)

    table, system, loaded = fresh()
    system.load_index(loaded, "A2")
    old = QueryExecutor(system).run_index(query, loaded)

    table2, system2, loaded2 = fresh()
    system2.load_index(loaded2, "A2")
    processor = Processor(system2)
    plan = processor.plan(query, loaded2, engine=INDEX)
    new = processor.execute(plan.relation, loaded=loaded2)

    assert fingerprint(new) == fingerprint(old)


def test_fig06_point_bit_identical():
    """The fig06 measurement recipe, old executor API vs the IR runner.

    ``ExperimentRunner.time_*`` now goes through the Processor; this
    re-derives one fig06 point with the pre-refactor call sequence and
    demands identical cycle counts (the golden fixtures in
    ``tests/golden`` pin the same numbers across commits).
    """
    from repro.bench.runner import ExperimentRunner
    from repro.query.queries import q1
    from repro.rme.designs import MLP

    query = q1()
    table = make_relation(N_ROWS, seed=SEED)
    runner = ExperimentRunner(designs=(MLP,))

    # Pre-refactor recipe, inlined: fresh system per timing.
    system = RelationalMemorySystem()
    loaded = system.load_table(table)
    direct = QueryExecutor(system).run_direct(query, loaded)

    system = RelationalMemorySystem()
    loaded = system.load_table(table)
    var = system.register_var(loaded, list(query.columns()))
    cold = QueryExecutor(system).run_rme(query, var)

    system = RelationalMemorySystem()
    loaded = system.load_table(table)
    var = system.register_var(loaded, list(query.columns()))
    system.warm_up(var)
    system.flush_caches()
    hot = QueryExecutor(system).run_rme(query, var)

    assert fingerprint(runner.time_direct(table, query)) == fingerprint(direct)
    assert fingerprint(runner.time_rme(table, query, MLP)) == fingerprint(cold)
    assert fingerprint(
        runner.time_rme(table, query, MLP, hot=True)
    ) == fingerprint(hot)


def test_cost_based_plan_matches_optimizer():
    """Unpinned planning defers to choose_access_path, not a copy of it."""
    from repro.query.optimizer import choose_access_path

    query = q2(k=0)
    _, system, loaded = fresh()
    processor = Processor(system)
    plan = processor.plan(query, loaded)
    choice = choose_access_path(query, loaded, design=system.design)
    assert plan.choice.best == choice.best
    assert plan.engine.access_path == choice.best
