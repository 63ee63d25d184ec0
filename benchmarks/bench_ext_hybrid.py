"""Extension — hybrid execution strategies (Section 4).

"The query optimizer can decide to execute one query with indexes and
another query with columns, alternating between a row-at-a-time and
column-at-a-time execution strategy depending on what is the best fit."

This benchmark sweeps the predicate's selectivity and runs the same
aggregation through a B+-tree index probe, the direct row scan, and the
RME — showing the crossover the optimizer exploits, and checking that the
optimizer's choice matches the measured winner at the extremes.
"""

from conftest import N_ROWS, run_once

from repro import (
    AccessPath,
    Col,
    Query,
    QueryExecutor,
    RelationalMemorySystem,
    choose_access_path,
)
from repro.bench import make_relation
from repro.bench.report import render_table

# A1 values are uniform in [-1e6, 1e6]; these cuts set the selectivity.
CUTS = [(-999_000, 0.0005), (-990_000, 0.005), (-900_000, 0.05),
        (-500_000, 0.25), (500_000, 0.75)]


def query_for(cut):
    return Query(name=f"cut{cut}", sql=f"SELECT SUM(A2) FROM S WHERE A1 < {cut}",
                 select=(), aggregate="sum", agg_expr=Col("A2"),
                 predicate=Col("A1") < cut)


def sweep_selectivity(n_rows):
    table = make_relation(n_rows)
    system = RelationalMemorySystem()
    loaded = system.load_table(table)
    system.load_index(loaded, "A1")
    var = system.register_var(loaded, ["A1", "A2"])
    executor = QueryExecutor(system)
    rows = []
    for cut, _approx in CUTS:
        query = query_for(cut)
        via_index = executor.run_index(query, loaded)
        via_direct = executor.run_direct(query, loaded)
        system.warm_up(var)
        system.flush_caches()
        via_rme = executor.run_rme(query, var)
        assert via_index.value == via_direct.value == via_rme.value
        choice = choose_access_path(query, loaded,
                                    selectivity=via_index.selectivity,
                                    rme_hot=True)
        # The in-bank PIM fold may take the overall win for an aggregate;
        # the crossover this benchmark is about plays out among the paths
        # that stream rows (or index probes) to the CPU.
        classic = min(
            (p for p in choice.estimates_ns if p is not AccessPath.PIM),
            key=choice.estimates_ns.get,
        )
        rows.append([
            round(via_index.selectivity, 4),
            via_index.elapsed_ns,
            via_direct.elapsed_ns,
            via_rme.elapsed_ns,
            choice.best.value,
            classic.value,
        ])
    return rows


def bench_ext_hybrid(benchmark):
    rows = run_once(benchmark, sweep_selectivity, n_rows=N_ROWS)
    print()
    print(render_table(
        ["selectivity", "index ns", "direct ns", "RME hot ns", "optimizer",
         "non-PIM winner"],
        rows,
    ))

    most_selective = rows[0]
    least_selective = rows[-1]
    # The index wins only at the selective end.
    assert most_selective[1] < most_selective[2]
    assert most_selective[1] < most_selective[3]
    assert least_selective[1] > least_selective[3]
    # The optimizer alternates with selectivity.  PIM may take the
    # overall win (the aggregate folds in-bank), but among the CPU-side
    # paths the index/scan crossover still decides.
    assert most_selective[4] in (AccessPath.INDEX.value, AccessPath.PIM.value)
    assert most_selective[5] == AccessPath.INDEX.value
    assert least_selective[5] in (AccessPath.RME.value,
                                  AccessPath.DIRECT_ROW.value)
    # Index cost grows with selectivity (more fetches).
    index_costs = [r[1] for r in rows]
    assert index_costs == sorted(index_costs)
