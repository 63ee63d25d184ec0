"""Access-path advisor — the optimizer choosing per query (Section 4).

"At runtime, the query optimizer can decide to execute one query with
indexes and another query with columns, alternating between a
row-at-a-time and column-at-a-time execution strategy depending on what
is the best fit for each query."

The advisor prices every access path for each of the seven benchmark
queries with the analytical model, picks the cheapest, then *validates*
the decision by actually running the query on the simulated platform.
A second part sweeps a predicate's selectivity with a B+-tree available,
showing the index/column crossover of Section 4.

Run:  python examples/access_path_advisor.py
"""

from repro import (
    AccessPath,
    Col,
    Query,
    QueryExecutor,
    RelationalMemorySystem,
    choose_access_path,
)
from repro.bench.report import render_table
from repro.bench.workloads import make_relation
from repro.query.queries import relational_memory_benchmark


def main() -> None:
    table = make_relation(n_rows=2048, n_cols=16, col_width=4)
    system = RelationalMemorySystem()
    loaded = system.load_table(table)
    executor = QueryExecutor(system)

    rows = []
    agreements = 0
    for query in relational_memory_benchmark():
        choice = choose_access_path(query, loaded)
        est = {p.value: v for p, v in choice.estimates_ns.items()}

        # Validate by measurement: direct vs. RME (fresh variable = cold).
        var = system.register_var(loaded, query.columns())
        measured_rme = executor.run_rme(query, var).elapsed_ns
        measured_direct = executor.run_direct(query, loaded).elapsed_ns
        actual_best = (AccessPath.RME if measured_rme < measured_direct
                       else AccessPath.DIRECT_ROW)
        agreements += actual_best is choice.best

        rows.append([
            query.name,
            "+".join(query.columns()),
            choice.best.value,
            round(est["direct_row"]),
            round(est["rme"]),
            round(measured_direct),
            round(measured_rme),
            "yes" if actual_best is choice.best else "NO",
        ])
        print(f"{query.name}: {query.sql}")
        print(f"   -> {choice.best.value}: {choice.reason}")

    print()
    print(render_table(
        ["query", "columns", "choice", "est direct", "est rme",
         "meas direct", "meas rme", "agrees"],
        rows,
    ))
    print(f"\nmodel agreed with measurement on {agreements}/7 queries")

    # --- part two: index vs. columns, alternating by selectivity ------------
    print("\nWith a B+-tree on A1, the optimizer alternates per query:")
    system.load_index(loaded, "A1")
    sweep_rows = []
    for cut in (-995_000, -900_000, -500_000, 500_000):
        query = Query(
            name=f"k={cut}", sql=f"SELECT SUM(A2) FROM S WHERE A1 < {cut}",
            select=(), aggregate="sum", agg_expr=Col("A2"),
            predicate=Col("A1") < cut,
        )
        measured = executor.run_index(query, loaded)
        choice = choose_access_path(query, loaded,
                                    selectivity=measured.selectivity)
        sweep_rows.append([
            f"{measured.selectivity:.2%}",
            round(measured.elapsed_ns),
            choice.best.value,
        ])
    print(render_table(["selectivity", "index ns", "optimizer picks"], sweep_rows))
    print("\nSelective point queries go to the index; analytical scans go "
          "to Relational Memory — one row-store, both strategies.")


if __name__ == "__main__":
    main()
