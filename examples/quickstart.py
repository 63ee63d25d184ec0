"""Quickstart — the paper's Listings 1-4, end to end.

Builds the 96-byte-row table of Listing 1, registers an ephemeral
variable over the numeric column group (Listing 2 / ``register_var`` of
Listing 4), evaluates the sample analytical query

    SELECT sum(num_fld1 * num_fld4) FROM the_table WHERE num_fld3 > 10;

and compares the three access paths: direct row access, a materialised
columnar copy, and Relational Memory (cold, then hot).

Run:  python examples/quickstart.py
"""

from repro import (
    Col,
    Query,
    QueryExecutor,
    RelationalMemorySystem,
)
from repro.bench.report import render_table
from repro.bench.workloads import make_listing1_table


def main() -> None:
    # --- Listing 1: struct row the_table[] ---------------------------------
    table = make_listing1_table(n_rows=4096)
    print(f"loaded {table.n_rows} rows of {table.row_size} bytes "
          f"({table.nbytes / 1024:.0f} KiB row-store)")

    system = RelationalMemorySystem()
    loaded = system.load_table(table)

    # --- Listing 2/4: the ephemeral column group ----------------------------
    # The prototype RME projects contiguous groups, so the covering run
    # num_fld1..num_fld4 (32 of 96 bytes) backs the query's three columns.
    cg = system.register_var(
        loaded, ["num_fld1", "num_fld2", "num_fld3", "num_fld4"]
    )
    print(f"ephemeral variable: {cg!r}")
    print(f"  geometry: R={cg.config.row_size} N={cg.config.row_count} "
          f"C={cg.config.col_width} O={cg.config.col_offset} "
          f"(projectivity {cg.config.projectivity:.0%})")

    # --- Listing 3: the query ------------------------------------------------
    query = Query(
        name="listing3",
        sql="SELECT SUM(num_fld1 * num_fld4) FROM the_table WHERE num_fld3 > 10",
        select=(),
        aggregate="sum",
        agg_expr=Col("num_fld1") * Col("num_fld4"),
        predicate=Col("num_fld3") > 10,
    )

    executor = QueryExecutor(system)
    direct = executor.run_direct(query, loaded)
    system.load_column_group(
        loaded, ["num_fld1", "num_fld2", "num_fld3", "num_fld4"]
    )
    columnar = executor.run_columnar(query, loaded)
    rme_cold = executor.run_rme(query, cg)
    rme_hot = executor.run_rme(query, cg)

    assert direct.value == columnar.value == rme_cold.value == rme_hot.value
    print(f"\nanswer: {direct.value}  "
          f"(selectivity {direct.selectivity:.1%}, {direct.rows_scanned} rows)")

    rows = [
        ["Direct (row-store)", direct.elapsed_ns, 1.0],
        ["Columnar copy", columnar.elapsed_ns, columnar.elapsed_ns / direct.elapsed_ns],
        ["RME cold (transforming)", rme_cold.elapsed_ns, rme_cold.elapsed_ns / direct.elapsed_ns],
        ["RME hot (buffered)", rme_hot.elapsed_ns, rme_hot.elapsed_ns / direct.elapsed_ns],
    ]
    print()
    print(render_table(["access path", "simulated ns", "vs direct"], rows))
    print("\nThe hot RME scan matches the columnar copy without ever "
          "materialising the columns in memory.")

    # --- telemetry teaser ---------------------------------------------------
    trapper = system.metrics.statset("rme.trapper")
    print(f"\ntrapper latency p50/p99: "
          f"{trapper.percentile('latency_ns', 50):,.0f} / "
          f"{trapper.percentile('latency_ns', 99):,.0f} ns over "
          f"{trapper.count('requests')} trapped lines")
    print("To see *why* (spans, per-lane timelines, Perfetto export), "
          "re-run under tracing:\n"
          "  system.enable_tracing()  /  python -m repro trace ...\n"
          "— see the README's Observability section and "
          "docs/observability.md.")


if __name__ == "__main__":
    main()
