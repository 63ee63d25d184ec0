"""Star-schema analytics — a realistic workload tour.

A compact retail star schema: a wide fact table of orders whose dimension
columns are dictionary-encoded (narrow fixed-width codes the RME projects
natively, see Section 4 "Compression"), queried with SQL through the
paper's machinery:

* the measure columns are registered once as an ephemeral variable;
* a dashboard of analytical queries runs over it — the first pays the
  on-the-fly transformation, the rest stream from the hot buffer;
* a selective lookup dodges the streaming scans — the cost-based advisor
  weighs the B+-tree probe against the in-bank PIM fold.

Run:  python examples/star_schema_analytics.py
"""

import random

from repro import (
    AccessPath,
    Column,
    QueryExecutor,
    RelationalMemorySystem,
    RowTable,
    Schema,
    choose_access_path,
    int32,
    int64,
    parse_query,
)
from repro.bench.report import render_table
from repro.storage.compression import dictionary_encode
from repro.storage.schema import intn

N_ORDERS = 4096

REGIONS = ["na", "emea", "apac", "latam"]
PRODUCTS = [f"sku-{i:03d}" for i in range(24)]


def build_fact_table():
    rng = random.Random(17)
    regions = [rng.choice(REGIONS) for _ in range(N_ORDERS)]
    products = [rng.choice(PRODUCTS) for _ in range(N_ORDERS)]
    region_enc = dictionary_encode(regions, value_size=8)
    product_enc = dictionary_encode(products, value_size=8)

    schema = Schema([
        Column("order_id", int64()),
        Column("region_code", intn(region_enc.code_width)),
        Column("product_code", intn(product_enc.code_width)),
        Column("pad", intn(2)),             # keep the measures aligned
        Column("quantity", int32()),
        Column("unit_price", int32()),
        Column("discount", int32()),
        Column("tax", int32()),
        Column("shipping", int32()),
        Column("weight", int32()),
        Column("margin", int32()),
        Column("flags", int32()),
    ])
    fact = RowTable("orders", schema)
    for i in range(N_ORDERS):
        fact.append([
            i,
            region_enc.codes[i],
            product_enc.codes[i],
            0,
            rng.randint(1, 20),
            rng.randint(100, 9_999),
            rng.randint(0, 30),
            rng.randint(0, 500),
            rng.randint(0, 900),
            rng.randint(1, 5_000),
            rng.randint(-500, 2_000),
            0,
        ])
    return fact, region_enc, product_enc


DASHBOARD = [
    "SELECT SUM(quantity * unit_price) FROM orders",
    "SELECT AVG(discount) FROM orders WHERE quantity > 10",
    "SELECT SUM(quantity) FROM orders WHERE discount > 15 GROUP BY region_code",
    "SELECT STD(unit_price) FROM orders",
]


def main() -> None:
    fact, region_enc, product_enc = build_fact_table()
    print(f"fact table: {fact.n_rows} orders x {fact.row_size} B "
          f"({fact.nbytes / 1024:.0f} KiB); dimension codes: "
          f"region {region_enc.code_width} B, product {product_enc.code_width} B")

    system = RelationalMemorySystem()
    loaded = system.load_table(fact)
    executor = QueryExecutor(system)

    # One ephemeral view backs the whole dashboard: the group covering the
    # dimension codes and measures (everything but order_id and the tail).
    view_columns = ["region_code", "product_code", "pad",
                    "quantity", "unit_price", "discount"]
    view = system.register_var(loaded, view_columns)
    print(f"ephemeral view: {view.width} of {fact.row_size} bytes per row "
          f"({view.config.projectivity:.0%} projectivity)\n")

    rows = []
    for sql in DASHBOARD:
        query = parse_query(sql)
        direct = executor.run_direct(query, loaded)
        rme = executor.run_rme(query, view)
        assert direct.value == rme.value
        shown = rme.value if not isinstance(rme.value, dict) else (
            {region_enc.dictionary[k]: v for k, v in sorted(rme.value.items())}
        )
        rows.append([
            sql if len(sql) < 58 else sql[:55] + "...",
            rme.state,
            round(direct.elapsed_ns),
            round(rme.elapsed_ns),
            f"{direct.elapsed_ns / rme.elapsed_ns:.1f}x",
        ])
        print(f"{sql}\n  -> {shown}")
    print()
    print(render_table(
        ["dashboard query", "RME state", "direct ns", "RME ns", "speedup"],
        rows,
    ))

    # --- the groundwork operators, in hardware -------------------------------
    # GROUP BY pushdown: the dictionary-coded region key fits the PL group
    # table, so revenue-by-region arrives as four 16-byte entries.
    gvar = system.register_hw_group_by(loaded, "quantity", "region_code", "sum",
                                       predicate_column="discount", op=">",
                                       constant=15)
    grouped = executor.run_rme_hw_group_by(gvar)
    again = executor.run_rme_hw_group_by(gvar)
    named = {region_enc.dictionary[k]: v for k, v in sorted(grouped.value.items())}
    print(f"\nGROUP BY pushdown: {named}")
    print(f"  cold {grouped.elapsed_ns:,.0f} ns (stream + table emit), "
          f"hot {again.elapsed_ns:,.0f} ns ({gvar.n_groups} entries)")

    # Semi-join pushdown: filter the dimension in software, push its keys.
    apac_emea = frozenset(
        code for code, name in enumerate(region_enc.dictionary)
        if name in ("apac", "emea")
    )
    jvar = system.register_semijoin_var(
        loaded, view_columns, "region_code", apac_emea
    )
    system.warm_up(jvar)
    joinable = jvar.matched_length
    print(f"semi-join pushdown: {joinable}/{fact.n_rows} orders joinable "
          f"with the apac/emea dimension slice "
          f"(engine count register: {system.rme.match_count})")

    # A selective point lookup avoids the streaming scans entirely: the
    # advisor weighs the B+-tree probe against the rank-parallel in-bank
    # fold, and at this table size the banks answer without moving a row.
    # The index stays the cheapest path that *materializes* the rows.
    system.load_index(loaded, "order_id")
    lookup = parse_query("SELECT SUM(unit_price) FROM orders WHERE order_id < 16")
    choice = choose_access_path(lookup, loaded, selectivity=16 / N_ORDERS)
    measured = executor.run_index(lookup, loaded)
    print(f"\nselective lookup: optimizer picks {choice.best.value} "
          f"({measured.elapsed_ns:,.0f} ns via the index, "
          f"{measured.selectivity:.2%} selective)")
    assert choice.best in (AccessPath.INDEX, AccessPath.PIM)
    software = {p: ns for p, ns in choice.estimates_ns.items()
                if p is not AccessPath.PIM}
    assert min(software, key=software.get) is AccessPath.INDEX
    print("\nOne row-store served transactional-style lookups via the index "
          "and the whole analytical dashboard via Relational Memory.")


if __name__ == "__main__":
    main()
