"""Command-line interface: ``python -m repro <command>``.

The subcommands cover the common workflows without writing Python:

* ``figures`` — regenerate the paper's figures/tables (all or a subset);
* ``bench`` — run one shardable sweep across ``--jobs N`` worker
  processes (``repro.parallel``); output is bit-identical to ``--jobs 1``;
* ``query`` — run an ad-hoc SQL query over a generated benchmark relation
  on every access path and compare;
* ``serve`` — run a concurrent multi-tenant query workload through the
  RME scheduler and report per-tenant SLOs (p50/p95/p99, throughput,
  shed rate);
* ``cluster`` — shard the same workload across N simulated RME nodes
  with replica failover, hedged retries and staleness-measured CPU
  degradation, optionally under a seeded node-fault plan;
* ``trace`` — run a query with tracing on and export the causal timeline
  as Chrome trace-event JSON (Perfetto / ``chrome://tracing`` loadable);
* ``stats`` — run a query and dump the telemetry registry (table, JSON
  or CSV): counters, gauges and latency percentiles per component;
* ``perf`` — wall-clock benchmark of the fast-forward replay against
  the cycle-level simulator, asserting bit-identical simulated results
  and writing ``BENCH_wallclock.json``;
* ``resources`` — print the Table-3 style FPGA estimate for a design;
* ``info`` — dump the simulated platform configuration.

Usage errors (unknown subcommands, malformed flag values) print a
one-line message and exit with status 2 — they never raise out of
:func:`main`.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import sys
from typing import Callable, Dict, List, Optional, Tuple

from . import __version__
from .bench import extensions as extension_drivers
from .bench import figures as figure_drivers
from .bench.report import (
    metrics_to_csv,
    metrics_to_json,
    render_cluster_report,
    render_figure,
    render_metrics,
    render_slo_report,
    render_table,
)
from .bench.workloads import make_relation
from .cluster.placement import routing_names
from .config import ZCU102
from .core.relmem import RelationalMemorySystem
from .errors import ConfigurationError, QueryError, ReproError
from .query.engines import engine_by_name, engine_names
from .query.executor import QueryExecutor
from .query.sql import parse_query
from .rme.designs import ALL_DESIGNS, design_by_name
from .rme.resources import estimate_resources
from .serve.scheduler import policy_names
from .sim.metrics import PROCESS_METRICS, MetricsRegistry
from .sim.trace import write_chrome_trace


class _UsageError(Exception):
    """An argparse-level mistake, reported as one line + exit code 2."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises instead of calling ``sys.exit``.

    ``add_subparsers`` instantiates the same class for subcommands, so
    unknown subcommands and malformed option values everywhere surface
    as :class:`_UsageError` and become a one-line message from
    :func:`main` — no tracebacks, no ``SystemExit`` from library code.
    """

    def error(self, message: str):
        raise _UsageError(f"{self.prog}: {message}")

#: sweep name -> (driver, rows -> driver kwargs). ``repro figures`` runs
#: every sweep; a sweep is shardable by ``repro bench`` when its driver
#: takes ``jobs``, and has a CI-sized ``--smoke`` grid when it takes
#: ``smoke``. One row scaling per sweep, so ``repro bench NAME --jobs 1``
#: matches ``repro figures NAME`` point for point.
_SWEEPS: Dict[str, Tuple[Callable, Callable[[int], dict]]] = {
    "fig01": (figure_drivers.fig01_projectivity, lambda rows: {}),
    "fig06": (figure_drivers.fig06_q1_designs, lambda rows: {"n_rows": rows}),
    "fig07": (figure_drivers.fig07_cache_stats, lambda rows: {"n_rows": 2 * rows}),
    "fig08": (figure_drivers.fig08_offset_sweep,
              lambda rows: {"n_rows": max(128, rows // 4)}),
    "fig09": (figure_drivers.fig09_projection_colsize, lambda rows: {"n_rows": rows}),
    "fig10": (figure_drivers.fig10_projection_rowsize, lambda rows: {"n_rows": rows}),
    "fig11": (figure_drivers.fig11_agg_colsize, lambda rows: {"n_rows": rows}),
    "fig12": (figure_drivers.fig12_agg_rowsize, lambda rows: {"n_rows": rows}),
    "fig13a": (figure_drivers.fig13_q7_locality,
               lambda rows: {"n_rows": rows, "sweep": "col"}),
    "fig13b": (figure_drivers.fig13_q7_locality,
               lambda rows: {"n_rows": rows, "sweep": "row"}),
    # Extension studies (DESIGN.md section 8).
    "ext-capacity": (extension_drivers.ext_capacity_cliff, lambda rows: {"n_rows": rows}),
    "ext-pushdown": (extension_drivers.ext_pushdown_ladder, lambda rows: {"n_rows": rows}),
    "ext-hybrid": (extension_drivers.ext_hybrid_crossover, lambda rows: {"n_rows": rows}),
    "ext-isolation": (extension_drivers.ext_isolation, lambda rows: {"n_rows": rows}),
    "ext-multirun": (extension_drivers.ext_noncontiguous_tradeoff,
                     lambda rows: {"n_rows": rows}),
    "ext-serving": (extension_drivers.ext_serving_sweep,
                    lambda rows: {"n_rows": max(128, rows // 2)}),
    "ext-faults": (extension_drivers.ext_faults_sweep,
                   lambda rows: {"n_rows": max(128, rows // 2)}),
    "ext-pim": (extension_drivers.ext_pim_shootout, lambda rows: {"n_rows": rows}),
    "ext-pim-join": (extension_drivers.ext_pim_join_shootout,
                     lambda rows: {"n_fact": 2 * rows}),
    "ext-pim-groupby": (extension_drivers.ext_pim_groupby_shootout,
                        lambda rows: {"n_rows": 2 * rows}),
    "ext-cluster": (extension_drivers.ext_cluster_sweep,
                    lambda rows: {"n_rows": max(128, rows // 2)}),
}


def _sweeps_taking(parameter: str) -> List[str]:
    """The sweeps whose driver accepts ``parameter``, in table order."""
    return [name for name, (driver, _kwargs) in _SWEEPS.items()
            if parameter in inspect.signature(driver).parameters]


_PARALLEL_FIGURES = _sweeps_taking("jobs")
_SMOKE_FIGURES = _sweeps_taking("smoke")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description="Relational Memory (EDBT 2023) reproduction toolkit",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command")

    figures = commands.add_parser("figures", help="regenerate paper figures")
    figures.add_argument(
        "names", nargs="*",
        help=f"figures to run (default: all of {', '.join(_SWEEPS)})",
    )
    figures.add_argument("--rows", type=int, default=1024,
                         help="rows per experiment point (default 1024)")
    figures.add_argument("--csv", metavar="DIR", default=None,
                         help="also write each figure's series as CSV into DIR")

    bench = commands.add_parser(
        "bench", help="run one shardable sweep across worker processes")
    bench.add_argument(
        "name",
        help=f"sweep to run (one of {', '.join(_PARALLEL_FIGURES)})",
    )
    bench.add_argument("--jobs", type=int, default=1,
                       help="worker processes; output is bit-identical to "
                            "--jobs 1 (default 1)")
    bench.add_argument("--rows", type=int, default=1024,
                       help="rows per experiment point (default 1024)")
    bench.add_argument("--csv", metavar="PATH", default=None,
                       help="also write the series as CSV to PATH")
    bench.add_argument("--json", dest="json_path", metavar="PATH",
                       default=None,
                       help="also write xs/series as sorted JSON to PATH "
                            "(byte-comparable across --jobs values)")
    bench.add_argument("--smoke", action="store_true",
                       help="run the sweep's CI-sized smoke grid "
                            f"(supported by {', '.join(_SMOKE_FIGURES)})")
    bench.add_argument("--explain", action="store_true",
                       help="print the engine-annotated IR plan tree for "
                            "the sweep's queries and exit without running")
    bench.add_argument("--engine", default=None, metavar="NAME",
                       help="with --explain: pin the plan to one engine "
                            f"({', '.join(engine_names())}) instead of "
                            "letting the optimizer choose")
    bench.add_argument("--sql", default=None, metavar="SQL",
                       help="with --explain: plan this ad-hoc query instead "
                            "of the sweep's built-in templates")

    query = commands.add_parser("query", help="run an ad-hoc SQL query")
    query.add_argument("sql", help='e.g. "SELECT SUM(A1) FROM S WHERE A2 > 0"')
    query.add_argument("--rows", type=int, default=2048,
                       help="rows in the generated relation S (default 2048)")
    query.add_argument("--cols", type=int, default=16,
                       help="columns in S (default 16)")
    query.add_argument("--width", type=int, default=4,
                       help="bytes per column (default 4)")
    query.add_argument("--seed", type=int, default=42)

    def _adhoc_args(sub):
        sub.add_argument("sql", help='e.g. "SELECT SUM(A1) FROM S WHERE A2 > 0"')
        sub.add_argument("--rows", type=int, default=2048,
                         help="rows in the generated relation S (default 2048)")
        sub.add_argument("--cols", type=int, default=16,
                         help="columns in S (default 16)")
        sub.add_argument("--width", type=int, default=4,
                         help="bytes per column (default 4)")
        sub.add_argument("--seed", type=int, default=42)
        sub.add_argument("--design", default="MLP",
                         help="BSL, PCK or MLP (default MLP)")
        sub.add_argument("--hot", action="store_true",
                         help="run the query twice and report the second "
                              "(buffer-hot) execution")

    trace = commands.add_parser(
        "trace", help="trace a query and export Chrome trace JSON")
    _adhoc_args(trace)
    trace.add_argument("--out", default="trace.json",
                       help="Chrome trace-event JSON path (default trace.json)")
    trace.add_argument("--tail", type=int, default=20,
                       help="trace lines to print (default 20)")
    trace.add_argument("--component", default=None,
                       help="only print records of this component "
                            "(e.g. trapper, dram, fetch-0)")
    trace.add_argument("--capacity", type=int, default=1_000_000,
                       help="tracer ring-buffer capacity (default 1000000)")

    stats = commands.add_parser(
        "stats", help="run a query and dump the telemetry registry")
    _adhoc_args(stats)
    stats.add_argument("--prefix", default="",
                       help='only components at/under this path (e.g. "rme")')
    stats.add_argument("--format", choices=("table", "json", "csv"),
                       default="table", help="output format (default table)")

    serve = commands.add_parser(
        "serve", help="serve a concurrent multi-tenant query workload")
    serve.add_argument("--policy", default="fcfs", metavar="NAME",
                       help="configuration-port scheduler "
                            f"({', '.join(policy_names())}; default fcfs)")
    serve.add_argument("--arrival", choices=("poisson", "bursty", "closed"),
                       default="poisson",
                       help="arrival process (default poisson); 'closed' runs "
                            "think-time clients instead of an open stream")
    serve.add_argument("--rate", type=float, default=None,
                       help="open-loop arrival rate in queries per simulated "
                            "second (default: 0.8x the single-port "
                            "saturation rate)")
    serve.add_argument("--requests", type=int, default=400,
                       help="total requests to serve (default 400)")
    serve.add_argument("--tenants", type=int, default=3,
                       help="tenant count, one table each (default 3)")
    serve.add_argument("--rows", type=int, default=1024,
                       help="rows per tenant table (default 1024)")
    serve.add_argument("--ports", type=int, default=None,
                       help="engine contexts; only multi-port supports >1 "
                            "(default: 2 for multi-port, else 1)")
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="admission-control backlog bound (default 64)")
    serve.add_argument("--quantum", type=int, default=8,
                       help="ctx-switch drain quantum (default 8)")
    serve.add_argument("--clients", type=int, default=16,
                       help="closed-loop client population (default 16)")
    serve.add_argument("--think-us", type=float, default=30.0,
                       help="closed-loop mean think time in us (default 30)")
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument("--design", default="MLP",
                       help="BSL, PCK or MLP (default MLP)")
    serve.add_argument("--format", choices=("table", "json", "csv"),
                       default="table",
                       help="SLO table, or the raw metrics registry as "
                            "JSON/CSV (default table)")
    serve.add_argument("--config", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override a platform parameter, e.g. "
                            "--config pl_freq_mhz=300 (repeatable)")
    serve.add_argument("--jobs", type=int, default=1,
                       help="shard tenant/template profiling across this "
                            "many processes; output is identical for any "
                            "value (default 1)")
    serve.add_argument("--explain", action="store_true",
                       help="print each (tenant, template) engine-annotated "
                            "IR plan tree and exit without serving")
    serve.add_argument("--sql", default=None, metavar="SQL",
                       help="with --explain: plan this ad-hoc query against "
                            "each tenant's table instead of the built-in "
                            "templates")

    cluster = commands.add_parser(
        "cluster",
        help="shard a serving workload across N nodes with failover")
    cluster.add_argument("--nodes", type=int, default=3,
                         help="simulated serving nodes (default 3)")
    cluster.add_argument("--replication", type=int, default=2,
                         help="replicas per tenant shard (default 2, "
                              "capped at --nodes)")
    cluster.add_argument("--routing", default="consistent-hash",
                         metavar="NAME",
                         help="shard placement policy "
                              f"({', '.join(routing_names())}; "
                              "default consistent-hash)")
    cluster.add_argument("--policy", default="fcfs", metavar="NAME",
                         help="per-node configuration-port scheduler "
                              f"({', '.join(policy_names())}; default fcfs)")
    cluster.add_argument("--requests", type=int, default=300,
                         help="total requests to serve (default 300)")
    cluster.add_argument("--tenants", type=int, default=4,
                         help="tenant count, one table each (default 4)")
    cluster.add_argument("--rows", type=int, default=512,
                         help="rows per tenant table (default 512)")
    cluster.add_argument("--rate", type=float, default=None,
                         help="open-loop arrival rate in queries per "
                              "simulated second (default: 0.6x the "
                              "cluster's aggregate saturation rate)")
    cluster.add_argument("--queue-depth", type=int, default=64,
                         help="per-node admission backlog bound (default 64)")
    cluster.add_argument("--fault-plan",
                         choices=("none", "node-crash", "slow-node",
                                  "replica-lag", "storm"),
                         default="none",
                         help="seeded node-fault plan to inject "
                              "(default none)")
    cluster.add_argument("--intensity", type=float, default=1.0,
                         help="fault-plan rate multiplier (default 1.0)")
    cluster.add_argument("--no-failover", action="store_true",
                         help="pin each request to its primary replica "
                              "(the availability baseline)")
    cluster.add_argument("--no-hedging", action="store_true",
                         help="disable hedged duplicate requests on "
                              "p99 drift")
    cluster.add_argument("--seed", type=int, default=7)
    cluster.add_argument("--design", default="MLP",
                         help="BSL, PCK or MLP (default MLP)")
    cluster.add_argument("--format", choices=("table", "json", "csv"),
                         default="table",
                         help="cluster SLO table, or the merged metrics "
                              "registry as JSON/CSV (default table)")
    cluster.add_argument("--smoke", action="store_true",
                         help="tiny CI grid; asserts availability > 0 and "
                              "byte-identical served answers")

    chaos = commands.add_parser(
        "chaos", help="inject hardware faults and measure recovery")
    chaos.add_argument("--fault-rates", default="0.0,0.05,0.15,0.3",
                       metavar="R1,R2,...",
                       help="per-attempt fault probabilities for the serving "
                            "sweep (default 0.0,0.05,0.15,0.3)")
    chaos.add_argument("--requests", type=int, default=300,
                       help="requests per serving run (default 300)")
    chaos.add_argument("--tenants", type=int, default=2,
                       help="tenant count, one table each (default 2)")
    chaos.add_argument("--rows", type=int, default=512,
                       help="rows per relation (default 512)")
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument("--design", default="MLP",
                       help="BSL, PCK or MLP (default MLP)")
    chaos.add_argument("--smoke", action="store_true",
                       help="tiny fast parameters for CI smoke runs")
    chaos.add_argument("--config", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override a platform parameter (repeatable)")

    perf = commands.add_parser(
        "perf",
        help="wall-clock benchmark: fast-forward replay vs cycle-level",
    )
    perf.add_argument("--quick", action="store_true",
                      help="small scales for CI: cycle-equality is still "
                           "asserted, the speedup floor is not")
    perf.add_argument("--smoke", action="store_true", dest="quick",
                      help="alias for --quick (CI smoke runs)")
    perf.add_argument("--profile", action="store_true",
                      help="also print the fastpath fallback tallies "
                           "(epochs and scans) by reason")
    perf.add_argument("--scenario", action="append", dest="scenarios",
                      metavar="NAME",
                      help="run a subset (fig01, fig06, serving, windowed, "
                           "multirun, pushdown); repeatable")
    perf.add_argument("--min-speedup", type=float, default=None,
                      help="fig06 acceptance floor (default 3.0; none with "
                           "--quick)")
    perf.add_argument("--output", default="BENCH_wallclock.json",
                      help="JSON report path (default BENCH_wallclock.json; "
                           "'-' to skip)")
    perf.add_argument("--jobs", type=int, default=None,
                      help="shard each scenario's sweep across this many "
                           "processes (both timed runs use the same jobs)")

    resources = commands.add_parser("resources", help="Table-3 style estimate")
    resources.add_argument("--design", default="MLP",
                           help="BSL, PCK or MLP (default MLP)")

    commands.add_parser("info", help="print the platform configuration")
    return parser


def _cmd_figures(args, out) -> int:
    import pathlib

    from .bench.report import to_csv

    names = args.names or list(_SWEEPS)
    unknown = [n for n in names if n not in _SWEEPS]
    if unknown:
        print(f"unknown figures: {', '.join(unknown)} "
              f"(choose from {', '.join(_SWEEPS)})", file=out)
        return 2
    csv_dir = None
    if args.csv is not None:
        csv_dir = pathlib.Path(args.csv)
        csv_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        driver, kwargs = _SWEEPS[name]
        result = driver(**kwargs(args.rows))
        normalize = "Direct" if name == "fig06" else ""
        print(render_figure(result, normalized_to=normalize), file=out)
        print(file=out)
        if csv_dir is not None:
            path = csv_dir / f"{name}.csv"
            path.write_text(to_csv(result) + "\n")
            print(f"wrote {path}", file=out)
    return 0


def _parse_sql_or_usage(sql: str, prog: str):
    """Parse ad-hoc SQL, reporting mistakes as one-line usage errors.

    Malformed SQL, unknown aggregates and unsupported predicates are
    the caller's typos, not runtime failures — exit code 2, no
    traceback.
    """
    try:
        return parse_query(sql)
    except QueryError as exc:
        raise _UsageError(f"{prog}: {exc}")


def _engine_or_usage(name: str, prog: str):
    """Resolve ``--engine NAME`` against the registry."""
    try:
        return engine_by_name(name)
    except KeyError:
        raise _UsageError(
            f"{prog}: unknown engine {name!r} "
            f"(choose from {', '.join(engine_names())})"
        )


def _bench_explain_queries(name: str):
    """The (label, query) pairs a sweep's points are built from."""
    from .query.queries import q1, q2, q4

    if name in ("ext-serving", "ext-faults", "ext-cluster"):
        return [("project", q1("A3")),
                ("filter", q2(col="A1", sel_col="A2", k=0)),
                ("sum", q4("A1"))]
    if name == "ext-pim":
        # The shootout's two shapes: a selective filter the banks can
        # pre-filter, and an aggregate they can fold locally.
        return [("filter", q2(col="A1", sel_col="A2", k=0)),
                ("sum", q4("A1"))]
    if name == "ext-pim-groupby":
        # The grouped-SUM shape: each bank folds a local key→state table.
        from .query.expr import Col
        from .query.queries import Query

        return [("grouped-sum", Query(
            name="gsum",
            sql="SELECT SUM(A1) FROM S WHERE A2 > 0 GROUP BY A3",
            select=(), aggregate="sum", agg_expr=Col("A1"),
            predicate=Col("A2") > 0, group_by="A3"))]
    return [(name, q1())]


def _bench_explain_join(args, out) -> int:
    """``repro bench ext-pim-join --explain``: print the join's IR plan."""
    from .bench.workloads import make_join_tables
    from .query.expr import Col
    from .query.processor import Processor
    from .query.queries import Query

    engine = None
    if args.engine is not None:
        engine = _engine_or_usage(args.engine, "repro bench")
    dim_t, fact_t = make_join_tables(max(128, min(args.rows, 1024)))
    system = RelationalMemorySystem()
    dim_loaded = system.load_table(dim_t)
    fact_loaded = system.load_table(fact_t)
    dim = Query(name="dim", sql="", select=("K", "D1"))
    fact = Query(name="fact", sql="", select=("K", "A1"),
                 predicate=Col("F1") > 0)
    try:
        plan = Processor(system).plan_join(
            "K", dim, dim_loaded, fact, fact_loaded, engine=engine,
            rhs_selectivity=0.01,
        )
    except QueryError as exc:
        raise _UsageError(f"repro bench: {exc}")
    print(f"IR plans for sweep {args.name!r} (nothing is executed):", file=out)
    reason = (plan.choice.reason if plan.choice is not None
              else f"pinned via --engine {args.engine}")
    print(f"\n[join] engine={plan.engine.name}: {reason}", file=out)
    print(plan.explain(), file=out)
    return 0


def _cmd_bench_explain(args, out) -> int:
    """``repro bench NAME --explain``: print IR plans, execute nothing."""
    from .query.processor import Processor

    if args.name == "ext-pim-join" and args.sql is None:
        return _bench_explain_join(args, out)
    engine = None
    if args.engine is not None:
        engine = _engine_or_usage(args.engine, "repro bench")
    if args.sql is not None:
        queries = [("adhoc", _parse_sql_or_usage(args.sql, "repro bench"))]
    else:
        queries = _bench_explain_queries(args.name)
    table = make_relation(max(128, min(args.rows, 1024)), seed=42)
    for _label, query in queries:
        missing = [c for c in query.columns() if c not in table.schema]
        if missing:
            raise _UsageError(
                f"repro bench: query references {missing}, but the sweep "
                f"relation has columns A1..A{len(table.schema.columns)}"
            )
    system = RelationalMemorySystem()
    loaded = system.load_table(table)
    processor = Processor(system)
    plans = []
    for label, query in queries:
        try:
            plans.append((label, processor.plan(query, loaded, engine=engine)))
        except QueryError as exc:
            raise _UsageError(f"repro bench: {exc}")
    print(f"IR plans for sweep {args.name!r} (nothing is executed):", file=out)
    for label, plan in plans:
        reason = (plan.choice.reason if plan.choice is not None
                  else f"pinned via --engine {args.engine}")
        print(f"\n[{label}] engine={plan.engine.name}: {reason}", file=out)
        print(plan.explain(), file=out)
    return 0


def _cmd_bench(args, out) -> int:
    import json
    import pathlib

    from .bench.report import to_csv
    from .parallel import resolve_jobs

    if args.name not in _PARALLEL_FIGURES:
        print(f"unknown sweep: {args.name!r} "
              f"(choose from {', '.join(_PARALLEL_FIGURES)}; "
              f"--explain previews any sweep's IR plan)", file=out)
        return 2
    if args.explain:
        return _cmd_bench_explain(args, out)
    if args.engine is not None or args.sql is not None:
        raise _UsageError(
            "repro bench: --engine/--sql only apply with --explain"
        )
    if args.smoke and args.name not in _SMOKE_FIGURES:
        raise _UsageError(
            f"repro bench: --smoke is only supported for "
            f"{', '.join(_SMOKE_FIGURES)}"
        )
    jobs = resolve_jobs(args.jobs)
    driver, kwargs = _SWEEPS[args.name]
    extra = {"smoke": True} if args.smoke else {}
    result = driver(**kwargs(args.rows), jobs=jobs, **extra)
    normalize = "Direct" if args.name == "fig06" else ""
    print(render_figure(result, normalized_to=normalize), file=out)
    print(f"jobs: {jobs}  shards: {len(result.xs)}", file=out)
    if args.csv is not None:
        path = pathlib.Path(args.csv)
        path.write_text(to_csv(result) + "\n")
        print(f"wrote {path}", file=out)
    if args.json_path is not None:
        path = pathlib.Path(args.json_path)
        payload = {"fig_id": result.fig_id, "xs": result.xs,
                   "series": result.series}
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}", file=out)
    return 0


def _adhoc_relation(args, out, prog: str):
    """Shared preamble of ``query``/``trace``/``stats``: parse the SQL and
    build the synthetic table ``S`` it runs on.

    Returns ``(query, table)``, or ``None`` after printing which columns
    the SQL names that ``S`` lacks (the caller exits 2).
    """
    query = _parse_sql_or_usage(args.sql, prog)
    table = make_relation(args.rows, n_cols=args.cols, col_width=args.width,
                          seed=args.seed)
    missing = [c for c in query.columns() if c not in table.schema]
    if missing:
        print(f"query references {missing}, but S has columns "
              f"A1..A{args.cols}", file=out)
        return None
    return query, table


def _cmd_query(args, out) -> int:
    from .pim import pim_refusal

    adhoc = _adhoc_relation(args, out, "repro query")
    if adhoc is None:
        return 2
    query, table = adhoc
    system = RelationalMemorySystem()
    loaded = system.load_table(table)
    executor = QueryExecutor(system)

    direct = executor.run_direct(query, loaded)
    columnar = executor.run_columnar(
        query, loaded,
        system.load_column_group(table, table.schema.covering_columns(query.columns())),
    )
    var = system.register_var(
        loaded, query.columns(), allow_noncontiguous=True
    )
    cold = executor.run_rme(query, var)
    hot = executor.run_rme(query, var)

    print(f"answer: {_short(direct.value)}", file=out)
    print(f"selectivity: {direct.selectivity:.1%}  rows: {direct.rows_scanned}",
          file=out)
    rows = [
        ["direct (row-store)", round(direct.elapsed_ns), 1.0],
        ["columnar copy", round(columnar.elapsed_ns),
         columnar.elapsed_ns / direct.elapsed_ns],
        ["RME cold", round(cold.elapsed_ns), cold.elapsed_ns / direct.elapsed_ns],
        ["RME hot", round(hot.elapsed_ns), hot.elapsed_ns / direct.elapsed_ns],
    ]
    reason = pim_refusal(query, loaded)
    if not reason:
        pim = executor.run_pim(query, loaded)
        rows.append(["PIM pushdown", round(pim.elapsed_ns),
                     pim.elapsed_ns / direct.elapsed_ns])
    else:
        rows.append(["PIM pushdown", f"n/a ({reason})", "-"])
    print(render_table(["access path", "simulated ns", "vs direct"], rows),
          file=out)
    return 0


def _adhoc_rme_run(args, out):
    """Run the ``stats`` SQL on the RME path (cold, then hot with --hot).

    Returns ``(system, result, design name)`` or ``None`` after printing
    a usage error.
    """
    adhoc = _adhoc_relation(args, out, "repro stats")
    if adhoc is None:
        return None
    query, table = adhoc
    design = design_by_name(args.design)
    system = RelationalMemorySystem(design=design)
    loaded = system.load_table(table)
    executor = QueryExecutor(system)
    var = system.register_var(loaded, query.columns(), allow_noncontiguous=True)
    result = executor.run_rme(query, var)
    if args.hot:
        result = executor.run_rme(query, var)
    return system, result, design.name


def _cmd_trace(args, out) -> int:
    adhoc = _adhoc_relation(args, out, "repro trace")
    if adhoc is None:
        return 2
    query, table = adhoc
    design = design_by_name(args.design)
    system = RelationalMemorySystem(design=design)
    tracer = system.enable_tracing(capacity=args.capacity)
    loaded = system.load_table(table)
    executor = QueryExecutor(system)
    var = system.register_var(loaded, query.columns(), allow_noncontiguous=True)
    result = executor.run_rme(query, var)
    if args.hot:
        tracer.clear()
        result = executor.run_rme(query, var)

    print(f"answer: {_short(result.value)}", file=out)
    print(f"elapsed: {result.elapsed_ns:.0f} simulated ns "
          f"({design.name} {'hot' if args.hot else 'cold'})", file=out)
    filters = {"component": args.component} if args.component else {}
    print(tracer.render(limit=args.tail, **filters), file=out)
    exported = write_chrome_trace(tracer, args.out)
    dropped = f" ({tracer.dropped} older records dropped)" if tracer.dropped else ""
    print(f"wrote {exported} records to {args.out}{dropped} — open in "
          "https://ui.perfetto.dev or chrome://tracing", file=out)
    return 0


def _cmd_stats(args, out) -> int:
    run = _adhoc_rme_run(args, out)
    if run is None:
        return 2
    system, result, design_name = run
    # The system's registry, then the process-wide one (fast-path and
    # memo counters) under ``process.``.
    registry = MetricsRegistry()
    for path, stats in system.metrics:
        registry.attach(path, stats)
    for path, stats in PROCESS_METRICS:
        registry.attach(f"process.{path}", stats)
    if args.format == "json":
        print(metrics_to_json(registry), file=out)
    elif args.format == "csv":
        print(metrics_to_csv(registry), file=out)
    else:
        print(f"answer: {_short(result.value)}", file=out)
        print(f"elapsed: {result.elapsed_ns:.0f} simulated ns "
              f"({design_name} {'hot' if args.hot else 'cold'})", file=out)
        print(render_metrics(system.metrics, prefix=args.prefix), file=out)
        if not args.prefix or args.prefix.split(".")[0] == "process":
            print("process registry:", file=out)
            print(render_metrics(registry, prefix=args.prefix or "process"),
                  file=out)
    return 0


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 200 else text[:200] + "..."


def _platform_from_overrides(pairs: List[str]):
    """``KEY=VALUE`` strings -> a ZCU102 variant; bad input raises."""
    overrides = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigurationError(
                f"malformed --config {pair!r}: expected KEY=VALUE"
            )
        try:
            value = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                raise ConfigurationError(
                    f"--config {key}: {raw!r} is not a number"
                )
        overrides[key] = value
    if not overrides:
        return ZCU102
    try:
        return ZCU102.with_overrides(**overrides)
    except TypeError:
        known = ", ".join(f.name for f in dataclasses.fields(ZCU102))
        raise ConfigurationError(
            f"unknown platform parameter in --config "
            f"({', '.join(overrides)}); known: {known}"
        )


def _cmd_serve_explain(args, tenants, out) -> int:
    """``repro serve --explain``: print per-pair IR plans, serve nothing."""
    from .query.engines import RME
    from .query.processor import Processor

    platform = _platform_from_overrides(args.config)
    design = design_by_name(args.design)
    system = RelationalMemorySystem(platform, design)
    loaded = {t.name: system.load_table(t.table) for t in tenants}
    processor = Processor(system)
    adhoc = None
    if args.sql is not None:
        adhoc = _parse_sql_or_usage(args.sql, "repro serve")
        for spec in tenants:
            missing = [c for c in adhoc.columns()
                       if c not in loaded[spec.name].schema]
            if missing:
                raise _UsageError(
                    f"repro serve: query references {missing}, but tenant "
                    f"{spec.name!r} has columns "
                    f"{', '.join(loaded[spec.name].schema.names)}"
                )
    print("IR plans per (tenant, template); serving executes the RME tree "
          "and re-roots onto @degraded on unrecoverable faults:", file=out)
    for spec in tenants:
        templates = ([("adhoc", adhoc)] if adhoc is not None
                     else list(spec.templates))
        for template, query in templates:
            plan = processor.plan(query, loaded[spec.name], engine=RME)
            print(f"\n[{spec.name}/{template}]", file=out)
            print(plan.explain(), file=out)
    return 0


def _cmd_serve(args, out) -> int:
    from .serve import (
        PROFILE_CACHE,
        ClosedLoopWorkload,
        OpenLoopWorkload,
        ServingSystem,
        default_tenants,
        profile_workload,
    )

    if args.policy not in policy_names():
        raise _UsageError(
            f"repro serve: unknown scheduler policy {args.policy!r} "
            f"(choose from {', '.join(policy_names())})"
        )
    platform = _platform_from_overrides(args.config)
    design = design_by_name(args.design)
    tenants = default_tenants(
        n_tenants=args.tenants, n_rows=args.rows, seed=args.seed
    )
    if args.explain:
        return _cmd_serve_explain(args, tenants, out)
    # Snapshot before profiling so the report and the summary line both
    # describe *this command's* cache traffic, not the process lifetime.
    cache_snapshot = (PROFILE_CACHE.hits, PROFILE_CACHE.misses)
    profile = profile_workload(
        tenants, platform=platform, design=design, jobs=args.jobs
    )
    if args.arrival == "closed":
        workload = ClosedLoopWorkload(
            tenants, n_clients=args.clients, n_requests=args.requests,
            think_ns=args.think_us * 1000.0, seed=args.seed,
        )
    else:
        rate = args.rate or 0.8 * profile.saturation_rate_qps()
        workload = OpenLoopWorkload(
            tenants, rate_qps=rate, n_requests=args.requests,
            arrival=args.arrival, seed=args.seed,
        )
    system = ServingSystem(
        profile, policy=args.policy, n_ports=args.ports,
        queue_depth=args.queue_depth, quantum=args.quantum,
        platform=platform, design=design, cache_snapshot=cache_snapshot,
    )
    report = system.run(workload)
    if args.format == "json":
        print(metrics_to_json(report.metrics), file=out)
    elif args.format == "csv":
        print(metrics_to_csv(report.metrics), file=out)
    else:
        print(render_slo_report(report), file=out)
        _print_profile_cache_line(cache_snapshot, out)
    return 0


def _print_profile_cache_line(snapshot, out) -> None:
    """The profile memo's traffic since ``snapshot``, a ``(hits, misses)``
    pair taken before this command profiled."""
    from .serve import PROFILE_CACHE

    hits = PROFILE_CACHE.hits - snapshot[0]
    misses = PROFILE_CACHE.misses - snapshot[1]
    lookups = hits + misses
    rate = hits / lookups if lookups else 0.0
    print(
        f"profile cache: {hits} hits / {misses} misses this run "
        f"(hit rate {rate:.0%})", file=out,
    )


#: ``--fault-plan`` name -> Poisson rates per ms at ``--intensity 1``.
_CLUSTER_FAULT_RATES: Dict[str, Dict[str, float]] = {
    "node-crash": {"node_crash": 3.0},
    "slow-node": {"node_slow": 4.0},
    "replica-lag": {"replica_lag": 4.0},
    "storm": {"node_crash": 2.0, "node_slow": 3.0, "replica_lag": 3.0},
}


def _cluster_fault_plan(kind: str, intensity: float, duration_ns: float,
                        n_nodes: int, seed: int):
    """Build the seeded node-fault plan behind ``--fault-plan``."""
    from .faults import FaultPlan

    if kind == "none" or intensity <= 0:
        return None
    rates = {name: rate * intensity
             for name, rate in _CLUSTER_FAULT_RATES[kind].items()}
    return FaultPlan.node_poisson(
        duration_ns=duration_ns, n_nodes=n_nodes,
        rates_per_ms=rates, seed=seed,
    )


def _cmd_cluster(args, out) -> int:
    from .cluster import ClusterSystem
    from .serve import OpenLoopWorkload, default_tenants, profile_workload

    if args.policy not in policy_names():
        raise _UsageError(
            f"repro cluster: unknown scheduler policy {args.policy!r} "
            f"(choose from {', '.join(policy_names())})"
        )
    if args.routing not in routing_names():
        raise _UsageError(
            f"repro cluster: unknown routing policy {args.routing!r} "
            f"(choose from {', '.join(routing_names())})"
        )
    n_nodes, n_requests = args.nodes, args.requests
    n_tenants, n_rows = args.tenants, args.rows
    if args.smoke:
        n_nodes, n_requests = min(n_nodes, 2), min(n_requests, 120)
        n_tenants, n_rows = min(n_tenants, 2), min(n_rows, 128)
    design = design_by_name(args.design)
    tenants = default_tenants(
        n_tenants=n_tenants, n_rows=n_rows, seed=args.seed
    )
    profile = profile_workload(tenants, design=design)
    rate = args.rate or 0.6 * n_nodes * profile.saturation_rate_qps()
    horizon_ns = 1e9 * n_requests / rate
    plan = _cluster_fault_plan(
        args.fault_plan, args.intensity, horizon_ns, n_nodes, args.seed
    )
    system = ClusterSystem(
        profile, n_nodes=n_nodes, replication=args.replication,
        routing=args.routing, policy=args.policy,
        queue_depth=args.queue_depth, design=design, fault_plan=plan,
        failover=not args.no_failover, hedging=not args.no_hedging,
    )
    workload = OpenLoopWorkload(
        tenants, rate_qps=rate, n_requests=n_requests, seed=args.seed
    )
    report = system.run(workload)
    if args.format == "json":
        print(metrics_to_json(report.merged), file=out)
        return 0
    if args.format == "csv":
        print(metrics_to_csv(report.merged), file=out)
        return 0
    print(render_cluster_report(report), file=out)
    # Every answered request must carry the profiling run's golden
    # answer — failover, hedging and CPU degradation change *where* a
    # query runs, never *what* it returns.
    golden = {(spec.name, template): profile.profile(spec.name, template).value
              for spec in tenants for template, _query in spec.templates}
    answered = [r for r in report.records
                if r.state in ("served", "degraded")]
    mismatched = sum(
        1 for r in answered if r.value != golden[(r.tenant, r.template)]
    )
    verdict = ("byte-identical to the fault-free golden answers"
               if not mismatched else f"{mismatched} MISMATCHED answers")
    print(f"answers: {len(answered)} checked, {verdict}", file=out)
    if args.smoke:
        if report.availability <= 0:
            print("smoke FAILED: availability is 0", file=out)
            return 1
        if mismatched:
            print("smoke FAILED: served answers drifted", file=out)
            return 1
        print(f"smoke ok: availability {report.availability:.1%}, "
              f"{report.fault_events} fault events, "
              f"{report.failover_routes} failover routes, "
              f"{report.degraded} degraded serves", file=out)
    return 0


def _cmd_chaos(args, out) -> int:
    from .bench.workloads import make_relation
    from .core.relmem import RelationalMemorySystem
    from .faults import DEFAULT_RECOVERY, NO_RECOVERY, FaultPlan
    from .query.executor import QueryExecutor
    from .query.queries import q1, q2, q4
    from .serve import (
        PROFILE_CACHE,
        OpenLoopWorkload,
        ServingSystem,
        default_tenants,
        profile_workload,
    )

    try:
        fault_rates = [float(r) for r in args.fault_rates.split(",") if r.strip()]
    except ValueError:
        raise _UsageError(f"repro chaos: bad --fault-rates {args.fault_rates!r}")
    n_rows, n_requests, n_rounds = args.rows, args.requests, 4
    if args.smoke:
        n_rows, n_requests, n_rounds = 128, 60, 2
        fault_rates = [0.0, 0.2]
    platform = _platform_from_overrides(args.config)
    design = design_by_name(args.design)

    # -- engine-level chaos: Poisson fault storm through the executor ----------
    table = make_relation(n_rows, seed=args.seed)
    system = RelationalMemorySystem(platform, design)
    executor = QueryExecutor(system)
    loaded = system.load_table(table)
    queries = [("project", q1("A3")),
               ("filter", q2(col="A1", sel_col="A2", k=0)),
               ("sum", q4("A1"))]
    plans = {}
    golden = {}
    for name, query in queries:
        var = system.register_var(
            loaded, list(query.columns()), activate=False,
            allow_noncontiguous=True,
        )
        plans[name] = (query, var)
        golden[name] = executor.run_rme(query, var).value
    injector = system.enable_faults(
        FaultPlan.poisson(
            duration_ns=250_000.0,
            rates_per_ms={"dram_bitflip": 200.0, "buffer_poison": 80.0,
                          "descriptor_corrupt": 80.0, "fetch_hang": 25.0,
                          "axi_stall": 60.0},
            seed=args.seed,
        ),
        DEFAULT_RECOVERY,
    )
    rows_out = []
    for round_idx in range(n_rounds):
        for name, (query, var) in plans.items():
            result = executor.run_rme(query, var)
            rows_out.append([
                str(round_idx), name, result.state,
                "yes" if result.value == golden[name] else "NO",
                f"{result.elapsed_ns:.0f}",
            ])
    print("engine chaos (Poisson fault storm, full recovery stack):", file=out)
    print(render_table(
        ["round", "template", "state", "answer ok", "elapsed ns"], rows_out,
    ), file=out)
    counters = ["fired_total", "rme_faults", "cpu_fallbacks", "crc_catches",
                "silent_corruptions"]
    print("  " + "  ".join(
        f"{name}={injector.stats.count(name)}" for name in counters
    ), file=out)
    print("", file=out)

    # -- serving-level sweep: availability with and without recovery -----------
    tenants = default_tenants(
        n_tenants=args.tenants, n_rows=n_rows, seed=args.seed
    )
    cache_snapshot = (PROFILE_CACHE.hits, PROFILE_CACHE.misses)
    profile = profile_workload(tenants, platform=platform, design=design)
    rate = 0.5 * profile.saturation_rate_qps()
    rows_out = []
    for fault_rate in fault_rates:
        for label, recovery in (("recovery", DEFAULT_RECOVERY),
                                ("no-recovery", NO_RECOVERY)):
            workload = OpenLoopWorkload(
                tenants, rate_qps=rate, n_requests=n_requests, seed=args.seed
            )
            report = ServingSystem(
                profile, fault_rate=fault_rate, recovery=recovery,
                platform=platform, design=design,
            ).run(workload)
            rows_out.append([
                f"{fault_rate:g}", label,
                f"{100 * report.availability:.2f}",
                f"{report.p99_ns:.0f}",
                f"{100 * report.fallback_ratio:.2f}",
                str(report.failed), str(report.breaker_opens),
            ])
    print("serving sweep (same arrival schedule per point):", file=out)
    print(render_table(
        ["fault rate", "policy", "avail %", "p99 ns", "fallback %",
         "failed", "breaker opens"], rows_out,
    ), file=out)
    _print_profile_cache_line(cache_snapshot, out)
    return 0


def _cmd_perf(args, out) -> int:
    import pathlib

    from .bench.wallclock import run_wallclock

    mode = "quick" if args.quick else "full"
    print(f"fast-forward wall-clock benchmark ({mode} mode):", file=out)
    report = run_wallclock(
        quick=args.quick,
        scenarios=args.scenarios,
        min_fig06_speedup=args.min_speedup,
        progress=lambda line: print(f"  {line}", file=out),
        jobs=args.jobs,
    )
    print(report.render(), file=out)
    if args.profile:
        print(report.render_profile(), file=out)
    if args.output != "-":
        path = pathlib.Path(args.output)
        path.write_text(report.to_json() + "\n")
        print(f"wrote {path}", file=out)
    return 0


def _cmd_resources(args, out) -> int:
    design = design_by_name(args.design)
    report = estimate_resources(design)
    print(f"{design.name} on the ZCU102 (XCZU9EG) at {report.freq_mhz:g} MHz:",
          file=out)
    print(render_table(["metric", "value"], report.rows()), file=out)
    return 0


def _cmd_info(_args, out) -> int:
    p = ZCU102
    rows = [
        ["CPUs", f"{p.n_cpus} x Cortex-A53 @ {p.ps_freq_mhz:g} MHz"],
        ["L1-D / L2", f"{p.l1.size // 1024} KB / {p.l2.size // 1024} KB"],
        ["cache line", f"{p.cache_line} B"],
        ["PL clock", f"{p.pl_freq_mhz:g} MHz (max {p.pl_max_freq_mhz:g})"],
        ["PL BRAM", f"{p.bram_bytes / (1024 * 1024):.1f} MB"],
        ["AXI bus", f"{p.axi_bus_bytes} B/beat"],
        ["DRAM", f"{p.dram.n_banks} banks, {p.dram.row_buffer_bytes} B rows, "
                 f"{p.dram.bus_bytes} B beats @ {p.dram.t_beat:g} ns"],
        ["designs", ", ".join(d.name for d in ALL_DESIGNS)],
    ]
    print(render_table(["parameter", "value"], rows), file=out)
    return 0


def _usage_tip(exc: "_UsageError") -> str:
    """Extra pointer for bench/serve mistakes: the IR plan-dump flag.

    The engine list comes from the registry, so new engines show up
    here without touching the CLI.
    """
    if str(exc).startswith(("repro bench", "repro serve")):
        return ("; --explain previews the engine-annotated IR plan "
                f"(engines: {', '.join(engine_names())})")
    return ""


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """The console entry point; returns a process exit code."""
    out = out or sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc} (see 'repro --help'{_usage_tip(exc)})", file=out)
        return 2
    if args.command is None:
        parser.print_help(file=out)
        return 2
    handler = {
        "figures": _cmd_figures,
        "bench": _cmd_bench,
        "query": _cmd_query,
        "serve": _cmd_serve,
        "cluster": _cmd_cluster,
        "chaos": _cmd_chaos,
        "trace": _cmd_trace,
        "stats": _cmd_stats,
        "perf": _cmd_perf,
        "resources": _cmd_resources,
        "info": _cmd_info,
    }[args.command]
    try:
        return handler(args, out)
    except _UsageError as exc:
        print(f"error: {exc} (see 'repro --help'{_usage_tip(exc)})", file=out)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=out)
        return 1
