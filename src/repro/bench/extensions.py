"""Experiment drivers for the implemented extensions.

Like :mod:`repro.bench.figures` for the paper's own evaluation, each
driver here returns a :class:`~repro.bench.runner.FigureResult` for one
of the extension studies (DESIGN.md §8); the ``benchmarks/bench_ext_*``
files run them with assertions, and the CLI exposes them as
``python -m repro bench ext-...``.
"""

from __future__ import annotations

import functools
import random
from typing import Dict, List, Sequence, Tuple

from ..config import PlatformConfig, ZCU102
from ..core.relmem import RelationalMemorySystem
from ..memsys.cpu import ScanSegment
from ..parallel import parallel_map
from ..query.executor import QueryExecutor
from ..query.expr import Col
from ..query.queries import Query, q4
from .runner import FigureResult
from .workloads import (
    make_grouped_relation,
    make_join_tables,
    make_listing1_table,
    make_relation,
)


def _system(platform: PlatformConfig, **kwargs) -> RelationalMemorySystem:
    return RelationalMemorySystem(platform, **kwargs)


def ext_capacity_cliff(
    n_rows: int = 2048,
    platform: PlatformConfig = ZCU102,
) -> FigureResult:
    """Query time vs. reorganization-buffer capacity (windowed mode).

    The projection is fixed; the buffer shrinks below it, forcing more
    window re-initialisations per scan — the regime the paper's 2 MB cap
    avoids.
    """
    table = make_relation(n_rows)
    projected = 4 * n_rows
    fractions = (8, 4, 2, 1)
    xs: List = []
    times: List[float] = []
    windows: List[float] = []
    for divisor in fractions:
        capacity = max(64, projected // divisor)
        system = _system(platform, buffer_capacity=capacity)
        loaded = system.load_table(table)
        var = system.register_var(loaded, ["A1"], windowed=divisor > 1)
        result = QueryExecutor(system).run_rme(q4(), var)
        xs.append(capacity)
        times.append(result.elapsed_ns)
        windows.append(system.rme.n_windows)
    direct_system = _system(platform)
    loaded = direct_system.load_table(make_relation(n_rows, seed=1))
    direct = QueryExecutor(direct_system).run_direct(q4(), loaded).elapsed_ns
    return FigureResult(
        fig_id="Ext: capacity cliff",
        title="Q4 cold through the RME vs. buffer capacity",
        x_label="buffer capacity (B)",
        xs=xs,
        series={
            "RME cold": times,
            "windows": windows,
            "Direct (no cliff)": [direct] * len(xs),
        },
        notes="each halving of the buffer doubles the window count and its "
        "re-initialisation cost",
    )


def ext_pushdown_ladder(
    n_rows: int = 4096,
    k: int = -500_000,
    platform: PlatformConfig = ZCU102,
) -> FigureResult:
    """The data-movement ladder: direct -> projection -> +selection ->
    +aggregation, for ``SELECT SUM(A2) FROM S WHERE A1 < k``."""
    table = make_relation(n_rows)
    system = _system(platform)
    loaded = system.load_table(table)
    executor = QueryExecutor(system)
    query = Query(
        name="ladder", sql=f"SELECT SUM(A2) FROM S WHERE A1 < {k}",
        select=(), aggregate="sum", agg_expr=Col("A2"),
        predicate=Col("A1") < k,
    )
    direct = executor.run_direct(query, loaded)

    view = system.register_var(loaded, ["A1", "A2"])
    system.warm_up(view)
    system.flush_caches()
    projected = executor.run_rme(query, view)

    fview = system.register_filtered_var(loaded, ["A1", "A2"], "A1", "<", k)
    system.warm_up(fview)
    system.flush_caches()
    selected = executor.run_rme_pushdown(query, fview)

    agg = system.register_hw_aggregate(loaded, "A2", "sum",
                                       predicate_column="A1", op="<",
                                       constant=k)
    system.warm_up(agg)
    system.flush_caches()
    aggregated = executor.run_rme_hw_aggregate(agg)
    assert direct.value == projected.value == selected.value == aggregated.value

    group_bytes = 8
    matched = direct.selectivity * n_rows
    return FigureResult(
        fig_id="Ext: pushdown ladder",
        title=query.sql + "  (hot engine state per rung)",
        x_label="strategy",
        xs=["direct rows", "PL projection", "+ PL selection", "+ PL aggregation"],
        series={
            "time (ns)": [direct.elapsed_ns, projected.elapsed_ns,
                          selected.elapsed_ns, aggregated.elapsed_ns],
            "bytes toward CPU": [64 * n_rows, group_bytes * n_rows,
                                 round(matched * group_bytes), 64],
        },
        notes="each operator pushed into the engine removes another slice "
        "of data movement",
    )


def ext_hybrid_crossover(
    n_rows: int = 2048,
    platform: PlatformConfig = ZCU102,
) -> FigureResult:
    """Index probe vs. RME scan vs. direct scan across selectivities."""
    cuts = (-999_000, -990_000, -900_000, -500_000, 500_000)
    table = make_relation(n_rows)
    system = _system(platform)
    loaded = system.load_table(table)
    system.load_index(loaded, "A1")
    var = system.register_var(loaded, ["A1", "A2"])
    executor = QueryExecutor(system)
    xs: List[float] = []
    series: Dict[str, List[float]] = {"Index": [], "Direct": [], "RME hot": []}
    for cut in cuts:
        query = Query(
            name=f"cut{cut}", sql=f"SELECT SUM(A2) FROM S WHERE A1 < {cut}",
            select=(), aggregate="sum", agg_expr=Col("A2"),
            predicate=Col("A1") < cut,
        )
        via_index = executor.run_index(query, loaded)
        xs.append(round(via_index.selectivity, 4))
        series["Index"].append(via_index.elapsed_ns)
        series["Direct"].append(executor.run_direct(query, loaded).elapsed_ns)
        system.warm_up(var)
        system.flush_caches()
        series["RME hot"].append(executor.run_rme(query, var).elapsed_ns)
    return FigureResult(
        fig_id="Ext: hybrid crossover",
        title="SUM(A2) WHERE A1 < k across access paths",
        x_label="selectivity",
        xs=xs,
        series=series,
        notes="the optimizer alternates at the crossing (Section 4's "
        "execution strategies)",
    )


def ext_isolation(
    n_rows: int = 2048,
    platform: PlatformConfig = ZCU102,
) -> FigureResult:
    """An OLTP core's latency beside an analytics neighbour (2 cores)."""
    def oltp_latency(mode: str) -> float:
        system = _system(platform, n_cores=2)
        oltp = system.load_table(make_relation(1024, seed=1, name="oltp"))
        olap = system.load_table(make_relation(2 * n_rows, seed=2, name="olap"))
        rng = random.Random(3)
        points = [(oltp.base_addr + rng.randrange(1024) * 64, 8)
                  for _ in range(800)]
        system.measure_points(points[:400])
        if mode == "direct":
            analytics = [ScanSegment(olap.base_addr, 2 * n_rows, 4, 64, 0.7)]
        elif mode == "rme":
            analytics = system.register_var(olap, ["A1"]).scan_segment(0.7)
        else:
            analytics = []
        workloads = [points[400:]] + ([analytics] if analytics else [])
        return system.measure_parallel(workloads)[0]

    modes = ["alone", "direct", "rme"]
    times = [oltp_latency(mode) for mode in modes]
    return FigureResult(
        fig_id="Ext: HTAP isolation",
        title="OLTP core completion time vs. the analytics neighbour",
        x_label="analytics neighbour",
        xs=modes,
        series={
            "OLTP ns": times,
            "slowdown %": [round((t / times[0] - 1) * 100, 1) for t in times],
        },
        notes="RME-routed analytics pollute the shared L2 and DRAM bus far "
        "less than a direct row scan",
    )


def ext_noncontiguous_tradeoff(
    n_rows: int = 2048,
    platform: PlatformConfig = ZCU102,
) -> FigureResult:
    """Listing 2's group: covering-run workaround vs. native multi-run."""
    query = Query(
        name="listing3",
        sql="SELECT SUM(num_fld1 * num_fld4) FROM the_table WHERE num_fld3 > 10",
        select=(), aggregate="sum",
        agg_expr=Col("num_fld1") * Col("num_fld4"),
        predicate=Col("num_fld3") > 10,
    )
    xs = ["covering run (32B)", "multi-run (24B)"]
    cold: List[float] = []
    hot: List[float] = []
    for columns, gaps in (
        (["num_fld1", "num_fld2", "num_fld3", "num_fld4"], False),
        (["num_fld1", "num_fld3", "num_fld4"], True),
    ):
        system = _system(platform)
        loaded = system.load_table(make_listing1_table(n_rows))
        var = system.register_var(loaded, columns, allow_noncontiguous=gaps)
        executor = QueryExecutor(system)
        cold.append(executor.run_rme(query, var).elapsed_ns)
        hot.append(executor.run_rme(query, var).elapsed_ns)
    return FigureResult(
        fig_id="Ext: non-contiguous groups",
        title=query.sql,
        x_label="group layout",
        xs=xs,
        series={"cold (ns)": cold, "hot (ns)": hot},
        notes="exact groups move fewer bytes hot; gaps cost one extra "
        "descriptor per row cold",
    )


#: Value bound of 4-byte columns in :func:`make_relation` (±bound).
_PIM_BOUND = 1_000_000


def _ext_pim_point(
    point: Tuple[float, int],
    n_rows: int,
    seed: int,
    platform: PlatformConfig,
) -> Tuple[float, float, float, float]:
    """One (selectivity, width) shootout cell: time the same query on the
    CPU row scan, the RME (cold) and the bank-level PIM engine.

    Each engine gets a fresh system over the identical generated
    relation; the three answers must be byte-identical (asserted here,
    and again with crossover checks in ``benchmarks/bench_ext_pim.py``).
    Returns ``(cpu_ns, rme_ns, pim_ns, measured_selectivity)``.
    """
    from ..pim import BankPIM

    target_sel, width = point
    columns = tuple(f"A{i}" for i in range(1, width + 1))
    # A1 ~ U(-bound, bound): the threshold that keeps `target_sel` rows.
    threshold = int(round(-_PIM_BOUND + target_sel * 2 * _PIM_BOUND))
    query = Query(
        name=f"pim_s{target_sel:g}_w{width}",
        sql=f"SELECT {','.join(columns)} FROM s WHERE A1 < {threshold}",
        select=columns,
        predicate=Col("A1") < threshold,
    )

    def fresh():
        system = _system(platform)
        return system, system.load_table(make_relation(n_rows, seed=seed))

    system, loaded = fresh()
    cpu = QueryExecutor(system).run_direct(query, loaded)

    system, loaded = fresh()
    var = system.register_var(loaded, list(query.columns()),
                              allow_noncontiguous=True)
    rme = QueryExecutor(system).run_rme(query, var)

    system, loaded = fresh()
    pim = BankPIM(system).run(query, loaded)

    if not (cpu.value == rme.value == pim.value):
        raise AssertionError(
            f"engine answers diverge at sel={target_sel} width={width}"
        )
    return (cpu.elapsed_ns, rme.elapsed_ns, pim.elapsed_ns, cpu.selectivity)


def ext_pim_shootout(
    n_rows: int = 1024,
    selectivities: Sequence[float] = (0.001, 0.01, 0.1, 0.5, 1.0),
    widths: Sequence[int] = (1, 4, 8, 16),
    seed: int = 42,
    platform: PlatformConfig = ZCU102,
    jobs: int = 1,
    smoke: bool = False,
) -> FigureResult:
    """RME vs PIM vs CPU over selectivity × projectivity (group width).

    The paper's Figure 6 axes, with the bank-level PIM engine as the
    third contender: ``SELECT A1..Aw FROM s WHERE A1 < k`` sweeps the
    predicate threshold (selectivity) against the projected column-group
    width (projectivity = ``w/16`` of the row). The PIM engine filters
    at the banks and point-gathers survivors, so it wins when few rows
    survive and loses when the gather approaches a full-table copy;
    every cell asserts the three engines' answers byte-identical.

    ``smoke`` shrinks the grid to a CI-sized 2×2 at 256 rows.
    """
    if smoke:
        n_rows = min(n_rows, 256)
        selectivities = (0.01, 1.0)
        widths = (1, 8)
    points = [(sel, width) for width in widths for sel in selectivities]
    measured = parallel_map(
        functools.partial(_ext_pim_point, n_rows=n_rows, seed=seed,
                          platform=platform),
        points,
        jobs=jobs,
    )
    series: Dict[str, List[float]] = {}
    for (_, width), (cpu_ns, rme_ns, pim_ns, _sel) in zip(points, measured):
        series.setdefault(f"CPU w={width}", []).append(cpu_ns)
        series.setdefault(f"RME w={width}", []).append(rme_ns)
        series.setdefault(f"PIM w={width}", []).append(pim_ns)
    return FigureResult(
        fig_id="Ext: PIM shootout",
        title=f"RME vs PIM vs CPU, {n_rows} rows "
              "(selectivity x column-group width)",
        x_label="selectivity",
        xs=list(selectivities),
        series=series,
        y_label="scan time (ns)",
        notes="answers asserted byte-identical across engines at every "
              "cell; projectivity = width/16 of the row",
    )


def _ext_pim_join_point(
    target_sel: float,
    n_fact: int,
    seed: int,
    platform: PlatformConfig,
) -> Tuple[float, float, float]:
    """One join shootout cell: the same dim⋈fact equi-join on the CPU
    hash join and the in-bank PIM join, answers asserted byte-identical.
    Returns ``(cpu_ns, pim_ns, measured_selectivity)``.
    """
    from ..query.engines import CPU, PIM
    from ..query.processor import Processor

    threshold = int(round(-_PIM_BOUND + target_sel * 2 * _PIM_BOUND))
    lhs = Query(name="dim", sql="SELECT K, D1 FROM D", select=("K", "D1"))
    rhs = Query(
        name="fact",
        sql=f"SELECT K, A1 FROM F WHERE F1 < {threshold}",
        select=("K", "A1"),
        predicate=Col("F1") < threshold,
    )
    dim, fact = make_join_tables(n_fact, seed=seed)
    results = {}
    for engine in (CPU, PIM):
        system = _system(platform)
        ld, lf = system.load_table(dim), system.load_table(fact)
        processor = Processor(system)
        plan = processor.plan_join("K", lhs, ld, rhs, lf, engine=engine)
        results[engine.name] = processor.execute(plan.relation)
    if results["cpu"].value != results["pim"].value:
        raise AssertionError(f"join answers diverge at sel={target_sel}")
    return (results["cpu"].elapsed_ns, results["pim"].elapsed_ns,
            results["cpu"].selectivity)


def ext_pim_join_shootout(
    n_fact: int = 4096,
    selectivities: Sequence[float] = (0.001, 0.01, 0.1, 0.5, 1.0),
    seed: int = 42,
    platform: PlatformConfig = ZCU102,
    jobs: int = 1,
    smoke: bool = False,
) -> FigureResult:
    """CPU hash join vs in-bank PIM join over probe-side selectivity.

    ``D(K, D1) ⋈ σ[F1 < k](F(K, A1, F1))`` on ``K``: the dimension side
    builds per-bank hash tables, the filtered fact side probes them, and
    only matched row-id pairs cross the AXI boundary before the CPU
    gathers the joined rows. PIM wins when few probe rows survive;
    streaming both tables through the CPU wins when most do. Answers are
    asserted byte-identical at every cell.

    ``smoke`` shrinks the sweep to two CI-sized cells at 512 fact rows.
    """
    if smoke:
        n_fact = min(n_fact, 512)
        selectivities = (0.01, 1.0)
    measured = parallel_map(
        functools.partial(_ext_pim_join_point, n_fact=n_fact, seed=seed,
                          platform=platform),
        list(selectivities),
        jobs=jobs,
    )
    series: Dict[str, List[float]] = {"CPU join": [], "PIM join": []}
    for cpu_ns, pim_ns, _sel in measured:
        series["CPU join"].append(cpu_ns)
        series["PIM join"].append(pim_ns)
    return FigureResult(
        fig_id="Ext: PIM join shootout",
        title=f"dim⋈fact on K, {n_fact} fact rows "
              "(probe-side selectivity sweep)",
        x_label="probe-side selectivity",
        xs=list(selectivities),
        series=series,
        y_label="join time (ns)",
        notes="answers asserted byte-identical across engines at every "
              "cell; the dimension side builds, the fact side probes",
    )


def _ext_pim_group_point(
    target_sel: float,
    n_rows: int,
    n_groups: int,
    seed: int,
    platform: PlatformConfig,
) -> Tuple[float, float, float, float]:
    """One GROUP BY shootout cell: grouped SUM on the CPU scan, the RME
    (cold) and the PIM engine's in-bank group fold; the three answers
    (dicts, order included) are asserted identical. Returns
    ``(cpu_ns, rme_ns, pim_ns, measured_selectivity)``.
    """
    from ..pim import BankPIM

    threshold = int(round(-_PIM_BOUND + target_sel * 2 * _PIM_BOUND))
    query = Query(
        name=f"pim_g{target_sel:g}",
        sql=f"SELECT SUM(A1) FROM g WHERE F1 < {threshold} GROUP BY G",
        select=(),
        aggregate="sum",
        agg_expr=Col("A1"),
        predicate=Col("F1") < threshold,
        group_by="G",
    )

    def fresh():
        system = _system(platform)
        return system, system.load_table(
            make_grouped_relation(n_rows, n_groups, seed=seed)
        )

    system, loaded = fresh()
    cpu = QueryExecutor(system).run_direct(query, loaded)

    system, loaded = fresh()
    var = system.register_var(loaded, list(query.columns()),
                              allow_noncontiguous=True)
    rme = QueryExecutor(system).run_rme(query, var)

    system, loaded = fresh()
    pim = BankPIM(system).run(query, loaded)

    if not (repr(cpu.value) == repr(rme.value) == repr(pim.value)):
        raise AssertionError(
            f"grouped answers diverge at sel={target_sel}"
        )
    return (cpu.elapsed_ns, rme.elapsed_ns, pim.elapsed_ns, cpu.selectivity)


def ext_pim_groupby_shootout(
    n_rows: int = 4096,
    selectivities: Sequence[float] = (0.001, 0.01, 0.1, 0.5, 1.0),
    n_groups: int = 32,
    seed: int = 42,
    platform: PlatformConfig = ZCU102,
    jobs: int = 1,
    smoke: bool = False,
) -> FigureResult:
    """CPU vs RME vs PIM for grouped aggregation over selectivity.

    ``SELECT SUM(A1) FROM g WHERE F1 < k GROUP BY G``: each bank folds
    matching rows into a local key→state table, and only the per-bank
    partial entries cross the ``Transfer[pim → cpu]`` boundary to be
    merged — so unlike the projection shootout, PIM's readout grows with
    the distinct-group count, not the match count. Answers (dicts, order
    included) are asserted identical at every cell.

    ``smoke`` shrinks the sweep to two CI-sized cells at 512 rows.
    """
    if smoke:
        n_rows = min(n_rows, 512)
        selectivities = (0.01, 1.0)
    measured = parallel_map(
        functools.partial(_ext_pim_group_point, n_rows=n_rows,
                          n_groups=n_groups, seed=seed, platform=platform),
        list(selectivities),
        jobs=jobs,
    )
    series: Dict[str, List[float]] = {"CPU group-by": [], "RME group-by": [],
                                      "PIM group-by": []}
    for cpu_ns, rme_ns, pim_ns, _sel in measured:
        series["CPU group-by"].append(cpu_ns)
        series["RME group-by"].append(rme_ns)
        series["PIM group-by"].append(pim_ns)
    return FigureResult(
        fig_id="Ext: PIM group-by shootout",
        title=f"grouped SUM, {n_rows} rows, {n_groups} groups "
              "(selectivity sweep)",
        x_label="selectivity",
        xs=list(selectivities),
        series=series,
        y_label="query time (ns)",
        notes="answers asserted identical (values and order) across "
              "engines at every cell; PIM ships per-bank partial group "
              "tables, not matched rows",
    )


def _ext_serving_point(
    point: Tuple[float, str],
    tenants: tuple,
    profile,
    n_requests: int,
    queue_depth: int,
    seed: int,
    platform: PlatformConfig,
) -> Tuple[float, float]:
    """One (load factor, port policy) serving run: ``(p99_ns, shed %)``.

    The arrival schedule is rebuilt from the same seed in every shard,
    so each policy at each load factor replays the identical Poisson
    stream no matter which process serves it.
    """
    from ..serve import OpenLoopWorkload, ServingSystem

    factor, policy = point
    workload = OpenLoopWorkload(
        tenants, rate_qps=factor * profile.saturation_rate_qps(),
        n_requests=n_requests, seed=seed,
    )
    report = ServingSystem(
        profile, policy=policy, queue_depth=queue_depth, platform=platform,
    ).run(workload)
    return (report.p99_ns, round(100 * report.shed_rate, 1))


def ext_serving_sweep(
    n_rows: int = 512,
    n_requests: int = 300,
    n_tenants: int = 3,
    queue_depth: int = 48,
    seed: int = 7,
    platform: PlatformConfig = ZCU102,
    jobs: int = 1,
) -> FigureResult:
    """Tail latency vs. offered load under each configuration-port policy.

    A Poisson stream over ``n_tenants`` tenants is replayed at fractions
    of the single-port saturation rate (mean cold service time inverted);
    each policy serves the *same* arrival schedule, so the series differ
    only in how the port is scheduled. Past saturation, single-port FCFS
    thrashes the descriptor (every request pays reconfiguration), while
    context switching batches same-descriptor work and a second port
    absorbs the contention outright.

    Profiling always runs in this process (its cost is shared across
    every point); ``jobs`` shards the (load factor, policy) serving runs.
    """
    from ..serve import default_tenants, profile_workload

    tenants = default_tenants(n_tenants=n_tenants, n_rows=n_rows, seed=seed)
    profile = profile_workload(tenants, platform=platform)
    saturation = profile.saturation_rate_qps()
    load_factors = (0.3, 0.7, 1.0, 1.3)
    policies = ("fcfs", "ctx-switch", "multi-port")
    points = [(factor, policy)
              for factor in load_factors for policy in policies]
    measured = parallel_map(
        functools.partial(
            _ext_serving_point, tenants=tuple(tenants), profile=profile,
            n_requests=n_requests, queue_depth=queue_depth, seed=seed,
            platform=platform,
        ),
        points,
        jobs=jobs,
    )
    p99: Dict[str, List[float]] = {p: [] for p in policies}
    shed: Dict[str, List[float]] = {p: [] for p in policies}
    for (factor, policy), (point_p99, point_shed) in zip(points, measured):
        p99[policy].append(point_p99)
        shed[policy].append(point_shed)
    series: Dict[str, List[float]] = {
        f"{policy} p99 ns": p99[policy] for policy in policies
    }
    series.update({f"{policy} shed %": shed[policy] for policy in policies})
    return FigureResult(
        fig_id="Ext: serving sweep",
        title="p99 latency and shed rate vs. offered load "
              f"(saturation = {saturation:,.0f} qps)",
        x_label="load (x saturation)",
        xs=list(load_factors),
        series=series,
        y_label="p99 latency (ns) / shed (%)",
        notes="same Poisson schedule per point; policies differ only in "
        "configuration-port scheduling",
    )


def _ext_faults_point(
    point: Tuple[float, bool],
    tenants: tuple,
    profile,
    rate_qps: float,
    n_requests: int,
    seed: int,
    platform: PlatformConfig,
) -> Dict[str, float]:
    """One (fault rate, recovery on/off) serving run's headline numbers."""
    from ..faults import NO_RECOVERY
    from ..serve import OpenLoopWorkload, ServingSystem

    fault_rate, with_recovery = point
    workload = OpenLoopWorkload(
        tenants, rate_qps=rate_qps, n_requests=n_requests, seed=seed
    )
    kwargs = {} if with_recovery else {"recovery": NO_RECOVERY}
    report = ServingSystem(
        profile, fault_rate=fault_rate, platform=platform, **kwargs
    ).run(workload)
    return {
        "availability": round(100 * report.availability, 2),
        "p99_ns": report.p99_ns,
        "fallback": round(100 * report.fallback_ratio, 2),
    }


def ext_faults_sweep(
    n_rows: int = 512,
    n_requests: int = 250,
    n_tenants: int = 2,
    seed: int = 7,
    fault_rates: Sequence[float] = (0.0, 0.05, 0.15, 0.3),
    platform: PlatformConfig = ZCU102,
    jobs: int = 1,
) -> FigureResult:
    """Availability and tail latency vs. hardware fault rate.

    The same Poisson arrival schedule is served twice per fault rate:
    once with the full recovery stack (retries, per-tenant circuit
    breakers, CPU row-scan fallback) and once with recovery disabled
    (every struck request is lost). Recovery holds availability at the
    cost of tail latency — the degraded requests pay the base-table
    re-scan — while the no-recovery engine sheds availability linearly
    with the fault rate.
    """
    from ..serve import default_tenants, profile_workload

    tenants = default_tenants(n_tenants=n_tenants, n_rows=n_rows, seed=seed)
    profile = profile_workload(tenants, platform=platform)
    rate = 0.5 * profile.saturation_rate_qps()
    points = [(fault_rate, with_recovery)
              for fault_rate in fault_rates
              for with_recovery in (True, False)]
    measured = parallel_map(
        functools.partial(
            _ext_faults_point, tenants=tuple(tenants), profile=profile,
            rate_qps=rate, n_requests=n_requests, seed=seed,
            platform=platform,
        ),
        points,
        jobs=jobs,
    )
    series: Dict[str, List[float]] = {
        "recovery avail %": [], "no-recovery avail %": [],
        "recovery p99 ns": [], "no-recovery p99 ns": [],
        "recovery fallback %": [],
    }
    for (fault_rate, with_recovery), point in zip(points, measured):
        if with_recovery:
            series["recovery avail %"].append(point["availability"])
            series["recovery p99 ns"].append(point["p99_ns"])
            series["recovery fallback %"].append(point["fallback"])
        else:
            series["no-recovery avail %"].append(point["availability"])
            series["no-recovery p99 ns"].append(point["p99_ns"])
    return FigureResult(
        fig_id="Ext: fault sweep",
        title="availability and p99 vs. fault rate, with and without recovery",
        x_label="per-attempt fault probability",
        xs=list(fault_rates),
        series=series,
        y_label="availability (%) / p99 (ns)",
        notes="same Poisson schedule per point; recovery = retries + "
        "circuit breakers + CPU row-scan fallback",
    )


def _ext_cluster_point(
    point: Tuple[float, int, str, bool],
    tenants: tuple,
    profile,
    n_requests: int,
    seed: int,
    platform: PlatformConfig,
) -> Dict[str, float]:
    """One (intensity, nodes, routing, failover) cluster run's numbers."""
    from ..cluster import ClusterSystem
    from ..faults import FaultPlan, RecoveryPolicy
    from ..serve import OpenLoopWorkload

    intensity, n_nodes, routing, failover = point
    rate = 0.6 * n_nodes * profile.saturation_rate_qps()
    plan = None
    if intensity > 0:
        plan = FaultPlan.node_poisson(
            duration_ns=1e9 * n_requests / rate, n_nodes=n_nodes,
            rates_per_ms={"node_crash": 3.0 * intensity}, seed=seed,
        )
    kwargs = {}
    if not failover:
        # The baseline must not mask lost nodes behind the CPU replica:
        # requests pinned to a crashed primary are simply lost.
        kwargs["recovery"] = RecoveryPolicy(cpu_fallback=False)
    cluster = ClusterSystem(
        profile, n_nodes=n_nodes, routing=routing, platform=platform,
        fault_plan=plan, failover=failover, hedging=failover, **kwargs,
    )
    workload = OpenLoopWorkload(
        tenants, rate_qps=rate, n_requests=n_requests, seed=seed
    )
    report = cluster.run(workload)
    golden = {(spec.name, template): profile.profile(spec.name, template).value
              for spec in tenants for template, _query in spec.templates}
    mismatched = sum(
        1 for r in report.records if r.state in ("served", "degraded")
        and r.value != golden[(r.tenant, r.template)]
    )
    return {
        "availability": round(100 * report.availability, 2),
        "p99_ns": report.p99_ns,
        "failover_routes": float(report.failover_routes),
        "fault_events": float(report.fault_events),
        "mismatched": float(mismatched),
    }


def ext_cluster_sweep(
    n_rows: int = 512,
    n_requests: int = 160,
    n_tenants: int = 3,
    seed: int = 7,
    intensities: Sequence[float] = (0.0, 0.5, 1.0),
    platform: PlatformConfig = ZCU102,
    jobs: int = 1,
    smoke: bool = False,
) -> FigureResult:
    """Cluster availability and tail latency vs. node-crash intensity.

    Each x is a node-crash Poisson intensity; every cluster
    configuration serves the *same* arrival schedule under the same
    seeded fault plan. The failover-enabled configurations (both
    routing policies, two cluster sizes) hold availability as crashes
    intensify — rerouting to replicas and degrading to the CPU
    row-scan replica — while the no-failover baseline, pinned to each
    shard's primary, loses every request that lands on a dead node.
    Served answers stay byte-identical to the fault-free golden values
    throughout; the ``mismatched answers`` note proves it per sweep.
    """
    from ..serve import default_tenants, profile_workload

    if smoke:
        n_rows, n_requests, n_tenants = 128, 80, 2
        intensities = (0.0, 1.0)
    tenants = default_tenants(n_tenants=n_tenants, n_rows=n_rows, seed=seed)
    profile = profile_workload(tenants, platform=platform)
    configs = [
        ("3n hash", 3, "consistent-hash", True),
        ("3n range", 3, "range", True),
        ("2n hash", 2, "consistent-hash", True),
        ("no-failover", 3, "consistent-hash", False),
    ]
    if smoke:
        configs = [c for c in configs if c[0] in ("3n hash", "no-failover")]
    points = [(intensity, nodes, routing, failover)
              for intensity in intensities
              for _label, nodes, routing, failover in configs]
    measured = parallel_map(
        functools.partial(
            _ext_cluster_point, tenants=tuple(tenants), profile=profile,
            n_requests=n_requests, seed=seed, platform=platform,
        ),
        points,
        jobs=jobs,
    )
    labels = [label for label, _n, _r, _f in configs]
    series: Dict[str, List[float]] = {
        f"{label} avail %": [] for label in labels
    }
    series.update({"3n hash p99 ns": [], "no-failover p99 ns": [],
                   "3n hash failovers": []})
    mismatched = 0.0
    for point, result in zip(points, measured):
        intensity, nodes, routing, failover = point
        label = next(l for l, n, r, f in configs
                     if (n, r, f) == (nodes, routing, failover))
        series[f"{label} avail %"].append(result["availability"])
        if label == "3n hash":
            series["3n hash p99 ns"].append(result["p99_ns"])
            series["3n hash failovers"].append(result["failover_routes"])
        elif label == "no-failover":
            series["no-failover p99 ns"].append(result["p99_ns"])
        mismatched += result["mismatched"]
    return FigureResult(
        fig_id="Ext: cluster sweep",
        title="cluster availability and p99 vs. node-crash intensity "
              f"({n_tenants} tenants, same schedule per point)",
        x_label="node-crash intensity",
        xs=list(intensities),
        series=series,
        y_label="availability (%) / p99 (ns)",
        notes="failover reroutes to replicas and degrades to the CPU "
        "row-scan replica; no-failover pins requests to each shard's "
        f"primary ({int(mismatched)} mismatched answers across the sweep)",
    )
