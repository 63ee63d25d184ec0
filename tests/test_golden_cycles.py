"""Golden cycle-count fixtures: the simulator's timing is contractual.

The JSON files under ``tests/golden/`` pin the exact simulated series of
three representative figures at small scales. Every scenario is computed
twice — cycle-level and with the fast-forward replay enabled — and both
must reproduce the stored numbers bit-for-bit. A diff here means the
simulated timing semantics changed: either fix the regression or, if the
change is an intentional model revision, regenerate the fixtures with

    PYTHONPATH=src python -m tests.test_golden_cycles --regenerate

and explain the timing change in the commit message.
"""

import dataclasses
import json
import random
import sys
import zlib
from pathlib import Path

import pytest

from repro.bench.figures import (
    fig01_projectivity,
    fig06_q1_designs,
    fig08_offset_sweep,
)
from repro.config import ZCU102
from repro.storage.row_table import RowTable
from repro.storage.schema import Column, Schema, int32, uniform_schema

GOLDEN_DIR = Path(__file__).parent / "golden"
FASTPATH = dataclasses.replace(ZCU102, fastpath=True)
CYCLE_LEVEL = dataclasses.replace(ZCU102, fastpath=False)


def _jsonable(value):
    """Row tuples -> lists, so snapshots survive a JSON round-trip."""
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def _windowed_epoch(platform):
    """A window-switching projection: the buffer holds a quarter of the
    projected column, so the scan crosses several reorganization windows
    (the replay with a nonzero write bias)."""
    from repro import QueryExecutor, RelationalMemorySystem
    from repro.query.queries import q1
    from repro.rme.designs import MLP
    from tests.conftest import build_relation

    table = build_relation(n_rows=512)
    system = RelationalMemorySystem(platform, MLP, buffer_capacity=512)
    loaded = system.load_table(table)
    var = system.register_var(loaded, ["A1"], windowed=True)
    result = QueryExecutor(system).run_rme(q1("A1"), var)
    return {
        "xs": ["elapsed_ns", "value", "windows", "window_switches"],
        "series": {
            "windowed_q1": [
                result.elapsed_ns, _jsonable(result.value),
                system.rme.n_windows,
                system.rme.stats.count("window_switches"),
            ],
        },
    }


def _multirun_epoch(platform):
    """A non-contiguous two-column projection: per-row run descriptors
    with distinct burst lengths (the multirun geometry extension)."""
    from repro import QueryExecutor, RelationalMemorySystem
    from repro.query.queries import q2
    from repro.rme.designs import MLP
    from tests.conftest import build_relation

    table = build_relation(n_rows=512)
    system = RelationalMemorySystem(platform, MLP)
    loaded = system.load_table(table)
    var = system.register_var(loaded, ["A1", "A3"],
                              allow_noncontiguous=True)
    result = QueryExecutor(system).run_rme(q2("A1", "A3"), var)
    return {
        "xs": ["elapsed_ns", "value"],
        "series": {"multirun_q2": [result.elapsed_ns,
                                   _jsonable(result.value)]},
    }


def _fault_counters(system, injector) -> list:
    """Every injector counter plus the engine's recovery counters."""
    counters = sorted((name, c.count) for name, c in injector.stats)
    for name in ("watchdog_fires", "fetch_restarts", "session_failures"):
        counters.append((name, system.rme.stats.count(name)))
    counters.append(("poisoned_retries",
                     system.rme.fetch_pool.stats.count("poisoned_retries")))
    return counters


def _rme_fingerprints(platform, series):
    """q4 through the RME (and the CPU load path) under retry budgets."""
    from repro import QueryExecutor, RelationalMemorySystem
    from repro.errors import FaultError
    from repro.faults import NO_RECOVERY, FaultEvent, FaultPlan, RecoveryPolicy
    from repro.query.queries import q4
    from tests.conftest import build_relation

    plans = {
        "dram_bitflip": lambda: FaultPlan.single(
            "dram_bitflip", 0.0, severity=2),
        "fetch_hang": lambda: FaultPlan.single(
            "fetch_hang", 0.0, duration_ns=500_000.0),
        "dram_bitflip_x3": lambda: FaultPlan(events=tuple(
            FaultEvent("dram_bitflip", 0.0, severity=2) for _ in range(3))),
    }
    policies = {f"retries{n}": RecoveryPolicy(max_retries=n)
                for n in (0, 1, 3)}
    policies["none"] = NO_RECOVERY
    table = build_relation(n_rows=192)
    for plan_name, plan in plans.items():
        for policy_name, policy in policies.items():
            for path in ("rme", "direct"):
                system = RelationalMemorySystem(platform)
                loaded = system.load_table(table)
                var = system.register_var(loaded, ["A1"])
                injector = system.enable_faults(plan(), policy)
                executor = QueryExecutor(system)
                try:
                    if path == "rme":
                        result = executor.run_rme(q4(), var)
                    else:
                        result = executor.run_direct(q4(), loaded)
                    outcome = (result.value, result.elapsed_ns, result.state)
                except FaultError as error:
                    outcome = (type(error).__name__, system.sim.now)
                series[f"rme/{path}/{plan_name}/{policy_name}"] = repr(
                    (outcome, _fault_counters(system, injector))
                )


def _recovery_fingerprints(platform):
    """``repr``-exact report fingerprints of serving, cluster and RME runs
    under injected faults and several retry budgets: a refactor of the
    retry, breaker or fallback paths must not move a single backoff."""
    from repro.cluster import ClusterSystem
    from repro.faults import (
        DEFAULT_RECOVERY,
        NO_RECOVERY,
        FaultEvent,
        FaultPlan,
        RecoveryPolicy,
    )
    from repro.serve import (
        ClosedLoopWorkload,
        OpenLoopWorkload,
        ServingSystem,
        default_tenants,
        profile_workload,
    )
    from repro.serve.scheduler import POLICIES

    series = {}
    tenants = default_tenants(n_tenants=2, n_rows=128, seed=7)
    profile = profile_workload(tenants, platform=platform)
    saturation = profile.saturation_rate_qps()
    tight = RecoveryPolicy(max_retries=1, breaker_threshold=2,
                           breaker_cooldown_ns=50_000.0)
    serve_settings = {
        "clean": (0.0, DEFAULT_RECOVERY),
        "default": (0.25, DEFAULT_RECOVERY),
        "none": (0.25, NO_RECOVERY),
        "tight": (0.25, tight),
    }
    for policy in POLICIES:
        for name, (fault_rate, recovery) in serve_settings.items():
            workload = OpenLoopWorkload(
                tenants, rate_qps=1.1 * saturation, n_requests=120, seed=11,
            )
            report = ServingSystem(
                profile, policy=policy, queue_depth=16,
                fault_rate=fault_rate, recovery=recovery,
            ).run(workload)
            series[f"serve/{policy}/{name}"] = repr(report.fingerprint())
    for name in ("clean", "default"):
        fault_rate, recovery = serve_settings[name]
        workload = ClosedLoopWorkload(tenants, n_clients=3, n_requests=60,
                                      think_ns=20_000.0, seed=5)
        report = ServingSystem(
            profile, policy="ctx-switch", fault_rate=fault_rate,
            recovery=recovery,
        ).run(workload)
        series[f"serve/closed/{name}"] = repr(report.fingerprint())

    n_requests = 100
    rate = 0.6 * 2 * saturation
    span_ns = 1e9 * n_requests / rate
    plans = {
        "crash": FaultPlan.node_poisson(
            duration_ns=span_ns, n_nodes=2,
            rates_per_ms={"node_crash": 3.0}, seed=7,
        ),
        "slow": FaultPlan(events=(
            FaultEvent(kind="node_slow", at_ns=5_000.0, target=0,
                       severity=7, duration_ns=3_000_000.0),
        )),
        "lag": FaultPlan(events=(
            FaultEvent(kind="replica_lag", at_ns=10_000.0, target=1,
                       duration_ns=400_000.0),
        )),
    }
    cluster_settings = {
        f"{plan}/{'failover' if failover else 'pinned'}":
            (plan, {"failover": failover})
        for plan in plans for failover in (True, False)
    }
    cluster_settings.update({
        "crash/failover/none": ("crash", {"recovery": NO_RECOVERY}),
        "crash/failover/range": ("crash", {"routing": "range"}),
        # A breaker that never opens keeps the slow node a hedge target.
        "slow/failover/hedged": (
            "slow", {"recovery": RecoveryPolicy(breaker_threshold=100)}),
    })
    for label, (plan, kwargs) in cluster_settings.items():
        report = ClusterSystem(
            profile, n_nodes=2, fault_plan=plans[plan], hedge_min_samples=4,
            **kwargs,
        ).run(OpenLoopWorkload(tenants, rate_qps=rate,
                               n_requests=n_requests, seed=7))
        series[f"cluster/{label}"] = repr(report.fingerprint())

    _rme_fingerprints(platform, series)
    return {"xs": ["repr(fingerprint)"], "series": series}


def _serve_run_pins(report) -> dict:
    """A run's schedule, snapshot and gauge update counts, as CRCs.

    The record CRC sees which port served each request, and when; a
    fingerprint only sums finish times.
    """
    records = "".join(
        repr((r.index, r.port, r.state, r.start_ns, r.queue_ns,
              r.reconfig_ns, r.exec_ns, r.finish_ns, r.retries, r.shed,
              r.degraded, r.failed))
        for r in report.records
    )
    snapshot = report.metrics.as_dict()
    gauges = {
        f"{path}.{name}": report.metrics.statset(path).gauge(name).updates
        for path, metrics in snapshot.items()
        for name, fields in metrics.items()
        if set(fields) == {"value", "min", "max"}
    }
    return {
        "records": zlib.crc32(records.encode()),
        "metrics": zlib.crc32(repr(snapshot).encode()),
        "gauge_updates": gauges,
        "fingerprint": repr(report.fingerprint()),
    }


def _serve_schedules(platform):
    """Every policy, open-loop shape and closed-loop population under a
    clean run, faults with default, no and a tight recovery: each run's
    records, metrics snapshot and gauge update counts."""
    from repro.faults import DEFAULT_RECOVERY, NO_RECOVERY, RecoveryPolicy
    from repro.serve import (
        ClosedLoopWorkload,
        OpenLoopWorkload,
        ServingSystem,
        default_tenants,
        profile_workload,
    )
    from repro.serve.scheduler import POLICIES

    # Unequal weights, so the mix draws are not a uniform pick.
    tenants = [
        dataclasses.replace(spec, weight=weight)
        for spec, weight in zip(
            default_tenants(n_tenants=3, n_rows=128, seed=7), (3.0, 1.0, 0.5)
        )
    ]
    profile = profile_workload(tenants, platform=platform)
    saturation = profile.saturation_rate_qps()
    tight = RecoveryPolicy(max_retries=1, breaker_threshold=2,
                           breaker_cooldown_ns=50_000.0)
    settings = {
        "clean": (0.0, DEFAULT_RECOVERY),
        "default": (0.25, DEFAULT_RECOVERY),
        "none": (0.25, NO_RECOVERY),
        "tight": (0.25, tight),
    }
    workloads = {
        "poisson": lambda: OpenLoopWorkload(
            tenants, rate_qps=1.1 * saturation, n_requests=200, seed=11),
        "bursty": lambda: OpenLoopWorkload(
            tenants, rate_qps=0.8 * saturation, n_requests=200,
            arrival="bursty", seed=11),
        "closed-think0": lambda: ClosedLoopWorkload(
            tenants, n_clients=4, n_requests=120, think_ns=0.0, seed=5),
        "closed-think": lambda: ClosedLoopWorkload(
            tenants, n_clients=3, n_requests=120, think_ns=20_000.0, seed=5),
        # More clients than queue slots: the closed loop sheds.
        "closed-shed": lambda: ClosedLoopWorkload(
            tenants, n_clients=24, n_requests=160, think_ns=5_000.0, seed=5),
    }
    series = {}
    for policy in POLICIES:
        for shape, build in workloads.items():
            for name, (fault_rate, recovery) in settings.items():
                report = ServingSystem(
                    profile, policy=policy, queue_depth=16,
                    fault_rate=fault_rate, recovery=recovery,
                ).run(build())
                series[f"{policy}/{shape}/{name}"] = _serve_run_pins(report)
    return {"xs": ["records_crc", "metrics_crc", "gauge_updates",
                   "fingerprint"], "series": series}


def _pim_table(name, n_rows, n_cols, seed):
    """Int32 columns A1..An; A2 takes 8 values so GROUP BY folds."""
    rng = random.Random(seed)
    table = RowTable(name, uniform_schema(n_cols, 4))
    for _ in range(n_rows):
        row = [rng.randint(-1000, 1000) for _ in range(n_cols)]
        row[1] = rng.randrange(8)
        table.append(row)
    return table


def _pim_bills(platform):
    """Bank-level PIM bills: answers, simulated ns and breakdowns of
    scans, aggregates, GROUP BY and joins over rows that fill, straddle
    and overflow a DRAM page, on page-aligned and unaligned bases; fault
    runs at both severities; and the planner's estimates for each cell."""
    from repro import QueryExecutor, RelationalMemorySystem
    from repro.faults import DEFAULT_RECOVERY, FaultEvent, FaultPlan
    from repro.pim import BankPIM, PIMCostModel, estimate_join_ns, estimate_query_ns
    from repro.query.expr import Col
    from repro.query.queries import Query

    model = PIMCostModel(platform)
    compound = (Col("A1") < 0).and_(Col("A3") > -200).or_(Col("A4") > 900)
    scans = {
        "proj": Query(name="proj", sql="", select=("A1", "A3"),
                      predicate=Col("A1") < 0),
        "proj_or": Query(name="proj_or", sql="", select=("A2", "A4"),
                         predicate=compound),
        "count": Query(name="count", sql="", select=(), aggregate="count",
                       agg_expr=Col("A1"), predicate=Col("A3") >= 250),
        "sum": Query(name="sum", sql="", select=(), aggregate="sum",
                     agg_expr=Col("A4"), predicate=compound),
        "min": Query(name="min", sql="", select=(), aggregate="min",
                     agg_expr=Col("A3"), predicate=Col("A1").ne(7)),
        "max": Query(name="max", sql="", select=(), aggregate="max",
                     agg_expr=Col("A1"), predicate=Col("A4") <= -500),
        "max_bare": Query(name="max_bare", sql="", select=(),
                          aggregate="max", agg_expr=Col("A3")),
        "group_sum": Query(name="group_sum", sql="", select=(),
                           aggregate="sum", agg_expr=Col("A1"),
                           predicate=Col("A3") < 400, group_by="A2"),
        "group_count": Query(name="group_count", sql="", select=(),
                             aggregate="count", agg_expr=Col("A1"),
                             group_by="A2"),
    }
    # 64 B rows fill pages exactly; the next two tables load behind it on
    # unaligned bases, 24 B rows straddle pages and 3000 B rows overflow
    # them (some pages hold no row start).
    tables = (_pim_table("s64", 256, 16, 1), _pim_table("s24", 300, 6, 2),
              _pim_table("wide", 48, 750, 3))
    series = {}
    system = RelationalMemorySystem(platform)
    device = BankPIM(system)
    for table in tables:
        loaded = system.load_table(table)
        series[f"base/{table.name}"] = loaded.base_addr
        for name, query in scans.items():
            run = device.run(query, loaded)
            series[f"scan/{table.name}/{name}"] = [
                repr(run.value), run.n_rows, run.matches,
                run.bitmap.bits, run.elapsed_ns, run.breakdown,
            ]
            series[f"estimate/{table.name}/{name}"] = estimate_query_ns(
                query, table.schema, table.n_rows, run.selectivity, model,
                n_groups=8)
    series["scan/sim_now"] = system.sim.now

    # A dimension with unique keys 0..39 and a 12 B fact whose keys
    # cover 0..47, so about five in six fact rows find their parent.
    rng = random.Random(6)
    dim = RowTable("D", Schema([Column("K", int32()), Column("D1", int32())]))
    fact = RowTable("F", Schema([Column(c, int32()) for c in ("K", "A1", "F1")]))
    for key in range(40):
        dim.append([key, rng.randint(-1000, 1000)])
    for _ in range(400):
        fact.append([rng.randrange(48), rng.randint(-1000, 1000),
                     rng.randint(-1000, 1000)])
    lhs = Query(name="D", sql="", select=("K", "D1"))
    sides = {}
    for cut in (-900, 300):
        rhs = Query(name="F", sql="", select=("K", "A1", "F1"),
                    predicate=Col("F1") < cut)
        sides[cut] = rhs
        system = RelationalMemorySystem(platform)
        ld, lf = system.load_table(dim), system.load_table(fact)
        join = BankPIM(system).run_join("K", lhs, ld, rhs, lf)
        series[f"join/{cut}"] = [
            repr(join.rows), join.n_rows, join.rhs_rows, join.matches,
            join.elapsed_ns, join.build_table, join.breakdown, system.sim.now,
        ]
        series[f"estimate/join/{cut}"] = estimate_join_ns(
            "K", lhs, dim.schema, dim.n_rows, rhs, fact.schema, fact.n_rows,
            rhs_selectivity=join.rhs_rows / fact.n_rows, model=model)

    plans = {
        "sev1": lambda: FaultPlan.single("dram_bitflip", 0.0, severity=1),
        "sev2": lambda: FaultPlan.single("dram_bitflip", 0.0, severity=2),
        # Two corrected flips, then an uncorrectable one in the third bank
        # (the injector draws events armed at one instant last-listed first).
        "sev1x2_sev2": lambda: FaultPlan(events=tuple(
            FaultEvent("dram_bitflip", 0.0, severity=s) for s in (2, 1, 1))),
    }
    for plan_name, plan in plans.items():
        system = RelationalMemorySystem(platform)
        loaded = system.load_table(tables[1])
        injector = system.enable_faults(plan(), DEFAULT_RECOVERY)
        result = QueryExecutor(system).run_pim(scans["sum"], loaded)
        series[f"fault/scan/{plan_name}"] = [
            result.state, repr(result.value), result.elapsed_ns,
            system.sim.now,
            sorted([name, c.count] for name, c in injector.stats),
        ]
        system = RelationalMemorySystem(platform)
        ld, lf = system.load_table(dim), system.load_table(fact)
        injector = system.enable_faults(plan(), DEFAULT_RECOVERY)
        join = QueryExecutor(system).run_pim_join("K", lhs, ld,
                                                  sides[300], lf)
        series[f"fault/join/{plan_name}"] = [
            join.state, repr(join.rows),
            join.elapsed_ns, system.sim.now,
            sorted([name, c.count] for name, c in injector.stats),
        ]
    return {"xs": ["bill"], "series": series}


#: Each scenario is (fixture file, callable taking ``platform``) that
#: yields an xs/series snapshot. Scales are chosen small enough for the
#: test suite but large enough to exercise credit back-pressure, bank
#: conflicts and packed-line completion (fig06), analytical curves
#: (fig01), burst-length-2 straddling descriptors (fig08), window
#: switching, multirun descriptor streams, every retry, breaker and
#: fallback path under injected faults (recovery fingerprints), which
#: port served each request and when (serve schedules), and the
#: bank-level PIM engine's bills, fault draws and estimates (PIM bills).
SCENARIOS = {
    "fig01_projectivity.json": lambda platform: fig01_projectivity(
        n_points=12, n_rows=8192, platform=platform
    ),
    "fig06_q1_small.json": lambda platform: fig06_q1_designs(
        n_rows=512, widths=(1, 4, 16), platform=platform
    ),
    "fig08_offsets.json": lambda platform: fig08_offset_sweep(
        n_rows=256, offsets=(0, 4, 13, 29, 45, 60), platform=platform
    ),
    "windowed_epoch.json": _windowed_epoch,
    "multirun_epoch.json": _multirun_epoch,
    "recovery_fingerprints.json": _recovery_fingerprints,
    "serve_schedules.json": _serve_schedules,
    "pim_bills.json": _pim_bills,
}


def _snapshot(figure) -> dict:
    if isinstance(figure, dict):
        return figure
    return {"xs": list(figure.xs), "series": figure.series}


@pytest.mark.parametrize("fixture", sorted(SCENARIOS))
@pytest.mark.parametrize("platform", [CYCLE_LEVEL, FASTPATH],
                         ids=["cycle-level", "fastpath"])
def test_golden_cycles(fixture, platform):
    path = GOLDEN_DIR / fixture
    assert path.exists(), (
        f"missing fixture {path}; regenerate with "
        "PYTHONPATH=src python -m tests.test_golden_cycles --regenerate"
    )
    golden = json.loads(path.read_text())
    produced = _snapshot(SCENARIOS[fixture](platform))
    assert produced["xs"] == golden["xs"]
    assert set(produced["series"]) == set(golden["series"])
    for name, values in golden["series"].items():
        assert produced["series"][name] == values, (
            f"{fixture}: series {name!r} diverged from the golden cycle "
            "counts"
        )


def regenerate(force: bool = False) -> None:
    """Write missing fixtures; overwrite existing ones only with --force.

    Existing fixtures are contractual — an accidental regeneration would
    silently re-bless a timing regression, so overwriting is opt-in.
    """
    GOLDEN_DIR.mkdir(exist_ok=True)
    for fixture, build in sorted(SCENARIOS.items()):
        path = GOLDEN_DIR / fixture
        if path.exists() and not force:
            print(f"kept {path} (use --force to overwrite)")
            continue
        snapshot = _snapshot(build(CYCLE_LEVEL))
        # Sanity: the fast path must agree before the fixture is trusted.
        fast = _snapshot(build(FASTPATH))
        if fast != snapshot:
            raise SystemExit(
                f"{fixture}: fast-forward and cycle-level runs disagree; "
                "fix that before regenerating goldens"
            )
        path.write_text(
            json.dumps(snapshot, indent=1, sort_keys=True) + "\n"
        )
        print(f"wrote {path}")


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        regenerate(force="--force" in sys.argv)
    else:
        raise SystemExit(__doc__)
