"""The four workloads of the end-to-end benchmark: scan, pim, htap, serve.

Each workload generates every row and query from the seed alone and talks
to the program only through its public calls: ``RelationalMemorySystem``,
``load_table``, ``register_var``, ``Processor.plan`` / ``plan_join`` /
``execute``, ``TransactionManager``, ``profile_workload``,
``ServingSystem.run`` and ``ClusterSystem.run``. Every platform is built
with the library defaults, which is what users run.

A run is made of *rounds*. A round is a fixed, stratified set of
operations: every combination of the properties the simulated time
depends on (table width, column-group width, query kind, selectivity,
offered load) appears the same number of times in every round, and the
seed only chooses the data, the column offsets, the constants and the
order. That keeps the per-round medians close across seeds, so one seed's
numbers stand for the workload rather than for the seed. Rounds after the
first draw fresh inputs from ``(seed, round)``.

Correctness checks, the cross-clock replays and the shadow measurements
all run outside the timed spans.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import random
import traceback
import zlib
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro import (
    AccessPath,
    Col,
    Column,
    OpenLoopWorkload,
    Processor,
    Query,
    RelationalMemorySystem,
    RowTable,
    Schema,
    ServingSystem,
    TenantSpec,
    TransactionManager,
    VersionedRowTable,
    WriteConflictError,
    ZCU102,
    int32,
    int64,
    profile_workload,
    q1,
    q2,
    q3,
    q4,
    q5,
    q7,
    uniform_schema,
)
from repro.cluster import ClusterSystem
from repro.faults import FaultPlan
from repro.pim import BankPIM
from repro.query.engines import CPU, PIM, RME

import oracle
from harness import Recorder, Tally, close_enough, percentile

#: The executed access path, by the engine names the metrics use.
ENGINE_NAME = {
    AccessPath.DIRECT_ROW: "cpu",
    AccessPath.COLUMNAR: "cpu",
    AccessPath.INDEX: "cpu",
    AccessPath.RME: "rme",
    AccessPath.PIM: "pim",
}
#: Planner candidates and the engine a pinned shadow run uses for each.
PINNED = {AccessPath.DIRECT_ROW: CPU, AccessPath.RME: RME, AccessPath.PIM: PIM}
PATH_OF_ENGINE = {engine.name: path for path, engine in PINNED.items()}

#: The other simulation mode, for the cross-clock replays.
FLIPPED = dataclasses.replace(ZCU102, fastpath=not ZCU102.fastpath)

#: Simulated-clock instruments read from ``system.metrics`` after every
#: op: (ledger key, statset path, instrument, sum its values, not count).
SIM_COUNTERS = (
    ("l1_requests", "cpu0.l1", "requests_demand", False),
    ("l1_misses", "cpu0.l1", "misses_demand", False),
    ("l2_requests", "l2", "requests", False),
    ("l2_misses", "l2", "misses", False),
    ("dram_row_hits", "dram", "row_hits", False),
    ("dram_row_misses", "dram", "row_misses", False),
    ("dram_row_empty", "dram", "row_empty", False),
    ("fetch_bytes_useful", "rme.fetch", "bytes_useful", True),
    ("fetch_bytes", "rme.fetch", "bytes_fetched", True),
    ("descriptors", "rme.fetch", "descriptors", False),
    ("credit_wait_ns", "rme.requestor", "credit_wait_ns", True),
    ("trapper_requests", "rme.trapper", "requests", False),
    ("trapper_misses", "rme.trapper", "buffer_misses", False),
    ("configurations", "rme", "configurations", False),
)


def rng_for(*salt) -> random.Random:
    """A generator seeded from a string, so it is stable across processes."""
    return random.Random(":".join(str(part) for part in salt))


def crc_of(rows: Sequence[Sequence[int]]) -> int:
    return zlib.crc32(repr(rows).encode())


def result_digest(result) -> str:
    """An exact fingerprint of a QueryResult: every field, floats by their
    round-tripping repr. Replays keep these instead of the answers."""
    return hashlib.sha256(repr(result).encode()).hexdigest()


@dataclass
class Op:
    """One timed operation: its host seconds and simulated ns."""

    host_s: float
    sim_ns: float
    engine: str = ""
    state: str = ""
    #: Host seconds of the planning call, part of ``host_s``.
    plan_s: float = 0.0


@dataclass
class RoundLog:
    """What one round measured, beyond the spans in the recorder."""

    ops: List[Op] = field(default_factory=list)
    #: Simulated-clock counters summed over the round.
    counters: Counter = field(default_factory=Counter)
    #: PIM phase nanoseconds from ``BankPIM`` breakdowns (shadow reruns).
    pim_phases: Counter = field(default_factory=Counter)
    regrets: List[float] = field(default_factory=list)
    est_errors: List[float] = field(default_factory=list)
    #: Workload-specific numbers, by metric name.
    values: Dict[str, float] = field(default_factory=dict)
    #: Workload-specific samples, by name.
    samples: Dict[str, List[float]] = field(
        default_factory=lambda: defaultdict(list))
    digest: int = 0


@dataclass
class RoundContext:
    """The instruments one round writes to, and what it should check."""

    rec: Recorder
    tally: Tally
    log: RoundLog
    checks: bool = True
    shadow: bool = False
    crossclock: bool = False
    #: With ``shadow``, how many of the round's first ops to re-measure.
    shadow_ops: int = 0
    ops_started: int = 0

    def next_op(self) -> int:
        """The id of the next op of the round."""
        self.ops_started += 1
        return self.ops_started - 1


def absorb_counters(log: RoundLog, system) -> None:
    """Add the last op's simulated counters (the executor resets the
    registry before every measured scan)."""
    snapshots = {}
    for key, path, name, summed in SIM_COUNTERS:
        if path not in snapshots:
            stats = system.metrics.statset(path)
            snapshots[path] = stats.as_dict() if stats is not None else {}
        entry = snapshots[path].get(name)
        if entry is not None:
            log.counters[key] += entry["total" if summed else "count"]


def guarded(ctx: RoundContext, what: str, func: Callable, *args) -> Any:
    """Run one operation; an exception counts as a failed check and the
    round goes on with the next operation."""
    try:
        return func(*args)
    except Exception:  # the benchmark must keep running to report it
        traceback.print_exc()
        ctx.tally.check(False, f"{what} raised")
        return None


class Workload:
    """One workload: ``setup`` builds a round's inputs, ``run`` drives it."""

    name = ""

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed

    def setup(self, round_index: int):
        raise NotImplementedError

    def run(self, state, ctx: RoundContext) -> None:
        raise NotImplementedError

    # -- shared measurement helpers ---------------------------------------------
    @staticmethod
    def timed_query(ctx: RoundContext, processor: Processor, op: int,
                    parent: str, plan_fn: Callable, execute_fn: Callable):
        """Plan and execute one query, each call timed on its own."""
        rec = ctx.rec
        with rec.span("query.plan", op, parent):
            plan = plan_fn()
        plan_s = rec.last
        with rec.span("query.execute", op, parent):
            result = execute_fn(plan)
        ctx.log.ops.append(Op(plan_s + rec.last, result.elapsed_ns,
                              ENGINE_NAME[result.path], result.state, plan_s))
        absorb_counters(ctx.log, processor.system)
        return plan, result

    @staticmethod
    def check_crossclock(ctx: RoundContext, label: str, replay: Callable,
                         *args) -> None:
        """Replay on two fresh platforms, one per simulation mode (the
        default and its opposite); every QueryResult must be bit-identical."""
        digests = [guarded(ctx, f"{label} replay", replay, *args, platform)
                   for platform in (ZCU102, FLIPPED)]
        ctx.tally.check(digests[0] is not None and digests[0] == digests[1],
                        f"{label}: results differ between the cycle-level "
                        "and fast-path clocks")
        gc.collect()  # the replayed platforms are cyclic garbage

    @staticmethod
    def check_packed(ctx: RoundContext, system, var, result, label: str) -> None:
        """After every non-windowed RME scan, the engine's buffer must hold
        exactly the packed projection."""
        if result.path is AccessPath.RME and not var.windowed:
            ctx.tally.check(
                system.rme.packed_bytes() == var.expected_packed_bytes(),
                f"{label}: stale or corrupt packed bytes")

    # -- untimed shadow reruns (traced runs only) -------------------------------
    @staticmethod
    def shadow_system(tables: Dict[str, Any], manager=None):
        """A second platform with the same tables, for untimed reruns."""
        system = RelationalMemorySystem()
        loaded = {name: system.load_table(table, manager)
                  for name, table in tables.items()}
        return system, loaded, Processor(system)

    @staticmethod
    def record_regret(ctx: RoundContext, plan, measured: Dict[AccessPath, float]) -> None:
        """Planner regret (chosen ÷ best measured) and estimate error."""
        chosen = PATH_OF_ENGINE[plan.engine.name]
        ctx.log.regrets.append(measured[chosen] / min(measured.values()))
        for path, actual in measured.items():
            estimate = plan.choice.estimates_ns[path]
            ctx.log.est_errors.append(abs(estimate - actual) / actual)

    def shadow_measure(self, ctx: RoundContext, shadow, table: str, query,
                       columns: List[str], hot: bool, plan, result) -> None:
        """Run every engine the planner priced, pinned, in the state the
        query met (an RME variable warmed first when it ran hot), and
        rerun a PIM scan for its phase breakdown."""
        system, loaded, processor = shadow
        measured = {}
        for path in plan.choice.estimates_ns:
            var = None
            if path is AccessPath.RME:
                var = system.register_var(loaded[table], columns,
                                          allow_noncontiguous=True)
                if hot:
                    system.warm_up(var)
                    system.flush_caches()
            pinned = processor.plan(query, loaded[table], engine=PINNED[path])
            measured[path] = processor.execute(
                pinned.relation, loaded=loaded[table], var=var).elapsed_ns
        self.record_regret(ctx, plan, measured)
        if result.path is AccessPath.PIM:
            breakdown = BankPIM(system).run(query, loaded[table]).breakdown
            ctx.log.pim_phases.update(breakdown)


# ---------------------------------------------------------------------------
# scan: the paper's core use — ephemeral variables over row-store tables
# ---------------------------------------------------------------------------

#: (table, int32 columns): 64 B rows (512 KB, half the 1 MB L2) and 256 B
#: rows (2 MB, twice the L2).
SCAN_TABLES = (("S64", 16), ("S256", 64))
SCAN_WIDTHS = (1, 2, 4, 8, 16)
#: Column values are uniform in [-SCAN_SPAN, SCAN_SPAN).
SCAN_SPAN = 1 << 20


@dataclass
class QuerySpec:
    """One query: the program's ``Query`` plus what the oracle needs."""

    kind: str
    query: Query
    selectivity: float
    reference: Callable[[Sequence[tuple]], Any]


@dataclass
class Session:
    """``register_var`` over one contiguous group, then 1-4 queries."""

    table: str
    columns: List[str]
    queries: List[QuerySpec]


class ScanWorkload(Workload):
    """Sessions over S64/S256 through the cost-based Processor."""

    name = "scan"

    #: Every (table, width) stratum runs these two sessions; the first
    #: query of each finds the variable cold, the rest run hot. A
    #: one-column group has no second column for Q2 or Q3.
    SESSIONS = (("Q1",), ("P", "Q2", "Q3", "Q7"))
    SESSIONS_ONE_COLUMN = (("Q1",), ("P", "Q7", "Q1", "Q7"))

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.n_rows = 256 if smoke else 8192
        self.widths = (1, 4) if smoke else SCAN_WIDTHS

    def setup(self, round_index: int):
        rng = rng_for("scan", self.seed, round_index)
        rows, tables = {}, {}
        for name, n_cols in SCAN_TABLES:
            rows[name] = [tuple(rng.randrange(-SCAN_SPAN, SCAN_SPAN)
                                for _ in range(n_cols))
                          for _ in range(self.n_rows)]
            table = RowTable(name, uniform_schema(n_cols, 4))
            for row in rows[name]:
                table.append(row)
            tables[name] = table
        system = RelationalMemorySystem()
        loaded = {name: system.load_table(table) for name, table in tables.items()}
        return {
            "rows": rows,
            "tables": tables,
            "system": system,
            "loaded": loaded,
            "processor": Processor(system),
            "sessions": self._sessions(rng),
            "digest": crc_of(rows["S64"][:64] + rows["S256"][:64]),
        }

    def _sessions(self, rng: random.Random) -> List[Session]:
        """The seed picks offsets, columns and order; the mix is fixed."""
        sessions = []
        for name, n_cols in SCAN_TABLES:
            for w, width in enumerate(self.widths):
                selectivity = (0.5, 0.9)[w % 2]
                for kinds in (self.SESSIONS_ONE_COLUMN if width == 1
                              else self.SESSIONS):
                    offset = rng.randrange(n_cols - width + 1)
                    idx = list(range(offset, offset + width))
                    columns = [f"A{i + 1}" for i in idx]
                    queries = [self._query(kind, columns, idx, selectivity, rng)
                               for kind in kinds]
                    sessions.append(Session(name, columns, queries))
        rng.shuffle(sessions)
        return sessions

    @staticmethod
    def _query(kind: str, columns: List[str], idx: List[int],
               selectivity: float, rng: random.Random) -> QuerySpec:
        pick = rng.randrange(len(columns))
        col, i = columns[pick], idx[pick]
        if kind == "Q1":
            return QuerySpec(kind, q1(col), 1.0,
                             lambda rows: oracle.project(rows, [i]))
        if kind == "Q7":
            return QuerySpec(kind, q7(col), 1.0,
                             lambda rows: oracle.std([r[i] for r in rows]))
        if kind == "P":
            return QuerySpec(
                kind,
                Query(name="P", sql=f"SELECT {', '.join(columns)} FROM S",
                      select=tuple(columns)),
                1.0, lambda rows: oracle.project(rows, idx))
        if kind == "Q3":
            a = rng.randrange(len(columns) - 1)
            pair, pidx = (columns[a], columns[a + 1]), [idx[a], idx[a + 1]]
            return QuerySpec(kind, q3(pair), 1.0,
                             lambda rows: oracle.project(rows, pidx))
        # Q2: a projection filtered on another column of the group.
        other = rng.choice([c for c in range(len(columns)) if c != pick])
        s_col, s = columns[other], idx[other]
        k = SCAN_SPAN - 1 - round(selectivity * 2 * SCAN_SPAN)
        return QuerySpec(kind, q2(col, s_col, k), selectivity,
                         lambda rows: oracle.project(rows, [i],
                                                     lambda r: r[s] > k))

    def run(self, state, ctx: RoundContext) -> None:
        ctx.log.digest = state["digest"]
        shadow = self.shadow_system(state["tables"]) if ctx.shadow else None
        for sid, session in enumerate(state["sessions"]):
            guarded(ctx, f"scan session {sid}", self._session, state, session,
                    sid, ctx, shadow)
        if ctx.crossclock:
            rng = rng_for("scan-crossclock", self.seed)
            sessions = state["sessions"]
            for sid in rng.sample(range(len(sessions)), min(3, len(sessions))):
                self.check_crossclock(ctx, f"scan session {sid}", self._replay,
                                      state, sessions[sid])

    def _session(self, state, session: Session, sid: int, ctx: RoundContext,
                 shadow) -> None:
        rec, system = ctx.rec, state["system"]
        processor, loaded = state["processor"], state["loaded"][session.table]
        parent, start = f"session{sid}", rec.now()
        with rec.span("core.register_var", -1, parent):
            var = system.register_var(loaded, session.columns)
        for spec in session.queries:
            op = ctx.next_op()
            hot = var.is_hot
            plan, result = self.timed_query(
                ctx, processor, op, parent,
                lambda: processor.plan(spec.query, loaded, hot=hot,
                                       selectivity=spec.selectivity),
                lambda plan: processor.execute(plan.relation, loaded=loaded,
                                               var=var))
            label = f"scan op {op} ({session.table} {spec.query.sql})"
            if ctx.checks:
                ctx.tally.check(
                    close_enough(result.value,
                                 spec.reference(state["rows"][session.table])),
                    f"{label}: wrong answer")
                self.check_packed(ctx, system, var, result, label)
            if shadow is not None and op < ctx.shadow_ops:
                self.shadow_measure(ctx, shadow, session.table, spec.query,
                                    session.columns, hot, plan, result)
        rec.group("session", start, parent)

    def _replay(self, state, session: Session, platform) -> List[str]:
        """One session on a fresh platform: the digest of every result."""
        system = RelationalMemorySystem(platform)
        loaded = {name: system.load_table(table)
                  for name, table in state["tables"].items()}
        processor = Processor(system)
        table = loaded[session.table]
        var = system.register_var(table, session.columns)
        digests = []
        for spec in session.queries:
            plan = processor.plan(spec.query, table, hot=var.is_hot,
                                  selectivity=spec.selectivity)
            digests.append(result_digest(
                processor.execute(plan.relation, loaded=table, var=var)))
        return digests


# ---------------------------------------------------------------------------
# pim: in-bank filters, aggregates, group-by and joins
# ---------------------------------------------------------------------------

PIM_FACT_COLUMNS = ("K", "G", "F1", "A1", "A2", "A3", "A4", "A5")
PIM_KINDS = ("proj", "count", "sum", "min", "max", "group", "join")
PIM_SELECTIVITIES = (0.001, 0.01, 0.1, 0.5, 1.0)
PIM_GROUPS = 32


class PimWorkload(Workload):
    """Filtered projections, aggregates, GROUP BY and D⋈F on F and D."""

    name = "pim"

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.n_fact = 1024 if smoke else 16384
        self.n_dim = 128 if smoke else 2048
        #: Every (kind, selectivity) cell appears this often per round.
        self.repeats = 1 if smoke else 2

    def setup(self, round_index: int):
        rng = rng_for("pim", self.seed, round_index)
        n, n_dim = self.n_fact, self.n_dim
        # F1 is a permutation of 0..n-1, so "F1 < c" keeps exactly c rows
        # and the planner can be told the true selectivity.
        f1 = list(range(n))
        rng.shuffle(f1)
        # 80% of fact keys find a dimension row.
        fact = [(rng.randrange(n_dim * 5 // 4), rng.randrange(PIM_GROUPS), f1[r])
                + tuple(rng.randrange(1000) for _ in range(5))
                for r in range(n)]
        keys = list(range(n_dim))
        rng.shuffle(keys)
        dim = [(k, rng.randrange(1000)) for k in keys]
        f_table = RowTable("F", Schema([Column(c, int32()) for c in PIM_FACT_COLUMNS]))
        for row in fact:
            f_table.append(row)
        d_table = RowTable("D", Schema([Column("K", int32()), Column("D1", int32())]))
        for row in dim:
            d_table.append(row)
        system = RelationalMemorySystem()
        loaded = {"F": system.load_table(f_table), "D": system.load_table(d_table)}
        cells = [(kind, sel) for kind in PIM_KINDS for sel in PIM_SELECTIVITIES]
        ops = cells * self.repeats
        rng.shuffle(ops)
        return {
            "fact": fact,
            "dim": dim,
            "tables": {"F": f_table, "D": d_table},
            "system": system,
            "loaded": loaded,
            "processor": Processor(system),
            "ops": ops,
            "digest": crc_of(fact[:64] + dim[:64]),
        }

    def _spec(self, kind: str, selectivity: float, fact, dim):
        """The query (or join sides) for one cell, plus its reference."""
        cut = round(selectivity * self.n_fact)
        where = Col("F1") < cut
        keep = lambda row: row[2] < cut  # noqa: E731 - F1 is column 2
        if kind == "proj":
            query = Query(name="proj", sql=f"SELECT A1, A2 FROM F WHERE F1 < {cut}",
                          select=("A1", "A2"), predicate=where)
            return query, lambda: oracle.project(fact, [3, 4], keep)
        if kind == "group":
            query = Query(name="group",
                          sql=f"SELECT SUM(A5) FROM F WHERE F1 < {cut} GROUP BY G",
                          select=(), aggregate="sum", agg_expr=Col("A5"),
                          predicate=where, group_by="G")
            return query, lambda: oracle.group_sum(fact, 1, 7, keep)
        if kind == "join":
            lhs = Query(name="D", sql="SELECT K, D1 FROM D", select=("K", "D1"))
            rhs = Query(name="F", sql=f"SELECT K, A5, F1 FROM F WHERE F1 < {cut}",
                        select=("K", "A5", "F1"), predicate=where)
            return (lhs, rhs), lambda: [
                (d[0], d[1], f[7], f[2])
                for d, f in oracle.hash_join(dim, 0, fact, 0, keep)]
        column = {"count": 3, "sum": 4, "min": 5, "max": 6}[kind]
        name = PIM_FACT_COLUMNS[column]
        query = Query(name=kind,
                      sql=f"SELECT {kind.upper()}({name}) FROM F WHERE F1 < {cut}",
                      select=(), aggregate=kind, agg_expr=Col(name),
                      predicate=where)
        return query, lambda: oracle.fold(
            kind, [row[column] for row in fact if keep(row)])

    def run(self, state, ctx: RoundContext) -> None:
        ctx.log.digest = state["digest"]
        shadow = self.shadow_system(state["tables"]) if ctx.shadow else None
        for kind, selectivity in state["ops"]:
            guarded(ctx, f"pim {kind}@{selectivity}", self._op, state, kind,
                    selectivity, ctx, shadow)

    def _op(self, state, kind, selectivity, ctx, shadow) -> None:
        rec, system = ctx.rec, state["system"]
        processor, loaded = state["processor"], state["loaded"]
        query, reference = self._spec(kind, selectivity, state["fact"], state["dim"])
        op, parent = ctx.next_op(), f"{kind}@{selectivity}"
        if kind == "join":
            lhs, rhs = query
            plan, result = self.timed_query(
                ctx, processor, op, parent,
                lambda: processor.plan_join("K", lhs, loaded["D"], rhs, loaded["F"],
                                            rhs_selectivity=selectivity),
                lambda plan: processor.execute(plan.relation, tables=loaded))
        else:
            def execute(plan):
                var = None
                if plan.engine == RME:
                    var = system.register_var(loaded["F"], list(query.columns()),
                                              allow_noncontiguous=True)
                return processor.execute(plan.relation, loaded=loaded["F"], var=var)

            plan, result = self.timed_query(
                ctx, processor, op, parent,
                lambda: processor.plan(query, loaded["F"], selectivity=selectivity),
                execute)
        if ctx.checks:
            ctx.tally.check(close_enough(result.value, reference()),
                            f"pim op {op} ({parent}): wrong answer")
        if shadow is None or op >= ctx.shadow_ops:
            return
        if kind != "join":
            self.shadow_measure(ctx, shadow, "F", query, list(query.columns()),
                                False, plan, result)
            return
        system, loaded, processor = shadow
        measured = {}
        for path in plan.choice.estimates_ns:
            pinned = processor.plan_join("K", lhs, loaded["D"], rhs, loaded["F"],
                                         engine=PINNED[path])
            measured[path] = processor.execute(pinned.relation,
                                               tables=loaded).elapsed_ns
        self.record_regret(ctx, plan, measured)
        if result.path is AccessPath.PIM:
            execution = BankPIM(system).run_join("K", lhs, loaded["D"], rhs,
                                                 loaded["F"])
            ctx.log.pim_phases.update(execution.breakdown)


# ---------------------------------------------------------------------------
# htap: MVCC writes beside analytic reads on the same rows
# ---------------------------------------------------------------------------

HTAP_VALUE_COLUMNS = 7
HTAP_SPAN = 1_000_000
#: Analytic query kinds; each epoch runs three, rotating through all six.
HTAP_KINDS = ("Q1", "Q2", "Q4", "Q5", "Q7", "P")


class HtapWorkload(Workload):
    """Transactions, a reload, then cold and hot reads, epoch after epoch."""

    name = "htap"

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.n_rows = 256 if smoke else 8192
        self.epochs = 2 if smoke else 8
        self.txns = 20 if smoke else 100
        self.pairs = 2 if smoke else 5
        self.schema = Schema([Column("K", int64())] + [
            Column(f"A{i + 1}", int64()) for i in range(HTAP_VALUE_COLUMNS)])

    def _values(self, rng: random.Random, key: int) -> Tuple[int, ...]:
        return (key,) + tuple(rng.randrange(-HTAP_SPAN, HTAP_SPAN)
                              for _ in range(HTAP_VALUE_COLUMNS))

    def setup(self, round_index: int):
        rng = rng_for("htap", self.seed, round_index)
        rows = {key: self._values(rng, key) for key in range(self.n_rows)}
        table = VersionedRowTable("orders", self.schema, key_column="K")
        manager = TransactionManager(table)
        txn = manager.begin()
        for row in rows.values():
            txn.insert(row)
        txn.commit()
        kinds = list(HTAP_KINDS)
        rng.shuffle(kinds)
        return {
            "rng": rng,
            "shadow_rows": rows,
            "table": table,
            "manager": manager,
            "kinds": kinds,
            "digest": crc_of(list(rows.values())[:64]),
        }

    def run(self, state, ctx: RoundContext) -> None:
        ctx.log.digest = state["digest"]
        rng = state["rng"]
        replay_at = set()
        if ctx.crossclock:
            chosen = rng_for("htap-crossclock", self.seed).sample(
                range(self.epochs * 3), min(3, self.epochs * 3))
            replay_at = {(i // 3, i % 3) for i in chosen}
        for epoch in range(self.epochs):
            guarded(ctx, f"htap epoch {epoch} writes", self._writes, state,
                    epoch, rng, ctx)
            guarded(ctx, f"htap epoch {epoch} reads", self._reads, state, epoch,
                    rng, ctx, replay_at)
            if ctx.checks:
                snapshot = state["table"].snapshot_values(state["manager"].now_ts)
                ctx.tally.check(
                    sorted(snapshot) == sorted(state["shadow_rows"].values()),
                    f"htap epoch {epoch}: MVCC snapshot differs from the "
                    "shadow rows")
        table = state["table"]
        ctx.log.values["storage.versions"] = table.n_versions
        ctx.log.values["storage.space_amp"] = table.n_versions / table.live_count()

    # -- (1) transactions, with planted write-write conflicts -------------------
    def _writes(self, state, epoch: int, rng: random.Random, ctx: RoundContext) -> None:
        rec, manager, rows = ctx.rec, state["manager"], state["shadow_rows"]
        parent = f"epoch{epoch}.writes"
        start = rec.now()
        pairs_at = set(rng.sample(range(self.txns), self.pairs))
        for t in range(self.txns):
            if t in pairs_at:
                self._conflict_pair(ctx, manager, rows, rng, parent)
            # Keys are 0..len(rows)-1: rows are only ever updated or appended.
            keys = rng.sample(range(len(rows)), rng.randint(1, 3))
            updates = [self._values(rng, key) for key in keys]
            insert = self._values(rng, len(rows)) if t % 10 == 9 else None
            with rec.span("storage.write", -1, parent):
                txn = manager.begin()
                for values in updates:
                    txn.update(values[0], values)
                if insert is not None:
                    txn.insert(insert)
            committed = self._commit(ctx, txn, parent)
            ctx.tally.check(committed, f"htap epoch {epoch} txn {t}: "
                                       "unexpected write conflict")
            if committed:
                for values in updates + ([insert] if insert else []):
                    rows[values[0]] = values
        rec.group("writes", start, parent)

    def _conflict_pair(self, ctx, manager, rows, rng, parent) -> None:
        """Two transactions from one snapshot write the same key: the
        first commit wins and the second must raise WriteConflictError."""
        key = rng.randrange(len(rows))
        first, second = self._values(rng, key), self._values(rng, key)
        with ctx.rec.span("storage.write", -1, parent):
            a, b = manager.begin(), manager.begin()
            a.update(key, first)
            b.update(key, second)
        ctx.tally.check(self._commit(ctx, a, parent),
                        f"{parent}: first writer of key {key} conflicted")
        rows[key] = first
        ctx.tally.check(not self._commit(ctx, b, parent),
                        f"{parent}: planted conflict on key {key} not raised")

    @staticmethod
    def _commit(ctx: RoundContext, txn, parent: str) -> bool:
        """Commit, timed; False when it raised WriteConflictError."""
        samples = ctx.log.samples
        try:
            with ctx.rec.span("storage.commit", -1, parent):
                txn.commit()
        except WriteConflictError:
            samples["commit_s"].append(ctx.rec.last)
            samples["aborts"].append(1.0)
            return False
        samples["commit_s"].append(ctx.rec.last)
        return True

    # -- (2) reload and (3) analytic reads --------------------------------------
    def _reads(self, state, epoch: int, rng: random.Random, ctx: RoundContext,
               replay_at) -> None:
        rec, table, manager = ctx.rec, state["table"], state["manager"]
        parent = f"epoch{epoch}.reads"
        start = rec.now()
        with rec.span("core.load_table", -1, parent):
            system = RelationalMemorySystem()
            loaded = system.load_table(table, manager)
            processor = Processor(system)
        shadow = None
        if ctx.shadow and ctx.ops_started < ctx.shadow_ops:
            shadow = self.shadow_system({table.name: table}, manager)
        visible = list(state["shadow_rows"].values())
        kinds = state["kinds"]
        for slot in range(3):
            kind = kinds[(epoch * 3 + slot) % len(kinds)]
            spec, columns = self._query(kind, rng)
            with rec.span("core.register_var", -1, parent):
                var = system.register_var(loaded, columns)
            # A read is the query run cold and then hot: that is the
            # end-to-end op, so its samples do not split into two clusters.
            read_host_s = read_sim_ns = 0.0
            for _repeat in ("cold", "hot"):
                op = ctx.next_op()
                hot = var.is_hot
                plan, result = self.timed_query(
                    ctx, processor, op, parent,
                    lambda: processor.plan(spec.query, loaded, hot=hot,
                                           selectivity=spec.selectivity),
                    lambda plan: processor.execute(plan.relation, loaded=loaded,
                                                   var=var))
                read_host_s += ctx.log.ops[-1].host_s
                read_sim_ns += result.elapsed_ns
                label = f"htap op {op} ({spec.query.sql})"
                if ctx.checks:
                    expected = spec.reference(visible)
                    if isinstance(expected, list):
                        ok = oracle.same_multiset(result.value, expected)
                    else:
                        ok = close_enough(result.value, expected)
                    ctx.tally.check(ok, f"{label}: wrong answer")
                    self.check_packed(ctx, system, var, result, label)
                if shadow is not None:
                    self.shadow_measure(ctx, shadow, table.name, spec.query,
                                        columns, hot, plan, result)
            ctx.log.samples["e2e_host_s"].append(read_host_s)
            ctx.log.samples["e2e_sim_ns"].append(read_sim_ns)
            if (epoch, slot) in replay_at:
                self.check_crossclock(ctx, f"htap epoch {epoch} query {slot}",
                                      self._replay, table, manager, columns, spec)
        rec.group("reads", start, parent)

    @staticmethod
    def _query(kind: str, rng: random.Random) -> Tuple[QuerySpec, List[str]]:
        """One analytic query over a contiguous group of value columns."""
        width = {"Q2": 2, "Q5": 2, "P": 4}.get(kind, 1)
        first = 1 + rng.randrange(HTAP_VALUE_COLUMNS - width + 1)
        idx = list(range(first, first + width))
        columns = [f"A{i}" for i in idx]
        i = idx[0]
        if kind == "Q1":
            spec = QuerySpec(kind, q1(columns[0]), 1.0,
                             lambda rows: oracle.project(rows, [i]))
        elif kind == "Q4":
            spec = QuerySpec(kind, q4(columns[0]), 1.0,
                             lambda rows: oracle.fold("sum", [r[i] for r in rows]))
        elif kind == "Q7":
            spec = QuerySpec(kind, q7(columns[0]), 1.0,
                             lambda rows: oracle.std([r[i] for r in rows]))
        elif kind == "P":
            spec = QuerySpec(
                kind,
                Query(name="P", sql=f"SELECT {', '.join(columns)} FROM orders",
                      select=tuple(columns)),
                1.0, lambda rows: oracle.project(rows, idx))
        elif kind == "Q2":
            s = idx[1]
            spec = QuerySpec(kind, q2(columns[0], columns[1], 0), 0.5,
                             lambda rows: oracle.project(rows, [i],
                                                         lambda r: r[s] > 0))
        else:  # Q5: SUM(A_i+1) WHERE A_i < 0
            a = idx[1]
            spec = QuerySpec(kind, q5(columns[1], columns[0], 0), 0.5,
                             lambda rows: oracle.fold(
                                 "sum", [r[a] for r in rows if r[i] < 0]))
        return spec, columns

    @staticmethod
    def _replay(table, manager, columns, spec, platform) -> List[str]:
        system = RelationalMemorySystem(platform)
        loaded = system.load_table(table, manager)
        processor = Processor(system)
        var = system.register_var(loaded, columns)
        digests = []
        for _repeat in ("cold", "hot"):
            plan = processor.plan(spec.query, loaded, hot=var.is_hot,
                                  selectivity=spec.selectivity)
            digests.append(result_digest(
                processor.execute(plan.relation, loaded=loaded, var=var)))
        return digests


# ---------------------------------------------------------------------------
# serve: open-loop multi-tenant serving and a faulty cluster
# ---------------------------------------------------------------------------

SERVE_LADDER = (0.4, 0.6, 0.8, 1.0, 1.2, 1.6, 2.0, 2.4)
SERVE_POLICIES = ("fcfs", "multi-port")
#: The rung the latency metrics are read at, and how many independent
#: arrival streams it pools (queueing percentiles from one stream of
#: 20 000 requests vary by several percent from seed to seed).
SERVE_REFERENCE = ("fcfs", 0.8)
SERVE_REFERENCE_STREAMS = 3
#: p99 latency limit for ``max_qps_at_slo``.
SERVE_SLO_NS = 1_000_000.0
SERVE_SPAN = 1 << 20
#: Node crashes per simulated millisecond in the cluster run.
CLUSTER_CRASHES_PER_MS = 0.2


class ServeWorkload(Workload):
    """Profile, a load ladder under two policies, then a faulty cluster."""

    name = "serve"

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.n_tenants = 2 if smoke else 6
        self.n_rows = 256 if smoke else 4096
        self.requests = 1000 if smoke else 20000

    def setup(self, round_index: int):
        rng = rng_for("serve", self.seed, round_index)
        tenants, rows, references = [], {}, {}
        for t in range(self.n_tenants):
            name = f"tenant{t}"
            data = rows[name] = [tuple(rng.randrange(-SERVE_SPAN, SERVE_SPAN)
                                       for _ in range(16))
                                 for _ in range(self.n_rows)]
            table = RowTable(name, uniform_schema(16, 4))
            for row in data:
                table.append(row)
            # Four templates on four distinct column groups (two columns
            # apart), so consecutive requests contend for the port.
            a, b, c, d = rng.sample(range(0, 16, 2), 4)
            col = lambda i: f"A{i + 1}"  # noqa: E731 - index 0 is A1
            templates = (("q1", q1(col(a))),
                         ("q2", q2(col(b), col(b + 1), 0)),
                         ("q4", q4(col(c))),
                         ("q5", q5(col(d + 1), col(d), 0)))
            tenants.append(TenantSpec(name=name, table=table, templates=templates))
            # Computed lazily: the answers are checked outside the timed calls.
            references[name] = {
                "q1": lambda data=data, a=a: oracle.project(data, [a]),
                "q2": lambda data=data, b=b: oracle.project(
                    data, [b], lambda r: r[b + 1] > 0),
                "q4": lambda data=data, c=c: sum(r[c] for r in data),
                "q5": lambda data=data, d=d: sum(r[d + 1] for r in data
                                                 if r[d] < 0),
            }
        return {
            "references": references,
            "tenants": tenants,
            "arrival_seed": rng.randrange(1 << 30),
            "plan_seed": rng.randrange(1 << 30),
            "digest": crc_of(rows["tenant0"][:64]),
        }

    def run(self, state, ctx: RoundContext) -> None:
        ctx.log.digest = state["digest"]
        rec, tenants, log = ctx.rec, state["tenants"], ctx.log
        with rec.span("serve.profile_workload", -1, "profile"):
            profile = profile_workload(tenants)
        log.values["serve.profile_s"] = rec.last
        rate = profile.saturation_rate_qps()
        references = self._references(state) if ctx.checks else None
        slo_rates = []
        for policy in SERVE_POLICIES:
            for load in SERVE_LADDER:
                parent = f"{policy}@{load}"
                reports = []
                for _stream in range(SERVE_REFERENCE_STREAMS
                                     if (policy, load) == SERVE_REFERENCE else 1):
                    op = ctx.next_op()
                    with rec.span("serve.run", op, parent):
                        system = ServingSystem(profile, policy=policy)
                        report = system.run(OpenLoopWorkload(
                            tenants, rate_qps=load * rate,
                            n_requests=self.requests,
                            seed=state["arrival_seed"] + op))
                    log.ops.append(Op(rec.last, 0.0, "serve", policy))
                    if references is not None:
                        self._check_records(ctx, report.records, references,
                                            parent)
                    reports.append(report)
                self._rung(log, policy, load, reports)
                if policy == "multi-port" and all(map(self._meets_slo, reports)):
                    slo_rates.append(load * rate)
        log.values["sim_qps"] = max(slo_rates, default=0.0)
        log.values["serve.run_s"] = sum(rec.durations["serve.run"])
        self._cluster(state, ctx, profile, rate, references)

    @staticmethod
    def _references(state) -> Dict[Tuple[str, str], Any]:
        return {(tenant, template): answer()
                for tenant, answers in state["references"].items()
                for template, answer in answers.items()}

    @staticmethod
    def _check_records(ctx: RoundContext, records, references, label: str) -> None:
        """Every served or degraded answer must be the reference answer.
        Answers are shared objects, so each distinct one is compared once."""
        verified = set()
        for request in records:
            if request.shed or request.failed:
                continue
            key = (request.tenant, request.template, id(request.value))
            if key in verified:
                ctx.tally.attempted += 1
                continue
            if ctx.tally.check(request.finish_ns > 0 and close_enough(
                    request.value, references[key[:2]]),
                    f"{label}: wrong answer for {key[:2]}"):
                verified.add(key)

    @staticmethod
    def _latencies(records) -> List[float]:
        return [r.latency_ns for r in records if not (r.shed or r.failed)]

    def _rung(self, log: RoundLog, policy: str, load: float, reports) -> None:
        latencies = [ns for report in reports
                     for ns in self._latencies(report.records)]
        log.values[f"serve.rung_p99_us.{policy}.{load}"] = \
            percentile(latencies, 99) / 1e3
        if (policy, load) != SERVE_REFERENCE:
            return
        log.samples["e2e_sim_ns"] = latencies
        queue = sum(r.queue_ns_total for r in reports)
        reconfig = sum(r.reconfig_ns_total for r in reports)
        busy = queue + reconfig + sum(r.exec_ns_total for r in reports)
        served = sum(r.served for r in reports)
        log.values.update({
            "serve.sim_us_p99": percentile(latencies, 99) / 1e3,
            "serve.queue_ns_share": queue / busy,
            "serve.reconfig_ns_share": reconfig / busy,
            "serve.hot_rate": sum(r.hot_hits for r in reports) / served,
            "serve.context_switches": sum(r.context_switches for r in reports),
            "serve.max_backlog": max(r.max_backlog for r in reports),
        })

    def _meets_slo(self, report) -> bool:
        """p99 within the limit with shed or failed requests counted as
        misses, and no growing backlog: the final tenth of the arrivals
        must meet the limit too."""
        if report.shed or report.failed:
            return False
        records = sorted(report.records, key=lambda r: r.arrival_ns)
        tail = records[len(records) * 9 // 10:]
        return (percentile(self._latencies(records), 99) <= SERVE_SLO_NS
                and percentile(self._latencies(tail), 99) <= SERVE_SLO_NS)

    def _cluster(self, state, ctx: RoundContext, profile, rate, references) -> None:
        rec, log = ctx.rec, ctx.log
        load = 0.6 * 3 * rate
        op = ctx.next_op()
        with rec.span("cluster.run", op, "cluster"):
            plan = FaultPlan.node_poisson(
                duration_ns=1e9 * self.requests / load, n_nodes=3,
                rates_per_ms={"node_crash": CLUSTER_CRASHES_PER_MS},
                seed=state["plan_seed"])
            cluster = ClusterSystem(profile, n_nodes=3, replication=2,
                                    fault_plan=plan)
            report = cluster.run(OpenLoopWorkload(
                state["tenants"], rate_qps=load, n_requests=self.requests,
                seed=state["arrival_seed"] + op))
        log.ops.append(Op(rec.last, 0.0, "cluster", "cluster"))
        if references is not None:
            self._check_records(ctx, report.records, references, "cluster")
        log.values.update({
            "cluster.run_s": rec.last,
            "cluster.availability": report.availability,
            "cluster.retries": report.retries,
            "cluster.hedge_win_rate": (report.hedge_wins / report.hedges
                                       if report.hedges else 0.0),
            "cluster.failover_routes": report.failover_routes,
            "cluster.degraded_ratio": report.degraded_ratio,
            "cluster.staleness_p99_us": report.staleness_p99_ns / 1e3,
        })


WORKLOADS = {w.name: w for w in (ScanWorkload, PimWorkload, HtapWorkload,
                                 ServeWorkload)}
