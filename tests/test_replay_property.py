"""Property test: batched replay is bit-identical to per-event simulation.

Hypothesis drives randomized epoch mixes — projection / windowed /
multirun (including a group whose writes reach the port out of emission
order) / pushdown-aggregation epochs across designs, cold and hot —
and asserts that the fast-forward replay produces *exactly* the
simulated observables of the cycle-level run: elapsed nanoseconds,
query answers, final simulation time, and the full instrument contents
(counters bit-for-bit, histograms bucket-for-bucket) of every
deterministic component.

Each mix additionally runs with the numpy gate forced shut
(``repro.sim.vector._NUMPY = None``), pinning the contract that the
replay does not depend on numpy being importable: all three executions
must agree on every compared bit. Every epoch is computed fresh from
its start state, so hot epochs (which start later, on a machine the
cold epoch left behind) must stay indistinguishable too.
"""

import dataclasses

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import QueryExecutor, RelationalMemorySystem
from repro.config import ZCU102
from repro.query.queries import q1, q2
from repro.rme.designs import BSL, MLP, PCK
from repro.sim import vector
from tests.conftest import build_relation

FASTPATH = dataclasses.replace(ZCU102, fastpath=True)
CYCLE_LEVEL = dataclasses.replace(ZCU102, fastpath=False)

#: Multi-run column groups: two narrow runs, and a wide run followed by a
#: narrow one (its writes reach the port out of emission order on MLP).
MULTIRUN_GROUPS = (
    ("A1", "A3"),
    tuple(f"A{i}" for i in range(1, 11)) + ("A12",),
)


def _registry_snapshot(system) -> dict:
    """Every deterministic instrument of the run, as comparable tuples."""
    engine = system.rme
    components = {
        "rme": engine.stats,
        "dram": engine.dram.stats,
        "monitor": engine.monitor.stats,
        "fetch": engine.fetch_pool.stats,
        "buffer": engine.buffer.stats,
    }
    snap = {}
    for comp, stats in components.items():
        for name, counter in sorted(stats._counters.items()):
            if name.startswith("fastpath"):
                continue  # fastpath bookkeeping differs by construction
            snap[(comp, "counter", name)] = (counter.count, counter.total)
        for name, hist in sorted(stats._histograms.items()):
            snap[(comp, "histogram", name)] = (
                hist.count, hist.total, hist.min, hist.max,
                hist._underflow, tuple(sorted(hist._buckets.items())),
            )
    return snap


def _execute(platform, *, kind, design, n_rows, hot, group):
    """One full run; returns (answer tuple, final sim time, snapshot)."""
    table = build_relation(n_rows=n_rows)
    if kind == "aggregate":
        system = RelationalMemorySystem(platform, design)
        loaded = system.load_table(table)
        avar = system.register_hw_aggregate(loaded, "A1", "sum")
        system.warm_up(avar)
        if hot:
            system.flush_caches()
            system.warm_up(avar)
        answer = (system.rme.aggregate_result(),)
    else:
        kwargs = {}
        columns = ["A1"]
        var_kwargs = {}
        query = q1("A1")
        if kind == "multirun":
            columns = list(group)
            var_kwargs = {"allow_noncontiguous": True}
            query = q2(group[0], group[-1])
        elif kind == "windowed":
            kwargs["buffer_capacity"] = 256
            var_kwargs = {"windowed": True}
        system = RelationalMemorySystem(platform, design, **kwargs)
        loaded = system.load_table(table)
        var = system.register_var(loaded, columns, **var_kwargs)
        if hot:
            system.warm_up(var)
            system.flush_caches()
        result = QueryExecutor(system).run_rme(query, var)
        answer = (result.elapsed_ns, result.value, result.selectivity)
    return answer, system.sim.now, _registry_snapshot(system)


@settings(max_examples=12, deadline=None)
@given(
    kind=st.sampled_from(["project", "windowed", "multirun", "aggregate"]),
    design=st.sampled_from([BSL, PCK, MLP]),
    n_rows=st.sampled_from([128, 192, 256]),
    hot=st.booleans(),
    group=st.sampled_from(MULTIRUN_GROUPS),
)
@example(kind="multirun", design=MLP, n_rows=128, hot=False,
         group=MULTIRUN_GROUPS[1])
def test_batched_replay_bit_identical(kind, design, n_rows, hot, group):
    case = dict(kind=kind, design=design, n_rows=n_rows, hot=hot,
                group=group)
    reference = _execute(CYCLE_LEVEL, **case)

    saved = vector._NUMPY
    try:
        vector._NUMPY = vector._UNSET  # let numpy load if present
        vectorized = _execute(FASTPATH, **case)
        vector._NUMPY = None  # force the pure-Python bulk paths
        pure = _execute(FASTPATH, **case)
    finally:
        vector._NUMPY = saved

    assert vectorized == reference, case
    assert pure == reference, case
