"""Tests for the optional event tracer."""

import json

import pytest

from repro import RelationalMemorySystem, QueryExecutor, q4
from repro.errors import SimulationError
from repro.sim import Simulator, Tracer
from repro.sim.trace import emit, emit_span, write_chrome_trace
from tests.conftest import build_relation


def test_record_and_filter():
    tracer = Tracer()
    tracer.record(1.0, "a", "x", value=1)
    tracer.record(2.0, "b", "x")
    tracer.record(3.0, "a", "y")
    assert len(tracer) == 3
    assert len(tracer.filter(component="a")) == 2
    assert len(tracer.filter(event="x")) == 2
    assert len(tracer.filter(component="a", event="x")) == 1
    assert len(tracer.filter(since=2.5)) == 1
    assert tracer.count("x") == 2


def test_capacity_bounds_memory():
    tracer = Tracer(capacity=2)
    for i in range(5):
        tracer.record(float(i), "c", "e")
    assert len(tracer) == 2
    assert tracer.dropped == 3
    tracer.clear()
    assert len(tracer) == 0 and tracer.dropped == 0


def test_ring_buffer_keeps_newest_records():
    tracer = Tracer(capacity=3)
    for i in range(7):
        tracer.record(float(i), "c", f"e{i}")
    assert tracer.dropped == 4
    assert [r.event for r in tracer.records] == ["e4", "e5", "e6"]
    # The retained window keeps sliding as more records arrive.
    tracer.record(7.0, "c", "e7")
    assert [r.event for r in tracer.records] == ["e5", "e6", "e7"]
    assert tracer.dropped == 5


def test_capacity_validation():
    with pytest.raises(SimulationError):
        Tracer(capacity=0)


def test_span_records():
    tracer = Tracer()
    tracer.record(5.0, "dram", "access", dur=12.5, bank=3)
    tracer.record(20.0, "monitor", "line_complete")
    span, instant = tracer.records
    assert span.is_span and span.end == 17.5
    assert not instant.is_span and instant.end == 20.0
    assert "+12.5ns" in span.format()
    assert tracer.span_time(component="dram") == 12.5
    assert tracer.span_time(component="monitor") == 0.0
    assert tracer.components() == ["dram", "monitor"]


def test_emit_span_noop_without_tracer_and_records_duration():
    sim = Simulator()
    emit_span(sim, "x", "y", start=0.0)  # no tracer: must not raise
    assert sim.tracer is None
    tracer = Tracer().attach(sim)
    assert sim.tracer is tracer
    emit_span(sim, "x", "y", start=0.0, detail=1)
    (record,) = tracer.records
    assert record.time == 0.0 and record.dur == sim.now - 0.0
    assert record.details == {"detail": 1}


def test_render_contains_events():
    tracer = Tracer()
    tracer.record(10.0, "trapper", "buffer_hit", line=3)
    text = tracer.render()
    assert "trapper" in text and "buffer_hit" in text and "line=3" in text


def test_emit_noop_without_tracer():
    sim = Simulator()
    emit(sim, "x", "y")  # must not raise nor allocate a tracer
    assert sim.tracer is None


def test_rme_traces_query_execution():
    system = RelationalMemorySystem()
    system.sim.tracer = Tracer()
    loaded = system.load_table(build_relation(n_rows=128))
    var = system.register_var(loaded, ["A1"])
    executor = QueryExecutor(system)
    executor.run_rme(q4(), var)

    tracer = system.sim.tracer
    assert tracer.count("configure") == 1
    assert tracer.count("pipeline_start") == 1
    assert tracer.count("buffer_miss") > 0
    hot = executor.run_rme(q4(), var)
    assert tracer.count("buffer_hit") > 0
    del hot


def test_windowed_run_traces_switches():
    system = RelationalMemorySystem(buffer_capacity=2048)
    system.sim.tracer = Tracer()
    loaded = system.load_table(build_relation(n_rows=2048))
    var = system.register_var(loaded, ["A1"], windowed=True)
    QueryExecutor(system).run_rme(q4(), var)
    switches = system.sim.tracer.filter(event="window_switch")
    assert len(switches) == 3
    assert [s.details["to_window"] for s in switches] == [1, 2, 3]


def _traced_query_run(n_rows=128):
    system = RelationalMemorySystem()
    tracer = system.enable_tracing()
    loaded = system.load_table(build_relation(n_rows=n_rows))
    var = system.register_var(loaded, ["A1"])
    result = QueryExecutor(system).run_rme(q4(), var)
    return system, tracer, result


def test_query_produces_component_spans():
    _system, tracer, _result = _traced_query_run()
    spans = [r for r in tracer.records if r.is_span]
    assert spans, "a traced query must produce span records"
    by_component = {r.component for r in spans}
    # The causal chain of Figure 5 is all present.
    for component in ("trapper", "requestor", "dram", "fetch-0",
                      "write_port", "cpu0", "scan"):
        assert component in by_component, component
    # MLP runs 16 fetch lanes; each gets its own component lane.
    assert {f"fetch-{i}" for i in range(16)} <= by_component
    for span in spans:
        assert span.dur >= 0.0


def test_chrome_trace_schema_validity(tmp_path):
    _system, tracer, _result = _traced_query_run()
    path = tmp_path / "q4.trace.json"
    exported = write_chrome_trace(tracer, path)
    assert exported == len(tracer)

    trace = json.loads(path.read_text())  # round-trips as strict JSON
    assert trace["displayTimeUnit"] == "ns"
    events = trace["traceEvents"]
    assert len(events) >= len(tracer)
    names = {}
    for event in events:
        assert event["ph"] in {"X", "i", "M"}
        assert isinstance(event["pid"], int) and isinstance(event["tid"], int)
        if event["ph"] == "M":
            assert event["name"] in {"process_name", "thread_name"}
            if event["name"] == "thread_name":
                names[event["tid"]] = event["args"]["name"]
            continue
        assert isinstance(event["ts"], (int, float)) and event["ts"] >= 0
        assert isinstance(event["args"], dict)
        for value in event["args"].values():
            assert value is None or isinstance(value, (bool, int, float, str))
        if event["ph"] == "X":
            assert event["dur"] >= 0
        else:
            assert event["s"] == "t"  # thread-scoped instant
        assert event["tid"] in names  # every lane has a thread_name record
    assert "trapper" in names.values() and "dram" in names.values()
    # ts is microseconds: the largest span must match the sim's ns scale.
    spans = [e for e in events if e["ph"] == "X"]
    assert max(e["ts"] + e["dur"] for e in spans) < 10_000  # ~ms, not ns


def test_tracing_does_not_change_simulated_time():
    def run(traced):
        system = RelationalMemorySystem()
        if traced:
            system.enable_tracing(capacity=64)  # tiny: overflow must not matter
        loaded = system.load_table(build_relation(n_rows=256))
        var = system.register_var(loaded, ["A1"])
        executor = QueryExecutor(system)
        cold = executor.run_rme(q4(), var)
        hot = executor.run_rme(q4(), var)
        return cold.elapsed_ns, hot.elapsed_ns

    assert run(traced=False) == run(traced=True)
