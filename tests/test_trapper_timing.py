"""Timing-level tests of the Trapper and Fetch Unit paths."""

from repro.config import RMEConfig, ZCU102
from repro.memsys import DRAM, MemoryMap, PhysicalMemory
from repro.rme import BSL, MLP, RMEngine
from repro.sim import Simulator


def build(sim, design=MLP, R=64, N=64, C=4):
    mm = MemoryMap()
    mem = PhysicalMemory(mm)
    dram = DRAM(sim, ZCU102.dram, mem)
    table = mm.map("table", R * N + 64)
    pattern = bytes(range(256)) * (R * N // 256 + 1)
    mem.write(table.base, pattern[: R * N])
    eph = mm.map("eph", -(-C * N // 64) * 64, kind="pl")
    engine = RMEngine(sim, ZCU102, dram, design)
    engine.configure(RMEConfig(R, N, ((0, C),)), table.base, eph.base, table.limit)
    return engine, eph


def test_hot_read_latency_components(sim):
    """A buffer hit pays CDC in, trap, BRAM read, 4 beats, CDC out."""
    engine, eph = build(sim)
    engine.prefill()
    sim.run()
    start = sim.now
    proc = sim.process(engine.read_line(eph.base))
    sim.run()
    latency = sim.now - start
    p = ZCU102
    floor = (
        p.pl_cycles(p.cdc_pl_cycles)
        + p.pl_cycles(p.pl_txn_overhead_cycles)
        + p.pl_cycles(p.bram_read_cycles)
        + p.pl_cycles(64 / p.axi_bus_bytes)
        + p.cdc_ns
    )
    assert latency >= floor
    assert latency <= floor + p.pl_cycle_ns  # plus at most edge alignment
    del proc


def test_concurrent_hot_reads_serialise_on_response_port(sim):
    """N parallel hits take about N x the transfer beats, not 1x."""
    engine, eph = build(sim, N=64)
    engine.prefill()
    sim.run()
    start = sim.now
    for line in range(4):
        sim.process(engine.read_line(eph.base + 64 * line))
    sim.run()
    elapsed = sim.now - start
    beats = ZCU102.pl_cycles(64 / ZCU102.axi_bus_bytes)
    assert elapsed >= 4 * beats


def test_cold_miss_waits_for_line_completion(sim):
    """A cold demand read returns only once the fetch pipeline produced
    its line — and later lines take longer than line 0."""
    engine, eph = build(sim, design=BSL, N=32)
    proc0 = sim.process(engine.read_line(eph.base))
    sim.run()
    t_line0 = sim.now
    # Reconfigure cold and ask for the LAST line instead.
    engine2, eph2 = build(Simulator(), design=BSL, N=32)
    sim2 = engine2.sim
    last_line = (4 * 32 // 64) - 1
    proc_last = sim2.process(engine2.read_line(eph2.base + 64 * last_line))
    sim2.run()
    assert sim2.now > t_line0
    del proc0, proc_last


def test_cpu_can_consume_partial_results():
    """The paper's point: 'the CPU can immediately access partial results
    without having to wait for the RME to complete a full pass'."""
    sim = Simulator()
    engine, eph = build(sim, design=BSL, N=64)
    answered_at = []
    proc = sim.process(engine.read_line(eph.base))
    proc.add_callback(lambda _v: answered_at.append(sim.now))
    sim.run()
    full_pass_done = sim.now
    assert engine.is_hot
    # Line 0 was answered as soon as its 16 rows were packed — about a
    # quarter into the 64-row pass, far before the projection completed.
    assert answered_at and answered_at[0] < full_pass_done / 3
