"""Fast-forward replay: fetch epochs as one flat loop, scans as one ladder.

A steady-state RME scan is extraordinarily regular: the Requestor emits
one descriptor per PL cycle, every descriptor walks the same
issue-port → AXI → DRAM → AXI → extractor → write-port pipeline, and all
shared state (port reservations, DRAM bank/bus reservations, the credit
pool) is touched in a provably reconstructible order. The cycle-level
path spends ~30 simulator events per descriptor discovering timestamps
this module computes with plain arithmetic.

:func:`compute_epoch` replays the whole descriptor stream in one flat
loop. It is a *transcription* of the generator pipeline, not a model of
it: every timestamp is produced by the same float expressions, in the
same order, that the event-driven path would evaluate —
``now + ((start + cost) - now)`` instead of the mathematically equal
``start + cost``, because float addition is not associative and the
contract is bit-identical simulated time.

The one loop serves every epoch: whole projections, windowed row ranges,
multi-run geometries, rows that straddle bus beats, and pushdown sinks.
The descriptor stream enters it as columns computed straight from
Eqs. (1)-(5), one set per (offset, width) run, interleaved row-major and
run-minor as the Requestor emits them. Its correctness rests on ordering
lemmas transcribed from the event engine:

* descriptor *dispatches* are nondecreasing in emission order, so the
  issue-port and DRAM reservations replay in index order;
* DRAM completion times are strictly increasing, so DRAM-side statistics
  replay in index order, and no later descriptor leaves the extractor
  before this one's return from DRAM ``t4`` plus the shortest extraction
  ``e_min`` — the *overtaking bound*;
* parallel writers reach the write port in stable extractor-completion
  (``t5``) order: equal ``t5`` resolve to emission order, because the
  underlying simulator events were scheduled in that order at the same
  instant. ``t5`` can invert under heterogeneous bursts, so a write the
  next descriptors might still overtake waits in a small heap until the
  overtaking bound passes it; every other write goes straight to the
  port.

Pushdown epochs come in two flavours. **Reductions** (aggregation /
group-by) are content-independent in *timing* — the accumulator sink
adds one PL cycle per row and never touches the write port — and the
accumulator itself is fed fresh bytes at commit time. **Row filters**
have content-dependent timing (only matching rows occupy the write
port); they are covered only for single-lane designs, where the commit
stage is trivially in order.

Every epoch is computed fresh from the live start state: a timing record
is never reused, because timestamps that sit on the PS clock's
2/3-ns grid do not translate exactly to another start instant. Payload
bytes are read from memory at commit time.

Statistics are replayed in bulk through the instruments' own methods
(:meth:`~repro.sim.stats.Counter.add_all`,
:meth:`~repro.sim.stats.Counter.add_repeated`,
:meth:`~repro.sim.stats.Histogram.observe_all`): exact sums of constant
runs and one bucket computation per distinct value, bit-identical to the
per-event calls.

Every forwarded epoch, and every epoch a fallback reason kept at cycle
level, is also counted process-wide in :data:`FASTPATH_STATS`, the
``fastpath`` scope of :data:`~repro.sim.metrics.PROCESS_METRICS`.

**The scan ladder.** :func:`forward_scan` times the CPU side of a scan,
the loop :meth:`RelationalMemorySystem.measure` otherwise runs on the
event kernel: ``ScanDriver._run_segment`` -> ``MemoryHierarchy.load_line``
-> prefetch fills -> MSHRs -> L2 -> the trapper (``RMEngine.read_line``)
or ``DRAM.access``, and the write-backs of dirty victims. Each actor —
the demand stream, one per prefetch fill, one per write-back — is one
flat generator with its backend inlined, stepping on a local
``(time, seq)`` heap. Like :func:`compute_epoch`, the ladder is a
transcription: its per-line steps call no model object and touch no
instrument. It transcribes ``Cache.lookup``, ``contains`` and ``fill`` on
both levels, ``StreamPrefetcher.observe``, ``Trapper.read_line``,
``MonitorBypass.line_ready``/``wait_line``,
``ReorganizationBuffer.read_line`` and ``DRAM.access``, reading and
writing the state those methods keep (``Cache._sets``, the prefetcher's
stream, ``MonitorBypass._ff_schedule``, the buffer's fill and target
lists, the DRAM banks and bus) and copying no line bytes. Only
``DRAM.write`` (a dirty write-back) and the engine's activation run
model code. Its instruments keep these rules:

* *tallies*: each counter the ladder bumps is a local integer, committed
  once when the scan ends; integer sums are exact, so any order gives
  the same bits. Each float it records (fill, stall and trapped-read
  latencies, DRAM service times) goes to a local list in event order,
  committed through ``Counter.add_all``/``Histogram.observe_all``, which
  keep that order. The lists are flushed before foreign code that may
  add to the same instrument runs: the engine's activation (its epoch
  commit adds to DRAM's ``service_ns``) and every adopted callback;
* *no new instruments*: a zero tally creates no counter or histogram,
  as the event path creates none it never bumps;
* *the same sets*: a probe, presence test or fill of an absent cache set
  creates it empty, as ``Cache._set_for`` does;
* *state written back*: the prefetcher's stream and each cache's
  ``last_victim_dirty`` return to their objects when the scan ends;
* *the same errors*: the DRAM guard and the buffer's range and readiness
  checks raise with the event path's text. The plan refuses the tracers
  and faults that the rest of ``DRAM.access`` serves, and sends a DRAM
  region whose line reads ``PhysicalMemory`` would refuse to the event
  path.

Its timing rests on these rules:

* *one order*: the kernel's heap plus same-time deque pops entries in
  ``(time, seq)`` order, and the ladder's heap is keyed the same way.
  It takes a sequence number wherever the kernel does: every timeout,
  every process start (a prefetch fill, a write-back), every waiter an
  event wakes (a merged demand, an MSHR hand-off, a stalled trapped
  read), and every yield of an event that already fired (a free MSHR's
  acquire). Timestamps use the kernel's expression, ``now + delay``;
  ``sim.now`` is set to the ladder's clock before foreign code runs
  (the activation, an adopted callback, a write-back's step) and when
  the scan ends;
* *direct resumption*: an actor whose new entry no queued entry
  precedes (none is due at or before its time) resumes at once — the
  kernel would pop that entry next, its seq being the newest. The demand
  stream makes that test itself after an L1 hit or a compute step;
* *a quiet start*: a scan is forwarded only with no pending event, no
  line in flight, no MSHR held, one core, no tracer and no fault plan,
  so the ladder's actors are the only ones. The first trapped read of a
  cold scan activates the engine at that instant; the epoch is
  fast-forwarded then, and its drain marker is adopted into the ladder's
  heap under the seq the kernel gave it, so ``sim.now`` ends at
  max(scan end, ``pipeline_end``) and the kernel's queue ends empty;
* *no reconfiguration inside a scan*: the monitor's generation checks
  always pass and fills never decline, because windowed engines (window
  switches, declined prefetches) are refused;
* *forwarded epochs only*: a trapped read waits only on a
  fast-forwarded line, which is resident and becomes visible at its
  recorded completion instant; the wake fires per instant, lines in
  index order (``MonitorBypass._ff_fire``). An engine whose coming
  epoch would run cycle-level is refused.

A refused scan runs the event path and bumps ``scan_fallback_<reason>``
(``tracer``, ``faults``, ``multicore``, ``busy``, ``windowed``,
``epoch``); a forwarded one bumps ``scans``. A segment whose lines are
not all inside one mapped region (or outside the engine's projection)
runs the event path uncounted, which raises the addressing error.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from heapq import heappop, heappush, heappushpop
from operator import add, sub
from typing import Dict, List, Optional, Tuple

from .metrics import PROCESS_METRICS

#: Epoch replay modes (mirrors the engine's eligibility analysis).
MODE_PROJECT = "project"
MODE_REDUCTION = "reduction"
MODE_ROWFILTER = "rowfilter"


class EpochTiming:
    """The timing record of one fetch epoch.

    The descriptor columns (``r_addrs`` … ``w_addrs``, ``read_bytes``,
    ``beats``) are in emission order. Observation lists are in the exact
    order the cycle-level path accumulates them, so the commit step can
    replay histogram observations and float counter accumulations
    bit-identically: requestor and DRAM observations in emission order;
    the write port's ``port_waits``/``write_costs`` and the fetch units'
    ``service_obs`` in port order, which for parallel writers is stable
    ``t5`` order, merged against the overtaking bound ``t4 + e_min``
    (see the module docstring).
    """

    __slots__ = (
        "n", "mode",
        "r_addrs", "leads", "bursts", "widths", "w_addrs",
        "write_costs",
        "credit_waits", "port_waits", "dram_waits", "dram_service",
        "service_obs", "read_bytes", "beats",
        "row_hits", "row_empty", "row_misses",
        "line_schedule",  #: completion instant per packed line (projections)
        "feeds",  #: descriptor indices in accumulator feed order
        "matches",  #: (offset, row_bytes, write_end) in commit order
        "pd_matches", "pd_cursor",
        "t_fin",
        "final_banks",  #: (open_row, ready_at) per bank
        "final_bus_free", "final_issue_free", "final_wp_free",
        "pipeline_end",
    )

    def __init__(self) -> None:
        self.n = 0
        self.mode = MODE_PROJECT
        self.write_costs: List[float] = []
        self.credit_waits: List[float] = []
        self.port_waits: List[float] = []
        self.dram_waits: List[float] = []
        self.dram_service: List[float] = []
        self.service_obs: List[float] = []
        self.read_bytes: List[int] = []
        self.beats: List[int] = []
        self.row_hits = 0
        self.row_empty = 0
        self.row_misses = 0
        self.line_schedule: List[float] = []
        self.feeds: List[int] = []
        self.matches: List[Tuple[int, bytes, float]] = []
        self.pd_matches = 0
        self.pd_cursor = 0
        self.t_fin = 0.0
        self.final_banks: List[Tuple[int, float]] = []
        self.final_bus_free = 0.0
        self.final_issue_free = 0.0
        self.final_wp_free = 0.0
        self.pipeline_end = 0.0


#: Process-wide fast-path tallies across every engine instance: ``epochs``
#: counts fast-forwarded epochs (bumped by :func:`fast_forward`) and
#: ``fallback_<reason>`` the epochs each reason sent to cycle level
#: (bumped by :meth:`RMEngine._start_current_window`). ``repro perf``
#: diffs them per scenario; worker processes report theirs through
#: :mod:`repro.parallel`.
FASTPATH_STATS = PROCESS_METRICS.scope("fastpath")


def _descriptor_columns(geometry, rows, w_bias: int):
    """Eqs. (1)-(5) for every descriptor of the epoch, as columns.

    Returns ``(r_addrs, leads, bursts, widths, w_addrs)`` in the
    Requestor's emission order: row-major, run-minor. ``rows`` is the
    epoch's contiguous row window (None = every row); write addresses
    are window-relative. Eq. (6)'s trailing cut needs no column: the
    extractor keeps ``width`` bytes after the lead.
    """
    config = geometry.config
    bus = geometry.bus_bytes
    row_size = config.row_size
    packed = config.col_width  # a row's packed bytes, every run together
    if rows is None:
        rows = range(config.row_count)
    n_rows = len(rows)
    row_base = geometry.base_addr + row_size * rows.start
    w_base = packed * rows.start - w_bias
    per_run = []
    prefix = 0
    for offset, width in config.runs:
        p_first = row_base + offset  # P_i of the window's first row
        p_end = p_first + row_size * n_rows
        if row_size % bus:
            # Rows straddle bus beats: each has its own lead and burst.
            positions = range(p_first, p_end, row_size)
            leads = [p % bus for p in positions]  # Eq. (5)
            r_addrs = list(map(sub, positions, leads))  # Eq. (2)
            bursts = [-(-(lead + width) // bus) for lead in leads]  # Eq. (3)
        else:
            # Every row starts at the same beat phase.
            lead = p_first % bus
            r_addrs = range(p_first - lead, p_end - lead, row_size)
            leads = [lead] * n_rows
            bursts = [-(-(lead + width) // bus)] * n_rows
        w_first = w_base + prefix  # Eq. (4), this run's place in the row
        w_addrs = range(w_first, w_first + packed * n_rows, packed)
        per_run.append((r_addrs, leads, bursts, [width] * n_rows, w_addrs))
        prefix += width
    if len(per_run) == 1:
        return per_run[0]
    k = len(per_run)
    columns = []
    for run_columns in zip(*per_run):
        column = [0] * (n_rows * k)
        for j, run_column in enumerate(run_columns):
            column[j::k] = run_column
        columns.append(column)
    return tuple(columns)


def _map_column(column, fn) -> list:
    """``[fn(x) for x in column]``, calling ``fn`` once per distinct value."""
    first = column[0]
    if column.count(first) == len(column):
        return [fn(first)] * len(column)
    values = {x: fn(x) for x in set(column)}
    return list(map(values.__getitem__, column))


def compute_epoch(engine, rows=None, w_bias: int = 0,
                  mode: str = MODE_PROJECT, pushdown=None) -> EpochTiming:
    """Replay the descriptor stream arithmetically from the current state.

    Pure with respect to the engine's *timing* state: reads the shared
    reservations, mutates nothing. Row-filter epochs additionally read
    table content (matching rows alone occupy the write port).

    Every expression below mirrors a specific line of the cycle-level
    path (requestor pace/credits, the fetch worker, the DRAM reservation
    math, the monitor write port); see those modules for the hardware
    rationale — this loop intentionally adds none of it.
    """
    sim = engine.sim
    platform = engine.platform
    design = engine.design
    geometry = engine.geometry
    pool = engine.fetch_pool
    dram = engine.dram

    t0 = sim.now
    pace = platform.pl_cycles(platform.requestor_cycles)
    issue_cost = platform.pl_cycles(platform.pl_dram_issue_cycles)
    axi_ns = pool.axi.latency_ns
    read_limit = pool.read_limit
    serial = design.serial_write
    workers = design.outstanding_txns
    capacity = max(2, 2 * workers)
    line_size = platform.cache_line
    # The pushdown sink charges one PL cycle per row before deciding.
    sink_ns = platform.pl_cycles(1.0)

    timing = EpochTiming()
    timing.mode = mode
    r_addrs, leads, bursts, widths, w_addrs = columns = _descriptor_columns(
        geometry, rows, w_bias)
    (timing.r_addrs, timing.leads, timing.bursts, timing.widths,
     timing.w_addrs) = columns
    timing.n = len(leads)
    bus = geometry.bus_bytes
    wanted_col = _map_column(bursts, lambda burst: burst * bus)
    extract_col = _map_column(bursts, lambda burst: platform.pl_cycles(
        platform.extractor_cycles + (burst - 1)))
    cost_col = _map_column(widths, pool._write_port_cost)
    # The shortest extraction, for the overtaking bound t4 + e_min.
    e_min = min(extract_col)

    t = dram.t
    t_controller = t.t_controller
    t_cas = t.t_cas
    t_ccd = t.t_ccd
    t_rcd = t.t_rcd
    t_rp = t.t_rp
    t_beat = t.t_beat
    dram_bus = t.bus_bytes
    row_buffer_bytes = t.row_buffer_bytes
    n_banks = t.n_banks

    # Start state of every shared reservation.
    banks = [[bank.open_row, bank.ready_at] for bank in dram._banks]
    bus_free = dram._bus_free_at
    issue_free = pool.issue_port_free_at
    wp_free = engine.monitor._write_port_free_at
    # Credits and lanes: each descriptor pushes its predecessor's retire
    # time and pops the earliest free slot. ``t0`` placeholders leave the
    # first ``capacity`` emissions and ``workers`` dispatches ungated.
    credits = [t0] * (capacity - 1)
    lanes = [t0] * (workers - 1)

    credit_waits = timing.credit_waits
    dram_waits = timing.dram_waits
    dram_service = timing.dram_service
    read_bytes_list = timing.read_bytes
    beats_list = timing.beats
    port_waits = timing.port_waits
    write_costs = timing.write_costs
    service_obs = timing.service_obs
    feeds = timing.feeds
    matches = timing.matches

    project = mode == MODE_PROJECT
    reduction = mode == MODE_REDUCTION
    # A packed line completes at the last committed write touching it:
    # writes tile the window exactly once, and port completions increase.
    ends = timing.line_schedule = (
        [t0] * -(-sum(widths) // line_size) if project else []
    )
    # Parallel writers and multi-lane reduction feeds leave in t5 order.
    merged = (not serial) if project else (reduction and workers > 1)
    pending: List[Tuple[float, int, float]] = []
    memory = dram.memory if mode == MODE_ROWFILTER else None
    pd_cursor = 0
    pd_matches = 0
    t_fin = t0

    def release(bound, wp_free):
        """Commit, in stable t5 order, every merged descriptor no later
        one can overtake (``t5 <= bound``); returns the port's free time."""
        while pending and pending[0][0] <= bound:
            arrival, index, service = heappop(pending)
            if project:
                cost = cost_col[index]
                start_write = arrival if arrival >= wp_free else wp_free
                wp_free = start_write + cost
                port_waits.append(start_write - arrival)
                write_costs.append(cost)
                t6 = arrival + (wp_free - arrival)
                first = w_addrs[index] // line_size
                last = (w_addrs[index] + widths[index] - 1) // line_size
                ends[first : last + 1] = [t6] * (last + 1 - first)
            else:
                feeds.append(index)
            service_obs.append(service)
        return wp_free

    finish = t0
    previous_emit = t0
    index = -1
    for r_addr, wanted, extract_ns, cost, w_addr, width in zip(
            r_addrs, wanted_col, extract_col, cost_col, w_addrs, widths):
        index += 1
        # Requestor: one descriptor per PL cycle, gated by fetch credits
        # (granted inside the retiring worker's callback, same timestamp).
        emit_ready = previous_emit + pace
        blocked_until = heappushpop(credits, finish)
        emitted = emit_ready if emit_ready >= blocked_until else blocked_until
        credit_waits.append(emitted - emit_ready)
        previous_emit = emitted
        # Store hand-off: the earliest-free lane takes the descriptor.
        free_at = heappushpop(lanes, finish)
        dispatch = emitted if emitted >= free_at else free_at
        clip = read_limit - r_addr
        read_bytes = wanted if wanted <= clip else clip
        # Issue port reservation + resume (FetchUnitPool._reserve_issue_port).
        start_issue = dispatch if dispatch >= issue_free else issue_free
        issue_free = start_issue + issue_cost
        t1 = dispatch + ((start_issue + issue_cost) - dispatch)
        # PL->DRAM AXI hop.
        t2 = t1 + axi_ns
        # DRAM reservation math (DRAM.access), evaluated at now == t2.
        block = r_addr // row_buffer_bytes
        bank = banks[block % n_banks]
        row_id = block // n_banks
        beats = (r_addr + read_bytes - 1) // dram_bus - r_addr // dram_bus + 1
        arrive = t2 + t_controller
        ready_at = bank[1]
        start = arrive if arrive >= ready_at else ready_at
        open_row = bank[0]
        if open_row == row_id:
            first_beat_ready = start + t_cas
            occupancy = t_ccd
            timing.row_hits += 1
        elif open_row < 0:
            first_beat_ready = start + t_rcd + t_cas
            occupancy = t_rcd + t_ccd
            timing.row_empty += 1
        else:
            first_beat_ready = start + t_rp + t_rcd + t_cas
            occupancy = t_rp + t_rcd + t_ccd
            timing.row_misses += 1
        bank[0] = row_id
        transfer_start = first_beat_ready if first_beat_ready >= bus_free else bus_free
        transfer_end = transfer_start + beats * t_beat
        bus_free = transfer_end
        command_done = start + occupancy
        bus_tail = transfer_end - beats * t_beat
        bank[1] = command_done if command_done >= bus_tail else bus_tail
        service = transfer_end - t2
        dram_service.append(service)
        t3 = t2 + service
        dram_waits.append(t3 - t2)
        read_bytes_list.append(read_bytes)
        beats_list.append(beats)
        # DRAM->PL AXI hop, then the Column Extractor.
        t4 = t3 + axi_ns
        t5 = t4 + extract_ns

        if merged and (pending or extract_ns != e_min):
            # A later descriptor may still overtake this one: hold it.
            # Parallel writers retire at spawn, reductions after the sink.
            finish = t5 if project else t5 + sink_ns
            heappush(pending, (t5, index, finish - dispatch))
            wp_free = release(t4 + e_min, wp_free)
        elif project:
            # Nothing can overtake: the write takes the port now
            # (MonitorBypass.write at now == t5).
            start_write = t5 if t5 >= wp_free else wp_free
            end_write = start_write + cost
            wp_free = end_write
            port_waits.append(start_write - t5)
            write_costs.append(cost)
            t6 = t5 + (end_write - t5)
            first = w_addr // line_size
            last = (w_addr + width - 1) // line_size
            ends[first] = ends[last] = t6
            if last - first > 1:  # a write wider than a line fills those inside
                ends[first:last] = [t6] * (last - first)
            # Serial designs retire when the write lands; MLP retires at
            # spawn and lets the writer run on.
            finish = t6 if serial else t5
            service_obs.append(finish - dispatch)
        elif reduction:
            finish = t5 + sink_ns
            feeds.append(index)
            service_obs.append(finish - dispatch)
        else:  # MODE_ROWFILTER — single-lane by eligibility, strictly in order
            t5b = t5 + sink_ns
            lead = leads[index]
            payload = memory.read(r_addr, read_bytes)
            useful = payload[lead : lead + width]
            if pushdown.matches(useful):
                offset = pd_cursor
                pd_cursor += len(useful)
                pd_matches += 1
                start_write = t5b if t5b >= wp_free else wp_free
                end_write = start_write + cost
                wp_free = end_write
                port_waits.append(start_write - t5b)
                write_costs.append(cost)
                finish = t5b + (end_write - t5b)
                matches.append((offset, useful, finish))
            else:
                finish = t5b
            service_obs.append(finish - dispatch)
        if not project and finish > t_fin:
            t_fin = finish
    if merged:
        wp_free = release(float("inf"), wp_free)

    timing.final_banks = [(bank[0], bank[1]) for bank in banks]
    timing.final_bus_free = bus_free
    timing.final_issue_free = issue_free
    timing.final_wp_free = wp_free
    timing.pd_matches = pd_matches
    timing.pd_cursor = pd_cursor
    if project:
        # The drain ends when the last write lands.
        timing.pipeline_end = max(ends) if ends else t0
    else:
        # The supervisor finalises when the last worker returns — the
        # maximum retire time (workers pick up STOP at their last retire).
        timing.t_fin = t_fin
        timing.pipeline_end = t_fin
    return timing


def _noop(_arg) -> None:
    """Placeholder for the cycle-level path's final drain event."""


def fast_forward(engine, rows=None, w_bias: int = 0,
                 mode: str = MODE_PROJECT) -> None:
    """Commit one fast-forwarded epoch onto the live system.

    The engine has already created its Requestor (processes unstarted)
    and verified eligibility. After this returns, every piece of state
    the cycle-level pipeline would eventually have produced is in place:
    device reservations, statistics, the filled reorganization buffer
    (or accumulator / selection output for pushdown epochs), and a
    completion schedule the Monitor consults so lines still become
    *visible* at their true completion times.
    """
    sim = engine.sim
    pool = engine.fetch_pool
    dram = engine.dram
    monitor = engine.monitor
    buffer = engine.buffer
    stats = engine.stats

    timing = compute_epoch(engine, rows, w_bias, mode, engine._pushdown)
    FASTPATH_STATS.bump("epochs")
    n = timing.n
    # Device end states: the reservations the last descriptor leaves behind.
    for bank, (open_row, ready_at) in zip(dram._banks, timing.final_banks):
        bank.open_row = open_row
        bank.ready_at = ready_at
    dram._bus_free_at = timing.final_bus_free
    dram.guard_until = timing.pipeline_end
    pool.issue_port_free_at = timing.final_issue_free
    monitor._write_port_free_at = timing.final_wp_free

    # Statistics, replayed in the exact accumulation order of the
    # event-driven path (observation lists are pre-ordered by the
    # compute step's ordering lemmas).
    requestor_stats = engine.requestor.stats
    requestor_stats.counter("descriptors").add_repeated(n)
    requestor_stats.counter("burst_beats").add_all(timing.bursts)
    requestor_stats.histogram("credit_wait_ns").observe_all(timing.credit_waits)

    fetch_stats = pool.stats
    fetch_stats.counter("descriptors").add_repeated(n)
    fetch_stats.counter("bytes_fetched").add_all(timing.read_bytes)
    fetch_stats.counter("bytes_useful").add_all(timing.widths)
    fetch_stats.histogram("dram_wait_ns").observe_all(timing.dram_waits)
    fetch_stats.histogram("service_ns").observe_all(timing.service_obs)

    dram_stats = dram.stats
    if timing.row_hits:
        dram_stats.counter("row_hits").add_repeated(timing.row_hits)
    if timing.row_empty:
        dram_stats.counter("row_empty").add_repeated(timing.row_empty)
    if timing.row_misses:
        dram_stats.counter("row_misses").add_repeated(timing.row_misses)
    dram_stats.counter("requests_rme").add_repeated(n)
    dram_stats.counter("bytes_rme").add_all(timing.read_bytes)
    dram_stats.counter("beats").add_all(timing.beats)
    dram_stats.counter("service_ns").add_all(timing.dram_service)
    dram_stats.histogram("service_latency_ns").observe_all(timing.dram_service)

    monitor_stats = monitor.stats
    if mode != MODE_REDUCTION:
        monitor_stats.counter("writes").add_repeated(len(timing.write_costs))
        monitor_stats.counter("write_port_busy_ns").add_all(timing.write_costs)
        monitor_stats.histogram("port_wait_ns").observe_all(timing.port_waits)

    memory = dram.memory
    if mode == MODE_PROJECT:
        _commit_projection(timing, memory, buffer, monitor, monitor_stats)
    elif mode == MODE_REDUCTION:
        _commit_reduction(engine, timing, memory, buffer, monitor, stats)
    else:
        _commit_rowfilter(engine, timing, buffer, monitor, monitor_stats,
                          stats)
    sim.schedule_at(timing.pipeline_end, _noop)


def _payload_blob(timing, memory) -> Tuple[int, bytes]:
    """One bulk read covering every descriptor's burst: (base, bytes)."""
    base = min(timing.r_addrs)
    end = max(map(add, timing.r_addrs, timing.read_bytes))
    return base, memory.read(base, end - base)


def _commit_projection(timing, memory, buffer, monitor,
                       monitor_stats) -> None:
    """Fill the reorganization buffer and install the visibility schedule.

    Payload bytes are read from simulated memory and sliced into the
    packed projection image, which does not depend on commit order, then
    installed in one store; the per-write statistics are replayed so
    write/line bookkeeping matches the cycle-level path exactly.
    """
    if timing.n:
        blob_base, blob = _payload_blob(timing, memory)
        widths = timing.widths
        image = bytearray(sum(widths))
        for w_addr, r_addr, lead_skip, width in zip(
                timing.w_addrs, timing.r_addrs, timing.leads, widths):
            start = (r_addr - blob_base) + lead_skip
            image[w_addr : w_addr + width] = blob[start : start + width]
        buffer.fill_fastforward(bytes(image))
        # The cycle-level path bumps the buffer's write counter once per
        # descriptor-sized store; replicate that bit-exactly.
        buffer.stats.counter("writes").add_all(widths)
        monitor_stats.counter("lines_completed").add_repeated(
            len(timing.line_schedule))
    # Lines become *visible* per this schedule; the drain marker keeps
    # ``sim.run()``'s final timestamp identical to the event-driven drain.
    monitor.install_fastforward(dict(enumerate(timing.line_schedule)),
                                timing.pipeline_end)


def _commit_reduction(engine, timing, memory, buffer, monitor, stats) -> None:
    """Feed the PL accumulator and deposit the result register line(s).

    The timing record is content-independent; the accumulator is fed the
    row bytes read here, in the exact order the fetch lanes
    would have delivered them.
    """
    accumulator = engine._pd_accumulator
    if timing.feeds:
        blob_base, blob = _payload_blob(timing, memory)
        r_addrs = timing.r_addrs
        leads = timing.leads
        widths = timing.widths
        feed = accumulator.feed
        for index in timing.feeds:
            start = (r_addrs[index] - blob_base) + leads[index]
            feed(blob[start : start + widths[index]])
    stats.counter("pd_rows_seen").add_repeated(timing.n)
    engine._pd_finalized = True
    payload = accumulator.register_payload()
    if payload:
        monitor.complete_now(0, payload)
    monitor.finalize(len(payload))
    stats.bump("pushdown_finalized")
    # Result lines become visible when the supervisor would have
    # finalised the stream — the last worker's retirement.
    schedule = {line_idx: timing.t_fin for line_idx in range(buffer.n_lines)}
    monitor.install_fastforward(schedule, timing.pipeline_end)


def _commit_rowfilter(engine, timing, buffer, monitor, monitor_stats,
                      stats) -> None:
    """Commit the matching rows and the end-of-stream truncation."""
    schedule: Dict[int, float] = {}
    lines_completed = monitor_stats.counter("lines_completed")
    for offset, row_bytes, end in timing.matches:
        for line_idx in buffer.write(offset, row_bytes):
            lines_completed.count += 1
            lines_completed.total += 1.0
            schedule[line_idx] = end
    stats.counter("pd_rows_seen").add_repeated(timing.n)
    engine._pd_next_row = timing.n
    engine._pd_cursor = timing.pd_cursor
    engine._pd_matches = timing.pd_matches
    engine._pd_finalized = True
    for line_idx in buffer.truncate(timing.pd_cursor):
        lines_completed.count += 1
        lines_completed.total += 1.0
        schedule[line_idx] = timing.t_fin
    stats.bump("pushdown_finalized")
    monitor.install_fastforward(schedule, timing.pipeline_end)


# -- the scan ladder ------------------------------------------------------------------


def _scan_plan(system, segments):
    """``(reason, plans)`` for one :meth:`RelationalMemorySystem.measure`.

    ``reason is None`` means the scan is forwarded, with one
    ``(segment, trapped)`` plan per segment (``trapped`` is True when its
    lines are trapped by the engine, False when they are DRAM lines). A
    non-empty reason is a counted fallback; the empty reason sends the
    scan to the event path uncounted, because that path raises the
    addressing error (an unmapped or out-of-projection line, an
    unconfigured engine) this ladder does not reproduce.
    """
    from ..memsys.hierarchy import DRAMBackend

    sim = system.sim
    rme = system.rme
    if sim.tracer is not None:
        return "tracer", None
    if (system.faults is not None or system.dram.faults is not None
            or rme.faults is not None or rme.trapper.faults is not None):
        return "faults", None
    if len(system.hierarchies) > 1 or rme.n_cores > 1:
        return "multicore", None
    hierarchy = system.hierarchy
    if (sim._queue or sim._immediate or hierarchy._inflight
            or hierarchy.mshrs.in_use):
        return "busy", None
    line = hierarchy.line_size
    routes = hierarchy._backends
    plans = []
    for segment in segments:
        if segment.n_elems == 0:
            plans.append((segment, False))
            continue
        first = segment.start - segment.start % line
        last_addr = (segment.start + (segment.n_elems - 1) * segment.stride
                     + segment.elem_size - 1)
        entry = routes.lookup(first)
        if entry is None or last_addr >= entry[0].limit:
            return "", None
        region, backend = entry
        if backend is rme:
            if rme.geometry is None:
                return "", None
            offset = region.base - rme.ephemeral_base
            if offset < 0 or offset % line or (
                    (region.limit - 1 - rme.ephemeral_base) // line * line
                    >= rme._projected_total):
                return "", None
            if rme.windowed:
                return "windowed", None
            if not rme.monitor.activated and rme._fastpath_plan()[0]:
                return "epoch", None
            plans.append((segment, True))
        elif type(backend) is DRAMBackend:
            # The ladder reads no line bytes: a region the event path's
            # line reads would leave (or find unbacked) goes there.
            last_line = region.limit - 1 - (region.limit - 1) % line
            if region.backing is None or last_line + line > region.limit:
                return "", None
            plans.append((segment, False))
        else:
            return "", None
    return None, plans


def forward_scan(system, segments) -> Optional[float]:
    """Time a scan through the ladder; None when the event path must.

    The caller (:meth:`RelationalMemorySystem.measure`) runs the
    event-driven :class:`~repro.memsys.cpu.ScanDriver` on None. Every
    forwarded scan bumps ``scans`` in :data:`FASTPATH_STATS`, every
    counted refusal ``scan_fallback_<reason>``.
    """
    reason, plans = _scan_plan(system, segments)
    if reason is not None:
        if reason:
            FASTPATH_STATS.bump("scan_fallback_" + reason)
        return None
    FASTPATH_STATS.bump("scans")
    return _run_scan(system, plans)


def _add_total(stats, name: str, n: int, total: int) -> None:
    """Commit ``n`` bumps of counter ``name`` that sum to ``total``.

    The ladder's counters only ever accumulate integers, whose float sums
    are exact below 2**53, so one add equals the per-event bumps in any
    order. A zero tally creates no counter, as no bump would have.
    """
    if n:
        counter = stats.counter(name)
        counter.count += n
        counter.total += total


def _add_counts(stats, counts: Dict[str, int]) -> None:
    """Commit ``counts[name]`` bumps of one for each counter."""
    for name, n in counts.items():
        _add_total(stats, name, n, n)


def _commit_cache(stats, demand_hits: int, demand_misses: int,
                  prefetch_hits: int, prefetch_misses: int,
                  repeat_hits: int = 0) -> None:
    """Commit one level's probe tallies under the counter names of
    ``Cache.lookup`` (``demand=False`` probes count as prefetch ones) and
    ``Cache.note_repeat_hits`` (``repeat_hits``, demand hits)."""
    demand = demand_hits + demand_misses + repeat_hits
    prefetch = prefetch_hits + prefetch_misses
    _add_counts(stats, {
        "requests": demand + prefetch,
        "requests_demand": demand,
        "requests_prefetch": prefetch,
        "hits": demand_hits + prefetch_hits + repeat_hits,
        "misses": demand_misses + prefetch_misses,
        "misses_demand": demand_misses,
        "misses_prefetch": prefetch_misses,
    })


def _run_scan(system, plans) -> float:
    """The ladder proper: ScanDriver -> load_line -> prefetch fills ->
    MSHRs -> L2 -> trapper or DRAM, as flat actors on one local queue.

    Entries are ``(time, seq, actor)``. An actor is a generator that
    yields the absolute time it resumes at (a timeout) or a list to wait
    in (an event: an in-flight fill, the MSHR queue, a stalled line). A
    dict entry is a fast-forward completion instant, ``{line: waiters}``;
    popping it wakes the waiters one sequence number each, as
    ``Event.succeed`` does. See the module docstring for the ordering,
    transcription and commit rules.
    """
    from ..errors import MemoryMapError, SimulationError

    sim = system.sim
    hierarchy = system.hierarchy
    platform = system.platform
    rme = system.rme
    trapper = rme.trapper
    monitor = rme.monitor
    buffer = rme.buffer
    dram = system.dram
    prefetcher = hierarchy.prefetcher

    line = hierarchy.line_size
    route = hierarchy.route
    mshr_capacity = hierarchy.mshrs.capacity
    l1_hit = platform.l1_hit_ns
    l1_miss_issue = platform.l1_miss_issue_ns
    l2_hit = platform.l2_hit_ns

    # Cache._set_for, minus its alignment check: every probe is a line base.
    l1 = hierarchy.l1
    l2 = hierarchy.l2
    l1_sets = l1._sets
    l2_sets = l2._sets
    l1_line = l1.line_size
    l2_line = l2.line_size
    l1_n_sets = l1.n_sets
    l2_n_sets = l2.n_sets
    l1_assoc = l1.assoc
    l2_assoc = l2.assoc
    l1_victim_dirty = l1.last_victim_dirty
    l2_victim_dirty = l2.last_victim_dirty

    # StreamPrefetcher: the stream lives in locals until the scan ends.
    pf_degree = prefetcher.degree
    pf_threshold = prefetcher.CONFIDENCE_THRESHOLD
    pf_reach = prefetcher.max_stride_lines * prefetcher.line_size
    pf_ahead = range(1, pf_degree + 1)
    pf_last = prefetcher._last_line
    pf_stride = prefetcher._stride
    pf_confidence = prefetcher._confidence

    # DRAM.access: timings, and the banks it reserves in place.
    timings = dram.t
    banks = dram._banks
    t_controller = timings.t_controller
    t_cas = timings.t_cas
    t_rcd = timings.t_rcd
    t_rp = timings.t_rp
    t_ccd = timings.t_ccd
    occupancy_empty = t_rcd + t_ccd
    occupancy_miss = t_rp + t_rcd + t_ccd
    t_beat = timings.t_beat
    dram_bus = timings.bus_bytes
    row_buffer_bytes = timings.row_buffer_bytes
    n_banks = timings.n_banks

    # RMEngine.read_line and Trapper.read_line.
    eph_base = rme.ephemeral_base
    pl_cycle = trapper.pl_clock.cycle_ns
    cdc_sync = trapper._cdc_sync_ns
    txn = trapper._txn_overhead_ns
    bram = trapper._bram_read_ns
    beats = trapper._response_beats
    transfer = trapper._transfer_ns
    cdc_ns = platform.cdc_ns

    heap: List[tuple] = []
    seq = sim._seq
    now = sim.now
    elapsed = 0.0
    port_free = trapper._response_port_free_at
    mshr_in_use = 0
    mshr_queue: deque = deque()
    inflight: Dict[int, list] = {}
    stalls: Dict[float, Dict[int, list]] = {}
    activated = monitor._activated
    ff_schedule = monitor._ff_schedule
    ff_armed = monitor._ff_armed
    fill_counts = buffer._fill
    fill_targets = buffer._target

    # Integer tallies, committed when the scan ends.
    l1_demand_hits = l1_demand_misses = l1_repeat_hits = 0
    l1_prefetch_hits = l1_prefetch_misses = 0
    l1_merged = l1_fills = l1_evictions = l1_writebacks = 0
    l2_demand_hits = l2_demand_misses = 0
    l2_prefetch_hits = l2_prefetch_misses = 0
    l2_fills = l2_evictions = l2_writebacks = 0
    streams_followed = prefetches_issued = 0
    reads_cpu = reads_prefetch = 0
    trap_requests = trap_hits = trap_misses = trap_responses = 0
    lookups_hit = lookups_miss = stalled_requests = buffer_reads = 0
    row_hits = row_empty = row_misses = 0
    dram_cpu = dram_prefetch = dram_beats = 0
    # Float observations, in event order: a float sum depends on it.
    fill_ns: List[float] = []
    stall_ns: List[float] = []
    latency_ns: List[float] = []
    service_ns: List[float] = []

    def flush() -> None:
        """Commit the float observations so far, before foreign code that
        may add to the same instruments (an epoch commit adds to DRAM's
        ``service_ns``) runs."""
        if fill_ns:
            hierarchy.stats.histogram("fill_ns").observe_all(fill_ns)
            fill_ns.clear()
        if stall_ns:
            trapper.stats.histogram("stall_ns").observe_all(stall_ns)
            stall_ns.clear()
        if latency_ns:
            trapper.stats.histogram("latency_ns").observe_all(latency_ns)
            latency_ns.clear()
        if service_ns:
            dram.stats.counter("service_ns").add_all(service_ns)
            dram.stats.histogram("service_latency_ns").observe_all(service_ns)
            service_ns.clear()

    def adopt() -> None:
        """Move whatever real code scheduled on the kernel into the local
        queue (the activation's drain marker), keeping its sequence."""
        nonlocal seq
        seq = sim._seq
        for time, entry_seq, callback, arg in sim._queue:
            heappush(heap, (time, entry_seq, foreign(callback, arg)))
        for entry_seq, callback, arg in sim._immediate:
            heappush(heap, (now, entry_seq, foreign(callback, arg)))
        sim._queue.clear()
        sim._immediate.clear()

    def foreign(callback, arg):
        """A callback the real kernel holds, run at its turn."""
        flush()
        sim.now = now
        sim._seq = seq
        callback(arg)
        adopt()
        return
        yield  # pragma: no cover - makes this a generator

    def drive(process):
        """A kernel process that only sleeps (DRAM.write), step by step."""
        while True:
            sim.now = now
            timeout = next(process, None)
            if timeout is None:
                return
            yield now + timeout.delay

    def visible(line_idx: int) -> bool:
        """MonitorBypass.line_ready: resident, and past its completion
        instant under a fast-forward schedule."""
        nonlocal lookups_hit, lookups_miss
        if not 0 <= line_idx < len(fill_counts):
            raise SimulationError(
                f"packed line {line_idx} out of range "
                f"[0, {len(fill_counts)})")
        ready = fill_counts[line_idx] == fill_targets[line_idx]
        if ready and ff_schedule is not None:
            completes_at = ff_schedule.get(line_idx)
            if completes_at is not None and completes_at > now:
                ready = False  # physically present, not yet visible
        if ready:
            lookups_hit += 1
        else:
            lookups_miss += 1
        return ready

    def l1_probe(line_base: int) -> bool:
        """``Cache.lookup(line_base, demand=False)`` on the L1."""
        nonlocal l1_prefetch_hits, l1_prefetch_misses
        index = line_base // l1_line % l1_n_sets
        cache_set = l1_sets.get(index)
        if cache_set is None:
            cache_set = l1_sets[index] = OrderedDict()
        if line_base in cache_set:
            cache_set.move_to_end(line_base)
            l1_prefetch_hits += 1
            return True
        l1_prefetch_misses += 1
        return False

    def l2_probe(line_base: int, demand: bool) -> bool:
        """``Cache.lookup(line_base, demand=demand)`` on the L2."""
        nonlocal l2_demand_hits, l2_demand_misses
        nonlocal l2_prefetch_hits, l2_prefetch_misses
        index = line_base // l2_line % l2_n_sets
        cache_set = l2_sets.get(index)
        if cache_set is None:
            cache_set = l2_sets[index] = OrderedDict()
        if line_base in cache_set:
            cache_set.move_to_end(line_base)
            if demand:
                l2_demand_hits += 1
            else:
                l2_prefetch_hits += 1
            return True
        if demand:
            l2_demand_misses += 1
        else:
            l2_prefetch_misses += 1
        return False

    def fill_l2(line_base: int, dirty: bool = False) -> None:
        """``Cache.fill`` on the L2, then ``_issue_writeback`` for a dirty
        victim (MemoryHierarchy._fill_l2)."""
        nonlocal seq, l2_victim_dirty, l2_fills, l2_evictions, l2_writebacks
        index = line_base // l2_line % l2_n_sets
        cache_set = l2_sets.get(index)
        if cache_set is None:
            cache_set = l2_sets[index] = OrderedDict()
        l2_victim_dirty = False
        if line_base in cache_set:
            cache_set[line_base] = cache_set[line_base] or dirty
            cache_set.move_to_end(line_base)
            return
        victim = None
        if len(cache_set) >= l2_assoc:
            victim, victim_dirty = cache_set.popitem(last=False)
            l2_evictions += 1
            if victim_dirty:
                l2_writebacks += 1
                l2_victim_dirty = True
        cache_set[line_base] = dirty
        l2_fills += 1
        if l2_victim_dirty:
            try:
                backend = route(victim)
            except MemoryMapError:
                return
            victim_dram = getattr(backend, "dram", None)
            if victim_dram is None:
                return
            seq += 1
            heappush(heap, (now, seq, drive(
                victim_dram.write(victim, line, source="writeback"))))

    def fill_l1(line_base: int) -> None:
        """``Cache.fill`` on the L1; its victim falls into the L2
        (MemoryHierarchy._fill_l1)."""
        nonlocal l1_victim_dirty, l1_fills, l1_evictions, l1_writebacks
        index = line_base // l1_line % l1_n_sets
        cache_set = l1_sets.get(index)
        if cache_set is None:
            cache_set = l1_sets[index] = OrderedDict()
        l1_victim_dirty = False
        if line_base in cache_set:
            cache_set.move_to_end(line_base)  # a clean fill keeps the bit
            return
        victim = None
        if len(cache_set) >= l1_assoc:
            victim, victim_dirty = cache_set.popitem(last=False)
            l1_evictions += 1
            if victim_dirty:
                l1_writebacks += 1
                l1_victim_dirty = True
        cache_set[line_base] = False
        l1_fills += 1
        if victim is not None:
            fill_l2(victim, l1_victim_dirty)

    def fill(line_base: int, demand: bool, trapped: bool):
        """``MemoryHierarchy.load_line`` past a demand's L1 miss, or a
        whole prefetch fill, with the backend inlined."""
        nonlocal seq, port_free, mshr_in_use, activated, ff_schedule
        nonlocal l1_merged, reads_cpu, reads_prefetch, trap_requests
        nonlocal trap_hits, trap_misses, trap_responses, stalled_requests
        nonlocal buffer_reads, row_hits, row_empty, row_misses, dram_cpu
        nonlocal dram_prefetch, dram_beats
        if demand:
            yield now + l1_miss_issue
        elif l1_probe(line_base):
            return
        waiters = inflight.get(line_base)
        if waiters is not None:
            # Merge with the fill already on its way (always filled: the
            # ladder never runs a windowed engine, the only one declining).
            l1_merged += 1
            yield waiters
            if demand:
                yield now + l1_hit
            return
        waiters = inflight[line_base] = []
        if mshr_in_use < mshr_capacity:
            # The acquire event fired at once; yielding it resumes the
            # fill one sequence number later at the same instant.
            mshr_in_use += 1
            yield now
        else:
            yield mshr_queue
        if l1_probe(line_base):
            pass  # filled while we waited for an MSHR slot
        elif l2_probe(line_base, demand):
            yield now + l2_hit
            fill_l1(line_base)
        else:
            fill_start = now
            yield now + (l1_hit + l2_hit)
            if trapped:
                # RMEngine.read_line -> _serve_line -> Trapper.read_line.
                if demand:
                    reads_cpu += 1
                else:
                    reads_prefetch += 1
                line_idx = (line_base - eph_base) // line
                arrival = now
                trap_requests += 1
                if not activated:
                    # The first trapped read activates the engine: its
                    # epoch is fast-forwarded here, at this instant.
                    flush()
                    sim.now = now
                    sim._seq = seq
                    monitor.notice_access()
                    adopt()
                    activated = True
                    ff_schedule = monitor._ff_schedule  # installed just now
                # Trapper.read_line, one step per timeout.
                remainder = now % pl_cycle
                align = 0.0 if remainder < 1e-9 else pl_cycle - remainder
                yield now + (align + cdc_sync)
                yield now + txn
                if visible(line_idx):
                    trap_hits += 1
                else:
                    stall_start = now
                    trap_misses += 1
                    # MonitorBypass.wait_line: a resident line that is not
                    # visible yet becomes visible at its completion instant.
                    if fill_counts[line_idx] != fill_targets[line_idx]:
                        raise SimulationError(
                            f"scan ladder: packed line {line_idx} is "
                            "not resident; its epoch is not forwarded")
                    completes_at = ff_schedule[line_idx]
                    instant = stalls.get(completes_at)
                    if instant is None:
                        instant = stalls[completes_at] = {}
                    line_waiters = instant.get(line_idx)
                    if line_waiters is None:
                        line_waiters = instant[line_idx] = []
                    stalled_requests += 1
                    if completes_at not in ff_armed:
                        ff_armed.add(completes_at)
                        seq += 1
                        heappush(heap, (completes_at, seq, instant))
                    yield line_waiters
                    stall_ns.append(now - stall_start)
                    visible(line_idx)  # the re-probe after the wake
                yield now + bram
                start = now if now >= port_free else port_free
                end = start + transfer
                port_free = end
                trap_responses += 1
                yield now + (end - now)
                yield now + cdc_ns
                latency_ns.append(now - arrival)
                # ReorganizationBuffer.read_line; nobody reads the bytes.
                if fill_counts[line_idx] != fill_targets[line_idx]:
                    raise SimulationError(
                        f"packed line {line_idx} read before completion")
                buffer_reads += 1
            else:
                # DRAMBackend.read_line -> DRAM.access; nobody reads the
                # bytes, and the plan refuses the faults its tail handles.
                if now < dram.guard_until:
                    source = "cpu" if demand else "prefetch"
                    raise SimulationError(
                        f"DRAM access from {source!r} at t={now} during a "
                        "fast-forwarded epoch (guarded until "
                        f"t={dram.guard_until}); the fast path's "
                        "no-cross-traffic premise was violated"
                    )
                block = line_base // row_buffer_bytes
                bank = banks[block % n_banks]
                row_id = block // n_banks
                n_beats = ((line_base + line - 1) // dram_bus
                           - line_base // dram_bus + 1)
                arrive = now + t_controller
                ready_at = bank.ready_at
                start = arrive if arrive >= ready_at else ready_at
                open_row = bank.open_row
                if open_row == row_id:
                    first_beat_ready = start + t_cas
                    occupancy = t_ccd
                    row_hits += 1
                elif open_row < 0:
                    first_beat_ready = start + t_rcd + t_cas
                    occupancy = occupancy_empty
                    row_empty += 1
                else:
                    first_beat_ready = start + t_rp + t_rcd + t_cas
                    occupancy = occupancy_miss
                    row_misses += 1
                bank.open_row = row_id
                transfer_start = dram._bus_free_at
                if first_beat_ready > transfer_start:
                    transfer_start = first_beat_ready
                transfer_end = transfer_start + n_beats * t_beat
                dram._bus_free_at = transfer_end
                command_done = start + occupancy
                bus_tail = transfer_end - n_beats * t_beat
                bank.ready_at = (command_done
                                 if command_done >= bus_tail else bus_tail)
                if demand:
                    dram_cpu += 1
                else:
                    dram_prefetch += 1
                dram_beats += n_beats
                service = transfer_end - now
                service_ns.append(service)
                yield now + service
            fill_ns.append(now - fill_start)
            fill_l2(line_base)
            fill_l1(line_base)
        # The finally clause: release the MSHR (handing it to the oldest
        # waiter), retire the in-flight entry, fire the arrival event.
        if mshr_queue:
            seq += 1
            heappush(heap, (now, seq, mshr_queue.popleft()))
        else:
            mshr_in_use -= 1
        del inflight[line_base]
        for waiter in waiters:
            seq += 1
            heappush(heap, (now, seq, waiter))
        if demand:
            yield now + l1_hit

    def driver():
        """ScanDriver.run over every segment, the demand half of
        ``load_line`` (prefetcher, issue, L1 probe) inlined."""
        nonlocal seq, now, elapsed, pf_last, pf_stride, pf_confidence
        nonlocal streams_followed, prefetches_issued
        nonlocal l1_demand_hits, l1_demand_misses, l1_repeat_hits
        start_time = now
        for segment, trapped in plans:
            n_elems = segment.n_elems
            stride = segment.stride
            elem_size = segment.elem_size
            compute_ns = segment.compute_ns
            seg_start = segment.start
            if n_elems:
                # The home region of every prefetch: each line of the
                # segment lies in it.
                region = hierarchy._region_of(seg_start)
                home_base = region.base
                home_limit = region.limit
            index = 0
            while index < n_elems:
                addr = seg_start + index * stride
                line_base = addr - addr % line
                if stride == 0:
                    batch = n_elems - index
                else:
                    room = line_base + line - addr
                    in_line = -(-room // stride) if room > 0 else 1
                    batch = max(1, min(n_elems - index, in_line))
                load = line_base
                while True:
                    # StreamPrefetcher.observe.
                    confident = False
                    if pf_degree:
                        new_line = load != pf_last
                        if new_line:
                            if pf_last >= 0:
                                if load - pf_last == pf_stride:
                                    pf_confidence += 1
                                else:
                                    pf_stride = load - pf_last
                                    pf_confidence = 1
                            pf_last = load
                        confident = (pf_stride != 0
                                     and pf_confidence >= pf_threshold
                                     and abs(pf_stride) <= pf_reach)
                        if confident and new_line:
                            streams_followed += 1
                    if confident:
                        # MemoryHierarchy._issue_prefetches, with the
                        # L1 presence test (Cache.contains) inlined.
                        for ahead in pf_ahead:
                            target = load + pf_stride * ahead
                            if target < 0 or target in inflight:
                                continue
                            set_index = target // l1_line % l1_n_sets
                            cache_set = l1_sets.get(set_index)
                            if cache_set is None:
                                l1_sets[set_index] = OrderedDict()
                            elif target in cache_set:
                                continue
                            if not home_base <= target < home_limit:
                                continue
                            prefetches_issued += 1
                            seq += 1
                            heappush(heap, (now, seq,
                                            fill(target, False, trapped)))
                    # The demand L1 probe (Cache.lookup); a hit resumes
                    # at once unless a queued entry is due first.
                    set_index = load // l1_line % l1_n_sets
                    cache_set = l1_sets.get(set_index)
                    if cache_set is None:
                        cache_set = l1_sets[set_index] = OrderedDict()
                    if load in cache_set:
                        cache_set.move_to_end(load)
                        l1_demand_hits += 1
                        wake = now + l1_hit
                        if heap and heap[0][0] <= wake:
                            yield wake
                        else:
                            seq += 1
                            now = wake
                    else:
                        l1_demand_misses += 1
                        yield from fill(load, True, trapped)
                    if load != line_base:
                        break
                    l1_repeat_hits += batch - 1  # Cache.note_repeat_hits
                    if addr + (batch - 1) * stride + elem_size <= load + line:
                        break
                    # The batch's last element straddles into the next line.
                    load = line_base + line
                if compute_ns:
                    wake = now + batch * compute_ns
                    if heap and heap[0][0] <= wake:
                        yield wake
                    else:
                        seq += 1
                        now = wake
                index += batch
        elapsed = now - start_time

    # The scan process starts like any other: one sequence number at now.
    seq += 1
    heappush(heap, (now, seq, driver()))
    try:
        while heap:
            now, _seq, actor = heappop(heap)
            if actor.__class__ is dict:
                # MonitorBypass._ff_fire: lines in order, waiters in order.
                del stalls[now]
                for line_idx in sorted(actor):
                    for waiter in actor[line_idx]:
                        seq += 1
                        heappush(heap, (now, seq, waiter))
                continue
            for wake in actor:
                if wake.__class__ is float:
                    seq += 1
                    if heap and heap[0][0] <= wake:
                        heappush(heap, (wake, seq, actor))
                        break
                    # Nothing is due before it: resume at once.
                    now = wake
                else:
                    wake.append(actor)
                    break
    finally:
        sim.now = now
        sim._seq = seq
        trapper._response_port_free_at = port_free
        prefetcher._last_line = pf_last
        prefetcher._stride = pf_stride
        prefetcher._confidence = pf_confidence
        l1.last_victim_dirty = l1_victim_dirty
        l2.last_victim_dirty = l2_victim_dirty
        flush()
        _commit_cache(l1.stats, l1_demand_hits, l1_demand_misses,
                      l1_prefetch_hits, l1_prefetch_misses, l1_repeat_hits)
        _commit_cache(l2.stats, l2_demand_hits, l2_demand_misses,
                      l2_prefetch_hits, l2_prefetch_misses)
        _add_counts(l1.stats, {
            "misses_merged": l1_merged, "fills": l1_fills,
            "evictions": l1_evictions, "writebacks": l1_writebacks})
        _add_counts(l2.stats, {
            "fills": l2_fills, "evictions": l2_evictions,
            "writebacks": l2_writebacks})
        _add_counts(prefetcher.stats, {
            "streams_followed": streams_followed,
            "issued": prefetches_issued})
        _add_counts(rme.stats, {
            "reads_cpu": reads_cpu, "reads_prefetch": reads_prefetch})
        _add_counts(trapper.stats, {
            "requests": trap_requests, "buffer_hits": trap_hits,
            "buffer_misses": trap_misses})
        _add_total(trapper.stats, "response_beats", trap_responses,
                   trap_responses * beats)
        _add_counts(monitor.stats, {
            "lookups_hit": lookups_hit, "lookups_miss": lookups_miss,
            "stalled_requests": stalled_requests})
        _add_counts(buffer.stats, {"reads": buffer_reads})
        _add_counts(dram.stats, {
            "row_hits": row_hits, "row_empty": row_empty,
            "row_misses": row_misses, "requests_cpu": dram_cpu,
            "requests_prefetch": dram_prefetch})
        _add_total(dram.stats, "bytes_cpu", dram_cpu, line * dram_cpu)
        _add_total(dram.stats, "bytes_prefetch", dram_prefetch,
                   line * dram_prefetch)
        _add_total(dram.stats, "beats", dram_cpu + dram_prefetch, dram_beats)
        # The closures name each other: break that cycle, so a finished
        # engine is freed by reference counting.
        adopt = foreign = None
    return elapsed
