"""The assembled Relational Memory Engine.

:class:`RMEngine` wires the six modules of Figure 5 together and exposes
two surfaces:

* a **configuration port** — :meth:`configure` latches a
  :class:`repro.config.RMEConfig` (Table 1, or several runs for a
  non-contiguous group) and resets the reorganization buffer, making the
  next access cold;
* a **CPU-facing line port** — :meth:`read_line` implements the memory
  hierarchy's backend protocol, so the cache subsystem routes ephemeral-
  region misses here exactly like it routes ordinary misses to DRAM.

Following the paper, the fetch pipeline does *not* start at configuration
time: the Monitor Bypass activates the Requestor when it detects the first
access after a reconfiguration, and from then on the CPU only stalls on
packed lines the Fetch Units have not completed yet.

**Windowed projections.** The prototype caps the extracted column group at
the on-chip capacity (2 MB) and notes that larger data requires a costly
periodic re-initialisation (Section 6.2). ``configure(..., windowed=True)``
models exactly that: the projection is laid out in buffer-sized windows; a
demand access to another window cancels the in-flight fetch session, pays
``window_reinit_ns``, and restarts the pipeline over the new window's
rows. Sequential scans work (with the re-initialisation cliff visible in
the timing); random access across windows thrashes — which is the point
the paper makes by avoiding such geometries.
"""

from __future__ import annotations

import math
import weakref
from typing import Callable, Optional

from ..config import PlatformConfig, RMEConfig
from ..errors import ConfigurationError, FetchTimeoutError, MemoryMapError
from ..memsys.dram import DRAM
from ..sim import Simulator, StatSet, Store
from ..sim.trace import emit, emit_span
from .designs import MLP, DesignParams
from .fetch_unit import FetchUnitPool
from .geometry import TableGeometry
from .monitor_bypass import MonitorBypass
from .reorg_buffer import DEFAULT_DATA_CAPACITY, ReorganizationBuffer
from .requestor import Requestor
from .trapper import Trapper


def _weak_hook(method: Callable) -> Callable:
    """``method`` as a hook for the engine's own parts to hold: it does
    not keep the engine alive, so a finished engine is freed by
    reference counting rather than left to the cycle collector."""
    ref = weakref.WeakMethod(method)
    return lambda *args: ref()(*args)


class _FetchSession:
    """One window's fetch pipeline: cancellable, with a write-address bias."""

    __slots__ = ("cancelled", "w_bias")

    def __init__(self, w_bias: int = 0):
        self.cancelled = False
        self.w_bias = w_bias


class RMEngine:
    """The full engine: Trapper, Monitor Bypass, Requestor, Fetch Units,
    Reorganization Buffer, configuration port."""

    def __init__(
        self,
        sim: Simulator,
        platform: PlatformConfig,
        dram: DRAM,
        design: DesignParams = MLP,
        buffer_capacity: int = DEFAULT_DATA_CAPACITY,
        name: str = "rme",
        n_cores: int = 1,
    ):
        platform.validate()
        self.sim = sim
        self.platform = platform
        self.dram = dram
        self.design = design
        self.name = name
        #: CPU cores sharing the DRAM; see :meth:`_fastpath_plan`.
        self.n_cores = n_cores
        self.stats = StatSet(name)
        self.buffer = ReorganizationBuffer(
            buffer_capacity, platform.cache_line, f"{name}-buffer"
        )
        self.monitor = MonitorBypass(sim, self.buffer, f"{name}-monitor")
        self.trapper = Trapper(sim, platform, self.monitor, self.buffer, f"{name}-trapper")
        self.fetch_pool = FetchUnitPool(
            sim, platform, dram, self.monitor, design, f"{name}-fetch"
        )
        self.monitor.activation_hook = _weak_hook(self._start_current_window)
        self.fetch_pool.on_unrecoverable = _weak_hook(self._fail)
        #: Optional :class:`repro.faults.FaultInjector` (None = no faults).
        self.faults = None
        #: The FaultError that killed the current configuration, if any;
        #: every subsequent trapped read re-raises it until reconfigured.
        self._fault = None
        #: Watchdog restarts since the last forward progress.
        self._session_restarts = 0
        self.geometry: Optional[TableGeometry] = None
        self.ephemeral_base: Optional[int] = None
        self.requestor: Optional[Requestor] = None
        # Windowed-projection state (projections larger than the buffer).
        self._projected_total = 0
        self._windowed = False
        self._window_bytes = 0
        self._window_rows = 0
        self._n_windows = 1
        self._current_window = 0
        self._session: Optional[_FetchSession] = None
        #: One-shot flag: the last configuration landed while fast-forwarded
        #: lines were still becoming visible, so the committed DRAM/port
        #: reservations describe traffic that never finished. The next
        #: pipeline start must take the cycle-level path.
        self._ff_interrupted = False
        # Pushdown state (selection commit stage / aggregation accumulator).
        self._pushdown = None
        self._pd_pending: dict = {}
        self._pd_next_row = 0
        self._pd_cursor = 0
        self._pd_matches = 0
        self._pd_accumulator = None
        self._pd_finalized = False

    # -- configuration port -------------------------------------------------------
    def configure(
        self,
        config: RMEConfig,
        table_base: int,
        ephemeral_base: int,
        read_limit: Optional[int] = None,
        windowed: bool = False,
        pushdown=None,
    ):
        """Latch a new geometry; the buffer goes cold.

        ``config`` is a :class:`repro.config.RMEConfig`: Table 1's single
        contiguous run, or several runs for a non-contiguous group.
        ``read_limit`` clips bus-aligned bursts so they never read past
        the table's mapped region (defaults to the table's exact end).
        ``windowed=True`` allows projections larger than the buffer,
        processed window by window. ``pushdown`` is an optional
        :class:`~repro.rme.pushdown.HWSelection` or
        :class:`~repro.rme.pushdown.HWAggregation` evaluated in the PL.
        """
        from .pushdown import HWAggregation, HWGroupBy, ROW_FILTERS

        geometry = TableGeometry(config, table_base, self.platform.axi_bus_bytes)
        reductions = (HWAggregation, HWGroupBy)
        if pushdown is not None:
            if len(config.runs) != 1:
                raise ConfigurationError(
                    "pushdown requires a single-run column group"
                )
            if windowed:
                raise ConfigurationError(
                    "pushdown and windowed projections are mutually exclusive"
                )
            if not isinstance(pushdown, ROW_FILTERS + reductions):
                raise ConfigurationError(
                    "pushdown must be a row filter (HWSelection/HWJoinFilter) "
                    f"or a reduction (HWAggregation/HWGroupBy), "
                    f"got {type(pushdown).__name__}"
                )
            pushdown.validate(config.col_width)
        if self.monitor.fastforward_pending:
            # Mid-scan reconfiguration under fast-forward: the epoch's
            # reservations were committed wholesale, so the machine state no
            # longer matches any cycle-level execution. Lift the DRAM guard
            # (the old epoch's traffic is abandoned with the session) and
            # force the next start onto the cycle-level path.
            self._ff_interrupted = True
            self.dram.guard_until = 0.0
        self._cancel_session()
        self._fault = None
        self._session_restarts = 0
        self._plan_windows(config, windowed)
        self._pushdown = pushdown
        self._reset_pushdown_state()
        if isinstance(pushdown, reductions):
            # The CPU only ever reads the result-register line(s).
            self._projected_total = pushdown.result_buffer_bytes
            self.buffer.reset(pushdown.result_buffer_bytes)
        else:
            self.buffer.reset(self._window_size(0))
        self.monitor.reconfigure()
        self.geometry = geometry
        self.ephemeral_base = ephemeral_base
        self.fetch_pool.read_limit = (
            read_limit if read_limit is not None else table_base + config.base_bytes
        )
        self.requestor = None
        self.stats.bump("configurations")
        self.stats.set_gauge("projected_bytes", self._projected_total)
        self.stats.set_gauge("n_windows", self._n_windows)
        emit(
            self.sim, "rme", "configure",
            rows=config.row_count, width=config.col_width,
            windows=self._n_windows,
        )
        return geometry

    def _plan_windows(self, config, windowed: bool) -> None:
        """Lay the projection out in buffer-sized windows.

        A window holds a whole number of packed rows *and* a whole number
        of cache lines, so both row and line indices split cleanly at the
        boundary: window rows are a multiple of ``lcm(C, line) / C``.
        """
        projected = config.projected_bytes
        self._projected_total = projected
        self._windowed = False
        self._window_bytes = projected
        self._window_rows = config.row_count
        self._n_windows = 1
        self._current_window = 0
        if projected <= self.buffer.capacity or not windowed:
            # Oversized non-windowed projections fall through to
            # ReorganizationBuffer.reset's CapacityError and its message.
            return
        line = self.platform.cache_line
        width = config.col_width
        chunk_rows = math.lcm(width, line) // width
        chunk_bytes = chunk_rows * width
        chunks_per_window = self.buffer.capacity // chunk_bytes
        if chunks_per_window < 1:
            raise ConfigurationError(
                f"column group of {width} bytes cannot form even one "
                f"line-aligned window inside the {self.buffer.capacity}-byte "
                "buffer"
            )
        self._windowed = True
        self._window_rows = chunks_per_window * chunk_rows
        self._window_bytes = self._window_rows * width
        self._n_windows = -(-projected // self._window_bytes)

    def _window_size(self, window: int) -> int:
        """Valid bytes of window ``window`` (the last one may be partial)."""
        if not self._windowed:
            return self._projected_total
        remaining = self._projected_total - window * self._window_bytes
        return min(self._window_bytes, remaining)

    @property
    def configured(self) -> bool:
        return self.geometry is not None

    @property
    def windowed(self) -> bool:
        return self._windowed

    @property
    def n_windows(self) -> int:
        return self._n_windows

    @property
    def is_hot(self) -> bool:
        """True when the whole packed projection sits in the buffer.

        A windowed projection is never globally hot: by construction it
        does not fit, and every pass repays the window refills.
        """
        if not self.configured or self._windowed:
            return False
        # A fast-forwarded buffer is physically full before its lines are
        # *visible*; it only counts as hot once the schedule has drained.
        if not self.monitor.fastforward_drained:
            return False
        return self.buffer.ready_lines == self.buffer.n_lines

    # -- fetch pipeline ------------------------------------------------------------
    def _cancel_session(self) -> None:
        if self._session is not None:
            self._session.cancelled = True
            self._session = None

    def _reset_pushdown_state(self) -> None:
        self._pd_pending = {}
        self._pd_next_row = 0
        self._pd_cursor = 0
        self._pd_matches = 0
        self._pd_finalized = False
        self._pd_accumulator = (
            self._pushdown.make_accumulator()
            if hasattr(self._pushdown, "make_accumulator")
            else None
        )

    def _fastpath_plan(self):
        """``(fallback_reason, replay_mode)`` for the coming epoch.

        ``reason is None`` means the epoch is fast-forwardable in
        ``mode`` (a :mod:`repro.sim.fastpath` MODE_* constant). Every
        remaining reason marks a way the epoch stops being a
        reconstructible descriptor stream: observers that must see
        individual events (tracer), perturbed timing (faults), a second
        CPU core that can reach DRAM while the epoch is in flight
        (multicore — the replay assumes no cross traffic), the in-order
        commit stage of a *parallel-lane* row filter (its write
        interleaving depends on content the replay cannot order), or
        state left behind by an interrupted fast-forward. Windowed,
        multirun and unaligned-row epochs go through the same replay loop
        as every other epoch and never fall back.
        """
        from ..sim.fastpath import MODE_PROJECT, MODE_REDUCTION, MODE_ROWFILTER

        if self.sim.tracer is not None:
            return "tracer", None
        if self.faults is not None:
            return "faults", None
        if self.n_cores > 1:
            return "multicore", None
        mode = MODE_PROJECT
        if self._pushdown is not None:
            if self._pd_accumulator is not None:
                mode = MODE_REDUCTION
            elif self.design.outstanding_txns == 1:
                mode = MODE_ROWFILTER
            else:
                return "pushdown", None
        if self._ff_interrupted:
            return "interrupted", None
        return None, mode

    def _window_rows_range(self, window: int):
        """The row range of ``window`` (None = all rows, unwindowed)."""
        if not self._windowed:
            return None
        first = window * self._window_rows
        return range(first, min(self.geometry.row_count,
                                first + self._window_rows))

    def _start_current_window(self) -> None:
        """Activation hook: launch the fetch pipeline for the current
        window (the whole projection when not windowed).

        Both paths share one session, dispatch store and Requestor. The
        fast path commits the whole epoch in one call and keeps the
        Requestor for its statistics surface; the cycle-level path starts
        the Requestor, worker and supervisor processes.
        """
        from ..sim import fastpath

        if self.geometry is None:
            raise ConfigurationError("RME accessed before configuration")
        window = self._current_window
        rows = self._window_rows_range(window)
        session = _FetchSession(
            w_bias=window * self._window_bytes if self._windowed else 0
        )
        self._session = session
        dispatch = Store(self.sim, f"{self.name}-dispatch")
        workers = self.design.outstanding_txns
        self.requestor = Requestor(
            self.sim, self.platform, dispatch, workers, f"{self.name}-requestor"
        )
        if self.platform.fastpath:
            reason, mode = self._fastpath_plan()
            if reason is None:
                self.fetch_pool.result_sink = None
                fastpath.fast_forward(self, rows, session.w_bias, mode)
                self.stats.bump("pipeline_starts")
                self.stats.bump("fastpath_hits")
                emit(self.sim, "rme", "pipeline_start",
                     window=window, workers=workers)
                return
            self._ff_interrupted = False  # one-shot: consumed by this start
            self.stats.bump("fastpath_fallbacks")
            self.stats.bump("fastpath_fallback_" + reason)
            fastpath.FASTPATH_STATS.bump("fallback_" + reason)
        self.sim.process(
            self.requestor.run(
                self.geometry, rows, should_stop=lambda: session.cancelled
            ),
            name="requestor",
        )
        self.fetch_pool.result_sink = (
            self._pushdown_sink if self._pushdown is not None else None
        )
        worker_procs = []
        for index in range(workers):
            worker_procs.append(
                self.sim.process(
                    self.fetch_pool.worker(
                        dispatch, self.requestor, session, lane=index
                    ),
                    name=f"fetch-{index}",
                )
            )
        if self._pushdown is not None:
            self.sim.process(
                self._pushdown_supervisor(worker_procs, session),
                name="pushdown-supervisor",
            )
        if (self.faults is not None and self.faults.recovery.enabled
                and self.faults.recovery.watchdog_ns > 0):
            self.sim.process(self._watchdog(session), name="rme-watchdog")
        self.stats.bump("pipeline_starts")
        emit(self.sim, "rme", "pipeline_start", window=window, workers=workers)

    # -- fault detection and recovery ----------------------------------------------
    def _fetch_progress(self) -> float:
        """A monotone proxy for pipeline progress.

        Descriptor retirements cover every mode (pushdown reductions write
        the buffer only at finalisation); buffer bytes catch the writer
        tail after the last descriptor retires.
        """
        return (self.fetch_pool.stats.count("descriptors")
                + self.buffer.stats.total("writes"))

    def _watchdog(self, session: _FetchSession):
        """Per-session liveness monitor: restart a stalled fetch pipeline,
        declare the session failed once the restart budget is spent."""
        policy = self.faults.recovery
        last_progress = self._fetch_progress()
        while True:
            yield self.sim.timeout(policy.watchdog_ns)
            if (session.cancelled or self._session is not session
                    or self._fault is not None):
                return None
            if self.buffer.n_lines and (
                    self.buffer.ready_lines == self.buffer.n_lines):
                return None  # current window fully resident: nothing to guard
            progress = self._fetch_progress()
            if progress > last_progress:
                last_progress = progress
                self._session_restarts = 0
                continue
            self.stats.bump("watchdog_fires")
            emit(self.sim, "rme", "watchdog_fire", window=self._current_window)
            delay = policy.retry_delay_ns(self._session_restarts + 1)
            if delay is None:
                self._fail(FetchTimeoutError(
                    "fetch pipeline made no progress through "
                    f"{self._session_restarts} restarts"
                ))
                return None
            self._session_restarts += 1
            yield from self._restart_session(delay)
            return None  # the new session brings its own watchdog

    def _restart_session(self, delay_ns: float):
        """A process: tear the wedged session down, back off ``delay_ns``
        and refetch the window."""
        from .pushdown import HWAggregation, HWGroupBy

        restart_start = self.sim.now
        self.stats.bump("fetch_restarts")
        self._cancel_session()
        yield self.sim.timeout(delay_ns)
        if isinstance(self._pushdown, (HWAggregation, HWGroupBy)):
            self.buffer.reset(self._pushdown.result_buffer_bytes)
        else:
            self.buffer.reset(self._window_size(self._current_window))
        if self._pushdown is not None:
            self._reset_pushdown_state()
        self.monitor.invalidate_waiters()
        emit_span(self.sim, "rme", "fetch_restart", restart_start,
                  attempt=self._session_restarts)
        self._start_current_window()
        return None

    def _fail(self, error) -> None:
        """Declare the current configuration unrecoverable.

        Stalled trapped reads wake with the exception and re-raise it
        inside the CPU's load chain; later reads re-raise it at entry.
        Only :meth:`configure` clears the condition.
        """
        self.stats.bump("session_failures")
        self._fault = error
        self._cancel_session()
        self.monitor.fail_waiters(error)
        emit(self.sim, "rme", "session_failed", error=type(error).__name__)

    # -- pushdown (selection / aggregation in the PL) ----------------------------------
    def _pushdown_sink(self, descriptor, useful: bytes, session):
        """Comparator + commit stage: a process invoked per extracted row.

        Results are committed strictly in row order so the packed output
        is deterministic even with 16 out-of-order fetch units — the
        hardware analogue is a small reorder buffer in front of the
        Writer.
        """
        cfg = self.platform
        # The comparator/accumulator adds one PL cycle of work per row.
        yield self.sim.timeout(cfg.pl_cycles(1.0))
        if session is not None and session.cancelled:
            return None
        if self._pd_accumulator is not None:
            self._pd_accumulator.feed(useful)
            self.stats.bump("pd_rows_seen")
            return None
        self._pd_pending[descriptor.row] = useful
        while self._pd_next_row in self._pd_pending:
            row_bytes = self._pd_pending.pop(self._pd_next_row)
            self._pd_next_row += 1
            self.stats.bump("pd_rows_seen")
            if not self._pushdown.matches(row_bytes):
                continue
            offset = self._pd_cursor
            self._pd_cursor += len(row_bytes)
            self._pd_matches += 1
            cost = self.fetch_pool._write_port_cost(len(row_bytes))
            yield from self.monitor.write(offset, row_bytes, cost, session)
        return None

    def _pushdown_supervisor(self, worker_procs, session):
        """Waits for the fetch stream to drain, then finalises the result."""
        yield self.sim.all_of(worker_procs)
        if session.cancelled or self._pd_finalized:
            return None
        self._pd_finalized = True
        if self._pd_accumulator is not None:
            payload = self._pd_accumulator.register_payload()
            if payload:
                self.monitor.complete_now(0, payload)
            self.monitor.finalize(len(payload))
            emit(self.sim, "rme", "aggregate_ready",
                 count=self._pd_accumulator.count, bytes=len(payload))
        else:
            self.monitor.finalize(self._pd_cursor)
            emit(self.sim, "rme", "selection_done",
                 matches=self._pd_matches, bytes=self._pd_cursor)
        self.stats.bump("pushdown_finalized")
        return None

    # -- pushdown results ------------------------------------------------------------
    @property
    def pushdown_done(self) -> bool:
        return self._pd_finalized

    @property
    def match_count(self) -> int:
        """Rows that passed the PL selection (valid once finalised)."""
        if not self._pd_finalized:
            raise ConfigurationError("selection stream not finalised yet")
        return self._pd_matches

    def aggregate_result(self) -> int:
        """The PL aggregation result (valid once finalised)."""
        if not self._pd_finalized or self._pd_accumulator is None:
            raise ConfigurationError("no finalised PL aggregation")
        return self._pd_accumulator.result()

    def _switch_window(self, window: int):
        """A process: re-initialise the buffer for another window."""
        reinit_start = self.sim.now
        self.stats.bump("window_switches")
        emit(self.sim, "rme", "window_switch",
             from_window=self._current_window, to_window=window)
        if self.monitor.fastforward_pending:
            # Switching away while fast-forwarded lines were still becoming
            # visible: the committed DRAM/port reservations describe window
            # traffic that is now abandoned. Lift the guard, drop the stale
            # visibility schedule, and force the next start onto the
            # cycle-level path (one-shot, same as mid-scan reconfiguration).
            self._ff_interrupted = True
            self.dram.guard_until = 0.0
            self.monitor.cancel_fastforward()
        self._cancel_session()
        yield self.sim.timeout(self.platform.window_reinit_ns)
        emit_span(self.sim, "rme", "window_reinit", reinit_start,
                  to_window=window)
        self.buffer.reset(self._window_size(window))
        self.monitor.invalidate_waiters()
        self._current_window = window
        self._start_current_window()
        return None

    def prefill(self) -> None:
        """Kick the fetch pipeline without a CPU access (testing/warm-up).

        The caller must run the simulator afterwards; once it drains, the
        current window (the whole projection when not windowed) is filled.
        """
        self.monitor.notice_access()
        if self.monitor.activated and self._session is None:
            self._start_current_window()

    # -- CPU-facing line port (hierarchy backend protocol) ---------------------------
    def read_line(self, line_base: int, source: str = "cpu"):
        """A process serving one trapped cache-line read."""
        if self.geometry is None or self.ephemeral_base is None:
            raise ConfigurationError("RME accessed before configuration")
        offset = line_base - self.ephemeral_base
        if offset < 0 or offset % self.platform.cache_line:
            raise MemoryMapError(
                f"trapped address {line_base:#x} is not a line in the "
                "ephemeral region"
            )
        line = self.platform.cache_line
        line_idx = offset // line
        if line_idx * line >= self._projected_total:
            raise MemoryMapError(
                f"trapped line {line_idx} beyond the projection"
            )
        self.stats.bump("reads_" + source)
        return self._serve_line(line_idx, source)

    def _serve_line(self, line_idx: int, source: str):
        """The window-aware service loop around the Trapper."""
        from ..memsys.hierarchy import DECLINED

        line = self.platform.cache_line
        if not self._windowed:
            while True:
                if self._fault is not None:
                    raise self._fault
                result = yield from self.trapper.read_line(line_idx)
                if result is not None:
                    return result
                # Stale wake: a fault restart reset the buffer underneath
                # this request; retry against the refilled state.
                self.stats.bump("fault_retries")
        lines_per_window = self._window_bytes // line
        while True:
            if self._fault is not None:
                raise self._fault
            window = line_idx // lines_per_window
            if window == self._current_window:
                rel_line = line_idx - window * lines_per_window
                result = yield from self.trapper.read_line(rel_line)
                if result is not None and window == self._current_window:
                    return result
                if source != "cpu":
                    # A prefetch that went stale across a switch: decline
                    # rather than chase the window.
                    self.stats.bump("prefetch_abandoned")
                    return DECLINED
                # Stale demand wake: the window moved underneath us; retry.
            elif source == "cpu":
                yield from self._switch_window(window)
            else:
                # A prefetch running ahead into a window that is not
                # resident: refuse the fill. Only demand accesses trigger
                # the costly re-initialisation, and the cache must not be
                # filled with bytes the engine never produced.
                self.stats.bump("prefetch_abandoned")
                return DECLINED

    # -- functional verification ---------------------------------------------------
    def packed_bytes(self) -> bytes:
        """The packed projection the engine produced (buffer must be hot)."""
        return self.buffer.snapshot()
