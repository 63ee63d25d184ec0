"""The serving loop: arrivals → admission → scheduling → execution → SLOs.

:class:`ServingSystem` closes the loop the paper leaves open: it runs a
*stream* of queries from many tenants against the (profiled) relational
memory engine, modelling the configuration port as the contended
resource. Every request's cost is a profiled constant, so serving is
pure queueing: one loop over a heap of ``(time, seq, kind, who)``
entries, each the next step of the open-loop driver, a closed-loop
client or a configuration port. The loop takes a sequence number
wherever the :class:`repro.sim.Simulator` kernel would for the same
steps written as generator processes, so entries due at one instant run
in the order the kernel would run them:

* at time 0 the driver (or each client, in client order) starts, then
  each port, in port order;
* the open-loop driver resumes at ``now + (at_ns - now)``: that arrival
  comes, then every later one with no gap left, then the next gap;
* an admitted arrival kicks the idle ports: each gets one seq, in the
  order it began to wait;
* a port that finishes a request (answered or failed) first resumes
  that request's closed-loop client, then kicks the idle ports, then
  pops its own next request in the same step, before any of them runs;
  a shed closed-loop request resumes its client at once;
* reconfiguration, each execution attempt, a retry's backoff plus
  refill and a degraded CPU row-scan are each one timed step of their
  port.

Each served request's time is accounted in three separable pieces:

* **queueing delay** — admission to service start;
* **reconfiguration** — register programming plus the projection
  regeneration a descriptor switch forces (zero on a hot port);
* **execution** — the scan against the warm reorganization buffer.

``reconfiguration + execution`` on a cold port equals the single-query
executor's measured ``program + cold`` time exactly, so serving timings
stay anchored to the cycle-level model. Answers are the profiled golden
values — byte-identical to what :class:`~repro.query.executor
.QueryExecutor` returns for the same query.

Per-tenant latency histograms, throughput and shed rates land in a
:class:`~repro.sim.MetricsRegistry` (``tenant.<name>``, ``scheduler``,
``slo`` scopes), which the CLI and :mod:`repro.bench.report` render.
The per-request telemetry is committed once, when the run ends, in
completion order, through the instruments' bulk replays, which are
bit-identical to one call per request. The load gauges
(``slo.queue_depth``, ``slo.shed_rate``, ``scheduler.backlog``) are set
on every arrival and port pop, and the rare fault-path counters on
every event.
"""

from __future__ import annotations

import collections
import random
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..config import PlatformConfig, ZCU102
from ..errors import ConfigurationError
from ..faults import DEFAULT_RECOVERY, RecoveryPolicy
from ..rme.designs import MLP, DesignParams
from ..sim import MetricsRegistry
from .profiles import (
    PROFILE_CACHE,
    QueryProfile,
    WorkloadProfile,
    profile_workload,
)
from .scheduler import POLICIES, Port, SchedulerPolicy, make_scheduler
from .workload import (
    Arrival,
    ClosedLoopWorkload,
    OpenLoopWorkload,
    Request,
    TenantSpec,
)

Workload = Union[OpenLoopWorkload, ClosedLoopWorkload]

# Heap entry kinds: what the entry's ``who`` does when it comes due.
_ARRIVE = 0  #: the open-loop driver; ``who`` is the arrival now due
_CLIENT = 1  #: a client starts, or its request is done
_SUBMIT = 2  #: a client's think time is over
_WAKE = 3  #: a port starts, or a kick woke it
_RECONFIGURED = 4  #: a port is programmed and its projection refilled
_EXECUTED = 5  #: an execution attempt finished
_BACKED_OFF = 6  #: a retry's backoff and refill are over
_DIRECT = 7  #: a degraded CPU row-scan finished


@dataclass(frozen=True)
class TenantSLO:
    """One tenant's service-level summary over a serving run."""

    tenant: str
    arrivals: int
    served: int
    shed: int
    p50_ns: float
    p95_ns: float
    p99_ns: float
    mean_ns: float
    throughput_qps: float
    degraded: int = 0  #: served via the CPU fallback path
    failed: int = 0  #: unanswered under faults (recovery off)

    @property
    def shed_rate(self) -> float:
        return self.shed / self.arrivals if self.arrivals else 0.0

    @property
    def availability(self) -> float:
        """Fraction of arrivals that received an answer."""
        return self.served / self.arrivals if self.arrivals else 0.0


@dataclass
class ServingReport:
    """Everything one serving run produced, SLOs first."""

    policy: str
    arrival: str
    n_ports: int
    queue_depth: int
    duration_ns: float
    arrivals: int
    served: int
    shed: int
    p50_ns: float
    p95_ns: float
    p99_ns: float
    context_switches: int
    hot_hits: int
    max_backlog: int
    queue_ns_total: float
    reconfig_ns_total: float
    exec_ns_total: float
    tenants: List[TenantSLO]
    metrics: MetricsRegistry = field(repr=False)
    records: List[Request] = field(repr=False, default_factory=list)
    # Fault-aware fields (all zero on a fault-free run).
    fault_rate: float = 0.0
    fault_events: int = 0
    degraded: int = 0
    failed: int = 0
    breaker_opens: int = 0
    retries_total: int = 0

    @property
    def shed_rate(self) -> float:
        return self.shed / self.arrivals if self.arrivals else 0.0

    @property
    def availability(self) -> float:
        """Fraction of arrivals answered (shed and failed count against)."""
        return self.served / self.arrivals if self.arrivals else 0.0

    @property
    def fallback_ratio(self) -> float:
        """Fraction of served answers that came from the CPU fallback."""
        return self.degraded / self.served if self.served else 0.0

    @property
    def throughput_qps(self) -> float:
        """Served requests per simulated second."""
        if not self.duration_ns:
            return 0.0
        return self.served / (self.duration_ns / 1e9)

    @property
    def hot_rate(self) -> float:
        return self.hot_hits / self.served if self.served else 0.0

    def tenant(self, name: str) -> TenantSLO:
        for slo in self.tenants:
            if slo.tenant == name:
                return slo
        raise ConfigurationError(f"no tenant {name!r} in this report")

    def fingerprint(self) -> tuple:
        """A deterministic digest: cycle counts, queue lengths, sheds.

        Two runs with the same seed must produce bit-identical
        fingerprints — the serving-layer determinism contract.
        """
        base = (
            self.duration_ns,
            self.arrivals,
            self.served,
            self.shed,
            self.max_backlog,
            self.context_switches,
            self.hot_hits,
            self.queue_ns_total,
            self.reconfig_ns_total,
            self.exec_ns_total,
            tuple(
                (t.tenant, t.arrivals, t.served, t.shed,
                 t.p50_ns, t.p95_ns, t.p99_ns)
                for t in self.tenants
            ),
            sum(r.finish_ns for r in self.records),
        )
        if self.fault_rate == 0.0:
            # Bit-identical to the pre-fault-subsystem fingerprint.
            return base
        return base + (
            self.fault_rate,
            self.fault_events,
            self.degraded,
            self.failed,
            self.breaker_opens,
            self.retries_total,
        )


# -- construction checks shared with the cluster tier ----------------------
def check_policy(policy: str) -> None:
    """Reject a scheduler policy name outside :data:`POLICIES`."""
    if policy not in POLICIES:
        raise ConfigurationError(
            f"unknown scheduler policy {policy!r} "
            f"(choose from {', '.join(POLICIES)})"
        )


def resolve_n_ports(policy: str, n_ports: Optional[int]) -> int:
    """The configuration-port count: two for multi-port, else one.

    Only multi-port models more than one port, and no policy runs on
    zero.
    """
    if n_ports is None:
        n_ports = 2 if policy == "multi-port" else 1
    if n_ports < 1:
        raise ConfigurationError(f"n_ports must be >= 1, got {n_ports}")
    if policy != "multi-port" and n_ports != 1:
        raise ConfigurationError(
            f"policy {policy!r} models the single configuration port; "
            "use multi-port for n_ports > 1"
        )
    return n_ports


def resolve_profile(
    workload_profile: Union[WorkloadProfile, Sequence[TenantSpec]],
    platform: PlatformConfig,
    design: DesignParams,
) -> WorkloadProfile:
    """A ready profile as is; tenant specs are profiled first."""
    if isinstance(workload_profile, WorkloadProfile):
        return workload_profile
    return profile_workload(workload_profile, platform=platform, design=design)


def check_profiled(profile: WorkloadProfile, workload) -> None:
    """Every (tenant, template) the workload can draw must be profiled."""
    for spec in workload.mix.tenants:
        for template, _query in spec.templates:
            profile.profile(spec.name, template)  # raises if absent


class ServingSystem:
    """Serves a workload through the profiled engine under one policy."""

    def __init__(
        self,
        workload_profile: Union[WorkloadProfile, Sequence[TenantSpec]],
        policy: str = "fcfs",
        n_ports: Optional[int] = None,
        queue_depth: int = 64,
        quantum: int = 8,
        platform: PlatformConfig = ZCU102,
        design: DesignParams = MLP,
        fault_rate: float = 0.0,
        recovery: Optional[RecoveryPolicy] = None,
        fault_seed: int = 1234,
        cache_snapshot: Optional[Tuple[int, int]] = None,
    ):
        # Per-run profile-cache accounting: the report's hit-rate gauge
        # covers this run only, not the process lifetime. Callers that
        # profile *before* constructing the system (the CLI does) pass
        # the snapshot they took first, so their profiling traffic counts.
        self._cache_snapshot = (
            cache_snapshot if cache_snapshot is not None
            else (PROFILE_CACHE.hits, PROFILE_CACHE.misses)
        )
        if not 0.0 <= fault_rate < 1.0:
            raise ConfigurationError(
                f"fault_rate must be in [0, 1), got {fault_rate}"
            )
        check_policy(policy)
        self.profile = resolve_profile(workload_profile, platform, design)
        self.policy = policy
        self.n_ports = resolve_n_ports(policy, n_ports)
        self.queue_depth = queue_depth
        self.quantum = quantum
        #: Request-level fault model: probability any one RME execution
        #: attempt is struck by a hardware fault mid-scan.
        self.fault_rate = fault_rate
        self.recovery = recovery if recovery is not None else DEFAULT_RECOVERY
        self.fault_seed = fault_seed
        #: The last run's registry (also returned inside the report).
        self.metrics: Optional[MetricsRegistry] = None

    # -- the run -----------------------------------------------------------------
    def run(self, workload: Workload) -> ServingReport:
        """Serve the whole workload; returns the SLO report."""
        check_profiled(self.profile, workload)
        metrics = self.metrics = MetricsRegistry("serve")
        self._sched_stats = metrics.scope("scheduler")
        self._slo_stats = metrics.scope("slo")
        # The profile memo is process-wide; the gauges report the *delta*
        # since this system's construction (or the caller's snapshot), so
        # repeated serve/chaos runs in one process see per-run rates, not
        # the process-lifetime ratio.
        hits0, misses0 = self._cache_snapshot
        hits = PROFILE_CACHE.hits - hits0
        misses = PROFILE_CACHE.misses - misses0
        lookups = hits + misses
        cache_stats = metrics.scope("profile_cache")
        cache_stats.set_gauge("hits", float(hits))
        cache_stats.set_gauge("misses", float(misses))
        cache_stats.set_gauge("hit_rate", hits / lookups if lookups else 0.0)
        self._tenant_stats = {
            spec.name: metrics.scope(f"tenant.{spec.name}")
            for spec in self.profile.tenants
        }
        # Bound once: every arrival and every port pop sets both.
        self._queue_depth = self._slo_stats.gauge("queue_depth")
        self._shed_rate = self._slo_stats.gauge("shed_rate")
        self.ports = [Port(index=i) for i in range(self.n_ports)]
        self.scheduler: SchedulerPolicy = make_scheduler(
            self.policy, self.ports, self.queue_depth, self._sched_stats,
            self.profile.descriptor_of, quantum=self.quantum,
        )
        self.records: List[Request] = []
        self._answered: List[Request] = []  #: in completion order
        self._heap: List[Tuple[float, int, int, object]] = []
        self._seq = 0
        self._now = 0.0
        #: What each port serves: (request, profile) while it is busy.
        self._serving: List[Optional[Tuple[Request, QueryProfile]]] = (
            [None] * self.n_ports
        )
        self._waiters: List[int] = []  #: idle ports, in the order they waited
        self._client_of: Dict[int, int] = {}  #: request index -> its client
        self._arrivals_done = False
        self._arrivals_seen = 0
        self._sheds_seen = 0
        if self.fault_rate > 0.0:
            self._fault_rng: Optional[random.Random] = random.Random(
                self.fault_seed
            )
            self._fault_stats = metrics.scope("faults")
            self._breakers = {
                spec.name: self.recovery.breaker()
                for spec in self.profile.tenants
            }
        else:
            self._fault_rng = None
            self._fault_stats = None
            self._breakers = {}

        if isinstance(workload, OpenLoopWorkload):
            arrival_kind = workload.arrival
            self._arrivals = iter(workload.schedule())
            self._push(0.0, _ARRIVE, None)
        else:
            arrival_kind = "closed"
            self._start_clients(workload)
        for port in self.ports:
            self._push(0.0, _WAKE, port.index)
        self._loop()
        self._commit()
        return self._build_report(arrival_kind)

    def _push(self, delay: float, kind: int, who: object) -> None:
        """Resume ``who`` at ``kind`` ``delay`` ns from now; one seq each."""
        self._seq += 1
        heappush(self._heap, (self._now + delay, self._seq, kind, who))

    def _loop(self) -> None:
        """Pop the heap in (time, seq) order until nothing is left to do."""
        heap = self._heap
        while heap:
            self._now, _seq, kind, who = heappop(heap)
            if kind == _EXECUTED:
                self._executed(who)
            elif kind == _WAKE:
                self._serve_next(who)
            elif kind == _ARRIVE:
                self._drive(who)
            elif kind == _RECONFIGURED:
                # Programmed and refilled: the first execution attempt.
                self._push(self._serving[who][1].hot_ns, _EXECUTED, who)
            elif kind == _CLIENT:
                self._client_next(who)
            elif kind == _SUBMIT:
                self._submit(who)
            elif kind == _BACKED_OFF:
                self._backed_off(who)
            else:
                self._direct_done(who)

    # -- arrival side -----------------------------------------------------------
    def _drive(self, due: Optional[Arrival]) -> None:
        """The open-loop driver: ``due`` arrives (nothing at the start),
        then every later arrival with no gap left; then the next gap."""
        if due is not None:
            self._arrive(Request(due.index, due.tenant, due.template, self._now))
        for arrival in self._arrivals:
            gap = arrival.at_ns - self._now
            if gap > 0:
                self._push(gap, _ARRIVE, arrival)
                return
            self._arrive(Request(
                arrival.index, arrival.tenant, arrival.template, self._now
            ))
        self._arrivals_done = True
        self._kick()

    def _start_clients(self, workload: ClosedLoopWorkload) -> None:
        self._mix = workload.mix
        self._budget = workload.n_requests
        self._next_index = 0
        self._clients_left = workload.n_clients
        self._think_ns = workload.think_ns
        self._client_rngs = workload.client_rngs()
        for client in range(workload.n_clients):
            self._push(0.0, _CLIENT, client)

    def _client_next(self, client: int) -> None:
        """A client starts, or its last request was answered, failed or
        shed: it takes the next request of the budget, if any is left."""
        if self._budget <= 0:
            self._clients_left -= 1
            if self._clients_left == 0:
                self._arrivals_done = True
                self._kick()
            return
        self._budget -= 1
        if self._think_ns > 0:
            rng = self._client_rngs[client]
            self._push(rng.expovariate(1.0) * self._think_ns, _SUBMIT, client)
        else:
            self._submit(client)

    def _submit(self, client: int) -> None:
        index = self._next_index
        self._next_index += 1
        # Closed-loop clients sample the same weighted mix as open loop.
        tenant, template = self._mix.sample(self._client_rngs[client])
        self._client_of[index] = client
        self._arrive(Request(index, tenant, template, self._now))

    def _arrive(self, request: Request) -> None:
        self.records.append(request)
        self._arrivals_seen += 1
        if not self.scheduler.admit(request):
            request.shed = True
            self._sheds_seen += 1
            self._publish_load_gauges()
            self._complete(request)
            return
        self._publish_load_gauges()
        self._kick()

    def _publish_load_gauges(self) -> None:
        """Set the load gauges on every arrival and port pop, so their
        extremes and update counts follow the queue event by event, not
        the end-of-run aggregates."""
        self._queue_depth.set(self.scheduler.backlog())
        self._shed_rate.set(self._sheds_seen / self._arrivals_seen)

    def _complete(self, request: Request) -> None:
        """A closed-loop client's request is done: the client resumes."""
        client = self._client_of.pop(request.index, None)
        if client is not None:
            self._push(0.0, _CLIENT, client)

    def _kick(self) -> None:
        """Wake every idle port, in the order they began to wait."""
        if self._waiters:
            for index in self._waiters:
                self._push(0.0, _WAKE, index)
            self._waiters.clear()

    # -- service side ------------------------------------------------------------
    def _serve_next(self, index: int) -> None:
        """Port ``index`` pops and starts requests until one holds it;
        with the queues empty it waits for a kick, or ends once no
        arrival is left to come."""
        while True:
            request = self.scheduler.pop(index)
            if request is None:
                if not self._arrivals_done:
                    self._waiters.append(index)
                return
            self._publish_load_gauges()
            if self._start(self.ports[index], request):
                return

    def _start(self, port: Port, request: Request) -> bool:
        """Begin serving ``request`` on ``port``; False when it failed at
        once and the port is free again.

        Under the request-level fault model (``fault_rate > 0``) each RME
        execution attempt is struck with probability ``fault_rate``; a
        struck attempt's time is wasted and a retry pays the policy's
        backoff plus a refill. A tenant whose circuit breaker is open
        skips the engine entirely and goes straight to the CPU row-scan
        — answers stay byte-identical (the profiler asserted the direct
        answer equals the RME answer), only the price changes.
        """
        now = self._now
        profile = self.profile.profiles[(request.tenant, request.template)]
        self._serving[port.index] = (request, profile)
        request.port = port.index
        request.start_ns = now
        request.queue_ns = now - request.arrival_ns
        breaker = self._breakers.get(request.tenant)
        if breaker is not None and not breaker.allow(now):
            self._fault_stats.bump("breaker_rejects")
            return self._give_up(port, request, profile)
        if port.reconfigure(profile.descriptor, self._sched_stats):
            request.state = "cold"
            request.reconfig_ns = profile.program_ns + profile.fill_ns
        else:
            request.state = "hot"
            request.reconfig_ns = 0.0
        # Assigned, not added: a fault-free run allocates no float here.
        request.exec_ns = profile.hot_ns
        if request.reconfig_ns > 0:
            self._push(request.reconfig_ns, _RECONFIGURED, port.index)
        else:
            self._push(profile.hot_ns, _EXECUTED, port.index)
        return True

    def _executed(self, index: int) -> None:
        """An execution attempt on port ``index`` finished: answer, or
        pay for the fault that struck it."""
        request, profile = self._serving[index]
        port = self.ports[index]
        breaker = self._breakers.get(request.tenant)
        if (self._fault_rng is None
                or self._fault_rng.random() >= self.fault_rate):
            if breaker is not None:
                breaker.record_success(self._now)
            self._answer(port, request, profile)
            self._serve_next(index)
            return
        # A fault struck this attempt mid-scan: the time is wasted.
        self._fault_stats.bump("fault_events")
        if breaker is not None:
            breaker.record_failure(self._now)
        delay = self.recovery.retry_delay_ns(request.retries + 1)
        if delay is None:
            # Retry budget exhausted: the engine state is suspect, so
            # the next request on this port re-programs from scratch.
            port.descriptor = None
            if not self._give_up(port, request, profile):
                self._serve_next(index)
            return
        request.retries += 1
        self._fault_stats.bump("retries")
        # Back off, then regenerate the projection before rerunning.
        self._push(delay + profile.fill_ns, _BACKED_OFF, index)

    def _backed_off(self, index: int) -> None:
        request, profile = self._serving[index]
        request.reconfig_ns += profile.fill_ns
        request.exec_ns += profile.hot_ns
        self._push(profile.hot_ns, _EXECUTED, index)

    def _give_up(self, port: Port, request: Request, profile) -> bool:
        """The engine path is closed: degrade to the CPU row-scan when
        the policy allows it (True: the port is busy with it), otherwise
        fail the request."""
        if self.recovery.cpu_fallback:
            request.state = "degraded"
            request.degraded = True
            self._fault_stats.bump("fallbacks")
            self._push(profile.direct_ns, _DIRECT, port.index)
            return True
        self._fail_request(request)
        return False

    def _direct_done(self, index: int) -> None:
        """Degraded mode: the CPU row-scan of the base table answered."""
        request, profile = self._serving[index]
        request.exec_ns += profile.direct_ns
        self._tenant_stats[request.tenant].bump("degraded")
        self._answer(self.ports[index], request, profile)
        self._serve_next(index)

    def _answer(self, port: Port, request: Request, profile) -> None:
        request.finish_ns = self._now
        request.value = profile.value
        port.served += 1
        self._answered.append(request)
        self._complete(request)
        self._kick()

    def _fail_request(self, request: Request) -> None:
        """Give up on a request: no answer, counted against availability."""
        request.failed = True
        request.state = "failed"
        request.finish_ns = self._now
        self._tenant_stats[request.tenant].bump("failed")
        self._fault_stats.bump("failed")
        self._complete(request)
        self._kick()

    def _commit(self) -> None:
        """Fold the run's per-request telemetry into the registry.

        Each instrument replays, in completion order, exactly the calls
        one per request would have made, so every snapshot is
        bit-identical; an instrument no request touched is not created.
        """
        arrivals = collections.Counter(r.tenant for r in self.records)
        shed = collections.Counter(r.tenant for r in self.records if r.shed)
        answered: Dict[str, List[Request]] = {}
        for request in self._answered:
            answered.setdefault(request.tenant, []).append(request)
        for tenant, stats in self._tenant_stats.items():
            if arrivals[tenant]:
                stats.counter("arrivals").add_repeated(arrivals[tenant])
            if shed[tenant]:
                stats.counter("shed").add_repeated(shed[tenant])
            done = answered.get(tenant)
            if not done:
                continue
            stats.counter("served").add_repeated(len(done))
            stats.histogram("latency_ns").observe_all(
                [r.latency_ns for r in done]
            )
            stats.histogram("queue_ns").observe_all([r.queue_ns for r in done])
            stats.counter("reconfig_ns").add_all([r.reconfig_ns for r in done])
            stats.counter("exec_ns").add_all([r.exec_ns for r in done])
        if self._answered:
            self._slo_stats.histogram("latency_ns").observe_all(
                [r.latency_ns for r in self._answered]
            )

    # -- reporting ---------------------------------------------------------------
    def _build_report(self, arrival_kind: str) -> ServingReport:
        duration = self._now
        seconds = duration / 1e9 if duration else 0.0
        tenants: List[TenantSLO] = []
        for spec in self.profile.tenants:
            stats = self._tenant_stats[spec.name]
            latency = stats.histogram("latency_ns")
            served = stats.count("served")
            tenants.append(TenantSLO(
                tenant=spec.name,
                arrivals=stats.count("arrivals"),
                served=served,
                shed=stats.count("shed"),
                p50_ns=latency.percentile(50),
                p95_ns=latency.percentile(95),
                p99_ns=latency.percentile(99),
                mean_ns=latency.mean,
                throughput_qps=served / seconds if seconds else 0.0,
                degraded=stats.count("degraded"),
                failed=stats.count("failed"),
            ))
        overall = self._slo_stats.histogram("latency_ns")
        backlog = self._sched_stats.gauge("backlog")
        queue_total = sum(
            s.histogram("queue_ns").total for s in self._tenant_stats.values()
        )
        return ServingReport(
            policy=self.policy,
            arrival=arrival_kind,
            n_ports=self.n_ports,
            queue_depth=self.queue_depth,
            duration_ns=duration,
            arrivals=sum(t.arrivals for t in tenants),
            served=sum(t.served for t in tenants),
            shed=sum(t.shed for t in tenants),
            p50_ns=overall.percentile(50),
            p95_ns=overall.percentile(95),
            p99_ns=overall.percentile(99),
            context_switches=self._sched_stats.count("context_switches"),
            hot_hits=self._sched_stats.count("hot_hits"),
            max_backlog=int(backlog.max or 0),
            queue_ns_total=queue_total,
            reconfig_ns_total=sum(
                s.total("reconfig_ns") for s in self._tenant_stats.values()
            ),
            exec_ns_total=sum(
                s.total("exec_ns") for s in self._tenant_stats.values()
            ),
            tenants=tenants,
            metrics=self.metrics,
            records=self.records,
            fault_rate=self.fault_rate,
            fault_events=(
                self._fault_stats.count("fault_events")
                if self._fault_stats is not None else 0
            ),
            degraded=sum(t.degraded for t in tenants),
            failed=sum(t.failed for t in tenants),
            breaker_opens=sum(
                b.opens for b in self._breakers.values() if b is not None
            ),
            retries_total=(
                self._fault_stats.count("retries")
                if self._fault_stats is not None else 0
            ),
        )
