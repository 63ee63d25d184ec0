"""The serving loop: arrivals → admission → scheduling → execution → SLOs.

:class:`ServingSystem` closes the loop the paper leaves open: it runs a
*stream* of queries from many tenants against the (profiled) relational
memory engine, modelling the configuration port as the contended
resource. The serving layer is itself a discrete-event simulation on the
same :class:`repro.sim.Simulator` kernel the hardware models use — port
server processes, arrival processes and closed-loop clients all cooperate
on one deterministic clock.

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
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..config import PlatformConfig, ZCU102
from ..errors import ConfigurationError
from ..faults import DEFAULT_RECOVERY, RecoveryPolicy
from ..rme.designs import MLP, DesignParams
from ..sim import Event, MetricsRegistry, Simulator, Wakeup
from .profiles import PROFILE_CACHE, WorkloadProfile, profile_workload
from .scheduler import POLICIES, Port, SchedulerPolicy, make_scheduler
from .workload import (
    Arrival,
    ClosedLoopWorkload,
    OpenLoopWorkload,
    Request,
    TenantSpec,
)

Workload = Union[OpenLoopWorkload, ClosedLoopWorkload]


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
        sim = self.sim = Simulator()
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
        self.ports = [Port(index=i) for i in range(self.n_ports)]
        self.scheduler: SchedulerPolicy = make_scheduler(
            self.policy, self.ports, self.queue_depth, self._sched_stats,
            self._descriptor_of, quantum=self.quantum,
        )
        self.records: List[Request] = []
        self._arrivals_done = False
        self._wakeup = Wakeup(sim)
        self._completions: Dict[int, Event] = {}
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
            sim.process(
                self._open_loop_driver(workload.schedule()), name="arrivals"
            )
        else:
            arrival_kind = "closed"
            self._start_clients(workload)
        for port in self.ports:
            sim.process(self._port_loop(port), name=f"port{port.index}")
        sim.run()
        return self._build_report(arrival_kind)

    def _descriptor_of(self, request: Request) -> object:
        return self.profile.profile(request.tenant, request.template).descriptor

    # -- arrival side -----------------------------------------------------------
    def _open_loop_driver(self, schedule: List[Arrival]):
        for arrival in schedule:
            gap = arrival.at_ns - self.sim.now
            if gap > 0:
                yield self.sim.timeout(gap)
            self._arrive(Request(
                index=arrival.index,
                tenant=arrival.tenant,
                template=arrival.template,
                arrival_ns=self.sim.now,
            ))
        self._arrivals_done = True
        self._wakeup.kick()

    def _start_clients(self, workload: ClosedLoopWorkload) -> None:
        self._mix = workload.mix
        self._budget = workload.n_requests
        self._next_index = 0
        self._clients_left = workload.n_clients
        for cid, rng in enumerate(workload.client_rngs()):
            self.sim.process(
                self._client(rng, workload.think_ns), name=f"client{cid}"
            )

    def _client(self, rng: random.Random, think_ns: float):
        while self._budget > 0:
            self._budget -= 1
            if think_ns > 0:
                yield self.sim.timeout(rng.expovariate(1.0) * think_ns)
            index = self._next_index
            self._next_index += 1
            tenant, template = self._pick(rng)
            request = Request(
                index=index, tenant=tenant, template=template,
                arrival_ns=self.sim.now,
            )
            done = self.sim.event()
            self._completions[index] = done
            self._arrive(request)
            yield done
        self._clients_left -= 1
        if self._clients_left == 0:
            self._arrivals_done = True
            self._wakeup.kick()

    def _pick(self, rng: random.Random):
        # Closed-loop clients sample the same weighted mix as open loop.
        return self._mix.sample(rng)

    def _arrive(self, request: Request) -> None:
        self.records.append(request)
        tstats = self._tenant_stats[request.tenant]
        tstats.bump("arrivals")
        self._arrivals_seen += 1
        if not self.scheduler.admit(request):
            request.shed = True
            tstats.bump("shed")
            self._sheds_seen += 1
            self._publish_load_gauges()
            self._complete(request)
            return
        self._publish_load_gauges()
        self._wakeup.kick()

    def _publish_load_gauges(self) -> None:
        """Keep the load gauges current as the run progresses, so an
        operator sampling the registry mid-run sees live shed-rate and
        queue-depth instead of end-of-run aggregates."""
        self._slo_stats.set_gauge("queue_depth", self.scheduler.backlog())
        self._slo_stats.set_gauge(
            "shed_rate", self._sheds_seen / self._arrivals_seen
        )

    # -- service side ------------------------------------------------------------
    def _port_loop(self, port: Port):
        while True:
            request = self.scheduler.pop(port.index)
            if request is None:
                if self._arrivals_done and self.scheduler.backlog() == 0:
                    return
                yield self._wakeup.wait()
                continue
            self._publish_load_gauges()
            yield from self._execute(port, request)

    def _execute(self, port: Port, request: Request):
        """Serve one request on ``port``.

        Under the request-level fault model (``fault_rate > 0``) each RME
        execution attempt is struck with probability ``fault_rate``; a
        struck attempt's time is wasted and a retry pays the policy's
        backoff plus a refill. A tenant whose circuit breaker is open
        skips the engine entirely and goes straight to the CPU row-scan
        — answers stay byte-identical (the profiler asserted the direct
        answer equals the RME answer), only the price changes.
        """
        sim = self.sim
        profile = self.profile.profile(request.tenant, request.template)
        request.port = port.index
        request.start_ns = sim.now
        request.queue_ns = sim.now - request.arrival_ns
        breaker = self._breakers.get(request.tenant)
        if breaker is not None and not breaker.allow(sim.now):
            self._fault_stats.bump("breaker_rejects")
            yield from self._give_up(port, request, profile)
            return
        if port.reconfigure(profile.descriptor, self._sched_stats):
            request.state = "cold"
            request.reconfig_ns = profile.program_ns + profile.fill_ns
        else:
            request.state = "hot"
            request.reconfig_ns = 0.0
        if request.reconfig_ns > 0:
            yield sim.timeout(request.reconfig_ns)
        # Assigned, not added: a fault-free run allocates no float here.
        request.exec_ns = profile.hot_ns
        attempt = 0
        while True:
            yield sim.timeout(profile.hot_ns)
            if (self._fault_rng is None
                    or self._fault_rng.random() >= self.fault_rate):
                if breaker is not None:
                    breaker.record_success(sim.now)
                self._answer(port, request, profile)
                return
            # A fault struck this attempt mid-scan: the time is wasted.
            self._fault_stats.bump("fault_events")
            if breaker is not None:
                breaker.record_failure(sim.now)
            attempt += 1
            delay = self.recovery.retry_delay_ns(attempt)
            if delay is None:
                # Retry budget exhausted: the engine state is suspect, so
                # the next request on this port re-programs from scratch.
                port.descriptor = None
                yield from self._give_up(port, request, profile)
                return
            request.retries += 1
            self._fault_stats.bump("retries")
            # Back off, then regenerate the projection before rerunning.
            yield sim.timeout(delay + profile.fill_ns)
            request.reconfig_ns += profile.fill_ns
            request.exec_ns += profile.hot_ns

    def _give_up(self, port: Port, request: Request, profile):
        """The engine path is closed: degrade to the CPU row-scan when
        the policy allows it, otherwise fail the request."""
        if self.recovery.cpu_fallback:
            yield from self._serve_direct(port, request, profile)
        else:
            self._fail_request(request)

    def _serve_direct(self, port: Port, request: Request, profile):
        """Degraded mode: answer from the base table with a CPU row-scan."""
        request.state = "degraded"
        request.degraded = True
        self._fault_stats.bump("fallbacks")
        yield self.sim.timeout(profile.direct_ns)
        request.exec_ns += profile.direct_ns
        self._tenant_stats[request.tenant].bump("degraded")
        self._answer(port, request, profile)

    def _answer(self, port: Port, request: Request, profile) -> None:
        request.finish_ns = self.sim.now
        request.value = profile.value
        port.served += 1
        self._observe(request)
        self._complete(request)
        self._wakeup.kick()

    def _fail_request(self, request: Request) -> None:
        """Give up on a request: no answer, counted against availability."""
        request.failed = True
        request.state = "failed"
        request.finish_ns = self.sim.now
        self._tenant_stats[request.tenant].bump("failed")
        self._fault_stats.bump("failed")
        self._complete(request)
        self._wakeup.kick()

    def _observe(self, request: Request) -> None:
        tstats = self._tenant_stats[request.tenant]
        tstats.bump("served")
        tstats.observe("latency_ns", request.latency_ns)
        tstats.observe("queue_ns", request.queue_ns)
        tstats.bump("reconfig_ns", request.reconfig_ns)
        tstats.bump("exec_ns", request.exec_ns)
        self._slo_stats.observe("latency_ns", request.latency_ns)

    def _complete(self, request: Request) -> None:
        done = self._completions.pop(request.index, None)
        if done is not None:
            done.succeed(request)

    # -- reporting ---------------------------------------------------------------
    def _build_report(self, arrival_kind: str) -> ServingReport:
        duration = self.sim.now
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
