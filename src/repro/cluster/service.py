"""The cluster tier: route → dispatch → race deadline → failover → degrade.

:class:`ClusterSystem` serves an open-loop workload through N simulated
nodes, each a full serving stack (its own configuration ports, scheduler
and admission queue — the same machinery :class:`~repro.serve.service
.ServingSystem` uses for one node). A router places tenants on nodes via
consistent-hash or range sharding and keeps requests alive through
node-level faults:

* **per-request deadline + budgeted retries** — every attempt races an
  SLO-derived deadline; a timed-out or crashed attempt retries on the
  next replica with the :class:`~repro.faults.RecoveryPolicy`'s linear
  backoff, up to its retry budget.
* **hedging** — when the chosen node's *observed* p99 has drifted past
  the deadline, the router dispatches a second copy to a replica; first
  answer wins, the loser is abandoned (counted as wasted work).
* **health-check failover** — a crashed node is marked down after
  ``health_fail_threshold`` missed probes and routed around until a
  probe after recovery sees it up; per-node circuit breakers fail fast
  on nodes that keep eating the retry budget.
* **graceful degradation** — when no RME replica can answer, the request
  falls back to the CPU row-scan replica (the staleness-bounded snapshot
  the PR 3 executor degrades to), carrying a *measured* staleness:
  ``now - watermark`` of whatever stale source served it.

Answers are always the profiled golden values, so under every fault plan
the served answers stay byte-identical to a fault-free run — the cluster
reprices *when* and *where* answers are produced, never *what*.

Determinism: one :class:`~repro.sim.Simulator` drives arrivals, node
loops, fault application, health watches and per-request deadline
timers; all randomness is seeded (workload seed, plan seed). The same
inputs reproduce bit-identical failover event logs and report
fingerprints. Per-node metrics registries merge into the cluster rollup
through :meth:`~repro.sim.MetricsRegistry.merged`, so cluster
percentiles are bit-equal to one unsharded registry observing the same
latencies (the PR 5 algebra, one tier up).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Union

from ..config import PlatformConfig, ZCU102
from ..errors import ConfigurationError
from ..faults import (
    DEFAULT_RECOVERY,
    NODE_FAULT_KINDS,
    FaultPlan,
    RecoveryPolicy,
)
from ..rme.designs import MLP, DesignParams
from ..sim import Event, MetricsRegistry, Simulator, Wakeup
from ..serve.profiles import WorkloadProfile
from ..serve.scheduler import Port, make_scheduler
from ..serve.service import (
    check_policy,
    check_profiled,
    resolve_n_ports,
    resolve_profile,
)
from ..serve.workload import OpenLoopWorkload, Request, TenantSpec
from .node import ClusterNode
from .placement import Placement, make_placement

#: request.node value for answers served by the CPU snapshot replica.
CPU_REPLICA = -1


@dataclass
class _Attempt:
    """One dispatch of a request to one node's queue."""

    request: Request
    node_index: int
    winner: Event
    enqueued_ns: float
    abandoned: bool = False


@dataclass(frozen=True)
class NodeSLO:
    """One node's service-level summary over a cluster run."""

    node: str
    served: int
    shed: int
    abandoned: int
    p50_ns: float
    p99_ns: float
    crashes: int
    stale_serves: int
    wasted: int

    @property
    def index(self) -> int:
        return int(self.node[len("node"):])


@dataclass
class ClusterReport:
    """Everything one cluster run produced, availability first."""

    n_nodes: int
    replication: int
    routing: str
    policy: str
    failover: bool
    hedging: bool
    deadline_ns: float
    duration_ns: float
    arrivals: int
    served: int
    shed: int
    failed: int
    degraded: int
    p50_ns: float
    p95_ns: float
    p99_ns: float
    retries: int
    timeouts: int
    hedges: int
    hedge_wins: int
    failover_routes: int
    breaker_opens: int
    health_downs: int
    fault_events: int
    staleness_max_ns: float
    staleness_p99_ns: float
    nodes: List[NodeSLO]
    metrics: MetricsRegistry = field(repr=False)
    merged: MetricsRegistry = field(repr=False)
    records: List[Request] = field(repr=False, default_factory=list)
    events: List[tuple] = field(repr=False, default_factory=list)

    @property
    def availability(self) -> float:
        """Fraction of arrivals answered (shed and failed count against)."""
        return self.served / self.arrivals if self.arrivals else 0.0

    @property
    def degraded_ratio(self) -> float:
        return self.degraded / self.served if self.served else 0.0

    @property
    def throughput_qps(self) -> float:
        if not self.duration_ns:
            return 0.0
        return self.served / (self.duration_ns / 1e9)

    def node(self, index: int) -> NodeSLO:
        for slo in self.nodes:
            if slo.index == index:
                return slo
        raise ConfigurationError(f"no node {index} in this report")

    def fingerprint(self) -> tuple:
        """Deterministic digest; same seed ⇒ bit-identical tuple."""
        return (
            self.duration_ns,
            self.arrivals,
            self.served,
            self.shed,
            self.failed,
            self.degraded,
            self.retries,
            self.timeouts,
            self.hedges,
            self.hedge_wins,
            self.failover_routes,
            self.breaker_opens,
            self.health_downs,
            self.fault_events,
            self.staleness_max_ns,
            tuple(
                (n.node, n.served, n.shed, n.abandoned,
                 n.p50_ns, n.p99_ns, n.crashes, n.stale_serves, n.wasted)
                for n in self.nodes
            ),
            sum(r.finish_ns for r in self.records),
            tuple(self.events),
        )


class ClusterSystem:
    """Routes a workload across N simulated serving nodes."""

    def __init__(
        self,
        workload_profile: Union[WorkloadProfile, Sequence[TenantSpec]],
        n_nodes: int = 4,
        replication: int = 2,
        routing: str = "consistent-hash",
        policy: str = "fcfs",
        n_ports: Optional[int] = None,
        queue_depth: int = 64,
        quantum: int = 8,
        platform: PlatformConfig = ZCU102,
        design: DesignParams = MLP,
        fault_plan: Optional[FaultPlan] = None,
        recovery: Optional[RecoveryPolicy] = None,
        failover: bool = True,
        hedging: bool = True,
        deadline_ns: Optional[float] = None,
        deadline_factor: float = 6.0,
        health_interval_ns: float = 25_000.0,
        health_fail_threshold: int = 2,
        sync_interval_ns: float = 50_000.0,
        hedge_min_samples: int = 16,
    ):
        check_policy(policy)
        if n_nodes < 1:
            raise ConfigurationError(f"n_nodes must be >= 1, got {n_nodes}")
        if deadline_factor <= 0:
            raise ConfigurationError("deadline_factor must be positive")
        if health_interval_ns <= 0 or sync_interval_ns <= 0:
            raise ConfigurationError(
                "health and sync intervals must be positive"
            )
        if health_fail_threshold < 1:
            raise ConfigurationError("health_fail_threshold must be >= 1")
        if hedge_min_samples < 1:
            raise ConfigurationError("hedge_min_samples must be >= 1")
        self.profile = resolve_profile(workload_profile, platform, design)
        n_ports = resolve_n_ports(policy, n_ports)
        if fault_plan is not None:
            for event in fault_plan.events:
                if event.kind not in NODE_FAULT_KINDS:
                    raise ConfigurationError(
                        f"cluster plans take node-level kinds only, "
                        f"got {event.kind!r}"
                    )
                if event.target >= n_nodes:
                    raise ConfigurationError(
                        f"fault targets node {event.target} but the cluster "
                        f"has {n_nodes} nodes"
                    )
        self.n_nodes = n_nodes
        self.replication = min(replication, n_nodes)
        self.routing = routing
        self.policy = policy
        self.n_ports = n_ports
        self.queue_depth = queue_depth
        self.quantum = quantum
        self.fault_plan = fault_plan
        self.recovery = recovery if recovery is not None else DEFAULT_RECOVERY
        self.failover = failover
        self.hedging = hedging
        self.deadline_ns = (
            deadline_ns if deadline_ns is not None
            else deadline_factor * self.profile.mean_cold_service_ns
        )
        self.health_interval_ns = health_interval_ns
        self.health_fail_threshold = health_fail_threshold
        self.sync_interval_ns = sync_interval_ns
        self.hedge_min_samples = hedge_min_samples
        self.placement: Placement = make_placement(
            routing, self.profile.tenant_names, n_nodes, self.replication
        )
        self.metrics: Optional[MetricsRegistry] = None

    # -- the run -------------------------------------------------------------
    def run(self, workload: OpenLoopWorkload) -> ClusterReport:
        """Serve the whole workload across the cluster; returns the report."""
        if not isinstance(workload, OpenLoopWorkload):
            raise ConfigurationError(
                "the cluster tier serves open-loop workloads"
            )
        check_profiled(self.profile, workload)
        sim = self.sim = Simulator()
        metrics = self.metrics = MetricsRegistry("cluster")
        self._router_stats = metrics.scope("router")
        self._slo_stats = metrics.scope("slo")
        self._fault_stats = metrics.scope("faults")
        self.nodes: List[ClusterNode] = []
        # Bound to the profile, not to this system, so that a finished
        # run is freed by reference counting.
        descriptor_of = self.profile.descriptor_of
        for index in range(self.n_nodes):
            node = ClusterNode(
                index, MetricsRegistry(f"node{index}"), self.recovery.breaker()
            )
            node.ports = [Port(index=i) for i in range(self.n_ports)]
            node.wakeup = Wakeup(sim)
            node.scheduler = make_scheduler(
                self.policy, node.ports, self.queue_depth, node.sched_stats,
                lambda attempt: descriptor_of(attempt.request),
                quantum=self.quantum,
            )
            self.nodes.append(node)
        self.records: List[Request] = []
        self.events: List[tuple] = []
        self._arrivals_done = False
        self._open_requests = 0
        self._max_finish_ns = 0.0
        if self.fault_plan is not None and self.fault_plan.events:
            sim.process(self._fault_driver(), name="faults")
        sim.process(self._open_loop_driver(workload.schedule()),
                    name="arrivals")
        for node in self.nodes:
            for port in node.ports:
                sim.process(self._port_loop(node, port),
                            name=f"{node.name}.port{port.index}")
        sim.run()
        return self._build_report()

    def _log(self, kind: str, *detail) -> None:
        self.events.append((self.sim.now, kind) + detail)

    # -- arrivals ------------------------------------------------------------
    def _open_loop_driver(self, schedule):
        for arrival in schedule:
            gap = arrival.at_ns - self.sim.now
            if gap > 0:
                yield self.sim.timeout(gap)
            request = Request(
                index=arrival.index,
                tenant=arrival.tenant,
                template=arrival.template,
                arrival_ns=self.sim.now,
            )
            self.records.append(request)
            self._router_stats.bump("arrivals")
            self._open_requests += 1
            self.sim.process(self._request_driver(request),
                             name=f"req{request.index}")
        self._arrivals_done = True
        self._kick_all()

    def _kick_all(self) -> None:
        for node in self.nodes:
            node.wakeup.kick()

    def _complete(self, request: Request) -> None:
        self._open_requests -= 1
        if request.finish_ns > self._max_finish_ns:
            self._max_finish_ns = request.finish_ns
        if self._arrivals_done and self._open_requests == 0:
            self._kick_all()

    # -- routing -------------------------------------------------------------
    def _pick_node(self, candidates: List[int], tried: Set[int],
                   now: float) -> Optional[int]:
        """The first live replica the router may try (breaker-gated)."""
        order = candidates if self.failover else candidates[:1]
        for index in order:
            if self.failover and index in tried:
                continue
            node = self.nodes[index]
            if self.failover and node.marked_down:
                self._router_stats.bump("health_skips")
                continue
            if node.breaker is not None and not node.breaker.allow(now):
                self._router_stats.bump("breaker_rejects")
                continue
            return index
        return None

    def _maybe_hedge(self, candidates: List[int], tried: Set[int],
                     chosen: int, now: float) -> Optional[int]:
        """A replica to hedge to when ``chosen``'s tail has drifted.

        The trigger is *observed*: the node's own p99 latency histogram
        (once it has ``hedge_min_samples`` serves) exceeding the
        SLO-derived deadline. Hedging needs failover semantics — a
        second copy on a replica — so it is gated on both flags.
        """
        if not (self.hedging and self.failover):
            return None
        node = self.nodes[chosen]
        latency = node.slo_stats.histogram("latency_ns")
        if latency.count < self.hedge_min_samples:
            return None
        if latency.percentile(99) <= self.deadline_ns:
            return None
        for index in candidates:
            if index == chosen or index in tried:
                continue
            other = self.nodes[index]
            if other.marked_down:
                continue
            if other.breaker is not None and not other.breaker.allow(now):
                continue
            return index
        return None

    # -- the per-request driver ----------------------------------------------
    def _request_driver(self, request: Request):
        profile = self.profile.profile(request.tenant, request.template)
        candidates = self.placement.replicas_for(request.tenant)
        primary = candidates[0]
        tried: Set[int] = set()
        failures = 0
        shed_everywhere = False
        while True:
            now = self.sim.now
            chosen = self._pick_node(candidates, tried, now)
            if chosen is None:
                break
            if chosen != primary:
                self._router_stats.bump("failover_routes")
                self._log("failover", request.index, primary, chosen)
            hedge = self._maybe_hedge(candidates, tried, chosen, now)
            outcome = yield from self._race(request, chosen, hedge)
            kind, winner_index = outcome
            if kind == "ok":
                if hedge is not None and winner_index == hedge:
                    self._router_stats.bump("hedge_wins")
                    self._log("hedge_win", request.index, hedge)
                self._finish_served(request, winner_index, primary)
                return
            if kind == "shed":
                if not self.failover:
                    shed_everywhere = True
                    break
                tried.add(chosen)
                if hedge is not None:
                    tried.add(hedge)
                continue
            # Deadline expired, or a node crashed mid-scan (the outcome
            # then names the crashed node; a timeout blames the chosen).
            failed_index = winner_index if winner_index is not None else chosen
            node = self.nodes[failed_index]
            if node.breaker is not None:
                node.breaker.record_failure(self.sim.now)
            self._router_stats.bump(
                "timeouts" if kind == "timeout" else "crash_failures"
            )
            failures += 1
            if self.failover:
                tried.add(chosen)
            delay = self.recovery.retry_delay_ns(failures)
            if delay is None:
                break
            request.retries += 1
            self._router_stats.bump("retries")
            yield self.sim.timeout(delay)
        if shed_everywhere:
            request.shed = True
            self._router_stats.bump("shed")
            self._complete(request)
            return
        if self.recovery.cpu_fallback:
            yield from self._serve_degraded(request, profile)
            return
        request.failed = True
        request.state = "failed"
        request.finish_ns = self.sim.now
        self._router_stats.bump("failed")
        self._complete(request)

    def _race(self, request: Request, chosen: int, hedge: Optional[int]):
        """Dispatch (possibly hedged) and race the deadline; one winner.

        Picking a node took its half-open probe slot, if it had one. A
        pick that concludes nothing — shed by a full queue, a hedge never
        sent, an attempt abandoned to the winner — gives the slot back,
        or the breaker would wait forever for the probe's verdict. The
        node the driver blames gets ``record_failure`` there instead.
        """
        winner = self.sim.event()
        attempts = []
        attempt = self._dispatch(request, chosen, winner)
        if attempt is not None:
            attempts.append(attempt)
        if hedge is not None and attempt is not None:
            hedged = self._dispatch(request, hedge, winner)
            if hedged is not None:
                attempts.append(hedged)
                self._router_stats.bump("hedges")
                self._log("hedge", request.index, chosen, hedge)
        dispatched = [a.node_index for a in attempts]
        for index in (chosen, hedge):
            if index is not None and index not in dispatched:
                self._release_probe(index)
        if not attempts:
            return ("shed", None)
        self.sim.process(self._deadline_timer(winner),
                         name=f"deadline{request.index}")
        outcome = yield winner
        for attempt in attempts:
            attempt.abandoned = True
            if attempt.node_index != outcome[1]:
                self._release_probe(attempt.node_index)
        return outcome

    def _release_probe(self, index: int) -> None:
        breaker = self.nodes[index].breaker
        if breaker is not None:
            breaker.release_probe()

    def _dispatch(self, request: Request, index: int,
                  winner: Event) -> Optional[_Attempt]:
        node = self.nodes[index]
        attempt = _Attempt(
            request=request, node_index=index, winner=winner,
            enqueued_ns=self.sim.now,
        )
        if not node.scheduler.admit(attempt):
            return None
        node.wakeup.kick()
        return attempt

    def _deadline_timer(self, winner: Event):
        yield self.sim.timeout(self.deadline_ns)
        if not winner.triggered:
            winner.succeed(("timeout", None))

    # -- node service --------------------------------------------------------
    def _port_loop(self, node: ClusterNode, port: Port):
        sim = self.sim
        while True:
            attempt = node.scheduler.pop(port.index)
            if attempt is None:
                if (self._arrivals_done and self._open_requests == 0
                        and node.scheduler.backlog() == 0):
                    return
                yield node.wakeup.wait()
                continue
            if attempt.abandoned or attempt.winner.triggered:
                node.node_stats.bump("abandoned")
                continue
            while node.is_down(sim.now):
                # Dead node: queued work waits out the outage (repeated
                # crashes may extend it). The request's deadline timer
                # usually abandons the attempt first.
                yield sim.timeout(node.down_until - sim.now)
            if attempt.abandoned or attempt.winner.triggered:
                node.node_stats.bump("abandoned")
                continue
            profile = self.profile.profile(
                attempt.request.tenant, attempt.request.template
            )
            start = sim.now
            epoch = node.crash_epoch
            reconfig = 0.0
            if port.reconfigure(profile.descriptor, node.sched_stats):
                reconfig = profile.program_ns + profile.fill_ns
            scale = node.service_scale(sim.now)
            if scale > 1.0:
                node.node_stats.bump("slowed_serves")
            yield sim.timeout((reconfig + profile.hot_ns) * scale)
            if node.crash_epoch != epoch and node.down_until > start:
                # The node died mid-scan: the work is lost and the next
                # serve re-programs the port from scratch.
                port.descriptor = None
                node.node_stats.bump("lost_in_flight")
                self._finish_attempt(node, attempt, ("crashed", node.index))
                continue
            port.served += 1
            node.served += 1
            self._finish_attempt(node, attempt, ("ok", node.index))

    def _finish_attempt(self, node: ClusterNode, attempt: _Attempt,
                        outcome: tuple) -> None:
        if attempt.winner.triggered:
            node.node_stats.bump("wasted_completions")
            return
        attempt.winner.succeed(outcome)

    # -- completion paths ----------------------------------------------------
    def _finish_served(self, request: Request, winner_index: int,
                       primary: int) -> None:
        now = self.sim.now
        node = self.nodes[winner_index]
        profile = self.profile.profile(request.tenant, request.template)
        request.finish_ns = now
        request.value = profile.value
        request.port = winner_index
        request.state = "served"
        if node.breaker is not None:
            node.breaker.record_success(now)
        node.slo_stats.bump("served")
        node.slo_stats.observe("latency_ns", request.latency_ns)
        if winner_index != primary:
            # A replica answered: the read carries its replication
            # watermark — the measured staleness bound.
            staleness = node.staleness_at(now, self.sync_interval_ns)
            node.slo_stats.bump("stale_serves")
            node.slo_stats.observe("staleness_ns", staleness)
            self._slo_stats.observe("staleness_ns", staleness)
        self._complete(request)

    def _serve_degraded(self, request: Request, profile):
        """No RME replica answered: the CPU row-scan snapshot does."""
        yield self.sim.timeout(profile.direct_ns)
        now = self.sim.now
        request.degraded = True
        request.state = "degraded"
        request.finish_ns = now
        request.value = profile.value
        request.port = CPU_REPLICA
        staleness = now - (now // self.sync_interval_ns) * self.sync_interval_ns
        self._router_stats.bump("degraded")
        self._slo_stats.bump("served")
        self._slo_stats.observe("latency_ns", request.latency_ns)
        self._slo_stats.observe("staleness_ns", staleness)
        self._log("degraded_cpu", request.index, staleness)
        self._complete(request)

    # -- fault application ---------------------------------------------------
    def _fault_driver(self):
        for event in self.fault_plan.events:
            gap = event.at_ns - self.sim.now
            if gap > 0:
                yield self.sim.timeout(gap)
            self._apply_fault(event)

    def _apply_fault(self, event) -> None:
        now = self.sim.now
        node = self.nodes[event.target]
        self._fault_stats.bump("fired_" + event.kind)
        self._fault_stats.bump("fired_total")
        if event.kind == "node_crash":
            node.crash_epoch += 1
            node.crash_started = now
            node.down_until = max(node.down_until, now + event.duration_ns)
            node.down_windows.append((now, now + event.duration_ns))
            node.node_stats.bump("crashes")
            self._log("node_crash", node.index, event.duration_ns)
            if self.failover:
                self.sim.process(self._health_watch(node, now),
                                 name=f"health{node.index}")
        elif event.kind == "node_slow":
            node.slow_factor = max(2.0, float(event.severity))
            node.slow_until = max(node.slow_until, now + event.duration_ns)
            node.node_stats.bump("slow_windows")
            self._log("node_slow", node.index, event.severity,
                      event.duration_ns)
        else:  # replica_lag
            node.lag_windows.append((now, now + event.duration_ns))
            node.node_stats.bump("lag_windows")
            self._log("replica_lag", node.index, event.duration_ns)

    def _health_watch(self, node: ClusterNode, crash_start: float):
        """Mark a crashed node down after missed probes, up after recovery."""
        detection = self.health_interval_ns * self.health_fail_threshold
        yield self.sim.timeout(detection)
        if not node.is_down(self.sim.now) or node.crash_started != crash_start:
            return  # recovered before detection, or a newer watch owns it
        node.marked_down = True
        self._router_stats.bump("health_downs")
        self._log("health_down", node.index)
        wait = node.down_until - self.sim.now + self.health_interval_ns
        yield self.sim.timeout(max(0.0, wait))
        if not node.is_down(self.sim.now):
            node.marked_down = False
            self._log("health_up", node.index)

    # -- reporting -----------------------------------------------------------
    def _build_report(self) -> ClusterReport:
        duration = self._max_finish_ns or self.sim.now
        nodes: List[NodeSLO] = []
        for node in self.nodes:
            latency = node.slo_stats.histogram("latency_ns")
            nodes.append(NodeSLO(
                node=node.name,
                served=node.slo_stats.count("served"),
                shed=node.sched_stats.count("shed"),
                abandoned=node.node_stats.count("abandoned"),
                p50_ns=latency.percentile(50),
                p99_ns=latency.percentile(99),
                crashes=node.node_stats.count("crashes"),
                stale_serves=node.slo_stats.count("stale_serves"),
                wasted=node.node_stats.count("wasted_completions"),
            ))
            # The cluster rollup folds every node's latencies through the
            # deterministic merge algebra; degraded serves were observed
            # directly in the cluster registry's own slo scope.
        merged = MetricsRegistry.merged(
            [n.metrics for n in self.nodes] + [self.metrics],
            name="cluster-merged",
        )
        overall = merged.statset("slo").histogram("latency_ns")
        staleness = merged.statset("slo").histogram("staleness_ns")
        served = sum(n.served for n in nodes) + self._router_stats.count(
            "degraded"
        )
        return ClusterReport(
            n_nodes=self.n_nodes,
            replication=self.replication,
            routing=self.routing,
            policy=self.policy,
            failover=self.failover,
            hedging=self.hedging,
            deadline_ns=self.deadline_ns,
            duration_ns=duration,
            arrivals=self._router_stats.count("arrivals"),
            served=served,
            shed=self._router_stats.count("shed"),
            failed=self._router_stats.count("failed"),
            degraded=self._router_stats.count("degraded"),
            p50_ns=overall.percentile(50),
            p95_ns=overall.percentile(95),
            p99_ns=overall.percentile(99),
            retries=self._router_stats.count("retries"),
            timeouts=self._router_stats.count("timeouts"),
            hedges=self._router_stats.count("hedges"),
            hedge_wins=self._router_stats.count("hedge_wins"),
            failover_routes=self._router_stats.count("failover_routes"),
            breaker_opens=sum(
                n.breaker.opens for n in self.nodes if n.breaker is not None
            ),
            health_downs=self._router_stats.count("health_downs"),
            fault_events=self._fault_stats.count("fired_total"),
            staleness_max_ns=staleness.max or 0.0,
            staleness_p99_ns=staleness.percentile(99),
            nodes=nodes,
            metrics=self.metrics,
            merged=merged,
            records=self.records,
            events=self.events,
        )
