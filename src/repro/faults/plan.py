"""Seeded fault schedules and the per-component injector.

A :class:`FaultPlan` is an explicit, fully deterministic schedule of
:class:`FaultEvent` records — what goes wrong, when (in simulated time)
and how badly. Plans are either listed by hand (tests) or generated with
:meth:`FaultPlan.poisson` from per-kind rates and a seed (chaos sweeps).

A single :class:`FaultInjector` wraps the plan for one
:class:`~repro.core.relmem.RelationalMemorySystem`: every instrumented
component holds a ``faults`` attribute that is ``None`` by default (the
telemetry pattern — a disabled injector costs one attribute check and
nothing else) and, when armed, asks the injector whether an event of its
kind is due *now*. Because the simulator is deterministic and events are
consumed in simulated-time order, the same seed and plan reproduce
bit-identical fault timestamps, recovery counts and answers.

Fault kinds and their injection sites:

========================  ====================================================
``dram_bitflip``          :meth:`repro.memsys.dram.DRAM.access` — an ECC
                          SECDED word model: severity 1 is corrected in
                          flight, 2 is detected-uncorrectable (the access
                          returns :data:`POISONED`), >= 3 escapes silently
                          (payload bytes flip).
``axi_stall``             :class:`repro.memsys.axi.AXILink` — a beat stall
                          adds ``duration_ns`` to one PL<->DRAM traversal.
``fetch_hang``            :meth:`repro.rme.fetch_unit.FetchUnitPool.worker`
                          — a lane wedges for ``duration_ns`` (bounded; the
                          watchdog may cancel the session first).
``descriptor_corrupt``    the descriptor register latched by a Fetch Unit
                          flips its lead-skip field; CRC checking re-reads
                          the golden copy, otherwise the wrong bytes land
                          in the buffer.
``buffer_poison``         a random reorganization-buffer line takes an SEU;
                          parity checking turns the next read into a
                          :class:`~repro.errors.BufferIntegrityError`,
                          otherwise corrupt bytes are served silently.
========================  ====================================================

The cluster tier (:mod:`repro.cluster`) adds *node-level* kinds that
target a whole simulated serving node (``FaultEvent.target`` carries the
node index); they are listed in :data:`NODE_FAULT_KINDS` and consumed by
:class:`~repro.cluster.service.ClusterSystem` rather than the injector:

========================  ====================================================
``node_crash``            the node is dead for ``duration_ns``: queued work
                          waits, in-flight requests are lost, replication
                          stops syncing.
``node_slow``             an AXI-storm/contention window: service times on
                          the node scale by ``severity`` for ``duration_ns``.
``replica_lag``           the node's replication watermark freezes for
                          ``duration_ns`` — reads served off it on failover
                          carry the widened staleness.
========================  ====================================================
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..sim import StatSet
from .recovery import DEFAULT_RECOVERY, RecoveryPolicy

#: Sentinel returned by a DRAM access whose data ECC flagged as
#: detected-uncorrectable — the memory analogue of the hierarchy's
#: ``DECLINED``. Callers retry or escalate; the bytes never reach anyone.
POISONED = object()

#: Every *hardware* fault kind a plan may schedule against one node's
#: RME/memsys stack. Kept as its own tuple so existing plans, strategies
#: and injection sites are untouched by the cluster tier.
FAULT_KINDS = (
    "dram_bitflip",
    "axi_stall",
    "fetch_hang",
    "descriptor_corrupt",
    "buffer_poison",
)

#: Node-level fault kinds consumed by the cluster tier; ``target`` names
#: the victim node index.
NODE_FAULT_KINDS = (
    "node_crash",
    "node_slow",
    "replica_lag",
)

#: Every kind a :class:`FaultEvent` may carry.
ALL_FAULT_KINDS = FAULT_KINDS + NODE_FAULT_KINDS

#: Default SECDED severity mix for generated ``dram_bitflip`` events:
#: mostly single-bit (corrected), some double-bit (detected), rare
#: triple-bit (silent). Weights follow field DRAM studies' shape, not
#: any specific device.
DEFAULT_BITFLIP_WEIGHTS = ((1, 0.70), (2, 0.25), (3, 0.05))


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: a kind, an arming time and its parameters."""

    kind: str
    at_ns: float  #: simulated time at/after which the event fires
    severity: int = 1  #: bit flips per ECC word / slow-node service multiplier
    duration_ns: float = 0.0  #: stall/hang/outage length
    target: int = -1  #: victim node index (node-level kinds); -1 = untargeted

    def __post_init__(self) -> None:
        if self.kind not in ALL_FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r} "
                f"(choose from {', '.join(ALL_FAULT_KINDS)})"
            )
        if self.at_ns < 0:
            raise ConfigurationError("fault time must be >= 0")
        if self.severity < 1:
            raise ConfigurationError("fault severity must be >= 1")
        if self.duration_ns < 0:
            raise ConfigurationError("fault duration must be >= 0")
        if self.target < -1:
            raise ConfigurationError("fault target must be a node index or -1")
        if self.kind in NODE_FAULT_KINDS and self.target < 0:
            raise ConfigurationError(
                f"{self.kind!r} events must name a target node"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of fault events plus the injector seed."""

    events: Tuple[FaultEvent, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "events",
            tuple(sorted(self.events,
                         key=lambda e: (e.at_ns, e.kind, e.target))),
        )

    @classmethod
    def single(cls, kind: str, at_ns: float, severity: int = 1,
               duration_ns: float = 0.0, seed: int = 0) -> "FaultPlan":
        """One fault, for targeted tests and the property sweep."""
        return cls(
            events=(FaultEvent(kind, at_ns, severity, duration_ns),),
            seed=seed,
        )

    @classmethod
    def poisson(
        cls,
        duration_ns: float,
        rates_per_ms: Dict[str, float],
        seed: int = 0,
        bitflip_weights: Sequence[Tuple[int, float]] = DEFAULT_BITFLIP_WEIGHTS,
        hang_ns: float = 100_000.0,
        stall_ns: float = 2_000.0,
    ) -> "FaultPlan":
        """Draw independent Poisson processes, one per fault kind.

        ``rates_per_ms`` maps fault kinds to events per simulated
        millisecond over ``[0, duration_ns)``. Generation is seeded and
        iterates kinds in sorted order, so the same arguments always
        produce the same schedule.
        """
        if duration_ns <= 0:
            raise ConfigurationError("plan duration must be positive")
        rng = random.Random(seed)
        severities = [s for s, _w in bitflip_weights]
        weights = [w for _s, w in bitflip_weights]
        events: List[FaultEvent] = []
        for kind in sorted(rates_per_ms):
            rate = rates_per_ms[kind]
            if kind not in FAULT_KINDS:
                raise ConfigurationError(f"unknown fault kind {kind!r}")
            if rate < 0:
                raise ConfigurationError(f"rate for {kind!r} must be >= 0")
            if rate == 0:
                continue
            mean_gap = 1e6 / rate  # ns between events
            now = rng.expovariate(1.0) * mean_gap
            while now < duration_ns:
                severity = 1
                duration = 0.0
                if kind == "dram_bitflip":
                    severity = rng.choices(severities, weights=weights)[0]
                elif kind == "fetch_hang":
                    duration = hang_ns
                elif kind == "axi_stall":
                    duration = stall_ns
                events.append(FaultEvent(kind, now, severity, duration))
                now += rng.expovariate(1.0) * mean_gap
        return cls(events=tuple(events), seed=seed)

    @classmethod
    def node_poisson(
        cls,
        duration_ns: float,
        n_nodes: int,
        rates_per_ms: Dict[str, float],
        seed: int = 0,
        crash_ns: float = 400_000.0,
        slow_ns: float = 300_000.0,
        slow_factor: int = 4,
        lag_ns: float = 500_000.0,
    ) -> "FaultPlan":
        """Draw seeded node-level fault schedules for a cluster run.

        Like :meth:`poisson` but over :data:`NODE_FAULT_KINDS`; each
        event picks a victim node uniformly from ``range(n_nodes)``.
        Kinds iterate in sorted order and all draws come from one seeded
        generator, so the same arguments always produce the same plan —
        the cluster determinism tests compare the resulting failover
        event logs bit-for-bit.
        """
        if duration_ns <= 0:
            raise ConfigurationError("plan duration must be positive")
        if n_nodes < 1:
            raise ConfigurationError("node fault plans need >= 1 node")
        durations = {
            "node_crash": crash_ns,
            "node_slow": slow_ns,
            "replica_lag": lag_ns,
        }
        rng = random.Random(seed)
        events: List[FaultEvent] = []
        for kind in sorted(rates_per_ms):
            rate = rates_per_ms[kind]
            if kind not in NODE_FAULT_KINDS:
                raise ConfigurationError(
                    f"unknown node fault kind {kind!r} "
                    f"(choose from {', '.join(NODE_FAULT_KINDS)})"
                )
            if rate < 0:
                raise ConfigurationError(f"rate for {kind!r} must be >= 0")
            if rate == 0:
                continue
            mean_gap = 1e6 / rate  # ns between events
            now = rng.expovariate(1.0) * mean_gap
            while now < duration_ns:
                severity = slow_factor if kind == "node_slow" else 1
                events.append(FaultEvent(
                    kind, now, severity, durations[kind],
                    target=rng.randrange(n_nodes),
                ))
                now += rng.expovariate(1.0) * mean_gap
        return cls(events=tuple(events), seed=seed)

    def count(self, kind: str = None) -> int:
        if kind is None:
            return len(self.events)
        return sum(1 for e in self.events if e.kind == kind)


class FaultInjector:
    """Consumes a plan's events as simulated time passes.

    One injector is shared by every instrumented component of a system;
    each calls :meth:`draw` at its injection site. ``recovery`` carries
    the system-wide :class:`~repro.faults.recovery.RecoveryPolicy`;
    ``stats`` collects fault/recovery counters and is attached to
    ``system.metrics`` under ``faults``. ``log`` records every fired
    event as ``(fire_ns, scheduled_ns, kind)`` — the determinism tests
    compare it across runs.
    """

    def __init__(
        self,
        plan: FaultPlan,
        recovery: RecoveryPolicy = DEFAULT_RECOVERY,
        name: str = "faults",
    ):
        self.plan = plan
        self.recovery = recovery
        self.stats = StatSet(name)
        self.rng = random.Random(plan.seed ^ 0x5EED)
        self.log: List[Tuple[float, float, str]] = []
        self._pending: Dict[str, List[FaultEvent]] = {
            k: [] for k in ALL_FAULT_KINDS
        }
        # Per-kind queues in reverse time order so draw() pops from the end.
        for event in sorted(plan.events, key=lambda e: -e.at_ns):
            self._pending[event.kind].append(event)

    def draw(self, kind: str, now: float) -> Optional[FaultEvent]:
        """Pop the earliest armed ``kind`` event with ``at_ns <= now``."""
        queue = self._pending[kind]
        if not queue or queue[-1].at_ns > now:
            return None
        event = queue.pop()
        self.log.append((now, event.at_ns, kind))
        self.stats.bump("fired_" + kind)
        self.stats.bump("fired_total")
        return self._on_fire(event)

    def _on_fire(self, event: FaultEvent) -> FaultEvent:
        return event

    @property
    def pending(self) -> int:
        """Events scheduled but not yet fired."""
        return sum(len(q) for q in self._pending.values())

    # -- corruption helpers ---------------------------------------------------
    def corrupt_bytes(self, data: bytes, n_flips: int = 1) -> bytes:
        """Flip ``n_flips`` deterministic random bits of ``data``."""
        if not data:
            return data
        corrupted = bytearray(data)
        for _ in range(n_flips):
            index = self.rng.randrange(len(corrupted))
            corrupted[index] ^= 1 << self.rng.randrange(8)
        return bytes(corrupted)
