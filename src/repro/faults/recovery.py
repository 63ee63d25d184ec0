"""Recovery policies and the serving-layer circuit breaker.

The detection machinery is spread across the stack (ECC in the DRAM
model, descriptor CRC and line parity in the engine, the fetch-session
watchdog, the executor's CPU fallback, the serving loop's breakers).
The *decisions* are not: every retry loop — the CPU's ECC re-read, the
fetch unit's poisoned re-read, the watchdog's session restart, the
serving and cluster retries and the worker-pool rebuilds of
:mod:`repro.parallel` — asks :meth:`RecoveryPolicy.retry_delay_ns`
whether retry number ``n`` is allowed and how long to back off first,
and every breaker comes from :meth:`RecoveryPolicy.breaker`.

State machine of :class:`CircuitBreaker` (per serving tenant)::

    CLOSED --(failures >= threshold)--> OPEN
    OPEN   --(cooldown elapses)-------> HALF_OPEN (one probe admitted)
    HALF_OPEN --probe succeeds--------> CLOSED
    HALF_OPEN --probe fails-----------> OPEN (cooldown restarts)

While OPEN, the serving loop routes the tenant's requests straight to the
CPU row-scan fallback (or sheds them fast when no fallback is allowed)
instead of burning engine retries on a descriptor that keeps faulting.

In the relational-algebra IR this fallback is *visible in the plan*:
when an unrecoverable ``FaultError`` escapes the RME and the policy's
``cpu_fallback`` allows degradation, the
:class:`~repro.query.processor.Processor` re-roots the fetch subtree
onto the :data:`~repro.query.engines.DEGRADED` engine
(:func:`~repro.query.processor.reroot_degraded`) — same semantics as
the executor's historical fallback, but the executed tree recorded in
:attr:`Processor.last_report` shows ``@degraded`` where the plan said
``@rme``. With ``cpu_fallback=False`` the fault still propagates to the
caller unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigurationError

#: Circuit-breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass(frozen=True)
class RecoveryPolicy:
    """What the system is allowed to do about an injected fault."""

    enabled: bool = True  #: master switch: False models a recovery-free stack
    max_retries: int = 3  #: in-place retries (DRAM re-reads, fetch restarts)
    retry_backoff_ns: float = 200.0  #: linear backoff between retries
    watchdog_ns: float = 50_000.0  #: fetch-session progress deadline (0 = off)
    crc_checks: bool = True  #: descriptor CRC + buffer parity + end-to-end audit
    cpu_fallback: bool = True  #: degrade to the CPU row-scan path on FaultError
    breaker_threshold: int = 3  #: consecutive engine failures that open a breaker
    breaker_cooldown_ns: float = 2_000_000.0  #: OPEN dwell before the probe

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.retry_backoff_ns < 0:
            raise ConfigurationError("retry_backoff_ns must be >= 0")
        if self.watchdog_ns < 0:
            raise ConfigurationError("watchdog_ns must be >= 0")
        if self.breaker_threshold < 1:
            raise ConfigurationError("breaker_threshold must be >= 1")
        if self.breaker_cooldown_ns <= 0:
            raise ConfigurationError("breaker_cooldown_ns must be positive")

    def retry_delay_ns(self, attempt: int) -> Optional[float]:
        """The backoff before retry number ``attempt`` (1-based).

        ``None`` when the budget forbids that retry: recovery is off, or
        ``attempt`` exceeds ``max_retries``. The backoff is linear,
        ``retry_backoff_ns * attempt``.
        """
        if not self.enabled or attempt > self.max_retries:
            return None
        return self.retry_backoff_ns * attempt

    def breaker(self) -> Optional["CircuitBreaker"]:
        """A fresh :class:`CircuitBreaker` under this policy's threshold
        and cooldown; ``None`` without recovery, so a no-recovery
        baseline takes every fault instead of failing fast."""
        if not self.enabled:
            return None
        return CircuitBreaker(self.breaker_threshold, self.breaker_cooldown_ns)


#: Full self-healing: retries, watchdog, CRC/parity, CPU fallback, breakers.
DEFAULT_RECOVERY = RecoveryPolicy()

#: The comparison baseline: faults hit an unprotected stack. No retries,
#: no integrity checks, no fallback — a faulted query simply fails.
NO_RECOVERY = RecoveryPolicy(
    enabled=False,
    max_retries=0,
    watchdog_ns=0.0,
    crc_checks=False,
    cpu_fallback=False,
)


class CircuitBreaker:
    """Per-tenant engine-health tracker for the serving loop."""

    def __init__(self, threshold: int = 3, cooldown_ns: float = 2_000_000.0):
        if threshold < 1:
            raise ConfigurationError("breaker threshold must be >= 1")
        if cooldown_ns <= 0:
            raise ConfigurationError("breaker cooldown must be positive")
        self.threshold = threshold
        self.cooldown_ns = cooldown_ns
        self.state = CLOSED
        self.failures = 0  #: consecutive engine-path failures
        self.opened_at = 0.0
        self.opens = 0  #: times the breaker tripped (CLOSED/HALF_OPEN -> OPEN)
        self._probing = False

    def allow(self, now: float) -> bool:
        """May this request try the engine path right now?

        While OPEN the answer is no until the cooldown elapses; then
        exactly one probe is admitted (HALF_OPEN) until it reports back.
        """
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if now - self.opened_at < self.cooldown_ns:
                return False
            self.state = HALF_OPEN
            self._probing = False
        if self._probing:  # one probe at a time in HALF_OPEN
            return False
        self._probing = True
        return True

    def record_success(self, now: float) -> None:
        self.failures = 0
        self._probing = False
        self.state = CLOSED

    def release_probe(self) -> None:
        """Give back an admitted probe slot without a verdict.

        The cluster tier abandons in-flight attempts when a hedge or a
        deadline wins the race, and drops picks that a full queue
        sheds; such a HALF_OPEN probe concluded nothing, so the slot
        reopens for the next request instead of wedging the breaker in
        a forever-probing state.
        """
        self._probing = False

    def record_failure(self, now: float) -> None:
        self._probing = False
        if self.state == HALF_OPEN:
            self._trip(now)
            return
        self.failures += 1
        if self.failures >= self.threshold:
            self._trip(now)

    def _trip(self, now: float) -> None:
        self.state = OPEN
        self.opened_at = now
        self.opens += 1
        self.failures = 0
