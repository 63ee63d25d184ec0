"""Clock domains and the cost of crossing between them.

The paper constrains the PL to 100 MHz and notes (Section 6.3, "Long-Term
Potential and Impact") that routing transactions through the PL "forces
transactions to cross through a lower-frequency domain", adding a
clock-domain-crossing (CDC) penalty to every transaction — the reason
single-transaction latency through the RME is *worse* than the direct
route even though the end-to-end query is faster.

:class:`ClockDomain` provides cycle arithmetic plus edge alignment: events
inside the PL can only happen on PL clock edges, so a request arriving
mid-cycle waits for the next edge.
"""

from __future__ import annotations

from ..errors import ConfigurationError


class ClockDomain:
    """A clock with frequency-derived cycle helpers."""

    def __init__(self, name: str, freq_mhz: float):
        if freq_mhz <= 0:
            raise ConfigurationError(f"clock {name!r}: frequency must be positive")
        self.name = name
        self.freq_mhz = freq_mhz
        self.cycle_ns = 1000.0 / freq_mhz

    def cycles(self, n: float) -> float:
        """Duration of ``n`` cycles in nanoseconds."""
        return n * self.cycle_ns

    def align_delay(self, now: float) -> float:
        """Delay from ``now`` until the next clock edge (0 if on an edge)."""
        remainder = now % self.cycle_ns
        if remainder < 1e-9:
            return 0.0
        return self.cycle_ns - remainder

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClockDomain({self.name} @ {self.freq_mhz:g} MHz)"
