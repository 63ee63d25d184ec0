"""The Relational Buffers: data and metadata scratch-pad memories.

Two BRAM-backed structures (Section 5, "Relational Buffers"):

* the **Data SPM** holds the packed column-group bytes as the Fetch Units
  extract them;
* the **Metadata SPM** holds, per packed cache line, how many bytes have
  arrived — the Monitor Bypass reads it to decide hit vs. miss.

The paper's prototype caps the extracted column-group at 2 MB so it fits
the ZCU102's on-chip memory; the same cap is enforced here (configurable),
and exceeding it raises :class:`repro.errors.CapacityError` exactly where
the real hardware would need the costly re-initialisation the authors
describe as an implementation artifact.
"""

from __future__ import annotations

from ..errors import CapacityError, SimulationError
from ..sim import StatSet

#: The paper's experimental cap on the extracted column group.
DEFAULT_DATA_CAPACITY = 2 * 1024 * 1024


class ReorganizationBuffer:
    """Byte-exact packed storage plus per-line fill accounting."""

    def __init__(
        self,
        capacity: int = DEFAULT_DATA_CAPACITY,
        line_size: int = 64,
        name: str = "reorg_buffer",
    ):
        if capacity <= 0 or capacity % line_size:
            raise CapacityError(
                f"buffer capacity {capacity} must be a positive multiple of "
                f"the line size {line_size}"
            )
        self.capacity = capacity
        self.line_size = line_size
        self.stats = StatSet(name)
        self._data = bytearray(capacity)
        self._fill: list = []  #: bytes received per packed line
        self._target: list = []  #: bytes expected per packed line
        self._valid_bytes = 0
        self._poisoned: set = set()  #: lines whose BRAM words took an upset

    # -- configuration -----------------------------------------------------------
    def reset(self, projected_bytes: int) -> None:
        """Prepare for a new projection of ``projected_bytes`` total bytes."""
        if projected_bytes <= 0:
            raise CapacityError("projection must contain at least one byte")
        if projected_bytes > self.capacity:
            raise CapacityError(
                f"projected column group of {projected_bytes} bytes exceeds the "
                f"{self.capacity}-byte reorganization buffer (the paper's 2 MB "
                "on-chip limit); use a smaller table or a wider buffer"
            )
        self._valid_bytes = projected_bytes
        n_lines = -(-projected_bytes // self.line_size)
        self._fill = [0] * n_lines
        self._target = [
            min(self.line_size, projected_bytes - i * self.line_size)
            for i in range(n_lines)
        ]
        # Old contents are stale, not secret: zero them for determinism.
        self._data[:projected_bytes] = bytes(projected_bytes)
        self._poisoned.clear()
        self.stats.bump("resets")

    @property
    def n_lines(self) -> int:
        return len(self._fill)

    @property
    def valid_bytes(self) -> int:
        return self._valid_bytes

    # -- data-side operations -------------------------------------------------------
    def fill_fastforward(self, data: bytes) -> int:
        """Install a whole epoch's projection in one store (fast path).

        The fast-forward replay guarantees the epoch's descriptors tile
        ``[0, valid_bytes)`` exactly, so the per-write overlap accounting
        of :meth:`write` is redundant — every packed line fills straight
        to its target. Returns the number of lines (all newly complete).
        The caller replicates the per-write statistics.
        """
        if len(data) != self._valid_bytes:
            raise SimulationError(
                f"fast-forward fill of {len(data)} bytes does not cover "
                f"the {self._valid_bytes}-byte projection"
            )
        self._data[: len(data)] = data
        self._fill[:] = self._target
        return len(self._fill)

    def write(self, offset: int, data: bytes) -> list:
        """Store extracted bytes; returns packed line indices newly complete."""
        if offset < 0 or offset + len(data) > self._valid_bytes:
            raise SimulationError(
                f"reorg write [{offset}, +{len(data)}) outside the "
                f"{self._valid_bytes}-byte projection"
            )
        self._data[offset : offset + len(data)] = data
        self.stats.bump("writes", len(data))
        completed = []
        first = offset // self.line_size
        last = (offset + len(data) - 1) // self.line_size
        for line in range(first, last + 1):
            line_start = line * self.line_size
            line_end = line_start + self._target[line]
            overlap = min(offset + len(data), line_end) - max(offset, line_start)
            if overlap <= 0:
                continue
            self._fill[line] += overlap
            if self._fill[line] > self._target[line]:
                raise SimulationError(
                    f"packed line {line} overfilled: duplicate fetch-unit write"
                )
            if self._fill[line] == self._target[line]:
                completed.append(line)
        return completed

    def truncate(self, valid_bytes: int) -> list:
        """Shrink the projection to ``valid_bytes`` (selection pushdown:
        fewer rows matched than the configured maximum).

        Lines wholly beyond the new size become trivially complete; the
        line containing the new end completes if its bytes are all there.
        Returns the newly complete line indices.
        """
        if not 0 <= valid_bytes <= self._valid_bytes:
            raise SimulationError(
                f"truncate to {valid_bytes} outside [0, {self._valid_bytes}]"
            )
        completed = []
        self._valid_bytes = valid_bytes
        for line in range(len(self._target)):
            line_start = line * self.line_size
            new_target = max(0, min(self.line_size, valid_bytes - line_start))
            was_ready = self._fill[line] == self._target[line]
            self._target[line] = new_target
            if not was_ready and self._fill[line] == new_target:
                completed.append(line)
        self.stats.bump("truncations")
        return completed

    def line_ready(self, line_idx: int) -> bool:
        self._check_line(line_idx)
        return self._fill[line_idx] == self._target[line_idx]

    def read_line(self, line_idx: int) -> bytes:
        """The packed bytes of a complete line (zero-padded to line size)."""
        self._check_line(line_idx)
        if not self.line_ready(line_idx):
            raise SimulationError(f"packed line {line_idx} read before completion")
        start = line_idx * self.line_size
        chunk = bytes(self._data[start : start + self._target[line_idx]])
        self.stats.bump("reads")
        return chunk.ljust(self.line_size, b"\x00")

    def snapshot(self) -> bytes:
        """The full packed projection (tests compare it to a software one)."""
        if not all(f == t for f, t in zip(self._fill, self._target)):
            raise SimulationError("snapshot taken before the projection completed")
        return bytes(self._data[: self._valid_bytes])

    @property
    def ready_lines(self) -> int:
        return sum(1 for f, t in zip(self._fill, self._target) if f == t)

    # -- fault injection (BRAM single-event upsets) ---------------------------------
    def poison(self, line_idx: int, rng) -> None:
        """Flip one stored bit of ``line_idx`` and mark its parity bad.

        The corruption is real: the flipped byte lands in ``_data``, so a
        parity-less engine serves genuinely wrong bytes and the software
        audit sees them. With parity on, the next read of the line raises
        instead of returning the bad data.
        """
        self._check_line(line_idx)
        span = self._target[line_idx]
        if span <= 0:
            return
        offset = line_idx * self.line_size + rng.randrange(span)
        self._data[offset] ^= 1 << rng.randrange(8)
        self._poisoned.add(line_idx)
        self.stats.bump("poisoned_lines")

    def parity_ok(self, line_idx: int) -> bool:
        self._check_line(line_idx)
        return line_idx not in self._poisoned

    def _check_line(self, line_idx: int) -> None:
        if not 0 <= line_idx < len(self._fill):
            raise SimulationError(
                f"packed line {line_idx} out of range [0, {len(self._fill)})"
            )
