"""A hierarchical registry over every component's :class:`StatSet`.

The simulator's components each keep a private :class:`repro.sim.StatSet`;
before this module existed, reports gathered them ad hoc (``cache_stats``
here, ``dram.stats`` there). :class:`MetricsRegistry` gives them one
address space: components (or the system façade) *attach* their sets under
dotted paths — ``"rme.trapper"``, ``"cpu0.l1"`` — and consumers take one
snapshot of everything, as a nested tree or a flat table ready for CSV.

Attachment is by reference, so a registry snapshot is always live: it
reads whatever the counters hold at call time. Components that are
re-created during a run (the Requestor is rebuilt per fetch window) attach
a zero-argument *provider* callable instead; the registry resolves it at
snapshot time and skips it while it returns ``None``.

Nothing in this module touches simulated time: registering, attaching and
snapshotting are pure bookkeeping, so telemetry can stay wired in without
moving a single benchmark cycle.

Process-wide tallies that belong to no system — the fast path's epoch
and fallback counts, every :class:`Memo`'s hits and misses — live in one
registry, :data:`PROCESS_METRICS`. It holds plain scopes only, so it
pickles: a :mod:`repro.parallel` worker returns its registry with each
batch and the parent folds it in with :meth:`MetricsRegistry.merge`.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, Hashable, Iterator, List, Optional, Tuple, Union,
)

from ..errors import SimulationError
from .stats import StatSet

#: An attached entry: the set itself, or a callable resolving to one.
StatProvider = Union[StatSet, Callable[[], Optional[StatSet]]]


class MetricsRegistry:
    """Dotted-path directory of StatSets with tree and flat snapshots."""

    def __init__(self, name: str = "root"):
        self.name = name
        self._entries: Dict[str, StatProvider] = {}

    # -- registration ---------------------------------------------------------
    def attach(self, path: str, source: StatProvider) -> None:
        """Register a StatSet (or provider callable) under ``path``.

        Paths are dotted hierarchies (``"rme.trapper"``); re-attaching an
        existing path raises, which catches double-wiring mistakes.
        """
        if not path or path.startswith(".") or path.endswith("."):
            raise SimulationError(f"invalid metrics path {path!r}")
        if path in self._entries:
            raise SimulationError(f"metrics path {path!r} already attached")
        self._entries[path] = source

    def scope(self, path: str) -> StatSet:
        """A registry-owned StatSet at ``path``, created on first use.

        For instrumentation that has no natural component home (driver
        scripts, experiment harnesses): the returned set is attached and
        shows up in every snapshot.
        """
        existing = self._entries.get(path)
        if existing is not None:
            if isinstance(existing, StatSet):
                return existing
            raise SimulationError(
                f"metrics path {path!r} is attached to a provider, not a scope"
            )
        stats = StatSet(path)
        self.attach(path, stats)
        return stats

    def paths(self) -> List[str]:
        return sorted(self._entries)

    def statset(self, path: str) -> Optional[StatSet]:
        """Resolve one path (``None`` if absent or its provider is empty)."""
        source = self._entries.get(path)
        if source is None or isinstance(source, StatSet):
            return source
        return source()

    def __iter__(self) -> Iterator[Tuple[str, StatSet]]:
        """Live ``(path, statset)`` pairs, sorted, unresolved providers skipped."""
        for path in sorted(self._entries):
            stats = self.statset(path)
            if stats is not None:
                yield path, stats

    # -- snapshots ------------------------------------------------------------
    def as_dict(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """``{path: {metric: fields}}`` snapshot of every attached set."""
        return {path: stats.as_dict() for path, stats in self}

    def tree(self) -> Dict:
        """The same snapshot nested by dotted path segments."""
        root: Dict = {}
        for path, stats in self:
            node = root
            for segment in path.split("."):
                node = node.setdefault(segment, {})
            node.update(stats.as_dict())
        return root

    def flat(self) -> Dict[str, float]:
        """``{"path.metric.field": value}`` — one scalar per line, for CSV."""
        out: Dict[str, float] = {}
        for path, stats in self:
            for metric, fields in stats.as_dict().items():
                for field, value in fields.items():
                    out[f"{path}.{metric}.{field}"] = value
        return out

    # -- shard merging --------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold every set of ``other`` into the same path of this registry.

        Paths missing here become registry-owned scopes; paths that exist
        must be scopes too (merging into a component-owned set attached
        by reference would silently mutate a live component). Merging is
        associative, so shard registries can be folded in any grouping —
        the parallel layer folds them in shard-index order to keep gauge
        last-writer semantics deterministic.
        """
        for path, stats in other:
            self.scope(path).merge(stats)

    @classmethod
    def merged(
        cls,
        shards: "List[MetricsRegistry]",
        name: str = "merged",
    ) -> "MetricsRegistry":
        """One registry combining ``shards`` deterministically: every
        instrument is folded per path in shard-index order."""
        out = cls(name)
        for shard in shards:
            out.merge(shard)
        return out

    # -- lifecycle ------------------------------------------------------------
    def reset(self) -> None:
        """Zero every attached instrument (between measured runs)."""
        for _path, stats in self:
            stats.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricsRegistry({self.name}: {len(self._entries)} paths)"


#: The process-wide registry: scopes only, never providers, so that a
#: worker process can ship it back to its parent; and counters only,
#: whose merge is order-free, so batches fold in as they complete.
PROCESS_METRICS = MetricsRegistry("process")


class Memo:
    """A bounded FIFO memo whose lookups are counted in the process registry.

    Every :meth:`get` bumps ``hits`` or ``misses`` in the
    ``memo.<name>`` scope of :data:`PROCESS_METRICS`. A :meth:`put` into
    a full memo first evicts the oldest entry. ``None`` is the miss
    marker, so it is never stored as a value.

    >>> memo = Memo("doctest", capacity=2)
    >>> for key in "abc":
    ...     memo.put(key, key.upper())
    >>> memo.get("a") is None, memo.get("c"), len(memo)
    (True, 'C', 2)
    >>> memo.hits, memo.misses
    (1, 1)
    """

    def __init__(self, name: str, capacity: int):
        self.capacity = capacity
        self._entries: Dict[Hashable, Any] = {}
        self._stats = PROCESS_METRICS.scope(f"memo.{name}")

    def get(self, key: Hashable) -> Any:
        value = self._entries.get(key)
        self._stats.bump("misses" if value is None else "hits")
        return value

    def put(self, key: Hashable, value: Any) -> None:
        if len(self._entries) >= self.capacity:
            self._entries.pop(next(iter(self._entries)))
        self._entries[key] = value

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hits(self) -> int:
        return self._stats.count("hits")

    @property
    def misses(self) -> int:
        return self._stats.count("misses")
