"""Shard placement: which nodes hold a tenant's table and replicas.

The cluster tier assigns every tenant a *primary* node plus
``replication - 1`` distinct replica nodes. Two routing policies are
registered (the registry mirrors :func:`repro.query.engines.engine_names`
so CLI help and usage errors stay generated, never hand-listed):

* **consistent-hash** — tenants and nodes meet on a CRC32 ring with
  virtual nodes. Adding or removing one node moves only the tenants in
  the arcs it owned; replicas are the next distinct nodes clockwise.
* **range** — tenants sort lexicographically and split into contiguous
  ranges, one per node (the classic range-sharded layout); replicas are
  the cyclically following nodes.

Placement is pure arithmetic over the tenant name: the router, every
test, and every shard of a ``parallel_map`` sweep compute bit-identical
replica sets with no coordination.
"""

from __future__ import annotations

import bisect
import zlib
from typing import Dict, List, Sequence, Tuple, Type

from ..errors import ConfigurationError


#: Virtual nodes each node places on the consistent-hash ring.
VNODES = 64


def _crc(text: str) -> int:
    return zlib.crc32(text.encode("utf-8"))


class Placement:
    """Shared validation plus the replica-set surface."""

    name = "?"

    def __init__(self, tenants: Sequence[str], n_nodes: int, replication: int):
        if n_nodes < 1:
            raise ConfigurationError(f"n_nodes must be >= 1, got {n_nodes}")
        if replication < 1:
            raise ConfigurationError(
                f"replication must be >= 1, got {replication}"
            )
        if not tenants:
            raise ConfigurationError("placement needs at least one tenant")
        if len(set(tenants)) != len(tenants):
            raise ConfigurationError("tenant names must be unique")
        self.tenants = list(tenants)
        self.n_nodes = n_nodes
        self.replication = min(replication, n_nodes)

    def replicas_for(self, tenant: str) -> List[int]:
        """Node indices holding ``tenant``'s shard, primary first."""
        raise NotImplementedError

    def primary_for(self, tenant: str) -> int:
        return self.replicas_for(tenant)[0]

    def assignment(self) -> Dict[str, List[int]]:
        """Every tenant's replica set (stable iteration order)."""
        return {t: self.replicas_for(t) for t in self.tenants}


class ConsistentHashPlacement(Placement):
    """CRC32 ring with virtual nodes; replicas walk clockwise."""

    name = "consistent-hash"

    def __init__(self, tenants: Sequence[str], n_nodes: int,
                 replication: int):
        super().__init__(tenants, n_nodes, replication)
        ring: List[Tuple[int, int]] = []
        for node in range(n_nodes):
            for v in range(VNODES):
                ring.append((_crc(f"node{node}#vnode{v}"), node))
        ring.sort()
        self._ring = ring
        self._points = [point for point, _node in ring]

    def replicas_for(self, tenant: str) -> List[int]:
        if tenant not in self.tenants:
            raise ConfigurationError(f"unknown tenant {tenant!r}")
        start = bisect.bisect_right(self._points, _crc(tenant))
        replicas: List[int] = []
        for step in range(len(self._ring)):
            _point, node = self._ring[(start + step) % len(self._ring)]
            if node not in replicas:
                replicas.append(node)
                if len(replicas) == self.replication:
                    break
        return replicas


class RangePlacement(Placement):
    """Sorted tenants split into contiguous per-node ranges."""

    name = "range"

    def __init__(self, tenants: Sequence[str], n_nodes: int, replication: int):
        super().__init__(tenants, n_nodes, replication)
        ordered = sorted(self.tenants)
        per_node = max(1, -(-len(ordered) // n_nodes))  # ceil division
        self._primary = {
            tenant: min(index // per_node, n_nodes - 1)
            for index, tenant in enumerate(ordered)
        }

    def replicas_for(self, tenant: str) -> List[int]:
        if tenant not in self._primary:
            raise ConfigurationError(f"unknown tenant {tenant!r}")
        primary = self._primary[tenant]
        return [
            (primary + step) % self.n_nodes
            for step in range(self.replication)
        ]


#: Registered routing policies, in presentation order.
ROUTING_POLICIES: Dict[str, Type[Placement]] = {
    ConsistentHashPlacement.name: ConsistentHashPlacement,
    RangePlacement.name: RangePlacement,
}


def routing_names() -> List[str]:
    """Every registered routing policy name (CLI help + usage errors)."""
    return list(ROUTING_POLICIES)


def make_placement(routing: str, tenants: Sequence[str], n_nodes: int,
                   replication: int) -> Placement:
    """Instantiate the named routing policy (see :data:`ROUTING_POLICIES`)."""
    cls = ROUTING_POLICIES.get(routing)
    if cls is None:
        raise ConfigurationError(
            f"unknown routing policy {routing!r} "
            f"(choose from {', '.join(routing_names())})"
        )
    return cls(tenants, n_nodes, replication)
