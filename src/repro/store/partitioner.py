"""Key -> region -> data node routing (HBase region model).

A *partitioner* maps keys to region ids; a :class:`RegionMap` assigns
regions to data nodes (possibly several regions per node, as in HBase)
and exposes the lookups the client API and the batching layer need.

Hash partitioning uses a stable (process-independent) hash so that runs
are reproducible across interpreter invocations — Python's built-in
``hash`` is salted per process for strings.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Hashable, Sequence


# stable_hash is a pure function on the key's repr, and the hot paths
# (per-tuple key routing, shuffle partitioning) call it with a
# small working set of keys over and over — memoize it.  The cap
# bounds worst-case memory on adversarial key streams; on overflow the
# memo is dropped wholesale (a rebuild costs less than tracking LRU
# order on every call).
_HASH_MEMO: dict[Hashable, int] = {}
_HASH_MEMO_MAX = 1 << 16


def stable_hash(key: Hashable) -> int:
    """A deterministic 64-bit hash usable across processes."""
    cached = _HASH_MEMO.get(key)
    if cached is not None:
        return cached
    digest = hashlib.blake2b(repr(key).encode("utf-8"), digest_size=8).digest()
    value = int.from_bytes(digest, "big")
    if len(_HASH_MEMO) >= _HASH_MEMO_MAX:
        _HASH_MEMO.clear()
    _HASH_MEMO[key] = value
    return value


class HashPartitioner:
    """Uniformly hash keys into ``n_regions`` buckets."""

    def __init__(self, n_regions: int) -> None:
        if n_regions < 1:
            raise ValueError("n_regions must be >= 1")
        self.n_regions = n_regions

    def region_of(self, key: Hashable) -> int:
        """Region id owning ``key``."""
        return stable_hash(key) % self.n_regions


class RangePartitioner:
    """Range partitioning by sorted split points (HBase-style).

    ``boundaries`` are the *upper-exclusive* split keys: region ``i``
    holds keys ``boundaries[i-1] <= k < boundaries[i]`` with the first
    region open below and the last open above.

    Examples
    --------
    >>> p = RangePartitioner(["g", "p"])
    >>> p.n_regions
    3
    >>> [p.region_of(k) for k in ["a", "g", "z"]]
    [0, 1, 2]
    """

    def __init__(self, boundaries: Sequence) -> None:
        ordered = list(boundaries)
        if sorted(ordered) != ordered:
            raise ValueError("boundaries must be sorted ascending")
        if len(set(ordered)) != len(ordered):
            raise ValueError("boundaries must be distinct")
        self.boundaries = ordered
        self.n_regions = len(ordered) + 1

    def region_of(self, key) -> int:
        """Region id owning ``key``."""
        return bisect.bisect_right(self.boundaries, key)


class RegionMap:
    """Assignment of regions to data nodes.

    Parameters
    ----------
    partitioner:
        Maps keys to region ids.
    region_nodes:
        ``region_nodes[r]`` is the data node hosting region ``r``.

    Examples
    --------
    >>> rm = RegionMap(HashPartitioner(4), [10, 10, 11, 11])
    >>> sorted(rm.data_nodes)
    [10, 11]
    >>> rm.regions_on_node(11)
    [2, 3]
    """

    def __init__(
        self,
        partitioner: HashPartitioner | RangePartitioner,
        region_nodes: Sequence[int],
    ) -> None:
        if len(region_nodes) != partitioner.n_regions:
            raise ValueError(
                f"need one node per region: {partitioner.n_regions} regions, "
                f"{len(region_nodes)} assignments"
            )
        self.partitioner = partitioner
        self._region_nodes = list(region_nodes)
        #: Bumped on every region move; key->node caches key on this to
        #: stay exact across failover/rebalancing.
        self.generation = 0

    @classmethod
    def round_robin(
        cls,
        partitioner: HashPartitioner | RangePartitioner,
        data_nodes: Sequence[int],
    ) -> "RegionMap":
        """Spread regions over ``data_nodes`` round-robin (the balancer
        HBase runs keeps region *counts* even across nodes)."""
        if not data_nodes:
            raise ValueError("data_nodes must be non-empty")
        assignment = [
            data_nodes[r % len(data_nodes)] for r in range(partitioner.n_regions)
        ]
        return cls(partitioner, assignment)

    @property
    def n_regions(self) -> int:
        return self.partitioner.n_regions

    @property
    def data_nodes(self) -> set[int]:
        """The distinct nodes hosting at least one region."""
        return set(self._region_nodes)

    def region_of(self, key: Hashable) -> int:
        """Region id owning ``key``."""
        return self.partitioner.region_of(key)

    def node_for_region(self, region: int) -> int:
        """Data node hosting ``region``."""
        return self._region_nodes[region]

    def node_for_key(self, key: Hashable) -> int:
        """Data node owning ``key``."""
        return self._region_nodes[self.partitioner.region_of(key)]

    def regions_on_node(self, node: int) -> list[int]:
        """All regions hosted by ``node``."""
        return [r for r, n in enumerate(self._region_nodes) if n == node]

    def move_region(self, region: int, to_node: int) -> None:
        """Reassign a region (long-term data-node balancing hook)."""
        self._region_nodes[region] = to_node
        self.generation += 1
