"""Placement: the single versioned logical->physical map (ROADMAP item 2).

Before this package, the region assignment lived in several places at
once — ``store/partitioner.py`` owned the static map, a store-side
balancer planned long-term moves against it, a core-side load balancer
balanced batches around it, and the cluster driver kept its own peer
map.  All of them now consult one :class:`PlacementService`: an epoch-stamped
region map that supports runtime region split/merge, live copy-then-
cutover migration with a double-serve window, and replicated serving of
pathological hot keys.

The service is *inert by default*: constructed with no elastic
coordinator attached it behaves bit-identically to the static
:class:`~repro.store.partitioner.RegionMap` it replaces.  Elasticity is
opt-in via :class:`ElasticOptions` on :class:`repro.api.RunConfig`.

Modules
-------
``service``
    :class:`PlacementService` (the versioned map) and the
    :class:`WrongRegion` redirect exception.
``elastic``
    :class:`ElasticCoordinator`: the background policy loop that turns
    Lossy-Counting frequency observations into splits, merges,
    migrations and hot-key replicas.
``options``
    :class:`ElasticOptions` (frozen, off by default).
``batch``
    Per-batch compute/data load balancing (Appendix C).
``balancer``
    Long-term region rebalancing plans.
"""

from repro.placement.balancer import (
    RegionMove,
    apply_rebalance,
    node_loads,
    plan_rebalance,
)
from repro.placement.batch import (
    BatchLoadBalancer,
    ComputeNodeStats,
    DataNodeStats,
    LoadProfile,
    SizeProfile,
    exact_min_d,
    gradient_descent_min_d,
)
from repro.placement.elastic import ElasticCoordinator
from repro.placement.options import ElasticOptions
from repro.placement.service import PlacementService, WrongRegion

__all__ = [
    "BatchLoadBalancer",
    "ComputeNodeStats",
    "DataNodeStats",
    "ElasticCoordinator",
    "ElasticOptions",
    "LoadProfile",
    "PlacementService",
    "RegionMove",
    "SizeProfile",
    "WrongRegion",
    "apply_rebalance",
    "exact_min_d",
    "gradient_descent_min_d",
    "node_loads",
    "plan_rebalance",
]
