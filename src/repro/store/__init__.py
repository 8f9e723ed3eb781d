"""Parallel data store substrate (HBase analog).

The paper stores the indexed join relation in HBase: tables are split
into key ranges ("regions"), each hosted by a data node; clients route
requests by key, can batch them per node, and can push user-defined
function execution to the data nodes (coprocessor endpoints).

This package reproduces that surface:

* :class:`Table`, :class:`Row` — keyed storage with update timestamps,
* :class:`HashPartitioner` / :class:`RangePartitioner` +
  :class:`RegionMap` — key -> region -> node routing,
* :class:`KVStore` — the logical store: get/put, batched access,
  region-aware request grouping (the paper's wrapper API that sends
  each ``(k, p)`` only to the region owning ``k``), update listeners,
* :class:`DataNodeServer` — the simulated server side: disk fetches,
  UDF execution and the load-balancing hook, all timed on the cluster's
  resources.
"""

from repro.store.table import Row, Table
from repro.store.partitioner import (
    HashPartitioner,
    RangePartitioner,
    RegionMap,
)
from repro.store.kvstore import KVStore
from repro.store.messages import (
    BatchRequest,
    BatchResponse,
    RequestItem,
    RequestKind,
    ResponseItem,
    UDF,
)
from repro.store.datanode import DataNodeServer, ServedBatch
from repro.placement.balancer import (
    RegionMove,
    apply_rebalance,
    node_loads,
    plan_rebalance,
)

__all__ = [
    "Row",
    "Table",
    "HashPartitioner",
    "RangePartitioner",
    "RegionMap",
    "KVStore",
    "BatchRequest",
    "BatchResponse",
    "RequestItem",
    "RequestKind",
    "ResponseItem",
    "UDF",
    "DataNodeServer",
    "ServedBatch",
    "RegionMove",
    "apply_rebalance",
    "node_loads",
    "plan_rebalance",
]
