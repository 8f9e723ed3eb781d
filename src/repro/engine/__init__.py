"""Compute-node runtime: batching, prefetching, strategies, job driver.

This package glues the paper's decision logic (:mod:`repro.core`,
:mod:`repro.cache`) to the simulated cluster (:mod:`repro.sim`) and the
parallel data store (:mod:`repro.store`):

* :mod:`repro.engine.requests` — request/response message types and the
  UDF abstraction ``f(k, p) -> f'(k, p, v)``,
* :mod:`repro.engine.batching` — per-data-node batch buffers with
  max-wait flushing (Section 7.2),
* :mod:`repro.engine.prefetch` — the ``preMap`` machinery: prefetch
  queue, map queue and result hash map (Section 7.1, Appendix D.2),
* :mod:`repro.engine.strategies` — the NO/FC/FD/FR/CO/LO/FO
  configurations evaluated in Section 9,
* :mod:`repro.engine.compute_node` — the simulated compute node,
* :mod:`repro.engine.job` — batch/streaming job drivers, mid-run
  compute-node membership, and metrics,
* :mod:`repro.engine.multi_join` — pipelined multi-join stages
  (Section 6).
"""

from repro.engine.requests import (
    BatchRequest,
    BatchResponse,
    RequestItem,
    RequestKind,
    ResponseItem,
    UDF,
)
from repro.engine.batching import BatchBuffer
from repro.engine.prefetch import PostMapRunner, PreMapRunner, ResultHashMap
from repro.engine.strategies import Strategy, StrategyConfig
from repro.engine.compute_node import ComputeNodeRuntime
from repro.engine.job import (
    JoinJob,
    JobResult,
    MembershipEvent,
    RateRunResult,
    StreamResult,
)
from repro.engine.multi_join import JoinStageSpec, MultiJoinJob

__all__ = [
    "BatchRequest",
    "BatchResponse",
    "RequestItem",
    "RequestKind",
    "ResponseItem",
    "UDF",
    "BatchBuffer",
    "PreMapRunner",
    "PostMapRunner",
    "ResultHashMap",
    "Strategy",
    "StrategyConfig",
    "ComputeNodeRuntime",
    "JoinJob",
    "JobResult",
    "RateRunResult",
    "StreamResult",
    "JoinStageSpec",
    "MembershipEvent",
    "MultiJoinJob",
]
