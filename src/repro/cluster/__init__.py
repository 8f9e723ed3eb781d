"""repro.cluster — real driver/worker processes over IPC.

Everything else in this repository executes joins inside the
discrete-event simulator (``SimBackend``).  This package is the other
backend: the driver forks worker processes (data nodes, compute
nodes, or both), hands them the full peer map over a real TCP
handshake, and drives the same three engines through RPCs — so fault
schedules crash *actual* processes, failover redials *actual* sockets,
and the differential oracle checks the whole stack end to end.

Layering (each module only imports downward):

* :mod:`repro.cluster.codec` — length-prefixed frames over sockets.
* :mod:`repro.cluster.rpc` — request/response with the kernel's retry
  discipline and the serving side's idempotent replay cache.
* :mod:`repro.cluster.worker` — the forked process: handshake, op
  dispatch, wire-fault filter, observability snapshot.
* :mod:`repro.cluster.supervisor` — process lifecycle: spawn, restart,
  reap; guarantees no child outlives its run.
* :mod:`repro.cluster.driver` — topology, engine plans, failover,
  trace/metric collection.
* :mod:`repro.cluster.backend` — the :class:`Backend`-seam facade
  (``run_join(..., backend="cluster")``).
"""

from repro.cluster.backend import ClusterBackend, ClusterOptions, PLACEMENTS
from repro.cluster.codec import (
    CodecError,
    ConnectionClosed,
    Framer,
    MessageStream,
    encode_frame,
)
from repro.cluster.driver import ClusterDriver, ClusterRunInfo, WorkerKill
from repro.cluster.rpc import PeerUnavailable, RpcClient, RpcError
from repro.cluster.supervisor import WorkerSupervisor, last_supervisor
from repro.cluster.worker import WorkerSpec

__all__ = [
    "PLACEMENTS",
    "ClusterBackend",
    "ClusterDriver",
    "ClusterOptions",
    "ClusterRunInfo",
    "CodecError",
    "ConnectionClosed",
    "Framer",
    "MessageStream",
    "PeerUnavailable",
    "RpcClient",
    "RpcError",
    "WorkerKill",
    "WorkerSpec",
    "WorkerSupervisor",
    "encode_frame",
    "last_supervisor",
]
