"""The runtime kernel: one transport/executor substrate for every engine.

Three seams (see DESIGN.md Section 3):

* **Transport** (:mod:`repro.runtime.transport`) — the single place
  wire traffic happens: request/response envelopes with idempotent
  ids, timeouts, backoff, retries, replica fallback
  (:class:`Transport`) and at-least-once one-way shuffle transfers
  (:class:`ShuffleChannel`).  Nothing outside this module consults
  ``Network.delivery_plan``, so a fault schedule installed at the
  network perturbs every engine.
* **Executor** (:mod:`repro.runtime.backend`) — :class:`Backend`
  implementations turning one :class:`JoinWorkload` into outputs:
  :class:`SimBackend` (discrete-event simulation through any of the
  three engines) and — re-exported lazily from
  :mod:`repro.cluster` — ``ClusterBackend`` (real driver/worker
  processes over IPC).
* **Metrics** (:mod:`repro.runtime.metrics`) — one collector
  (:func:`collect_runtime_metrics`) that sums the transport, shuffle
  and injector counters named in :mod:`repro.obs.usage`, publishes
  them, and returns the :class:`~repro.obs.usage.RuntimeMetrics` view.
"""

from repro.runtime.backend import (
    ENGINES,
    Backend,
    BackendRun,
    JoinWorkload,
    SimBackend,
)
from repro.runtime.metrics import collect_runtime_metrics
from repro.runtime.transport import (
    ShuffleChannel,
    Transport,
    TransportError,
    ring_successor,
)


def __getattr__(name: str):
    # Lazy: repro.cluster drags in multiprocessing machinery that
    # sim-only users should not pay for (and importing it eagerly here
    # would cycle: repro.cluster.backend imports repro.runtime.backend).
    if name == "ClusterBackend":
        from repro.cluster import ClusterBackend

        return ClusterBackend
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ENGINES",
    "Backend",
    "BackendRun",
    "ClusterBackend",
    "JoinWorkload",
    "SimBackend",
    "collect_runtime_metrics",
    "ShuffleChannel",
    "Transport",
    "TransportError",
    "ring_successor",
]
