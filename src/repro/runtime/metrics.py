"""One metrics collector for every engine on the runtime kernel.

Every engine runs on :class:`~repro.runtime.transport.Transport` /
:class:`~repro.runtime.transport.ShuffleChannel`, whose counters are
plain attributes.  :func:`collect_runtime_metrics` sums the published
ones (:data:`~repro.obs.usage.TRANSPORT_COUNTERS`,
:data:`~repro.obs.usage.SHUFFLE_COUNTERS`, and the injector's
``messages_faulted``) into one dict, publishes that dict verbatim under
``transport.*`` / ``shuffle.*`` / ``faults.*``, and returns the
:class:`~repro.obs.usage.RuntimeMetrics` view over the same dict.  The
event-level view is the :class:`repro.obs.tracer.Tracer`, which both
the injector and the transports feed.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Iterable

from repro.obs.registry import MetricsRegistry
from repro.obs.usage import (
    SHUFFLE_COUNTERS,
    TRANSPORT_COUNTERS,
    RuntimeMetrics,
    collect_usage,
    sum_counters,
)
from repro.runtime.transport import ShuffleChannel, Transport
from repro.sim.cluster import Cluster


def collect_runtime_metrics(
    cluster: Cluster | None = None,
    transports: Iterable[Transport] = (),
    channels: Iterable[ShuffleChannel] = (),
    injector: Any = None,
    registry: MetricsRegistry | None = None,
) -> RuntimeMetrics:
    """Sum every kernel counter source of one run into one view.

    ``injector`` is duck-typed on ``messages_faulted`` (the
    :class:`repro.faults.FaultInjector` attribute) so the metrics layer
    stays import-free of the faults package.  With a ``registry``, the
    counters, the ``transport.request_seconds`` histogram and the
    ``usage.*`` gauges are also published into the obs pipeline.
    """
    transports = list(transports)
    counters = sum_counters("transport", TRANSPORT_COUNTERS, transports)
    counters.update(sum_counters("shuffle", SHUFFLE_COUNTERS, channels))
    counters["faults.messages_faulted"] = (
        injector.messages_faulted if injector else 0
    )
    latencies = tuple(chain.from_iterable(
        transport.request_latencies for transport in transports
    ))
    usage = None
    if cluster is not None:
        usage = collect_usage(cluster, registry=registry)
    if registry is not None:
        for name, value in counters.items():
            registry.counter(name).inc(value)
        if latencies:
            histogram = registry.histogram("transport.request_seconds")
            for latency in latencies:
                histogram.observe(latency)
    return RuntimeMetrics(counters=counters, usage=usage, latencies=latencies)
