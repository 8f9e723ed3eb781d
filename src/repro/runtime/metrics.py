"""One metrics pipeline for every engine on the runtime kernel.

Before the kernel, each engine aggregated its own counters its own way
(and three of the four had no fault counters at all, because they had
no fault handling).  Now every engine runs on
:class:`~repro.runtime.transport.Transport` /
:class:`~repro.runtime.transport.ShuffleChannel`, and this module is
the single aggregation point: request/shuffle counters, injector
counters, and cluster resource usage, merged into one
:class:`RuntimeMetrics` snapshot.  The snapshot doubles as a *view* of
the :class:`repro.obs.registry.MetricsRegistry` pipeline — pass a
registry to :func:`collect_runtime_metrics` and every counter it
merges is also published under the ``transport.*`` / ``shuffle.*`` /
``faults.*`` / ``usage.*`` families.  The event-level view is the
:class:`repro.obs.tracer.Tracer`, which both the injector and the
transports feed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.obs.registry import MetricsRegistry
from repro.obs.usage import ClusterUsage, collect_usage
from repro.runtime.transport import ShuffleChannel, Transport, TransportStats
from repro.sim.cluster import Cluster


@dataclass(frozen=True, slots=True)
class ShuffleStats:
    """Counters of one-way shuffle traffic (see :class:`ShuffleChannel`)."""

    sends: int = 0
    retransmits: int = 0
    duplicates: int = 0
    bytes_retransmitted: float = 0.0

    def __add__(self, other: "ShuffleStats") -> "ShuffleStats":
        return ShuffleStats(
            sends=self.sends + other.sends,
            retransmits=self.retransmits + other.retransmits,
            duplicates=self.duplicates + other.duplicates,
            bytes_retransmitted=self.bytes_retransmitted + other.bytes_retransmitted,
        )


@dataclass(frozen=True, slots=True)
class RuntimeMetrics:
    """Unified kernel-level metrics for one run of any engine."""

    transport: TransportStats = field(default_factory=TransportStats)
    shuffle: ShuffleStats = field(default_factory=ShuffleStats)
    messages_faulted: int = 0
    usage: ClusterUsage | None = None

    @property
    def recovery_actions(self) -> int:
        """Total engine-side reactions to faults across both seams."""
        return (
            self.transport.retries
            + self.transport.fallbacks
            + self.shuffle.retransmits
        )

    @property
    def perturbed(self) -> bool:
        """Whether the fault seam visibly touched this run."""
        return self.messages_faulted > 0 or self.recovery_actions > 0


def transport_stats(transports: Iterable[Transport]) -> TransportStats:
    """Sum the counters of many transports (one per compute node)."""
    total = TransportStats()
    for transport in transports:
        total = total + transport.stats()
    return total


def shuffle_stats(channels: Iterable[ShuffleChannel]) -> ShuffleStats:
    """Sum the counters of many shuffle channels."""
    total = ShuffleStats()
    for channel in channels:
        total = total + ShuffleStats(
            sends=channel.sends,
            retransmits=channel.retransmits,
            duplicates=channel.duplicates,
            bytes_retransmitted=channel.bytes_retransmitted,
        )
    return total


def collect_runtime_metrics(
    cluster: Cluster | None = None,
    transports: Iterable[Transport] = (),
    channels: Iterable[ShuffleChannel] = (),
    injector=None,
    registry: MetricsRegistry | None = None,
) -> RuntimeMetrics:
    """Merge every kernel-level counter source into one snapshot.

    ``injector`` is duck-typed on ``messages_faulted`` (the
    :class:`repro.faults.FaultInjector` attribute) so the metrics layer
    stays import-free of the faults package.  With a ``registry``, the
    snapshot is also published into the obs pipeline.
    """
    metrics = RuntimeMetrics(
        transport=transport_stats(transports),
        shuffle=shuffle_stats(channels),
        messages_faulted=(
            getattr(injector, "messages_faulted", 0) if injector else 0
        ),
        usage=collect_usage(
            cluster, registry=registry
        ) if cluster is not None else None,
    )
    if registry is not None:
        publish_runtime_metrics(metrics, registry)
    return metrics


def publish_runtime_metrics(
    metrics: RuntimeMetrics, registry: MetricsRegistry
) -> None:
    """Write one kernel snapshot into ``registry``.

    Usage gauges are published separately by
    :func:`repro.obs.usage.collect_usage`; this covers the transport,
    shuffle and injector families.
    """
    t = metrics.transport
    registry.counter("transport.requests_sent").inc(t.requests_sent)
    registry.counter("transport.timeouts").inc(t.timeouts)
    registry.counter("transport.retries").inc(t.retries)
    registry.counter("transport.fallbacks").inc(t.fallbacks)
    registry.counter("transport.duplicate_responses").inc(t.duplicate_responses)
    registry.counter("transport.hedges_issued").inc(t.hedges_issued)
    registry.counter("transport.hedges_won").inc(t.hedges_won)
    registry.counter("transport.hedges_lost").inc(t.hedges_lost)
    registry.counter("transport.failovers").inc(t.failovers)
    for latency in t.latencies:
        registry.histogram("transport.request_seconds").observe(latency)
    s = metrics.shuffle
    registry.counter("shuffle.sends").inc(s.sends)
    registry.counter("shuffle.retransmits").inc(s.retransmits)
    registry.counter("shuffle.duplicates").inc(s.duplicates)
    registry.counter("shuffle.bytes_retransmitted").inc(s.bytes_retransmitted)
    registry.counter("faults.messages_faulted").inc(metrics.messages_faulted)
