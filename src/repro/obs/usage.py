"""Cluster usage and kernel counters, published to the registry.

This module absorbed ``repro.metrics.collector`` (deleted): every
collection call here also publishes into a :class:`MetricsRegistry`, so
per-node utilization flows through the one pipeline the run report and
benchmark hooks read.  It also names the kernel's published counters
(:data:`TRANSPORT_COUNTERS`, :data:`SHUFFLE_COUNTERS`) and holds
:class:`RuntimeMetrics`, the read-only view of one run's copy of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Iterable, Mapping, Sequence

from repro.obs.registry import MetricsRegistry, ambient_registry
from repro.sim.cluster import Cluster


@dataclass(frozen=True)
class ClusterUsage:
    """Aggregate resource usage over one simulation run."""

    makespan: float
    cpu_busy: list[float]
    disk_busy: list[float]
    bytes_moved: float

    def cpu_utilization(self, node: int) -> float:
        """CPU busy fraction of ``node`` over the makespan."""
        if self.makespan <= 0:
            return 0.0
        return self.cpu_busy[node] / self.makespan

    def disk_utilization(self, node: int) -> float:
        """Disk busy fraction of ``node`` over the makespan."""
        if self.makespan <= 0:
            return 0.0
        return self.disk_busy[node] / self.makespan

    @property
    def cpu_skew(self) -> float:
        """Max-over-mean CPU busy time across nodes (1.0 = balanced)."""
        return skew_ratio(self.cpu_busy)

    @property
    def disk_skew(self) -> float:
        """Max-over-mean disk busy time across nodes."""
        return skew_ratio(self.disk_busy)


def skew_ratio(values: list[float]) -> float:
    """Max over mean; 1.0 means perfectly balanced, higher is skewed."""
    if not values:
        return 1.0
    mean = sum(values) / len(values)
    if mean == 0:
        return 1.0
    return max(values) / mean


def collect_usage(
    cluster: Cluster, registry: MetricsRegistry | None = None
) -> ClusterUsage:
    """Snapshot per-node busy times and network volume.

    With a ``registry``, the snapshot is also published as ``usage.*``
    gauges (totals and per-node).
    """
    usage = ClusterUsage(
        makespan=cluster.makespan(),
        cpu_busy=[node.cpu.stats().busy_time for node in cluster.nodes],
        disk_busy=[node.disk.stats().busy_time for node in cluster.nodes],
        bytes_moved=cluster.network.bytes_moved,
    )
    if registry is not None:
        publish_usage(usage, registry)
    return usage


def publish_usage(usage: ClusterUsage, registry: MetricsRegistry) -> None:
    """Write one usage snapshot into ``registry`` as ``usage.*`` gauges."""
    registry.gauge("usage.makespan").set(usage.makespan)
    registry.gauge("usage.bytes_moved").set(usage.bytes_moved)
    registry.gauge("usage.cpu_skew").set(usage.cpu_skew)
    registry.gauge("usage.disk_skew").set(usage.disk_skew)
    for node, busy in enumerate(usage.cpu_busy):
        registry.gauge(f"usage.cpu_busy.{node}").set(busy)
    for node, busy in enumerate(usage.disk_busy):
        registry.gauge(f"usage.disk_busy.{node}").set(busy)


#: The ``transport.*`` counters a run publishes: plain attributes of
#: every ``repro.runtime.transport.Transport``, summed across them.
#: ``redirects`` and ``hedges_armed`` stay unpublished.
TRANSPORT_COUNTERS = (
    "requests_sent", "timeouts", "retries", "fallbacks",
    "duplicate_responses", "hedges_issued", "hedges_won", "hedges_lost",
    "failovers",
)
#: The ``shuffle.*`` counters: attributes of every ``ShuffleChannel``.
SHUFFLE_COUNTERS = ("sends", "retransmits", "duplicates", "bytes_retransmitted")


def sum_counters(
    family: str, names: Sequence[str], sources: Iterable[Any]
) -> dict[str, Any]:
    """``family.name -> sum of attribute name over sources``, for each name."""
    totals = dict.fromkeys(names, 0)
    for source in sources:
        for name in names:
            totals[name] += getattr(source, name)
    return {f"{family}.{name}": total for name, total in totals.items()}


@dataclass(frozen=True)
class RuntimeMetrics:
    """One run's kernel counters: a read-only view over the dict the
    collector (``repro.runtime.metrics``) published into the registry,
    the run's :class:`ClusterUsage`, and the raw request latencies (the
    registry histogram keeps only moments, so tail percentiles come
    from these)."""

    #: ``transport.*``, ``shuffle.*`` and ``faults.messages_faulted``.
    counters: Mapping[str, Any]
    usage: ClusterUsage | None = None
    latencies: tuple[float, ...] = field(default=(), repr=False)

    @property
    def transport(self) -> SimpleNamespace:
        """The ``transport.*`` family by attribute (``.retries``, ...)."""
        return self._family("transport", TRANSPORT_COUNTERS)

    @property
    def shuffle(self) -> SimpleNamespace:
        """The ``shuffle.*`` family by attribute (``.sends``, ...)."""
        return self._family("shuffle", SHUFFLE_COUNTERS)

    def _family(self, family: str, names: Sequence[str]) -> SimpleNamespace:
        return SimpleNamespace(
            **{name: self.counters[f"{family}.{name}"] for name in names}
        )

    @property
    def messages_faulted(self) -> int:
        """Messages the fault injector interfered with."""
        return self.counters["faults.messages_faulted"]

    @property
    def recovery_actions(self) -> int:
        """Total engine-side reactions to faults across both seams."""
        return (
            self.counters["transport.retries"]
            + self.counters["transport.fallbacks"]
            + self.counters["shuffle.retransmits"]
        )

    @property
    def perturbed(self) -> bool:
        """Whether the fault seam visibly touched this run."""
        return self.messages_faulted > 0 or self.recovery_actions > 0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank value at percentile ``q`` in [0, 100] (0.0 when empty)."""
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile must be in [0, 100]")
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(int(len(ordered) * q / 100.0), len(ordered) - 1)]


def publish_job_result(result, registry: MetricsRegistry | None = None) -> None:
    """Publish one finished job's counters into the metrics pipeline.

    Duck-typed on :class:`repro.engine.job.JobResult` so the obs layer
    stays import-free of the engine.  ``engine.job.collect_result``
    calls it for :func:`ambient_registry` (the hook the benchmark JSON
    exporter reads) and for the run's own registry.
    """
    reg = registry if registry is not None else ambient_registry()
    reg.counter("jobs.runs").inc()
    reg.counter("jobs.tuples").inc(result.n_tuples)
    reg.counter("jobs.udfs_at_data_nodes").inc(result.udfs_at_data_nodes)
    reg.counter("jobs.udfs_at_compute_nodes").inc(result.udfs_at_compute_nodes)
    reg.counter("routing.compute_requests").inc(result.compute_requests)
    reg.counter("routing.data_requests").inc(result.data_requests)
    reg.counter("cache.memory_hits").inc(result.cache_memory_hits)
    reg.counter("cache.disk_hits").inc(result.cache_disk_hits)
    for cause, count in result.flushes.items():
        reg.counter(f"batching.flushes_{cause}").inc(count)
    reg.histogram("jobs.makespan").observe(result.makespan)
    reg.histogram("jobs.bytes_moved").observe(result.bytes_moved)
