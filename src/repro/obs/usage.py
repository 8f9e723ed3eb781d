"""Cluster usage, skew and fault summaries, published to the registry.

This module absorbed ``repro.metrics.collector`` (deleted): the same
:class:`ClusterUsage` / :class:`FaultStats` value types, but every
collection call now also publishes into a :class:`MetricsRegistry`, so
per-node utilization and fault counters flow through the one pipeline
the run report and benchmark hooks read.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

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


@dataclass(frozen=True)
class FaultStats:
    """Aggregate fault and fault-handling counters for one job run.

    Injection side (what went wrong) comes from the
    :class:`repro.faults.FaultInjector`; reaction side (how the engine
    coped) from the compute-node runtimes and data-node servers.
    """

    messages_dropped: int = 0
    messages_duplicated: int = 0
    messages_delayed: int = 0
    crash_drops: int = 0
    timeouts: int = 0
    retries: int = 0
    fallbacks: int = 0
    duplicate_responses: int = 0
    duplicate_requests: int = 0
    retry_seconds_charged: float = 0.0

    @property
    def messages_faulted(self) -> int:
        """Messages the injector interfered with."""
        return (
            self.messages_dropped
            + self.messages_duplicated
            + self.messages_delayed
            + self.crash_drops
        )

    @property
    def recovery_actions(self) -> int:
        """Engine-side reactions (retries + fallbacks)."""
        return self.retries + self.fallbacks


def collect_fault_stats(job, registry: MetricsRegistry | None = None) -> FaultStats:
    """Aggregate fault counters from a finished :class:`JoinJob`.

    Duck-typed on the job to keep the metrics layer import-free of the
    engine; works with any object exposing ``incarnations`` (its
    compute-node runtimes), ``servers`` and (optionally) ``injector``.
    With a ``registry``, the stats also publish as ``faults.*`` counters.
    """
    runtimes = getattr(job, "incarnations", ())
    wire = [runtime.transport for runtime in runtimes]
    dup_requests = sum(
        server.duplicate_requests
        for server in getattr(job, "servers", {}).values()
    )
    injector = getattr(job, "injector", None)
    stats = FaultStats(
        messages_dropped=injector.messages_dropped if injector else 0,
        messages_duplicated=injector.messages_duplicated if injector else 0,
        messages_delayed=injector.messages_delayed if injector else 0,
        crash_drops=injector.crash_drops if injector else 0,
        timeouts=sum(t.timeouts for t in wire),
        retries=sum(t.retries for t in wire),
        fallbacks=sum(t.fallbacks for t in wire),
        duplicate_responses=sum(t.duplicate_responses for t in wire),
        duplicate_requests=dup_requests,
        retry_seconds_charged=sum(
            r.cost_model.retry_seconds_charged for r in runtimes
        ),
    )
    if registry is not None:
        publish_fault_stats(stats, registry)
    return stats


def publish_fault_stats(stats: FaultStats, registry: MetricsRegistry) -> None:
    """Write one fault snapshot into ``registry`` as ``faults.*`` counters."""
    for field in fields(stats):
        registry.counter(f"faults.{field.name}").inc(getattr(stats, field.name))


def publish_job_result(result, registry: MetricsRegistry | None = None) -> None:
    """Publish one finished job's counters into the metrics pipeline.

    Duck-typed on :class:`repro.engine.job.JobResult` so the obs layer
    stays import-free of the engine.  Called by ``JoinJob._collect``
    with no explicit registry, which lands in :func:`ambient_registry`
    — the hook the benchmark JSON exporter reads.
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
    reg.counter("faults.timeouts").inc(result.timeouts)
    reg.counter("faults.retries").inc(result.retries)
    reg.counter("faults.fallbacks").inc(result.fallbacks)
    for cause, count in result.flushes.items():
        reg.counter(f"batching.flushes_{cause}").inc(count)
    reg.histogram("jobs.makespan").observe(result.makespan)
    reg.histogram("jobs.bytes_moved").observe(result.bytes_moved)
