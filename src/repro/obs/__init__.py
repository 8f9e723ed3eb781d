"""repro.obs — the unified observability layer.

One subsystem, three parts, threaded through the runtime-kernel seams:

* :mod:`repro.obs.tracer` — hierarchical span tracing
  (``job → batch → request → attempt``) with a no-op singleton
  (:data:`NO_TRACER`) so disabled tracing costs one attribute check.
* :mod:`repro.obs.registry` — named counters/gauges/histograms; every
  engine emits into one :class:`MetricsRegistry` pipeline.
* :mod:`repro.obs.exporters` — JSONL trace dump, markdown run report,
  and the ``BENCH_*.json`` attachment hook.
* :mod:`repro.obs.merge` — replaying remote worker snapshots (spans +
  counters shipped over IPC by :mod:`repro.cluster`) into the local
  tracer/registry.

:mod:`repro.obs.usage` holds the cluster-usage summary absorbed from
the deleted ``repro.metrics.collector``, the kernel's counter names and
:class:`RuntimeMetrics`, the view of one run's kernel counters.
"""

from repro.obs.exporters import (
    ObsOptions,
    RunReport,
    bench_payload,
    render_run_report,
    trace_records,
    write_bench_json,
    write_trace_jsonl,
)
from repro.obs.merge import merge_counters, merge_trace_records
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ambient_registry,
)
from repro.obs.tracer import NO_TRACER, NullTracer, Span, SpanEvent, Tracer
from repro.obs.usage import (
    SHUFFLE_COUNTERS,
    TRANSPORT_COUNTERS,
    ClusterUsage,
    RuntimeMetrics,
    collect_usage,
    percentile,
    publish_job_result,
    publish_usage,
    skew_ratio,
)

__all__ = [
    "NO_TRACER",
    "SHUFFLE_COUNTERS",
    "TRANSPORT_COUNTERS",
    "ClusterUsage",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullTracer",
    "ObsOptions",
    "RunReport",
    "RuntimeMetrics",
    "Span",
    "SpanEvent",
    "Tracer",
    "ambient_registry",
    "bench_payload",
    "collect_usage",
    "merge_counters",
    "merge_trace_records",
    "percentile",
    "publish_job_result",
    "publish_usage",
    "render_run_report",
    "skew_ratio",
    "trace_records",
    "write_bench_json",
    "write_trace_jsonl",
]
