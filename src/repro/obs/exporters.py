"""Exporters: how one run's observations leave the process.

Three consumers, three formats:

* :func:`write_trace_jsonl` — the span tree and events as JSON Lines,
  one record per line, for offline analysis of *why* a key routed the
  way it did.
* :class:`RunReport` / :func:`render_run_report` — a human-readable
  markdown report (per-node utilization, skew ratios, routing-decision
  breakdown, fault counters) returned by ``repro.api.run_join``.
* :func:`write_bench_json` — the benchmark hook: attaches a registry
  snapshot and rendered report to every ``BENCH_*.json`` so perf
  numbers always travel with the observations that explain them.

The ``metrics`` field of :class:`RunReport` is a
:class:`repro.obs.usage.RuntimeMetrics`: the view lives here in
``repro.obs``, below the runtime layer whose collector fills it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.obs.usage import RuntimeMetrics


@dataclass(frozen=True)
class ObsOptions:
    """Observability knobs for one run (part of ``RunConfig``)."""

    #: Record a hierarchical span trace (off by default: tracing is
    #: cheap but not free, and most runs only need the registry).
    tracing: bool = False
    #: Where to dump the trace as JSONL after the run (implies nothing
    #: about ``tracing`` — no trace recorded means nothing written).
    trace_path: str | Path | None = None
    #: Render the markdown report eagerly (it is always renderable
    #: later via :meth:`RunReport.render`).
    report: bool = True


@dataclass(frozen=True)
class RunReport:
    """Everything one ``repro.api.run_join`` call produced.

    Carries the engine-native result object, the real join outputs,
    the kernel metrics snapshot, and (when tracing was on) the tracer
    itself — plus enough summary fields that most callers never need
    to look deeper.
    """

    engine: str
    backend: str
    strategy: str
    n_tuples: int
    #: Simulated makespan (sim backend) or wall-clock seconds (local).
    makespan: float
    outputs: Mapping[int, Any] = field(repr=False, default_factory=dict)
    #: Engine-native result (e.g. ``JobResult``), untyped by design.
    result: Any = field(repr=False, default=None)
    #: Kernel counters, usage and request latencies (``None`` on the
    #: cluster backend).
    metrics: RuntimeMetrics | None = field(repr=False, default=None)
    #: ``MetricsRegistry.snapshot()`` taken at the end of the run.
    snapshot: dict[str, Any] = field(repr=False, default_factory=dict)
    tracer: Tracer | None = field(repr=False, default=None)
    #: Where the trace JSONL was written, if it was.
    trace_path: str | None = None

    @property
    def throughput(self) -> float:
        """Input tuples processed per second."""
        if self.makespan <= 0:
            return 0.0
        return self.n_tuples / self.makespan

    def render(self) -> str:
        """The markdown run report."""
        return render_run_report(self)


# ----------------------------------------------------------------------
# Trace export
# ----------------------------------------------------------------------
def trace_records(tracer: Tracer) -> list[dict[str, Any]]:
    """The trace as JSON-serializable records (spans, then events)."""
    records: list[dict[str, Any]] = []
    for span in tracer.spans:
        records.append(
            {
                "type": "span",
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "status": span.status,
                "attrs": span.attrs,
            }
        )
    for event in tracer.events:
        records.append(
            {
                "type": "event",
                "name": event.name,
                "time": event.time,
                "parent_id": event.parent_id,
                "attrs": event.attrs,
            }
        )
    return records


def write_trace_jsonl(tracer: Tracer, path: str | Path) -> Path:
    """Dump the trace to ``path`` as JSON Lines; returns the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8") as handle:
        for record in trace_records(tracer):
            handle.write(json.dumps(record, default=str) + "\n")
    return target


# ----------------------------------------------------------------------
# Run report
# ----------------------------------------------------------------------
def render_run_report(report: RunReport) -> str:
    """Render one run as a markdown report."""
    lines = [
        f"# Run report: {report.engine} ({report.backend})",
        "",
        f"- strategy: {report.strategy}",
        f"- tuples: {report.n_tuples}",
        f"- makespan: {report.makespan:.4f} s",
        f"- throughput: {report.throughput:.1f} tuples/s",
    ]
    counters = report.snapshot.get("counters", {})
    usage = report.metrics.usage if report.metrics is not None else None
    if usage is not None:
        lines += ["", "## Per-node utilization", ""]
        lines.append("| node | cpu busy (s) | cpu util | disk busy (s) | disk util |")
        lines.append("|---:|---:|---:|---:|---:|")
        for node in range(len(usage.cpu_busy)):
            lines.append(
                f"| {node} | {usage.cpu_busy[node]:.4f} "
                f"| {usage.cpu_utilization(node):.1%} "
                f"| {usage.disk_busy[node]:.4f} "
                f"| {usage.disk_utilization(node):.1%} |"
            )
        lines += [
            "",
            f"- bytes moved: {usage.bytes_moved:.0f}",
            f"- cpu skew (max/mean): {usage.cpu_skew:.2f}",
            f"- disk skew (max/mean): {usage.disk_skew:.2f}",
        ]
    routing = _section_counters(counters, ("routing.", "cache.", "jobs.udfs"))
    if report.tracer is not None and report.tracer.enabled:
        for route, count in sorted(report.tracer.route_mix().items()):
            routing[f"route.{route}"] = count
    if routing:
        lines += ["", "## Routing decisions", ""]
        lines += [f"- {name}: {value:g}" for name, value in routing.items()]
    faults = {
        name: value
        for name, value in counters.items()
        if name.startswith("faults.") and value
    }
    if faults:
        lines += ["", "## Faults", ""]
        lines += [f"- {name}: {value:g}" for name, value in sorted(faults.items())]
    kernel = _section_counters(counters, ("batching.", "transport.", "shuffle."))
    if kernel:
        lines += ["", "## Kernel", ""]
        lines += [f"- {name}: {value:g}" for name, value in kernel.items()]
    resilience = {
        name: value
        for name, value in counters.items()
        if name.startswith("resilience.") and value
    }
    if resilience:
        lines += ["", "## Resilience", ""]
        lines += [
            f"- {name}: {value:g}"
            for name, value in sorted(resilience.items())
        ]
    # Per-tenant accounting spans counters (volumes) and gauges
    # (attainment / percentiles), so merge both metric kinds here.
    gauges = report.snapshot.get("gauges", {})
    tenancy = {
        name: value
        for source in (counters, gauges)
        for name, value in source.items()
        if name.startswith("tenancy.") and value
    }
    if tenancy:
        lines += ["", "## Tenancy", ""]
        lines += [
            f"- {name}: {value:g}"
            for name, value in sorted(tenancy.items())
        ]
    if report.tracer is not None and report.tracer.enabled:
        lines += ["", "## Trace", ""]
        by_name: dict[str, int] = {}
        for span in report.tracer.spans:
            by_name[span.name] = by_name.get(span.name, 0) + 1
        lines.append(
            f"- {len(report.tracer.spans)} spans, "
            f"{len(report.tracer.events)} events"
        )
        lines += [
            f"- spans[{name}]: {count}" for name, count in sorted(by_name.items())
        ]
        if report.trace_path is not None:
            lines.append(f"- trace written to {report.trace_path}")
    return "\n".join(lines) + "\n"


def _section_counters(
    counters: dict[str, float], prefixes: tuple[str, ...]
) -> dict[str, float]:
    return {
        name: value
        for name, value in sorted(counters.items())
        if value and any(name.startswith(p) for p in prefixes)
    }


# ----------------------------------------------------------------------
# Benchmark hook
# ----------------------------------------------------------------------
def bench_payload(
    name: str,
    registry: MetricsRegistry,
    extra: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """The JSON body attached to one ``BENCH_<name>.json``."""
    payload: dict[str, Any] = {
        "bench": name,
        "metrics": registry.snapshot(),
    }
    if extra:
        payload.update(extra)
    return payload


def write_bench_json(
    directory: str | Path,
    name: str,
    registry: MetricsRegistry,
    extra: dict[str, Any] | None = None,
) -> Path:
    """Write ``BENCH_<name>.json`` carrying the registry snapshot."""
    target = Path(directory) / f"BENCH_{name}.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(bench_payload(name, registry, extra), indent=2, default=str)
        + "\n",
        encoding="utf-8",
    )
    return target
