"""Per-tenant outcome accounting: attainment, sheds, percentiles.

:class:`TenancyReport` is the one artifact every tenancy run produces:
per-tenant offered load, completions, sheds charged, SLO attainment
and latency percentiles, plus the aggregate view the fairness gate
needs ("no tenant's attainment collapses while another's quota sits
unused").  It publishes into the metrics registry under the
``tenancy.*`` family and renders a human-readable table.

A *shed* here is never a dropped request — the engine degrades shed
work onto the cheap route and still completes it — so ``completed``
counts every request and ``shed`` counts how many of them were served
degraded, charged to the tenant that over-drove its share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.obs.registry import MetricsRegistry, ambient_registry
from repro.obs.usage import percentile
from repro.tenancy.tenant import SLO, attainment


@dataclass(frozen=True)
class TenantStats:
    """One tenant's outcome over a run."""

    tenant: str
    offered: int
    completed: int
    shed: int
    attainment: float
    p50: float
    p99: float
    mean_latency: float
    slo_deadline: float | None = None
    slo_target: float | None = None

    @property
    def shed_rate(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    @property
    def slo_met(self) -> bool | None:
        """Whether the SLO held (``None`` when no SLO was configured)."""
        if self.slo_target is None:
            return None
        return self.attainment >= self.slo_target


@dataclass(frozen=True)
class TenancyReport:
    """Per-tenant stats plus the aggregate, for one tenancy run."""

    duration: float
    tenants: tuple[TenantStats, ...]

    @classmethod
    def build(
        cls,
        latencies_by_tenant: Mapping[str, list[float]],
        shed_by_tenant: Mapping[str, int],
        slos: Mapping[str, SLO],
        duration: float,
    ) -> "TenancyReport":
        """Assemble the report from per-tenant latency lists.

        ``latencies_by_tenant`` holds every completed request's
        arrival-to-completion latency; attainment is measured against
        each tenant's SLO deadline (1.0 when the tenant has no SLO).
        """
        stats = []
        for tenant in sorted(latencies_by_tenant):
            latencies = latencies_by_tenant[tenant]
            slo = slos.get(tenant)
            stats.append(
                TenantStats(
                    tenant=tenant,
                    offered=len(latencies),
                    completed=len(latencies),
                    shed=int(shed_by_tenant.get(tenant, 0)),
                    attainment=(
                        attainment(latencies, slo.deadline) if slo else 1.0
                    ),
                    p50=percentile(latencies, 50.0),
                    p99=percentile(latencies, 99.0),
                    mean_latency=(
                        sum(latencies) / len(latencies) if latencies else 0.0
                    ),
                    slo_deadline=slo.deadline if slo else None,
                    slo_target=slo.target if slo else None,
                )
            )
        return cls(duration=duration, tenants=tuple(stats))

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def stats(self, tenant: str) -> TenantStats:
        for candidate in self.tenants:
            if candidate.tenant == tenant:
                return candidate
        raise KeyError(tenant)

    @property
    def total_completed(self) -> int:
        return sum(stats.completed for stats in self.tenants)

    @property
    def aggregate_throughput(self) -> float:
        """Completed requests per second across all tenants."""
        if self.duration <= 0:
            return 0.0
        return self.total_completed / self.duration

    @property
    def worst_attainment(self) -> float:
        if not self.tenants:
            return 1.0
        return min(stats.attainment for stats in self.tenants)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def publish(self, registry: MetricsRegistry | None = None) -> None:
        """Emit ``tenancy.*`` per-tenant metrics into the registry.

        Counters for volumes (offered / completed / shed), gauges for
        the derived ratios and percentiles, and one latency histogram
        per tenant — the same naming scheme as the other families so
        ``render_run_report`` picks the section up by prefix.
        """
        registry = registry if registry is not None else ambient_registry()
        for stats in self.tenants:
            prefix = f"tenancy.{stats.tenant}"
            registry.counter(f"{prefix}.offered").inc(stats.offered)
            registry.counter(f"{prefix}.completed").inc(stats.completed)
            registry.counter(f"{prefix}.shed").inc(stats.shed)
            registry.gauge(f"{prefix}.attainment").set(stats.attainment)
            registry.gauge(f"{prefix}.shed_rate").set(stats.shed_rate)
            registry.gauge(f"{prefix}.latency_p50").set(stats.p50)
            registry.gauge(f"{prefix}.latency_p99").set(stats.p99)
            histogram = registry.histogram(f"{prefix}.latency")
            if stats.completed:
                histogram.observe(stats.mean_latency)
        registry.gauge("tenancy.worst_attainment").set(self.worst_attainment)
        registry.gauge("tenancy.aggregate_throughput").set(
            self.aggregate_throughput
        )

    def payload(self) -> dict:
        """JSON-serializable form (the benchmark artifact rows)."""
        return {
            "duration": self.duration,
            "aggregate_throughput": self.aggregate_throughput,
            "worst_attainment": self.worst_attainment,
            "tenants": {
                stats.tenant: {
                    "offered": stats.offered,
                    "completed": stats.completed,
                    "shed": stats.shed,
                    "shed_rate": stats.shed_rate,
                    "attainment": stats.attainment,
                    "p50": stats.p50,
                    "p99": stats.p99,
                    "mean_latency": stats.mean_latency,
                    "slo_deadline": stats.slo_deadline,
                    "slo_target": stats.slo_target,
                    "slo_met": stats.slo_met,
                }
                for stats in self.tenants
            },
        }

    def render(self) -> str:
        """Human-readable per-tenant table."""
        lines = ["## Tenancy", ""]
        header = (
            f"{'tenant':<12} {'offered':>8} {'shed':>6} {'attain':>7} "
            f"{'p50':>9} {'p99':>9} {'slo':>5}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for stats in self.tenants:
            met = (
                "-" if stats.slo_met is None
                else ("ok" if stats.slo_met else "MISS")
            )
            lines.append(
                f"{stats.tenant:<12} {stats.offered:>8} {stats.shed:>6} "
                f"{stats.attainment:>7.3f} {stats.p50:>9.4f} "
                f"{stats.p99:>9.4f} {met:>5}"
            )
        lines.append("")
        lines.append(
            f"aggregate: {self.total_completed} requests in "
            f"{self.duration:.3f}s ({self.aggregate_throughput:.1f}/s), "
            f"worst attainment {self.worst_attainment:.3f}"
        )
        return "\n".join(lines)


__all__ = ["TenancyReport", "TenantStats"]
