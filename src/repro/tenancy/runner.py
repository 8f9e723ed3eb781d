"""Runner/Router seam: one tenant mix, any backend.

The port is :class:`TrafficRunner` — ``run(mix, trace) ->``
:class:`TenancyResult` — and two adapters implement it:

* :class:`SimRunner` — the true open-loop adapter.  Drives the
  ``engine`` runner on the discrete-event simulator through
  ``JoinJob.run_trace``: every tuple arrives at its trace timestamp,
  per-tenant weighted-fair admission runs *inside* each compute node
  (:class:`~repro.resilience.WeightedFairAdmission`), and per-request
  latency is exact simulated arrival-to-completion.
* :class:`ReplayRunner` — the portable adapter.  Replays the same
  trace in fixed service windows against :func:`repro.api.run_join`,
  so the identical tenant mix drives **SimBackend, LocalBackend and
  ClusterBackend unchanged**: the fair queueing (stride scheduling
  over per-tenant FIFOs, quotas, deadline sheds charged to the
  offending tenant) happens in the harness, and each window is one
  ordinary ``run_join`` call.  A window that takes longer than its
  width pushes the clock — overload queues, exactly like a real
  ingest pipeline behind a slow executor.

Both adapters account sheds the engine way: shed work is *served
degraded, never dropped*, so completions always equal offered load and
correctness is untouched.

:func:`make_runner` is the router: it picks the open-loop adapter when
the configuration supports it (``engine`` on ``sim``) and the replay
adapter everywhere else.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field, replace
from typing import Any, Protocol, runtime_checkable

from repro.api import JobSpec, RunConfig, run_join
from repro.obs.registry import MetricsRegistry, ambient_registry
from repro.resilience.admission import WeightedFairAdmission
from repro.runtime.backend import JoinWorkload
from repro.tenancy.options import TenancyOptions
from repro.tenancy.report import TenancyReport
from repro.tenancy.tenant import TenantMix, TrafficTrace
from repro.workloads.synthetic import SyntheticWorkload

#: Hard ceiling on replay windows — a stalled backend must fail loudly,
#: not spin the harness forever.
_MAX_WINDOWS = 100_000


@dataclass(frozen=True)
class TenancyResult:
    """Outcome of one tenant-mix run on one backend."""

    backend: str
    engine: str
    #: Whether weighted-fair admission ran (vs the global baseline).
    fair: bool
    duration: float
    report: TenancyReport
    latencies_by_tenant: dict[str, list[float]] = field(repr=False)
    shed_by_tenant: dict[str, int] = field(repr=False)
    total_shed: int = 0
    #: Merged real outputs by global tuple index (replay adapter only;
    #: the open-loop adapter runs the timing UDF).
    outputs: dict[int, Any] = field(repr=False, default_factory=dict)


@runtime_checkable
class TrafficRunner(Protocol):
    """The port: anything that can serve a tenant mix."""

    def run(self, mix: TenantMix, trace: TrafficTrace) -> TenancyResult:
        """Serve the trace to completion and report per-tenant stats."""
        ...


def mix_workload(
    mix: TenantMix,
    value_size: float = 20_000.0,
    compute_cost: float = 0.002,
    seed: int = 0,
) -> SyntheticWorkload:
    """The stored-relation substrate a tenant mix joins against."""
    return SyntheticWorkload(
        name="tenancy",
        n_keys=mix.n_keys,
        n_tuples=0,
        skew=0.0,
        value_size=value_size,
        compute_cost=compute_cost,
        seed=seed,
    )


@dataclass
class SimRunner:
    """Open-loop adapter: ``engine`` on the simulator, per-tuple arrivals."""

    config: RunConfig
    workload: SyntheticWorkload | None = None
    registry: MetricsRegistry | None = None

    def __post_init__(self) -> None:
        if self.config.backend != "sim" or self.config.engine != "engine":
            raise ValueError(
                "SimRunner needs backend='sim', engine='engine'; use "
                "ReplayRunner (or make_runner) for other configurations"
            )

    def run(self, mix: TenantMix, trace: TrafficTrace) -> TenancyResult:
        from repro.engine.job import JoinJob
        from repro.engine.strategies import Strategy
        from repro.sim.cluster import Cluster

        cfg = self.config
        tenancy = cfg.tenancy if cfg.tenancy.enabled else None
        workload = (
            self.workload
            if self.workload is not None
            else mix_workload(mix, seed=cfg.seed)
        )
        if workload.n_keys < mix.n_keys:
            raise ValueError("workload key universe smaller than the mix's")
        cluster = Cluster.homogeneous(cfg.n_compute + cfg.n_data)
        job = JoinJob(
            cluster=cluster,
            compute_nodes=list(range(cfg.n_compute)),
            data_nodes=list(
                range(cfg.n_compute, cfg.n_compute + cfg.n_data)
            ),
            table=workload.build_table(),
            udf=workload.udf,
            strategy=Strategy.by_name("FO"),
            sizes=workload.sizes,
            batch_size=cfg.batching.batch_size,
            max_wait=cfg.batching.max_wait,
            memory_cache_bytes=cfg.memory_cache_bytes,
            resilience=cfg.resilience if cfg.resilience.enabled else None,
            tenancy=tenancy,
            tenant_of=trace.tenant_of if tenancy is not None else None,
            tenant_shares=mix.shares() if tenancy is not None else None,
            seed=cfg.seed,
        )
        result = job.run_trace(
            list(trace.keys),
            list(trace.arrivals),
            updates=list(trace.updates) or None,
        )
        latencies: dict[str, list[float]] = defaultdict(list)
        for index, tenant in enumerate(trace.tenants):
            latencies[tenant].append(result.latencies[index])
        shed_by_tenant: dict[str, int] = defaultdict(int)
        total_shed = 0
        for runtime in job.runtimes.values():
            admission = runtime.admission
            if admission is None:
                continue
            total_shed += admission.shed_count
            if isinstance(admission, WeightedFairAdmission):
                for tenant, count in admission.shed_by_tenant.items():
                    shed_by_tenant[tenant] += count
        report = TenancyReport.build(
            dict(latencies), dict(shed_by_tenant), mix.slos(), result.duration
        )
        report.publish(ambient_registry())
        if self.registry is not None:
            report.publish(self.registry)
        return TenancyResult(
            backend="sim",
            engine="engine",
            fair=tenancy is not None and tenancy.fair,
            duration=result.duration,
            report=report,
            latencies_by_tenant=dict(latencies),
            shed_by_tenant=dict(shed_by_tenant),
            total_shed=total_shed,
        )


@dataclass
class ReplayRunner:
    """Windowed replay adapter: the same mix on any ``run_join`` backend.

    Time is sliced into service windows of ``tenancy.window`` seconds.
    Arrivals park in per-tenant FIFOs; at each window boundary up to
    ``tenancy.window_capacity`` requests are drafted — weighted-fair
    (stride scheduling with per-window quotas) when ``tenancy.fair``,
    global FIFO by arrival otherwise — and executed as one ``run_join``
    batch.  A request drafted after its tenant's SLO deadline has
    already passed counts as a shed *charged to that tenant* (it is
    still served).  The window's measured duration pushes the clock, so
    a backend slower than the offered rate builds a real queue.
    """

    config: RunConfig
    workload: SyntheticWorkload | None = None
    registry: MetricsRegistry | None = None

    def _base_spec(self, mix: TenantMix) -> JobSpec:
        workload = (
            self.workload
            if self.workload is not None
            else mix_workload(mix, seed=self.config.seed)
        )
        if workload.n_keys < mix.n_keys:
            raise ValueError("workload key universe smaller than the mix's")
        return JobSpec.from_workload(JoinWorkload.from_synthetic(workload))

    def run(self, mix: TenantMix, trace: TrafficTrace) -> TenancyResult:
        cfg = self.config
        tenancy = cfg.tenancy if cfg.tenancy.enabled else TenancyOptions.on()
        fair = tenancy.fair
        base_spec = self._base_spec(mix)
        # Per-window runs must not re-apply tenancy inside the backend:
        # the harness owns admission here.
        window_cfg = replace(cfg, tenancy=TenancyOptions.off())
        shares = mix.shares()
        slos = mix.slos()
        names = sorted(share for share in shares)
        weights = {name: shares[name].weight for name in names}
        quotas = {name: shares[name].quota for name in names}
        pending: dict[str, deque[tuple[float, int]]] = {
            name: deque() for name in names
        }
        vtime: dict[str, float] = {name: 0.0 for name in names}
        latencies: dict[str, list[float]] = {name: [] for name in names}
        shed_by_tenant: dict[str, int] = {name: 0 for name in names}
        outputs: dict[int, Any] = {}
        clock = 0.0
        cursor = 0
        total = len(trace)
        total_shed = 0
        windows = 0
        while cursor < total or any(pending[name] for name in names):
            if windows >= _MAX_WINDOWS:
                raise RuntimeError(
                    f"replay exceeded {_MAX_WINDOWS} service windows"
                )
            windows += 1
            window_end = clock + tenancy.window
            while cursor < total and trace.arrivals[cursor] < window_end:
                tenant = trace.tenants[cursor]
                pending[tenant].append((trace.arrivals[cursor], cursor))
                cursor += 1
            drafted = self._draft(
                pending, names, weights, quotas, vtime,
                tenancy.window_capacity, fair,
            )
            if not drafted:
                # Idle window: jump straight to the next arrival.
                if cursor < total:
                    next_arrival = trace.arrivals[cursor]
                    if next_arrival >= window_end:
                        skipped = int(
                            (next_arrival - clock) / tenancy.window
                        )
                        window_end = clock + (skipped + 1) * tenancy.window
                clock = window_end
                continue
            for arrival, index in drafted:
                tenant = trace.tenants[index]
                slo = slos.get(tenant)
                if slo is not None and window_end - arrival > slo.deadline:
                    shed_by_tenant[tenant] += 1
                    total_shed += 1
            window_keys = tuple(trace.keys[index] for _, index in drafted)
            spec = replace(base_spec, keys=window_keys, params=None)
            run = run_join(spec, window_cfg)
            completion = window_end + run.makespan
            for local, (arrival, index) in enumerate(drafted):
                tenant = trace.tenants[index]
                latencies[tenant].append(completion - arrival)
                if local in run.outputs:
                    outputs[index] = run.outputs[local]
            # A slow window pushes the next one back (queue builds).
            clock = max(window_end, completion)
        report = TenancyReport.build(
            latencies, shed_by_tenant, slos, clock
        )
        report.publish(ambient_registry())
        if self.registry is not None:
            report.publish(self.registry)
        return TenancyResult(
            backend=cfg.backend,
            engine=cfg.engine,
            fair=fair,
            duration=clock,
            report=report,
            latencies_by_tenant=latencies,
            shed_by_tenant=shed_by_tenant,
            total_shed=total_shed,
            outputs=outputs,
        )

    @staticmethod
    def _draft(
        pending: dict[str, deque[tuple[float, int]]],
        names: list[str],
        weights: dict[str, float],
        quotas: dict[str, int | None],
        vtime: dict[str, float],
        capacity: int,
        fair: bool,
    ) -> list[tuple[float, int]]:
        """Pick up to ``capacity`` requests for one service window."""
        drafted: list[tuple[float, int]] = []
        if not fair:
            # PR 4 baseline semantics: one global FIFO by arrival time
            # (ties broken by tenant name via the stable merge order).
            candidates = [
                (queue[0], name)
                for name, queue in pending.items()
                if queue
            ]
            while candidates and len(drafted) < capacity:
                candidates.sort(key=lambda c: (c[0][0], c[0][1]))
                (entry, name) = candidates.pop(0)
                drafted.append(pending[name].popleft())
                if pending[name]:
                    candidates.append((pending[name][0], name))
            drafted.sort(key=lambda e: e[1])
            return drafted
        taken: dict[str, int] = {name: 0 for name in names}
        while len(drafted) < capacity:
            best: str | None = None
            best_rank: tuple[float, str] | None = None
            for name in names:
                if not pending[name]:
                    continue
                quota = quotas[name]
                if quota is not None and taken[name] >= quota:
                    continue
                rank = (vtime[name], name)
                if best_rank is None or rank < best_rank:
                    best, best_rank = name, rank
            if best is None:
                break
            drafted.append(pending[best].popleft())
            taken[best] += 1
            vtime[best] += 1.0 / weights[best]
        drafted.sort(key=lambda e: e[1])
        return drafted


def make_runner(
    config: RunConfig,
    workload: SyntheticWorkload | None = None,
    registry: MetricsRegistry | None = None,
    mode: str = "auto",
) -> TrafficRunner:
    """The router: pick the adapter for this configuration.

    ``mode='engine'`` forces the open-loop :class:`SimRunner`,
    ``mode='replay'`` forces the :class:`ReplayRunner`; ``'auto'``
    uses the open-loop adapter exactly when the configuration can
    support it (``engine`` on ``sim``) and replay otherwise — so one
    call site drives all three backends unchanged.
    """
    if mode not in ("auto", "engine", "replay"):
        raise ValueError(
            f"unknown mode {mode!r}; expected 'auto', 'engine' or 'replay'"
        )
    engine_capable = config.backend == "sim" and config.engine == "engine"
    if mode == "engine" or (mode == "auto" and engine_capable):
        return SimRunner(
            config=config, workload=workload, registry=registry
        )
    return ReplayRunner(config=config, workload=workload, registry=registry)


__all__ = [
    "ReplayRunner",
    "SimRunner",
    "TenancyResult",
    "TrafficRunner",
    "make_runner",
    "mix_workload",
]
