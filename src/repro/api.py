"""repro.api — one call to run a join on any engine.

Before this module, driving the four engines meant four differently
shaped constructors (``JoinJob``, ``MuppetJoinSimulation``,
``SimulatedMapReduce`` + spec plumbing, ``StarQuery`` + executor).
:func:`run_join` replaces that with two frozen values:

* :class:`JobSpec` — *what* to join: the stored table, the UDF, the
  probe keys, and the routing strategy.
* :class:`RunConfig` — *how* to run it: engine, backend, cluster
  shape, fault schedule/tolerance, and observability options.

The return value is a :class:`repro.obs.RunReport` carrying the real
outputs, the kernel metrics, a registry snapshot, and (when tracing is
on) the span trace — everything needed to answer both "what was the
answer" and "why did it cost what it cost".

>>> spec = JobSpec.synthetic(n_keys=50, n_tuples=200, seed=1)
>>> report = run_join(spec, RunConfig(engine="engine"))
>>> report.strategy
'FO'
>>> len(report.outputs)
200
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Hashable, TypeVar

from repro.placement.batch import SizeProfile
from repro.placement.options import ElasticOptions
from repro.engine.job import MembershipEvent, replay_membership
from repro.faults.policy import FaultTolerance
from repro.faults.schedule import FaultSchedule
from repro.memory.options import MemoryOptions
from repro.obs.exporters import ObsOptions, RunReport, write_trace_jsonl
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import NO_TRACER, Tracer
from repro.resilience.options import ResilienceOptions
from repro.runtime.backend import (
    ENGINES,
    BackendRun,
    JoinWorkload,
    SimBackend,
)
from repro.store.messages import UDF
from repro.store.table import Table
from repro.tenancy.options import TenancyOptions

#: Backends :func:`run_join` can target.  ``cluster`` executes on real
#: driver/worker processes over IPC (:mod:`repro.cluster`).
BACKENDS = ("sim", "cluster")

R = TypeVar("R")


@dataclass(frozen=True)
class JobSpec:
    """What to join: stored relation, UDF, probe stream, strategy."""

    table: Table
    udf: UDF
    keys: tuple[Hashable, ...]
    sizes: SizeProfile
    #: Optional per-tuple UDF argument ``p``, aligned with ``keys``.
    params: tuple[Any, ...] | None = None
    #: Routing strategy for the adaptive engines (NO/FC/FD/FR/CO/LO/FO).
    strategy: str = "FO"

    def __post_init__(self) -> None:
        if self.udf.apply_fn is None:
            raise ValueError("JobSpec needs a UDF with apply_fn (real outputs)")
        if self.params is not None and len(self.params) != len(self.keys):
            raise ValueError("params must align one-to-one with keys")

    @classmethod
    def from_workload(
        cls, workload: JoinWorkload, strategy: str = "FO"
    ) -> "JobSpec":
        """Lift a kernel :class:`JoinWorkload` into a spec."""
        return cls(
            table=workload.table,
            udf=workload.udf,
            keys=workload.keys,
            sizes=workload.sizes,
            params=workload.params,
            strategy=strategy,
        )

    @classmethod
    def synthetic(
        cls,
        kind: str = "data_heavy",
        n_keys: int = 500,
        n_tuples: int = 2000,
        skew: float = 1.0,
        seed: int = 0,
        strategy: str = "FO",
        **workload_kwargs: Any,
    ) -> "JobSpec":
        """A spec over one of the paper's synthetic workloads.

        ``kind`` picks the :class:`~repro.workloads.synthetic.SyntheticWorkload`
        constructor (``data_heavy`` / ``compute_heavy`` /
        ``data_compute_heavy``); extra keyword arguments pass through
        (``value_size``, ``compute_cost``, ...).
        """
        from repro.workloads.synthetic import SyntheticWorkload

        builder = getattr(SyntheticWorkload, kind, None)
        if builder is None:
            raise ValueError(
                f"unknown synthetic workload {kind!r}; expected one of "
                "'data_heavy', 'compute_heavy', 'data_compute_heavy'"
            )
        workload = builder(
            n_keys=n_keys, n_tuples=n_tuples, skew=skew, seed=seed,
            **workload_kwargs,
        )
        return cls.from_workload(
            JoinWorkload.from_synthetic(workload), strategy=strategy
        )

    def to_workload(self) -> JoinWorkload:
        """The kernel-level workload value backends execute."""
        return JoinWorkload(
            table=self.table,
            udf=self.udf,
            keys=self.keys,
            sizes=self.sizes,
            params=self.params,
        )


@dataclass(frozen=True)
class BatchOptions:
    """Request batching knobs (Section 7.2)."""

    #: Requests buffered per data node before a batch is flushed.
    batch_size: int = 16
    #: Streaming latency bound on a held partial batch (``None``: no bound).
    max_wait: float | None = None

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_wait is not None and self.max_wait <= 0:
            raise ValueError("max_wait must be positive when set")


@dataclass(frozen=True)
class ClusterRunOptions:
    """Cluster-backend process topology knobs.

    A non-default group on the sim backend is rejected by
    :class:`RunConfig`.
    """

    #: ``split`` (dedicated compute and data processes) or
    #: ``colocated`` (every process has both roles).
    placement: str = "split"
    #: Seconds to wait for worker handshakes.
    startup_timeout: float = 15.0

    def __post_init__(self) -> None:
        if self.placement not in ("split", "colocated"):
            raise ValueError(
                f"unknown placement {self.placement!r}; expected "
                "'split' or 'colocated'"
            )
        if self.startup_timeout <= 0:
            raise ValueError("startup_timeout must be positive")


@dataclass(frozen=True)
class RunConfig:
    """How to run a :class:`JobSpec`.

    Cross-cutting knobs are grouped into option dataclasses
    (``batching``, ``cluster``, ``resilience``, ``elastic``, ``memory``,
    ``tenancy``, ``obs``).  A combination the chosen engine and backend
    cannot honour is rejected here, at construction; one that only a
    :class:`JobSpec` reveals is rejected by :func:`run_join`.
    """

    #: Execution layer (see :data:`repro.runtime.backend.ENGINES`).
    engine: str = "engine"
    #: ``sim`` (discrete-event simulator) or ``cluster`` (real
    #: driver/worker processes over IPC).
    backend: str = "sim"
    n_compute: int = 2
    n_data: int = 2
    seed: int = 0
    #: Request batching knobs.
    batching: BatchOptions = field(default_factory=BatchOptions)
    #: Cluster-backend process topology (``cluster`` only).
    cluster: ClusterRunOptions = field(default_factory=ClusterRunOptions)
    #: Deterministic fault plan, armed on whichever engine runs.
    faults: FaultSchedule | None = None
    #: Timeout/retry/fallback policy (needed if ``faults`` loses
    #: messages).
    fault_tolerance: FaultTolerance | None = None
    #: Failure detection / failover / hedging / admission control.
    #: ``ResilienceOptions.off()`` (the default) wires nothing.
    resilience: ResilienceOptions = field(
        default_factory=ResilienceOptions
    )
    #: Runtime region split/merge/migration and hot-key replication
    #: over the shared :class:`~repro.placement.PlacementService`
    #: (``engine`` or ``streaming`` on ``sim``, any engine on ``cluster``).
    #: ``ElasticOptions.off()`` (the default) wires nothing — the run
    #: is bit-identical to the static region map.
    elastic: ElasticOptions = field(default_factory=ElasticOptions)
    #: Mid-run compute-membership changes (``engine`` on ``sim`` only)
    #: over nodes ``range(n_compute)``: a node whose first event is an
    #: "add" sits out until it fires, everything else runs from time
    #: zero.  Composes with every other option group.
    membership: tuple[MembershipEvent, ...] = ()
    #: Memory-adaptive execution: per-node budget arbiter, spilling
    #: hybrid-hash build sides, budgeted shuffle buffers, optional
    #: stage-boundary re-planning.  ``MemoryOptions.off()`` (the
    #: default) wires nothing — the run is bit-identical to before.
    memory: MemoryOptions = field(default_factory=MemoryOptions)
    #: Per-compute-node tiered cache budget (``sim`` only).
    memory_cache_bytes: float = 100e6
    #: Multi-tenant admission: per-tenant weighted-fair queueing with
    #: quotas and deadline sheds charged to the offending tenant
    #: (``engine`` on ``sim``; :func:`run_join` rejects it elsewhere, and
    #: the tenancy replay adapter covers the other engines and backends
    #: per service window).
    #: ``TenancyOptions.off()`` (the default) wires nothing — the run
    #: is bit-identical to a pre-tenancy build.
    tenancy: TenancyOptions = field(default_factory=TenancyOptions)
    #: Observability knobs.
    obs: ObsOptions = field(default_factory=ObsOptions)

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )
        # Real processes have no batch timer and no sized cache tier;
        # the simulator has no process topology.
        if self.backend == "cluster":
            armed = {
                "batching.max_wait": self.batching.max_wait is not None,
                "memory_cache_bytes": self.memory_cache_bytes
                != RunConfig.memory_cache_bytes,
            }
            other = "sim"
        else:
            armed = {"cluster": self.cluster != ClusterRunOptions()}
            other = "cluster"
        dropped = [name for name, on in armed.items() if on]
        if dropped:
            raise ValueError(
                f"backend={self.backend!r} cannot honour "
                f"{', '.join(dropped)}; use backend={other!r}"
            )
        # The simulated shuffle engines have no per-key serving path.
        if self.elastic.enabled and self.backend == "sim" and (
            self.engine not in ("engine", "streaming")
        ):
            raise ValueError(
                f"engine={self.engine!r} on backend='sim' would ignore elastic;"
                " use engine='engine' or 'streaming', or backend='cluster'"
            )
        if self.membership:
            if self.backend != "sim" or self.engine != "engine":
                raise ValueError(
                    "membership events require backend='sim', engine='engine'"
                )
            replay_membership(range(self.n_compute), self.membership)

    def with_obs(self, **changes: Any) -> "RunConfig":
        """Copy with updated :class:`ObsOptions` fields."""
        return replace(self, obs=replace(self.obs, **changes))

    def with_batching(self, **changes: Any) -> "RunConfig":
        """Copy with updated :class:`BatchOptions` fields."""
        return replace(self, batching=replace(self.batching, **changes))


def run_join(spec: JobSpec, config: RunConfig | None = None) -> RunReport:
    """Run one join described by ``spec`` under ``config``.

    The single entry point over the four engines, simulated or on real
    processes: builds the observability plumbing (tracer + per-run
    registry), executes, optionally dumps the trace, and returns the
    :class:`RunReport`.
    """
    cfg = config if config is not None else RunConfig()
    # RunConfig never sees the spec, so a setting that only some runners
    # read is checked here, before any backend is built or process
    # forked: SimBackend hands the strategy to engine and streaming, and
    # per-tenant admission to engine (the tenancy runners strip it).
    on_sim = cfg.backend == "sim"
    ignored: list[str] = []
    if spec.strategy != JobSpec.strategy and not (
        on_sim and cfg.engine in ("engine", "streaming")
    ):
        ignored.append(f"strategy={spec.strategy!r}")
    if cfg.tenancy.enabled and not (on_sim and cfg.engine == "engine"):
        ignored.append("tenancy")
    if ignored:
        raise ValueError(
            f"engine={cfg.engine!r} on backend={cfg.backend!r} would ignore "
            f"{', '.join(ignored)}; a strategy needs engine or streaming on "
            "sim, tenancy needs engine on sim or a tenancy runner"
        )
    registry = MetricsRegistry()
    workload = spec.to_workload()
    run, tracer, trace_path = _traced(
        cfg,
        lambda tracer: _backend_for(spec, cfg, tracer, registry).run_join(
            workload
        ),
    )
    return RunReport(
        engine=run.engine,
        backend=run.backend,
        strategy=spec.strategy,
        n_tuples=len(spec.keys),
        makespan=run.duration,
        outputs=run.outputs,
        result=run,
        metrics=run.metrics,
        snapshot=registry.snapshot(),
        tracer=tracer,
        trace_path=trace_path,
    )


def _traced(
    cfg: RunConfig, body: Callable[[Tracer], R]
) -> tuple[R, Tracer | None, str | None]:
    """Run ``body`` under ``cfg.obs``'s tracer and dump the trace if
    ``obs.trace_path`` asks; returns the body's result, the tracer (or
    ``None`` when tracing is off) and the path written."""
    tracer = Tracer() if cfg.obs.tracing else NO_TRACER
    result = body(tracer)
    if not tracer.enabled:
        return result, None, None
    trace_path: str | None = None
    if cfg.obs.trace_path is not None:
        trace_path = str(write_trace_jsonl(tracer, cfg.obs.trace_path))
    return result, tracer, trace_path


def _backend_for(
    spec: JobSpec,
    cfg: RunConfig,
    tracer: Tracer,
    registry: MetricsRegistry | None,
) -> Any:
    batching = cfg.batching
    if cfg.backend == "cluster":
        # Imported here: repro.cluster pulls in multiprocessing
        # machinery that sim-only users should never pay for.
        from repro.cluster import ClusterBackend, ClusterOptions

        return ClusterBackend(
            engine=cfg.engine,
            n_compute=cfg.n_compute,
            n_data=cfg.n_data,
            batch_size=batching.batch_size,
            seed=cfg.seed,
            fault_schedule=cfg.faults,
            fault_tolerance=cfg.fault_tolerance,
            resilience=cfg.resilience if cfg.resilience.enabled else None,
            elastic=cfg.elastic if cfg.elastic.enabled else None,
            memory=cfg.memory if cfg.memory.enabled else None,
            tracer=tracer,
            registry=registry,
            options=ClusterOptions(
                placement=cfg.cluster.placement,
                startup_timeout=cfg.cluster.startup_timeout,
            ),
        )
    return SimBackend(
        engine=cfg.engine,
        n_compute=cfg.n_compute,
        n_data=cfg.n_data,
        strategy=spec.strategy,
        batch_size=batching.batch_size,
        max_wait=batching.max_wait,
        seed=cfg.seed,
        fault_schedule=cfg.faults,
        fault_tolerance=cfg.fault_tolerance,
        resilience=cfg.resilience if cfg.resilience.enabled else None,
        elastic=cfg.elastic if cfg.elastic.enabled else None,
        membership=tuple(cfg.membership),
        memory=cfg.memory if cfg.memory.enabled else None,
        memory_cache_bytes=cfg.memory_cache_bytes,
        tenancy=cfg.tenancy if cfg.tenancy.enabled else None,
        tracer=tracer,
        registry=registry,
    )


__all__ = [
    "BACKENDS",
    "BackendRun",
    "BatchOptions",
    "ClusterRunOptions",
    "ElasticOptions",
    "JobSpec",
    "MembershipEvent",
    "MemoryOptions",
    "ObsOptions",
    "ResilienceOptions",
    "RunConfig",
    "RunReport",
    "TenancyOptions",
    "run_join",
]
