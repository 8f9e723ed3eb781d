"""Executor seam of the runtime kernel: one workload, many engines.

The paper's routing contribution is engine-agnostic, and with the
transport seam extracted (:mod:`repro.runtime.transport`) the four
engines in this repository are thin policies over the same substrate.
This module makes that substrate *callable*: a :class:`JoinWorkload`
is a value describing one join (stored relation, UDF, probe stream),
and a :class:`Backend` turns it into outputs:

* :class:`SimBackend` — runs the workload on the discrete-event
  simulator through any of the four engines (``engine``, ``streaming``,
  ``mapreduce``, ``sparklite``).  Fault schedules and tolerance
  policies plug in uniformly because every engine dispatches through
  the kernel transports.
* ``ClusterBackend`` (:mod:`repro.cluster`) — the same contract on
  real driver/worker processes over IPC.

Every backend returns the same ``tuple_id -> result`` mapping shape as
:func:`tests.oracle.single_node_hash_join`, which is what lets one
parametrized suite assert all engines × backends agree bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Hashable, Protocol, Sequence, runtime_checkable

from repro.placement.batch import SizeProfile
from repro.faults.policy import FaultTolerance
from repro.faults.schedule import FaultSchedule
from repro.memory.options import MemoryOptions
from repro.obs.registry import MetricsRegistry, ambient_registry
from repro.obs.tracer import NO_TRACER, Tracer
from repro.resilience.options import ResilienceOptions
from repro.runtime.metrics import RuntimeMetrics, collect_runtime_metrics
from repro.runtime.transport import ShuffleChannel
from repro.sim.cluster import Cluster
from repro.store.messages import UDF
from repro.store.partitioner import stable_hash
from repro.store.table import Table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.job import JoinJob
    from repro.workloads.synthetic import SyntheticWorkload

#: Engines the simulated backend can drive.
ENGINES = ("engine", "streaming", "mapreduce", "sparklite")


@dataclass(frozen=True)
class JoinWorkload:
    """One join, engine-independently: ``f'(k, p, v)`` over a stream.

    ``udf.apply_fn`` must be set — backends produce *real* outputs, not
    just timings — and must be side-effect free (the locational-
    transparency premise of the whole paper).
    """

    table: Table
    udf: UDF
    keys: tuple[Hashable, ...]
    sizes: SizeProfile
    params: tuple[Any, ...] | None = None

    def __post_init__(self) -> None:
        if self.udf.apply_fn is None:
            raise ValueError(
                "JoinWorkload needs a UDF with apply_fn (real outputs)"
            )
        if self.params is not None and len(self.params) != len(self.keys):
            raise ValueError("params must align one-to-one with keys")

    @classmethod
    def from_synthetic(
        cls,
        workload: "SyntheticWorkload",
        apply_fn: Callable[[Hashable, Any, Any], Any] | None = None,
        params: Sequence[Any] | None = None,
    ) -> "JoinWorkload":
        """Lift a DH/CH/DCH timing workload into a real-output one."""
        fn = apply_fn if apply_fn is not None else (
            lambda k, p, v: f"{k}|{p}|{v}"
        )
        return cls(
            table=workload.build_table(),
            udf=replace(workload.udf, apply_fn=fn),
            keys=tuple(workload.keys()),
            sizes=workload.sizes,
            params=tuple(params) if params is not None else None,
        )

    def stored_values(self) -> dict[Hashable, Any]:
        """Snapshot ``key -> value`` of the stored relation."""
        return {row.key: row.value for row in self.table.rows()}


@dataclass(frozen=True)
class BackendRun:
    """Outcome of one workload execution on one backend."""

    engine: str
    backend: str
    outputs: dict[int, Any]
    #: Simulated makespan (SimBackend) or wall-clock seconds
    #: (ClusterBackend).
    duration: float
    metrics: RuntimeMetrics | None = None
    #: The engine-native result value (``JobResult``, ``StreamResult``,
    #: ...) for callers that want engine-specific detail the portable
    #: fields above do not carry.
    native: Any = None


@runtime_checkable
class Backend(Protocol):
    """Anything that can execute a :class:`JoinWorkload`."""

    def run_join(self, workload: JoinWorkload) -> BackendRun:
        """Run the workload to completion; returns real outputs."""
        ...


@dataclass
class SimBackend:
    """Execute a workload on the discrete-event simulator.

    Parameters
    ----------
    engine:
        Which execution layer to drive (see :data:`ENGINES`).  All of
        them dispatch through the kernel transports, so
        ``fault_schedule`` / ``fault_tolerance`` behave uniformly.
    n_compute, n_data:
        Cluster shape (mapreduce and sparklite treat the sum as one
        undifferentiated node pool, matching their Hadoop/Spark
        deployment model).
    strategy:
        Routing strategy name for the adaptive engines (NO/FC/.../FO).
    """

    engine: str = "engine"
    n_compute: int = 2
    n_data: int = 2
    strategy: str = "FO"
    batch_size: int = 16
    max_wait: float | None = None
    seed: int = 0
    fault_schedule: FaultSchedule | None = None
    fault_tolerance: FaultTolerance | None = None
    #: Opt-in resilience (repro.resilience).  The event-loop engines
    #: wire the full subsystem; the analytic shuffle engines get
    #: detection verdicts via an after-the-fact heartbeat replay
    #: (their recovery is the ShuffleChannel's at-least-once resend).
    resilience: ResilienceOptions | None = None
    #: Opt-in elastic placement (:class:`repro.placement.ElasticOptions`).
    #: The request/response engines (engine, streaming) wire an
    #: :class:`~repro.placement.elastic.ElasticCoordinator` over the
    #: shared :class:`~repro.placement.service.PlacementService`.  The
    #: analytic shuffle engines have no per-key serving path to migrate
    #: and never read it; ``RunConfig`` rejects it for them.
    elastic: Any = None
    #: Mid-run compute-node membership changes
    #: (:class:`repro.engine.job.MembershipEvent`); non-empty makes the
    #: ``engine`` runner's input one shared queue the active nodes pull.
    membership: tuple = ()
    #: Opt-in memory-adaptive execution
    #: (:class:`repro.memory.options.MemoryOptions`).  The
    #: request/response engines arm the full budget arbiter + spilling
    #: hybrid build side; the analytic shuffle engines run a shadow
    #: hybrid over the stored relation (spill traffic priced on the
    #: reduce-side disk and added to the makespan) and charge shuffle
    #: receive buffers against the per-node budgets.
    memory: MemoryOptions | None = None
    memory_cache_bytes: float = 100e6
    #: Opt-in multi-tenant admission
    #: (:class:`repro.tenancy.TenancyOptions`).  :meth:`build_job`
    #: wires per-tenant weighted-fair admission into every compute
    #: node; the analytic shuffle engines have no per-tuple admission
    #: seam, so the tenancy replay adapter (:mod:`repro.tenancy.runner`)
    #: applies fair queueing in the harness for them instead.
    tenancy: Any = None
    #: ``tuple_id -> tenant`` map and per-tenant shares for fair
    #: admission (supplied by the tenancy ``SimRunner``).
    tenant_of: Any = None
    tenant_shares: Any = None
    #: Observability: span tracer threaded through whichever engine
    #: runs, and an optional registry the kernel metrics publish into.
    tracer: Tracer = NO_TRACER
    registry: MetricsRegistry | None = None

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )

    def run_join(self, workload: JoinWorkload) -> BackendRun:
        runner = getattr(self, f"_run_{self.engine}")
        return runner(workload)

    def _cluster(self) -> Cluster:
        return Cluster.homogeneous(self.n_compute + self.n_data)

    # ------------------------------------------------------------------
    # engine / streaming: the adaptive request/response engines
    # ------------------------------------------------------------------
    def build_job(self, workload: JoinWorkload) -> "JoinJob":
        """The one ``JoinJob`` builder: the ``engine`` and ``streaming``
        runners and the tenancy :class:`~repro.tenancy.SimRunner` run
        what it returns, so every option above reaches all three."""
        from repro.engine.job import JoinJob
        from repro.engine.strategies import Strategy

        return JoinJob(
            cluster=self._cluster(),
            compute_nodes=list(range(self.n_compute)),
            data_nodes=list(
                range(self.n_compute, self.n_compute + self.n_data)
            ),
            table=workload.table,
            udf=workload.udf,
            strategy=Strategy.by_name(self.strategy),
            sizes=workload.sizes,
            batch_size=self.batch_size,
            max_wait=self.max_wait,
            memory_cache_bytes=self.memory_cache_bytes,
            # The shared membership queue keeps the window of 128 its
            # runs have always had.
            pipeline_window=(
                128 if self.membership else JoinJob.pipeline_window
            ),
            fault_schedule=self.fault_schedule,
            fault_tolerance=self.fault_tolerance,
            tracer=self.tracer,
            registry=self.registry,
            resilience=self.resilience,
            elastic=self.elastic,
            membership=self.membership,
            memory=self.memory,
            tenancy=self.tenancy,
            tenant_of=self.tenant_of,
            tenant_shares=self.tenant_shares,
            seed=self.seed,
        )

    def _run_engine(self, workload: JoinWorkload) -> BackendRun:
        job = self.build_job(workload)
        result: Any
        if self.engine == "streaming":
            if workload.params is not None:
                raise ValueError(
                    "the streaming engine feeds bare key streams; "
                    "per-tuple params are not expressible"
                )
            result = job.run_streaming(workload.keys)
            duration = result.duration
        else:
            result = job.run(workload.keys, params=workload.params)
            duration = result.makespan
        return BackendRun(
            engine=self.engine,
            backend="sim",
            outputs=job.collected_outputs(),
            duration=duration,
            metrics=collect_runtime_metrics(
                job.cluster,
                transports=[r.transport for r in job.incarnations],
                injector=job.injector,
                registry=self.registry,
            ),
            native=result,
        )

    _run_streaming = _run_engine

    # ------------------------------------------------------------------
    # mapreduce / sparklite: the shuffle engines
    # ------------------------------------------------------------------
    def _install_faults(self, cluster: Cluster, budgets=None):
        """Arm chaos faults on a shuffle engine's cluster (if any)."""
        if self.fault_schedule is None:
            return None
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(self.fault_schedule, tracer=self.tracer)
        injector.install(cluster, budgets=budgets)
        return injector

    def _arm_shuffle_memory(
        self, cluster: Cluster, workload: JoinWorkload
    ) -> "_ShuffleMemory | None":
        """Budget arbiters + shadow build side for the shuffle engines.

        The analytic engines have no per-key serving loop to thread the
        hybrid join through, so the stored relation itself becomes the
        budget-governed build side: every reduce-side access to a
        stored value goes through a :class:`HybridHashJoin` partitioned
        across the node pool, and the spill/unspill seconds it accrues
        are serialized onto the makespan.  Off → everything here is
        skipped and the engines are bit-identical to before.
        """
        memory = self.memory
        if memory is None or not memory.enabled:
            return None
        limit = memory.budget_bytes
        if limit is None:
            limit = self.memory_cache_bytes
        return _ShuffleMemory(
            cluster,
            n_nodes=self.n_compute + self.n_data,
            limit=limit,
            options=memory,
            values=workload.stored_values(),
            value_size=workload.sizes.value_size,
        )

    def _run_shuffle(
        self,
        workload: JoinWorkload,
        step: Callable[
            [Cluster, ShuffleChannel, "_ShuffleMemory | None", Any],
            tuple[dict[int, Any], Any],
        ],
    ) -> BackendRun:
        """The one shuffle-engine body: cluster, shadow memory, faults,
        budgeted channel and job span around ``step(cluster, channel,
        mem, job_span) -> (outputs, native result)``, then the
        detection replay, spill seconds and metrics."""
        cluster = self._cluster()
        mem = self._arm_shuffle_memory(cluster, workload)
        budgets = mem.budgets if mem is not None else None
        injector = self._install_faults(cluster, budgets=budgets)
        channel = ShuffleChannel(cluster, tracer=self.tracer, budgets=budgets)
        job_span = None
        if self.tracer.enabled:
            job_span = self.tracer.start(
                "job", at=0.0, engine=self.engine,
                n_tuples=len(workload.keys),
            )
        outputs, result = step(cluster, channel, mem, job_span)
        if job_span is not None:
            self.tracer.end(job_span, at=result.makespan)
        self._replay_resilience(cluster, result.makespan)
        duration = result.makespan
        if mem is not None:
            duration += mem.io_seconds
            mem.publish(channel, self.registry)
        return BackendRun(
            engine=self.engine,
            backend="sim",
            outputs=outputs,
            duration=duration,
            metrics=collect_runtime_metrics(
                cluster, channels=[channel], injector=injector,
                registry=self.registry,
            ),
            native=result,
        )

    def _run_mapreduce(self, workload: JoinWorkload) -> BackendRun:
        from repro.mapreduce.api import MapReduceSpec
        from repro.mapreduce.simulated import SimulatedMapReduce

        values = workload.stored_values()
        udf = workload.udf
        params = workload.params

        def step(cluster, channel, mem, job_span):
            def map_fn(tuple_id: int, key: Hashable):
                p = params[tuple_id] if params is not None else None
                return [(key, (tuple_id, p))]

            def reduce_fn(key: Hashable, pairs: list[tuple[int, Any]]):
                stored = mem.lookup(key) if mem is not None else values[key]
                return [(tid, udf.apply(key, p, stored)) for tid, p in pairs]

            result = SimulatedMapReduce(
                cluster, shuffle=channel, tracer=self.tracer
            ).run(
                MapReduceSpec(map_fn=map_fn, reduce_fn=reduce_fn),
                list(enumerate(workload.keys)),
                span_parent=job_span,
            )
            return dict(result.outputs), result

        return self._run_shuffle(workload, step)

    def _run_sparklite(self, workload: JoinWorkload) -> BackendRun:
        from repro.sparklite.query import DimensionJoin, StarQuery
        from repro.sparklite.relation import Relation, Schema
        from repro.sparklite.shuffle_exec import ShuffleExecutor

        # The probe stream is the fact side; the stored relation is a
        # single dimension.  Grouping by tuple id with a max aggregate
        # is the identity on the (unique) joined value, so the query
        # output is exactly ``tuple_id -> stored value``.
        fact = Relation(
            "probe",
            Schema(("tid", "k")),
            list(enumerate(workload.keys)),
        )
        dimension = Relation(
            "stored", Schema(("k", "v")), list(workload.stored_values().items())
        )
        query = StarQuery(
            name="kernel-join",
            fact=fact,
            joins=(
                DimensionJoin(dimension=dimension, fact_key="k", dim_key="k"),
            ),
            group_by=("tid",),
            aggregates=(("max", "v", "v"),),
        )
        udf = workload.udf
        params = workload.params

        def step(cluster, channel, mem, job_span):
            result = ShuffleExecutor(
                cluster, shuffle=channel, tracer=self.tracer
            ).run(query, span_parent=job_span)
            columns = result.result.schema.columns
            tid_at = columns.index("tid")
            value_at = columns.index("v")
            outputs: dict[int, Any] = {}
            for row in result.result.rows:
                tid = row[tid_at]
                p = params[tid] if params is not None else None
                key = workload.keys[tid]
                stored = mem.lookup(key) if mem is not None else row[value_at]
                outputs[tid] = udf.apply(key, p, stored)
            return outputs, result

        return self._run_shuffle(workload, step)

    def _replay_resilience(self, cluster: Cluster, horizon: float) -> None:
        """Analytic detection pass for the closed-form shuffle engines."""
        if self.resilience is None or not self.resilience.enabled:
            return
        if not self.resilience.detection or horizon <= 0:
            return
        from repro.resilience import replay_heartbeats

        replay = replay_heartbeats(
            cluster,
            self.resilience,
            range(self.n_compute, self.n_compute + self.n_data),
            horizon,
            registry=ambient_registry(),
        )
        if self.registry is not None:
            from repro.resilience import publish_replay

            publish_replay(replay, self.registry)


class _ShuffleMemory:
    """Shadow memory-adaptive state for the analytic shuffle engines.

    The stored relation is hash-partitioned across per-node
    :class:`~repro.memory.hybrid_join.HybridHashJoin` build sides, each
    charged against its node's :class:`~repro.memory.budget.MemoryBudget`.
    Reduce-side value accesses route through :meth:`lookup`; accrued
    spill/unspill seconds are serialized onto the reported makespan by
    the caller.  Lookups fall back to the plain values dict, so tight
    budgets degrade latency but can never change outputs.
    """

    def __init__(
        self,
        cluster: Cluster,
        n_nodes: int,
        limit: float,
        options: MemoryOptions,
        values: dict[Hashable, Any],
        value_size: float,
    ) -> None:
        from repro.memory.budget import MemoryBudget
        from repro.memory.hybrid_join import HybridHashJoin

        self.values = values
        self.n_nodes = n_nodes
        self.io_seconds = 0.0
        self.budgets = {
            nid: MemoryBudget(limit, node_id=nid) for nid in range(n_nodes)
        }
        self.hybrids: dict[int, Any] = {}
        for nid in range(n_nodes):
            spec = cluster.node(nid).spec

            def io_cost(
                nbytes: float,
                op: str,
                _seek: float = spec.disk_seek,
                _bw: float = spec.disk_bandwidth,
            ) -> float:
                return _seek + nbytes / _bw

            self.hybrids[nid] = HybridHashJoin(
                budget=self.budgets[nid],
                n_partitions=options.join_partitions,
                max_recursion=options.max_recursion,
                owner=f"build-{nid}",
                io_cost=io_cost,
            )
        for key, value in values.items():
            self.io_seconds += self._hybrid(key).insert(key, value, value_size)

    def _hybrid(self, key: Hashable) -> Any:
        return self.hybrids[stable_hash(key) % self.n_nodes]

    def lookup(self, key: Hashable) -> Any:
        found, io = self._hybrid(key).lookup(key)
        self.io_seconds += io
        return found[0] if found else self.values[key]

    def publish(
        self, channel: ShuffleChannel | None, registry: MetricsRegistry | None
    ) -> None:
        from repro.memory.budget import publish_memory_counters

        sources = [budget.counters() for budget in self.budgets.values()]
        for hybrid in self.hybrids.values():
            counts = hybrid.counters()
            if any(counts.values()):
                sources.append(counts)
        if self.io_seconds:
            sources.append({"spill_seconds": self.io_seconds})
        if channel is not None and channel.budget_spills:
            sources.append(
                {
                    "shuffle_refusals": float(channel.budget_spills),
                    "shuffle_spill_seconds": channel.spill_seconds,
                }
            )
        publish_memory_counters(ambient_registry(), *sources)
        if registry is not None:
            publish_memory_counters(registry, *sources)

