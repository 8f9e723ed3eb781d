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
* :class:`LocalBackend` — runs the same job graph on real
  :mod:`concurrent.futures` workers with no simulation at all:
  wall-clock correctness runs, the ground truth the simulated engines
  are differentially tested against.

Every backend returns the same ``tuple_id -> result`` mapping shape as
:func:`tests.oracle.single_node_hash_join`, which is what lets one
parametrized suite assert all engines × backends agree bit-for-bit.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
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
    #: (LocalBackend).
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
    #: shared :class:`~repro.placement.service.PlacementService`; the
    #: analytic shuffle engines have no per-key serving path to migrate.
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
    #: (:class:`repro.tenancy.TenancyOptions`).  The ``engine`` runner
    #: wires per-tenant weighted-fair admission into every compute
    #: node; the streaming and analytic shuffle engines have no
    #: per-tuple admission seam, so the tenancy replay adapter
    #: (:mod:`repro.tenancy.runner`) applies fair queueing in the
    #: harness for them instead.
    tenancy: Any = None
    #: ``tuple_id -> tenant`` map and per-tenant shares for fair
    #: admission (supplied by the tenancy runners).
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
    def _run_engine(self, workload: JoinWorkload) -> BackendRun:
        from repro.engine.job import JoinJob
        from repro.engine.strategies import Strategy

        cluster = self._cluster()
        job = JoinJob(
            cluster=cluster,
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
        result = job.run(list(workload.keys), params=workload.params)
        return BackendRun(
            engine="engine",
            backend="sim",
            outputs=job.collected_outputs(),
            duration=result.makespan,
            metrics=collect_runtime_metrics(
                cluster,
                transports=[r.transport for r in job.incarnations],
                injector=job.injector,
                registry=self.registry,
            ),
            native=result,
        )

    def _run_streaming(self, workload: JoinWorkload) -> BackendRun:
        from repro.streaming.muppet import MuppetJoinSimulation

        if workload.params is not None:
            raise ValueError(
                "the streaming engine feeds bare key streams; "
                "per-tuple params are not expressible"
            )
        sim = MuppetJoinSimulation(
            table=workload.table,
            udf=workload.udf,
            sizes=workload.sizes,
            n_compute_nodes=self.n_compute,
            n_data_nodes=self.n_data,
            batch_size=self.batch_size,
            max_wait=self.max_wait,
            fault_schedule=self.fault_schedule,
            fault_tolerance=self.fault_tolerance,
            tracer=self.tracer,
            registry=self.registry,
            resilience=self.resilience,
            elastic=self.elastic,
            memory=self.memory,
            seed=self.seed,
        )
        result = sim.run(self.strategy, list(workload.keys))
        job = sim.last_job
        assert job is not None
        return BackendRun(
            engine="streaming",
            backend="sim",
            outputs=job.collected_outputs(),
            duration=result.duration,
            metrics=collect_runtime_metrics(
                job.cluster,
                transports=[r.transport for r in job.runtimes.values()],
                injector=job.injector,
                registry=self.registry,
            ),
            native=result,
        )

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

    def _run_mapreduce(self, workload: JoinWorkload) -> BackendRun:
        from repro.mapreduce.api import MapReduceSpec
        from repro.mapreduce.simulated import SimulatedMapReduce

        cluster = self._cluster()
        mem = self._arm_shuffle_memory(cluster, workload)
        injector = self._install_faults(
            cluster, budgets=mem.budgets if mem is not None else None
        )
        values = workload.stored_values()
        udf = workload.udf
        params = workload.params

        def map_fn(tuple_id: int, key: Hashable):
            p = params[tuple_id] if params is not None else None
            return [(key, (tuple_id, p))]

        def reduce_fn(key: Hashable, pairs: list[tuple[int, Any]]):
            stored = mem.lookup(key) if mem is not None else values[key]
            return [(tid, udf.apply(key, p, stored)) for tid, p in pairs]

        channel = ShuffleChannel(
            cluster,
            tracer=self.tracer,
            budgets=mem.budgets if mem is not None else None,
        )
        engine = SimulatedMapReduce(cluster, shuffle=channel, tracer=self.tracer)
        job_span = None
        if self.tracer.enabled:
            job_span = self.tracer.start(
                "job", at=0.0, engine="mapreduce",
                n_tuples=len(workload.keys),
            )
        result = engine.run(
            MapReduceSpec(map_fn=map_fn, reduce_fn=reduce_fn),
            list(enumerate(workload.keys)),
            span_parent=job_span,
        )
        if job_span is not None:
            self.tracer.end(job_span, at=result.makespan)
        self._replay_resilience(cluster, result.makespan)
        duration = result.makespan
        if mem is not None:
            duration += mem.io_seconds
            mem.publish(channel, self.registry)
        return BackendRun(
            engine="mapreduce",
            backend="sim",
            outputs=dict(result.outputs),
            duration=duration,
            metrics=collect_runtime_metrics(
                cluster, channels=[channel], injector=injector,
                registry=self.registry,
            ),
            native=result,
        )

    def _run_sparklite(self, workload: JoinWorkload) -> BackendRun:
        from repro.sparklite.query import DimensionJoin, StarQuery
        from repro.sparklite.relation import Relation, Schema
        from repro.sparklite.shuffle_exec import ShuffleExecutor

        cluster = self._cluster()
        mem = self._arm_shuffle_memory(cluster, workload)
        injector = self._install_faults(
            cluster, budgets=mem.budgets if mem is not None else None
        )
        values = workload.stored_values()
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
            "stored", Schema(("k", "v")), list(values.items())
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
        channel = ShuffleChannel(
            cluster,
            tracer=self.tracer,
            budgets=mem.budgets if mem is not None else None,
        )
        job_span = None
        if self.tracer.enabled:
            job_span = self.tracer.start(
                "job", at=0.0, engine="sparklite",
                n_tuples=len(workload.keys),
            )
        result = ShuffleExecutor(
            cluster, shuffle=channel, tracer=self.tracer
        ).run(query, span_parent=job_span)
        if job_span is not None:
            self.tracer.end(job_span, at=result.makespan)
        columns = result.result.schema.columns
        tid_at = columns.index("tid")
        value_at = columns.index("v")
        udf = workload.udf
        params = workload.params
        outputs: dict[int, Any] = {}
        for row in result.result.rows:
            tid = row[tid_at]
            p = params[tid] if params is not None else None
            key = workload.keys[tid]
            stored = mem.lookup(key) if mem is not None else row[value_at]
            outputs[tid] = udf.apply(key, p, stored)
        self._replay_resilience(cluster, result.makespan)
        duration = result.makespan
        if mem is not None:
            duration += mem.io_seconds
            mem.publish(channel, self.registry)
        return BackendRun(
            engine="sparklite",
            backend="sim",
            outputs=outputs,
            duration=duration,
            metrics=collect_runtime_metrics(
                cluster, channels=[channel], injector=injector,
                registry=self.registry,
            ),
            native=result,
        )

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


@dataclass
class LocalBackend:
    """Execute a workload on real threads — no simulation anywhere.

    The job graph is the same as the simulated engines': partition the
    probe stream by stable key hash (the kernel's routing hash), batch
    each partition, apply the UDF against a snapshot of the stored
    relation, merge.  ``duration`` is wall-clock seconds, making this
    the backend for "does the real computation agree with the
    simulated one" checks and for benchmarking actual UDFs.
    """

    max_workers: int = 4
    batch_size: int = 64
    tracer: Tracer = NO_TRACER
    registry: MetricsRegistry | None = None
    #: Inert here: the tenancy replay adapter drives this backend per
    #: service window and applies fair queueing in the harness.
    tenancy: Any = None

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")

    def run_join(self, workload: JoinWorkload) -> BackendRun:
        values = workload.stored_values()
        partitions: list[list[int]] = [[] for _ in range(self.max_workers)]
        for tuple_id, key in enumerate(workload.keys):
            partitions[stable_hash(key) % self.max_workers].append(tuple_id)
        start = time.perf_counter()
        # Local spans live on the wall clock (offsets from job start),
        # not simulated seconds — one run, one clock.
        job_span = None
        if self.tracer.enabled:
            job_span = self.tracer.start(
                "job", at=0.0, engine="local",
                n_tuples=len(workload.keys), workers=self.max_workers,
            )
        outputs: dict[int, Any] = {}
        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            futures = [
                pool.submit(self._run_partition, workload, values, part)
                for part in partitions
                if part
            ]
            for future in futures:
                outputs.update(future.result())
        duration = time.perf_counter() - start
        if job_span is not None:
            self.tracer.end(job_span, at=duration)
        if self.registry is not None:
            self.registry.counter("jobs.runs").inc()
            self.registry.counter("jobs.tuples").inc(len(workload.keys))
            self.registry.histogram("jobs.makespan").observe(duration)
        return BackendRun(
            engine="local",
            backend="local",
            outputs=outputs,
            duration=duration,
        )

    def _run_partition(
        self,
        workload: JoinWorkload,
        values: dict[Hashable, Any],
        tuple_ids: list[int],
    ) -> dict[int, Any]:
        udf = workload.udf
        keys = workload.keys
        params = workload.params
        outputs: dict[int, Any] = {}
        for at in range(0, len(tuple_ids), self.batch_size):
            for tuple_id in tuple_ids[at : at + self.batch_size]:
                key = keys[tuple_id]
                p = params[tuple_id] if params is not None else None
                outputs[tuple_id] = udf.apply(key, p, values[key])
        return outputs
