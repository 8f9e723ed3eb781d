"""Job drivers: run a join workload through the simulated cluster.

:class:`JoinJob` wires together the store side (regions + data-node
servers) and the compute side (one :class:`ComputeNodeRuntime` per
compute node), feeds the input with a bounded pipeline window (the Map
queue of Figure 4 is finite — routing decisions interleave with
responses, which is what lets ski-rental observe access counts), and
reports completion time / throughput plus rich per-component metrics.

Batch jobs (Hadoop-style, Figure 5/8) report the **makespan**;
streaming jobs (Muppet-style, Figures 6/11) report **throughput** —
the paper's "number of input tuples processed per unit time" under
saturation feeding.

Compute nodes hold no join state — only transiently cached data — so
they can join or leave a running job (Section 1, contribution 3).  A
``membership`` schedule makes the input one *shared* queue: a joining
node starts pulling at once and warms its cache through the same
ski-rental decisions; a leaving node stops pulling, drains its in-flight
tuples and flushes its batches.  Nothing migrates.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Sequence

import numpy as np

from repro.core.frequency import ExactCounter, LossyCounter
from repro.placement.batch import BatchLoadBalancer, SizeProfile
from repro.engine.compute_node import ComputeNodeRuntime
from repro.engine.requests import UDF
from repro.engine.strategies import StrategyConfig
from repro.faults.injector import FaultInjector
from repro.faults.policy import FaultTolerance
from repro.faults.schedule import FaultSchedule
from repro.memory.budget import MemoryBudget, publish_memory_counters
from repro.memory.options import MemoryOptions
from repro.obs.registry import MetricsRegistry, ambient_registry
from repro.obs.tracer import NO_TRACER, Span, Tracer
from repro.obs.usage import publish_job_result
from repro.perf.mode import reference_mode
from repro.placement import ElasticCoordinator, ElasticOptions, PlacementService
from repro.resilience.admission import TenantShare
from repro.resilience.manager import ResilienceManager
from repro.resilience.options import ResilienceOptions
from repro.runtime.metrics import transport_stats
from repro.sim.cluster import Cluster
from repro.sim.rng import derive_seed
from repro.store.datanode import DataNodeServer
from repro.store.kvstore import KVStore
from repro.store.partitioner import HashPartitioner
from repro.store.table import Table
from repro.tenancy.options import TenancyOptions


@dataclass(frozen=True)
class MembershipEvent:
    """One planned change to the set of active compute nodes."""

    time: float
    action: str  # "add" | "remove"
    node_id: int

    def __post_init__(self) -> None:
        if self.action not in ("add", "remove"):
            raise ValueError(f"action must be 'add' or 'remove', got {self.action!r}")
        if self.time < 0:
            raise ValueError("time must be non-negative")


def replay_membership(
    compute_nodes: Sequence[int], events: Iterable[MembershipEvent]
) -> list[int]:
    """Check a membership schedule; returns the nodes active at time zero.

    A node whose first event is an "add" sits out until it fires; every
    other compute node runs from the start.  Replayed in time order over
    that set, an "add" must name an inactive node, a "remove" an active
    one, and some node must always be left to pull input.
    """
    ordered = sorted(events, key=lambda e: e.time)
    first_action: dict[int, str] = {}
    for event in ordered:
        if event.node_id not in compute_nodes:
            raise ValueError(
                f"membership event names node {event.node_id}, which is not "
                f"one of the compute nodes {list(compute_nodes)}"
            )
        first_action.setdefault(event.node_id, event.action)
    initial = [cn for cn in compute_nodes if first_action.get(cn) != "add"]
    active = set(initial)
    if not active:
        raise ValueError("membership schedule starts with no active compute node")
    for event in ordered:
        where = f"membership event at t={event.time:g}: node {event.node_id}"
        if event.action == "add":
            if event.node_id in active:
                raise ValueError(f"{where} is already active")
            active.add(event.node_id)
        else:
            if event.node_id not in active:
                raise ValueError(f"{where} is not active")
            active.remove(event.node_id)
            if not active:
                raise ValueError(f"{where} is the last active compute node")
    return initial


@dataclass(frozen=True)
class JobResult:
    """Outcome of one batch job run."""

    strategy: str
    n_tuples: int
    makespan: float
    bytes_moved: float
    udfs_at_data_nodes: int
    udfs_at_compute_nodes: int
    cache_memory_hits: int
    cache_disk_hits: int
    compute_requests: int
    data_requests: int
    lb_kept_fraction: float
    events: int
    #: Fault-handling counters (all zero on a healthy, timeout-free run).
    timeouts: int = 0
    retries: int = 0
    fallbacks: int = 0
    duplicate_responses: int = 0
    duplicate_requests: int = 0
    messages_faulted: int = 0
    #: Tuples finished at each compute node, summed over every
    #: incarnation of a node that left and rejoined.
    completed_per_node: dict[int, int] = field(default_factory=dict)
    #: Batches sent, by what flushed them (``engine.batching.FLUSH_CAUSES``).
    flushes: dict[str, int] = field(default_factory=dict)
    #: Sorted per-tuple finish times; recorded on membership runs only
    #: (what :meth:`throughput_in` reads).
    completion_times: list[float] = field(repr=False, default_factory=list)

    @property
    def throughput(self) -> float:
        """Input tuples processed per second."""
        if self.makespan <= 0:
            return 0.0
        return self.n_tuples / self.makespan

    def throughput_in(self, start: float, end: float) -> float:
        """Tuples/second completed within ``[start, end)``."""
        if end <= start:
            raise ValueError("end must exceed start")
        if len(self.completion_times) != self.n_tuples:
            raise ValueError("finish times are recorded on membership runs only")
        count = sum(1 for t in self.completion_times if start <= t < end)
        return count / (end - start)


@dataclass(frozen=True)
class StreamResult:
    """Outcome of one streaming run (same fields, throughput first-class)."""

    strategy: str
    n_tuples: int
    duration: float
    throughput: float
    bytes_moved: float


@dataclass(frozen=True)
class RateRunResult:
    """Outcome of a fixed-arrival-rate streaming run with latencies.

    Section 7.2: throughput wants large batches, latency wants small
    ones; ``max_wait`` is the knob.  This result carries the per-tuple
    latency distribution (arrival to completion) needed to see it.
    """

    strategy: str
    n_tuples: int
    arrival_rate: float
    duration: float
    latencies: list[float] = field(repr=False, default_factory=list)

    @property
    def throughput(self) -> float:
        """Achieved tuples/second over the whole run."""
        if self.duration <= 0:
            return 0.0
        return self.n_tuples / self.duration

    def latency_percentile(self, percentile: float) -> float:
        """Latency at ``percentile`` in [0, 100]."""
        if not 0.0 <= percentile <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        index = min(int(len(ordered) * percentile / 100.0), len(ordered) - 1)
        return ordered[index]

    @property
    def mean_latency(self) -> float:
        """Mean arrival-to-completion latency."""
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)


@dataclass
class JoinJob:
    """One configured join job over the simulated cluster.

    Parameters
    ----------
    cluster:
        The simulated hardware.
    compute_nodes, data_nodes:
        Node-id partitions (the paper's 10 + 10 split).  With a
        ``membership`` schedule, ``compute_nodes`` is every node that
        may ever take part.
    table:
        The stored, indexed join relation.
    udf:
        The user function computed per joined tuple.
    strategy:
        NO/FC/FD/FR/CO/LO/FO configuration.
    sizes:
        Average message sizes for load statistics.
    batch_size, max_wait:
        Batching parameters.  A partial batch waits for an answer from
        its data node (``engine/batching.py``); ``max_wait`` bounds
        that wait and is not needed for a batch job to finish.
    memory_cache_bytes:
        Memory cache per compute node (the paper limits it to 100 MB).
    pipeline_window:
        Maximum tuples in flight per compute node (Map queue depth).
    regions_per_node:
        HBase-style multiple regions per data node.
    membership:
        Mid-run compute-node additions/removals (see
        :func:`replay_membership` for who starts active).  Non-empty
        switches :meth:`run` from per-node input slices to one shared
        queue.
    exact_counting:
        Use exact counters instead of Lossy Counting (ablation).
    use_exact_balancer:
        Use the exact convex minimizer instead of gradient descent.
    seed:
        Root seed for all stochastic components.
    """

    cluster: Cluster
    compute_nodes: Sequence[int]
    data_nodes: Sequence[int]
    table: Table
    udf: UDF
    strategy: StrategyConfig
    sizes: SizeProfile
    batch_size: int = 64
    max_wait: float | None = 0.01
    memory_cache_bytes: float = 100e6
    pipeline_window: int = 256
    regions_per_node: int = 4
    block_cache_bytes: float = 0.0
    fixed_threshold: float | None = None
    reset_count_on_update: bool = True
    update_notifications: bool = False
    membership: Sequence[MembershipEvent] = ()
    exact_counting: bool = False
    use_exact_balancer: bool = False
    #: Deterministic fault plan (repro.faults); installed at job
    #: construction so crash windows, stragglers, chaos and update
    #: faults are armed before the first tuple moves.
    fault_schedule: FaultSchedule | None = None
    #: Retry/timeout/fallback configuration; without it a fault
    #: schedule that loses messages will stall the job (and ``run``
    #: will say so).
    fault_tolerance: FaultTolerance | None = None
    #: Span tracer threaded through every component (servers,
    #: transports, injector); the run opens one ``job`` root span.
    #: Routing decisions, injected faults and the engine's reactions
    #: are its events.
    tracer: Tracer = NO_TRACER
    #: Per-run metrics registry; results always also land in the
    #: process-wide ambient registry.
    registry: MetricsRegistry | None = None
    #: Opt-in failure detection / failover / hedging / admission
    #: control (repro.resilience).  ``None`` or ``enabled=False`` wires
    #: nothing and is bit-identical to a pre-resilience run.
    resilience: ResilienceOptions | None = None
    #: Opt-in elastic placement (repro.placement): region split/merge,
    #: live migration and hot-key replication driven by the frequency
    #: sketch.  ``None`` or ``enabled=False`` leaves the placement
    #: service inert — bit-identical to the static region map.
    elastic: ElasticOptions | None = None
    #: Opt-in memory-adaptive execution (repro.memory): per-node budget
    #: arbiters over the cache / build side / shuffle buffers, a
    #: spilling hybrid-hash build side at the data nodes, and the
    #: ``memory_pressure`` fault kind.  ``None`` or ``enabled=False``
    #: wires no budgets — bit-identical to an unbudgeted run.
    memory: MemoryOptions | None = None
    #: Opt-in multi-tenant admission (repro.tenancy): per-tenant
    #: weighted-fair queueing with quotas and charged sheds at every
    #: compute node.  ``None`` or ``enabled=False`` wires nothing and
    #: is bit-identical to a pre-tenancy run.
    tenancy: TenancyOptions | None = None
    #: ``tuple_id -> tenant name`` (required for fair admission to
    #: charge the right tenant; defaults to one shared tenant).
    tenant_of: Any = None
    #: Per-tenant weights/quotas/deadlines for fair admission.
    tenant_shares: dict[str, TenantShare] | None = None
    seed: int = 0
    kvstore: KVStore = field(init=False)
    servers: dict[int, DataNodeServer] = field(init=False)
    #: Latest runtime per compute node.
    runtimes: dict[int, ComputeNodeRuntime] = field(init=False)
    #: Every runtime of the latest run, in activation order: a node that
    #: leaves and rejoins gets a fresh runtime, and its first
    #: incarnation's outputs and counters still count.
    incarnations: list[ComputeNodeRuntime] = field(init=False, default_factory=list)
    budgets: dict[int, MemoryBudget] = field(init=False, default_factory=dict)
    injector: FaultInjector | None = field(init=False, default=None)
    resilience_manager: ResilienceManager | None = field(init=False, default=None)
    elastic_coordinator: ElasticCoordinator | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        if not self.compute_nodes or not self.data_nodes:
            raise ValueError("need at least one compute node and one data node")
        partitioner = HashPartitioner(
            n_regions=self.regions_per_node * len(self.data_nodes)
        )
        # Every layer consults this one epoch-stamped map; inert (no
        # coordinator) it behaves exactly like the static RegionMap.
        region_map = PlacementService.round_robin(partitioner, list(self.data_nodes))
        self.kvstore = KVStore(self.table, region_map)
        self.servers = {
            dn: DataNodeServer(
                cluster=self.cluster,
                node_id=dn,
                kvstore=self.kvstore,
                udf=self.udf,
                balancer=BatchLoadBalancer(
                    enabled=self.strategy.load_balancing,
                    use_exact=self.use_exact_balancer,
                    rng=np.random.default_rng(derive_seed(self.seed, f"lb:{dn}")),
                ),
                block_cache_bytes=self.block_cache_bytes,
                tracer=self.tracer,
            )
            for dn in self.data_nodes
        }
        self._completions = 0
        self._last_finish = 0.0
        self.runtimes = {}
        self.budgets = {}
        if self.memory is not None and self.memory.enabled:
            limit = self.memory.budget_bytes
            if limit is None:
                limit = self.memory_cache_bytes
            for node in list(self.compute_nodes) + list(self.data_nodes):
                self.budgets[node] = MemoryBudget(limit, node_id=node)
            for dn, server in self.servers.items():
                server.arm_memory(self.budgets[dn], self.memory)
        if self.fault_schedule is not None:
            self.injector = FaultInjector(self.fault_schedule, tracer=self.tracer)
            self.injector.install(
                self.cluster, servers=self.servers, kvstore=self.kvstore,
                budgets=self.budgets or None,
            )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        keys: Iterable[Hashable],
        updates: Sequence[tuple[float, Hashable, Any]] | None = None,
        params: Sequence[Any] | None = None,
    ) -> JobResult:
        """Run the job to completion over the input key stream.

        ``updates`` is an optional list of ``(time, key, new_value)``
        data-store updates applied mid-run (Section 4.2.3): cached
        copies are invalidated via timestamps piggybacked on responses
        or, with ``update_notifications``, via targeted pushes.

        ``params`` optionally supplies each tuple's extra UDF argument
        ``p`` (aligned with ``keys``); when the UDF defines
        ``apply_fn``, real results become available through
        :meth:`collected_outputs`.
        """
        key_list = list(keys)
        n_tuples = len(key_list)
        if params is not None and len(params) != n_tuples:
            raise ValueError("params must align one-to-one with keys")
        if self.membership:
            if self.strategy.adaptive_fraction < 1.0:
                raise ValueError(
                    "a membership schedule feeds one shared queue; the "
                    "Figure-9 freeze (adaptive_fraction < 1) needs each "
                    "node's expected input count"
                )
            starters = replay_membership(self.compute_nodes, self.membership)
        self._completions = 0
        self._last_finish = 0.0
        self.incarnations = []
        sim = self.cluster.sim
        job_span = None
        if self.tracer.enabled:
            job_span = self.tracer.start(
                "job",
                at=sim.now,
                engine="engine",
                strategy=self.strategy.name,
                n_tuples=n_tuples,
            )

        def on_complete(tuple_id: int, finish: float) -> None:
            self._completions += 1
            self._last_finish = max(self._last_finish, finish)

        finish_times: list[float] = []

        def on_member_complete(tuple_id: int, finish: float) -> None:
            on_complete(tuple_id, finish)
            finish_times.append(finish)

        # Optimized mode fuses a static run's per-tuple callback; the
        # shared queue keeps the plain chain (it is not a hot path).
        fused = not reference_mode() and not self.membership

        def chain(feeder: _Feeder) -> None:
            """Chain feeding onto completions so the pipeline window holds."""
            runtime = feeder.runtime
            original = runtime.on_complete

            if fused:
                # Inline the job counters and the feeder decrement into
                # one callback — this runs once per tuple.  Same
                # statement order as the chained reference closure below.
                def chained_fast(
                    tuple_id: int, finish: float, _f=feeder, _j=self
                ) -> None:
                    _j._completions += 1
                    if finish > _j._last_finish:
                        _j._last_finish = finish
                    _f._outstanding -= 1
                    _f.feed_fast()

                runtime.on_complete = chained_fast
                return

            def chained(tuple_id: int, finish: float, _f=feeder, _o=original) -> None:
                _o(tuple_id, finish)
                _f.on_completion()

            runtime.on_complete = chained

        items = [
            (tuple_id, key, params[tuple_id] if params is not None else None)
            for tuple_id, key in enumerate(key_list)
        ]
        feeders: list[_Feeder] = []
        if self.membership:
            # One shared queue: whoever is active pulls the next tuple.
            shared = deque(items)
            active: dict[int, _QueueFeeder] = {}

            def join(cn: int) -> _QueueFeeder:
                runtime = self._make_runtime(cn, on_member_complete, job_span)
                active[cn] = _QueueFeeder(runtime, shared, self.pipeline_window)
                chain(active[cn])
                return active[cn]

            def apply_membership(event: MembershipEvent) -> None:
                if event.action == "remove":
                    active.pop(event.node_id).retire()
                    return
                feeder = join(event.node_id)
                for loop in (self.resilience_manager, self.elastic_coordinator):
                    if loop is not None:
                        loop.attach(feeder.runtime)
                feeder.prime()

            feeders.extend(join(cn) for cn in starters)
            for event in sorted(self.membership, key=lambda e: e.time):
                sim.schedule_at(event.time, lambda e=event: apply_membership(e))
        else:
            # Round-robin input distribution across compute nodes — the
            # framework assumes the source balances compute-node load
            # (Section 3.1).
            for index, cn in enumerate(self.compute_nodes):
                share = items[index::len(self.compute_nodes)]
                runtime = self._make_runtime(
                    cn, on_complete, job_span, expected_inputs=len(share)
                )
                feeders.append(_Feeder(runtime, share, self.pipeline_window))
                chain(feeders[-1])

        for time, key, new_value in updates or ():
            def apply_update(k=key, v=new_value, t=time) -> None:
                self.kvstore.update_value(k, v, at_time=t)

            sim.schedule_at(time, apply_update)

        if self.resilience is not None and self.resilience.enabled:
            manager = ResilienceManager(
                cluster=self.cluster,
                options=self.resilience,
                data_nodes=list(self.data_nodes),
                monitor_node=min(self.compute_nodes),
                region_map=self.kvstore.region_map,
                tracer=self.tracer,
            )
            for runtime in self.incarnations:
                manager.attach(runtime)
            # Ticks gate on job progress so the event loop still drains.
            manager.start(active=lambda: self._completions < n_tuples)
            self.resilience_manager = manager

        if self.elastic is not None and self.elastic.enabled:
            region_map = self.kvstore.region_map
            if not isinstance(region_map, PlacementService):
                raise TypeError(
                    "elastic placement requires a PlacementService region map"
                )
            coordinator = ElasticCoordinator(
                cluster=self.cluster,
                placement=region_map,
                options=self.elastic,
                table=self.table,
                tracer=self.tracer,
                obs_parent=job_span,
            )
            for runtime in self.incarnations:
                coordinator.attach(runtime)
            coordinator.start(active=lambda: self._completions < n_tuples)
            self.elastic_coordinator = coordinator

        for feeder in feeders:
            feeder.prime()
        sim.run()

        if self._completions != n_tuples:
            hint = ""
            if self.fault_schedule is not None and (
                self.fault_tolerance is None or not self.fault_tolerance.enabled
            ):
                hint = (
                    " (a fault schedule is active but fault tolerance is "
                    "disabled; lost messages are never retried)"
                )
            raise RuntimeError(
                f"job stalled: {self._completions}/{n_tuples} tuples "
                f"completed{hint}"
            )
        if job_span is not None:
            self.tracer.end(job_span, at=self._last_finish)
        return self._collect(n_tuples, finish_times)

    def _make_runtime(
        self,
        cn: int,
        on_complete: Callable[[int, float], None],
        job_span: Span | None,
        expected_inputs: int | None = None,
    ) -> ComputeNodeRuntime:
        """Assemble one compute-node runtime from the job's options."""
        runtime = ComputeNodeRuntime(
            cluster=self.cluster,
            node_id=cn,
            kvstore=self.kvstore,
            servers=self.servers,
            udf=self.udf,
            config=self.strategy,
            sizes=self.sizes,
            on_complete=on_complete,
            memory_cache_bytes=self.memory_cache_bytes,
            batch_size=self.batch_size,
            max_wait=self.max_wait,
            expected_inputs=expected_inputs,
            counter=ExactCounter() if self.exact_counting else LossyCounter(1e-4),
            fixed_threshold=self.fixed_threshold,
            reset_count_on_update=self.reset_count_on_update,
            update_notifications=self.update_notifications,
            fault_tolerance=self.fault_tolerance,
            tracer=self.tracer,
            obs_parent=job_span,
            resilience=self.resilience,
            tenancy=self.tenancy,
            tenant_of=self.tenant_of,
            tenant_shares=self.tenant_shares,
            budget=self.budgets.get(cn),
            seed=derive_seed(self.seed, f"cn:{cn}"),
        )
        rejoins = sum(1 for earlier in self.incarnations if earlier.node_id == cn)
        if rejoins:
            # Request ids are "<node>:<seq>" and the data nodes keep an
            # idempotency cache by id: a rejoining node restarting at
            # seq 0 would be answered with its first incarnation's
            # responses.  Each incarnation gets its own id range.
            runtime.transport._rid_seq = rejoins << 32
        self.runtimes[cn] = runtime
        self.incarnations.append(runtime)
        return runtime

    def run_streaming(self, keys: Iterable[Hashable]) -> StreamResult:
        """Saturation-feed the stream and report throughput."""
        result = self.run(keys)
        return StreamResult(
            strategy=result.strategy,
            n_tuples=result.n_tuples,
            duration=result.makespan,
            throughput=result.throughput,
            bytes_moved=result.bytes_moved,
        )

    def run_at_rate(
        self, keys: Iterable[Hashable], arrivals_per_second: float
    ) -> RateRunResult:
        """Feed tuples at a fixed arrival rate and measure latency.

        Unlike :meth:`run` there is no pipeline window: tuple ``i``
        arrives at ``i / rate`` seconds and its latency is the time
        from arrival to completion — the quantity the max-wait batching
        knob trades against throughput (Section 7.2).
        """
        if arrivals_per_second <= 0:
            raise ValueError("arrivals_per_second must be positive")
        key_list = list(keys)
        arrival_time = [
            i / arrivals_per_second for i in range(len(key_list))
        ]
        return self.run_trace(
            key_list, arrival_time, arrival_rate=arrivals_per_second
        )

    def run_trace(
        self,
        keys: Iterable[Hashable],
        arrivals: Sequence[float],
        params: Sequence[Any] | None = None,
        updates: Sequence[tuple[float, Hashable, Any]] | None = None,
        arrival_rate: float | None = None,
    ) -> RateRunResult:
        """Open-loop run: tuple ``i`` arrives at ``arrivals[i]`` seconds.

        The general form of :meth:`run_at_rate` (which delegates here
        with evenly spaced arrivals): an explicit non-decreasing
        arrival-time sequence — e.g. a multi-tenant Poisson trace from
        ``repro.tenancy`` — optional per-tuple ``params``, and optional
        mid-run data-store ``updates`` as in :meth:`run`.  Latency is
        arrival to completion per tuple; there is no pipeline window
        and no backpressure on the source (open loop), which is exactly
        what admission control is for.
        """
        if self.membership:
            raise ValueError(
                "a membership schedule needs the pull-mode input of run(); "
                "timed arrivals are pushed at fixed nodes"
            )
        key_list = list(keys)
        n_tuples = len(key_list)
        if len(arrivals) != n_tuples:
            raise ValueError("arrivals must align one-to-one with keys")
        if params is not None and len(params) != n_tuples:
            raise ValueError("params must align one-to-one with keys")
        arrival_time = [float(t) for t in arrivals]
        if any(b < a for a, b in zip(arrival_time, arrival_time[1:])):
            raise ValueError("arrivals must be non-decreasing")
        if arrival_time and arrival_time[0] < 0:
            raise ValueError("arrivals must be non-negative")
        job_span = None
        if self.tracer.enabled:
            span_attrs: dict[str, Any] = dict(
                engine="engine",
                strategy=self.strategy.name,
                n_tuples=n_tuples,
            )
            if arrival_rate is not None:
                span_attrs["arrival_rate"] = arrival_rate
            job_span = self.tracer.start(
                "job", at=self.cluster.sim.now, **span_attrs
            )
        latencies: list[float] = [0.0] * n_tuples
        last_finish = 0.0
        completions = 0

        def on_complete(tuple_id: int, finish: float) -> None:
            nonlocal last_finish, completions
            completions += 1
            last_finish = max(last_finish, finish)
            latencies[tuple_id] = finish - arrival_time[tuple_id]

        self.incarnations = []
        runtimes = {
            cn: self._make_runtime(cn, on_complete, job_span)
            for cn in self.compute_nodes
        }
        sim = self.cluster.sim
        for time, key, new_value in updates or ():
            def apply_update(k=key, v=new_value, t=time) -> None:
                self.kvstore.update_value(k, v, at_time=t)

            sim.schedule_at(time, apply_update)
        for tuple_id, key in enumerate(key_list):
            target = self.compute_nodes[tuple_id % len(self.compute_nodes)]
            p = params[tuple_id] if params is not None else None
            sim.schedule_at(
                arrival_time[tuple_id],
                lambda tid=tuple_id, k=key, cn=target, pp=p: (
                    runtimes[cn].submit(tid, k, pp)
                ),
            )
        if n_tuples:
            last_arrival = arrival_time[-1]

            def flush_all() -> None:
                for runtime in runtimes.values():
                    runtime.finish_input()

            sim.schedule_at(last_arrival, flush_all)
        sim.run()
        if completions != n_tuples:
            raise RuntimeError(
                f"rate run stalled: {completions}/{n_tuples} tuples completed"
            )
        if job_span is not None:
            self.tracer.end(job_span, at=last_finish)
        if arrival_rate is None:
            horizon = arrival_time[-1] if arrival_time else 0.0
            arrival_rate = n_tuples / horizon if horizon > 0 else 0.0
        return RateRunResult(
            strategy=self.strategy.name,
            n_tuples=n_tuples,
            arrival_rate=arrival_rate,
            duration=last_finish,
            latencies=latencies,
        )

    def collected_outputs(self) -> dict[int, Any]:
        """Real UDF results by tuple id (requires ``udf.apply_fn``).

        Because the function is side-effect free, the result for a
        tuple is identical whether it executed at a compute node, at a
        data node, or from cache — the locational-transparency
        invariant the tests verify.
        """
        merged: dict[int, Any] = {}
        for runtime in self.incarnations:
            merged.update(runtime.outputs)
        return merged

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _collect(self, n_tuples: int, finish_times: list[float]) -> JobResult:
        udfs_data = sum(server.udfs_executed for server in self.servers.values())
        mem_hits = disk_hits = compute_reqs = data_reqs = 0
        completed: dict[int, int] = {}
        for runtime in self.incarnations:
            completed[runtime.node_id] = (
                completed.get(runtime.node_id, 0) + runtime.completed
            )
            stats = runtime.cache.stats()
            mem_hits += stats.memory_hits
            disk_hits += stats.disk_hits
            if runtime.optimizer is not None:
                ostats = runtime.optimizer.stats()
                compute_reqs += ostats.compute_requests
                data_reqs += (
                    ostats.data_requests_memory + ostats.data_requests_disk
                )
        # Failover can execute one tuple at two servers (the dead owner
        # ran it, then the replay ran it at the successor), so the
        # derived compute-side count must not go negative.
        udfs_compute = max(0, n_tuples - udfs_data)
        kept = [
            server.balancer.mean_kept_fraction
            for server in self.servers.values()
            if server.balancer.decisions > 0
        ]
        wire = transport_stats(r.transport for r in self.incarnations)
        dup_requests = sum(
            server.duplicate_requests for server in self.servers.values()
        )
        flushes: Counter[str] = Counter()
        for runtime in self.incarnations:
            for buffer in runtime.buffers():
                flushes.update(buffer.flush_counts)
        result = JobResult(
            strategy=self.strategy.name,
            n_tuples=n_tuples,
            makespan=self._last_finish,
            bytes_moved=self.cluster.network.bytes_moved,
            udfs_at_data_nodes=udfs_data,
            udfs_at_compute_nodes=udfs_compute,
            cache_memory_hits=mem_hits,
            cache_disk_hits=disk_hits,
            compute_requests=compute_reqs,
            data_requests=data_reqs,
            lb_kept_fraction=sum(kept) / len(kept) if kept else 0.0,
            events=self.cluster.sim.events_processed,
            timeouts=wire.timeouts,
            retries=wire.retries,
            fallbacks=wire.fallbacks,
            duplicate_responses=wire.duplicate_responses,
            duplicate_requests=dup_requests,
            messages_faulted=(
                self.injector.messages_faulted if self.injector else 0
            ),
            completed_per_node=completed,
            flushes=dict(flushes),
            completion_times=sorted(finish_times),
        )
        # Every finished job lands in the ambient obs pipeline — this
        # is what lets the benchmark JSON hook attach routing and fault
        # counters without any per-tuple instrumentation.
        sources = self._memory_counter_sources() if self.budgets else None
        for registry in (ambient_registry(), self.registry):
            if registry is None:
                continue
            publish_job_result(result, registry)
            for loop in (self.resilience_manager, self.elastic_coordinator):
                if loop is not None:
                    loop.publish(registry)
            if sources is not None:
                publish_memory_counters(registry, *sources)
        return result

    def _memory_counter_sources(self) -> list[dict[str, float]]:
        """Per-component memory-adaptation counters to merge."""
        sources: list[dict[str, float]] = [
            budget.counters() for budget in self.budgets.values()
        ]
        for server in self.servers.values():
            counts = server.memory_counters()
            if counts:
                sources.append(counts)
        cache_spills = sum(
            runtime.cache.budget_spills for runtime in self.incarnations
        )
        if cache_spills:
            sources.append({"cache_spills": float(cache_spills)})
        for runtime in self.incarnations:
            count, nbytes, seconds = runtime.cost_model.spills_charged
            if count:
                sources.append({
                    "spills": float(count),
                    "spill_bytes": nbytes,
                    "spill_seconds": seconds,
                })
        return sources


class _Feeder:
    """Bounded-window input feeder for one compute node."""

    def __init__(
        self,
        runtime: ComputeNodeRuntime,
        items: list[tuple[int, Hashable, Any]],
        window: int,
    ) -> None:
        self.runtime = runtime
        self.items = items
        self.window = window
        self._next = 0
        self._outstanding = 0
        self._finished_input = False

    def prime(self) -> None:
        """Initial fill at time zero."""
        self._feed()

    def on_completion(self) -> None:
        """One tuple finished: top the window back up."""
        self._outstanding -= 1
        self._feed()

    def _feed(self) -> None:
        while self._next < len(self.items) and self._outstanding < self.window:
            tuple_id, key, params = self.items[self._next]
            self._next += 1
            self._outstanding += 1
            self.runtime.submit(tuple_id, key, params)
        if self._next >= len(self.items) and not self._finished_input:
            self._finished_input = True
            self.runtime.finish_input()

    def feed_fast(self) -> None:
        """Optimized-mode :meth:`_feed`: counters held in locals.

        ``submit`` never re-enters the feeder synchronously (all
        completions arrive through scheduled events), so the cursor and
        window count can be written back once after the loop.
        """
        items = self.items
        n = len(items)
        nxt = self._next
        out = self._outstanding
        window = self.window
        submit = self.runtime.submit
        while nxt < n and out < window:
            tuple_id, key, params = items[nxt]
            nxt += 1
            out += 1
            submit(tuple_id, key, params)
        self._next = nxt
        self._outstanding = out
        if nxt >= n and not self._finished_input:
            self._finished_input = True
            self.runtime.finish_input()


class _QueueFeeder(_Feeder):
    """Bounded-window feeder pulling from the job's shared input queue."""

    def __init__(
        self,
        runtime: ComputeNodeRuntime,
        pending: deque[tuple[int, Hashable, Any]],
        window: int,
    ) -> None:
        super().__init__(runtime, [], window)
        self.pending = pending
        self._retired = False

    def retire(self) -> None:
        """Stop pulling new work; what is in flight drains."""
        self._retired = True
        self.runtime.finish_input()

    def _feed(self) -> None:
        if self._retired:
            return
        pending = self.pending
        while pending and self._outstanding < self.window:
            tuple_id, key, params = pending.popleft()
            self._outstanding += 1
            self.runtime.submit(tuple_id, key, params)
        if not pending and not self._finished_input:
            self._finished_input = True
            self.runtime.finish_input()
