"""Job drivers: run a join workload through the simulated cluster.

:class:`JoinJob` wires together the store side (regions + data-node
servers) and the compute side (one :class:`ComputeNodeRuntime` per
compute node) and runs one body, whose input is either *pulled* or
*pushed*.  Pull (:meth:`JoinJob.run`) feeds each node through a bounded
pipeline window (the Map queue of Figure 4 is finite — routing
decisions interleave with responses, which is what lets ski-rental
observe access counts).  Push (:meth:`JoinJob.run_trace`) submits each
tuple at its arrival time, open loop.  Both report per-component metrics.

Batch jobs (Hadoop-style, Figure 5/8) report the **makespan**;
streaming jobs (Muppet-style, Figures 6/11) report **throughput** —
the paper's "number of input tuples processed per unit time" under
saturation feeding — or, pushed at a rate, per-tuple latency.

Compute nodes hold no join state — only transiently cached data — so
they can join or leave a running job (Section 1, contribution 3).  A
``membership`` schedule makes the input one *shared* queue: a joining
node starts pulling at once and warms its cache through the same
ski-rental decisions; a leaving node stops pulling, drains its in-flight
tuples and flushes its batches.  Nothing migrates.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from itertools import compress, count, repeat
from operator import is_not
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
from repro.obs.usage import (
    TRANSPORT_COUNTERS,
    percentile,
    publish_job_result,
    sum_counters,
)
from repro.placement import ElasticCoordinator, ElasticOptions, PlacementService
from repro.resilience.admission import TenantShare
from repro.resilience.manager import ResilienceManager
from repro.resilience.options import ResilienceOptions
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

    def latency_percentile(self, q: float) -> float:
        """Latency at percentile ``q`` in [0, 100]."""
        return percentile(self.latencies, q)

    @property
    def mean_latency(self) -> float:
        """Mean arrival-to-completion latency."""
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)


#: An output slot that no runtime has written yet.
EMPTY: Any = object()


@dataclass(frozen=True, eq=False)
class OutputView(Mapping[int, Any]):
    """Read-only ``tuple_id -> output`` over a job's slot list; it skips
    empty slots, and only a written slot's non-negative int id is a key."""

    slots: list[Any]

    def __getitem__(self, tuple_id: int) -> Any:
        if isinstance(tuple_id, int) and 0 <= tuple_id < len(self.slots):
            value = self.slots[tuple_id]
            if value is not EMPTY:
                return value
        raise KeyError(tuple_id)

    def __iter__(self) -> Iterator[int]:
        return compress(count(), map(is_not, self.slots, repeat(EMPTY)))

    def __len__(self) -> int:
        return sum(map(is_not, self.slots, repeat(EMPTY)))


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
    #: The latest run's results, one slot per tuple id (``EMPTY`` until
    #: written); every incarnation writes here.
    outputs: list[Any] = field(init=False, default_factory=list)
    budgets: dict[int, MemoryBudget] = field(init=False, default_factory=dict)
    injector: FaultInjector | None = field(init=False, default=None)
    resilience_manager: ResilienceManager | None = field(init=False, default=None)
    elastic_coordinator: ElasticCoordinator | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        if not self.compute_nodes or not self.data_nodes:
            raise ValueError("need at least one compute node and one data node")
        self.budgets = memory_budgets(
            self.memory, self.memory_cache_bytes,
            list(self.compute_nodes) + list(self.data_nodes),
        )
        self.kvstore, self.servers = build_data_side(
            self.cluster, self.data_nodes, self.table, self.udf, self.strategy,
            block_cache_bytes=self.block_cache_bytes,
            budgets=self.budgets, memory=self.memory, tracer=self.tracer,
            seed=self.seed, use_exact_balancer=self.use_exact_balancer,
        )
        self._completions = 0
        self._last_finish = 0.0
        self.runtimes = {}
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
        key_list = keys if isinstance(keys, Sequence) else list(keys)
        return self._execute(key_list, params, updates)

    def _execute(
        self,
        key_list: Sequence[Hashable],
        params: Sequence[Any] | None,
        updates: Sequence[tuple[float, Hashable, Any]] | None,
        arrivals: Sequence[float] | None = None,
        latencies: list[float] | None = None,
        **span_attrs: Any,
    ) -> JobResult:
        """The one run body.  The input is *pulled* through a bounded
        window per node (``arrivals`` is ``None``) or *pushed*: tuple
        ``i`` is submitted at ``arrivals[i]`` at its round-robin node,
        and its arrival-to-completion time lands in ``latencies[i]``.
        """
        n_tuples = len(key_list)
        if params is not None and len(params) != n_tuples:
            raise ValueError("params must align one-to-one with keys")
        if self.membership:
            if arrivals is not None:
                raise ValueError(
                    "a membership schedule needs the pull-mode input of "
                    "run(); timed arrivals are pushed at fixed nodes"
                )
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
        self.outputs = [EMPTY] * n_tuples
        sim = self.cluster.sim
        job_span = self.tracer.start(
            "job", at=sim.now, engine="engine", strategy=self.strategy.name,
            n_tuples=n_tuples, **span_attrs,
        )

        def on_complete(tuple_id: int, finish: float) -> None:
            self._completions += 1
            self._last_finish = max(self._last_finish, finish)
            if latencies is not None:
                latencies[tuple_id] = finish - arrivals[tuple_id]

        finish_times: list[float] = []
        feeders: list[_Feeder] = []
        pushed: list[ComputeNodeRuntime] = []
        if self.membership:
            # One shared queue: whoever is active pulls the next tuple.
            shared = deque(range(n_tuples))
            active: dict[int, _QueueFeeder] = {}

            def join(cn: int) -> _QueueFeeder:
                def on_member_complete(tuple_id: int, finish: float) -> None:
                    on_complete(tuple_id, finish)
                    finish_times.append(finish)
                    feeder.on_completion()

                runtime = self._make_runtime(cn, on_member_complete, job_span)
                feeder = active[cn] = _QueueFeeder(
                    runtime, key_list, params, shared, self.pipeline_window
                )
                return feeder

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
            # (Section 3.1).  Pushed tuples go to the same nodes.
            for index, cn in enumerate(self.compute_nodes):
                share = range(index, n_tuples, len(self.compute_nodes))
                runtime = self._make_runtime(
                    cn, on_complete, job_span, expected_inputs=len(share)
                )
                if arrivals is not None:
                    pushed.append(runtime)
                    continue
                feeder = _Feeder(
                    runtime, key_list, params, share, self.pipeline_window
                )
                feeders.append(feeder)

                # This runs once per tuple, so the job counters (as in
                # on_complete) and the window refill are one callback.
                def fused(
                    tuple_id: int, finish: float, _f=feeder, _j=self
                ) -> None:
                    _j._completions += 1
                    if finish > _j._last_finish:
                        _j._last_finish = finish
                    _f._outstanding -= 1
                    _f._feed()

                runtime.on_complete = fused

        if updates:
            def apply_update(i: int) -> None:
                time, key, new_value = updates[i]
                self.kvstore.update_value(key, new_value, at_time=time)

            sim.schedule_series([u[0] for u in updates], apply_update)

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
            coordinator = ElasticCoordinator(
                cluster=self.cluster,
                placement=self.kvstore.region_map,
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
        if arrivals is not None:
            def arrive(tuple_id: int) -> None:
                pushed[tuple_id % len(pushed)].submit(
                    tuple_id, key_list[tuple_id],
                    None if params is None else params[tuple_id],
                )

            sim.schedule_series(arrivals, arrive)
            if n_tuples:
                def flush_all() -> None:
                    for runtime in pushed:
                        runtime.finish_input()

                sim.schedule_at(arrivals[-1], flush_all)
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
        self.tracer.end(job_span, at=self._last_finish)
        return collect_result(
            self.cluster, self.strategy, n_tuples, self._last_finish,
            self.incarnations, list(self.servers.values()),
            self.budgets.values(), udfs=n_tuples, registry=self.registry,
            injector=self.injector, finish_times=finish_times,
            loops=(self.resilience_manager, self.elastic_coordinator),
        )

    def _make_runtime(
        self,
        cn: int,
        on_complete: Callable[[int, float], None],
        job_span: Span,
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
        runtime.outputs = self.outputs
        runtime._settled = bytearray(len(self.outputs))
        self.runtimes[cn] = runtime
        self.incarnations.append(runtime)
        return runtime

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

        The push mode of :meth:`run`'s body, and the general form of
        :meth:`run_at_rate` (which delegates here with evenly spaced
        arrivals): an explicit non-decreasing arrival-time sequence —
        e.g. a multi-tenant Poisson trace from ``repro.tenancy`` —
        optional per-tuple ``params``, and optional mid-run data-store
        ``updates`` as in :meth:`run`.  Latency is arrival to completion
        per tuple; there is no pipeline window and no backpressure on
        the source (open loop), which is exactly what admission control
        is for.
        """
        key_list = list(keys)
        n_tuples = len(key_list)
        if len(arrivals) != n_tuples:
            raise ValueError("arrivals must align one-to-one with keys")
        arrival_time = [float(t) for t in arrivals]
        if any(b < a for a, b in zip(arrival_time, arrival_time[1:])):
            raise ValueError("arrivals must be non-decreasing")
        if arrival_time and arrival_time[0] < 0:
            raise ValueError("arrivals must be non-negative")
        latencies: list[float] = [0.0] * n_tuples
        span_attrs = {} if arrival_rate is None else {"arrival_rate": arrival_rate}
        result = self._execute(
            key_list, params, updates, arrival_time, latencies, **span_attrs
        )
        if arrival_rate is None:
            horizon = arrival_time[-1] if arrival_time else 0.0
            arrival_rate = n_tuples / horizon if horizon > 0 else 0.0
        return RateRunResult(
            strategy=self.strategy.name,
            n_tuples=n_tuples,
            arrival_rate=arrival_rate,
            duration=result.makespan,
            latencies=latencies,
        )

    def collected_outputs(self) -> OutputView:
        """Real UDF results by tuple id (requires ``udf.apply_fn``).

        Because the function is side-effect free, the result for a
        tuple is identical whether it executed at a compute node, at a
        data node, or from cache — the locational-transparency
        invariant the tests verify.  This is a read-only view over the
        job's live slot list.  If two incarnations of a node complete
        one tuple, the write later in simulated time wins.
        """
        return OutputView(self.outputs)


#: HBase-style regions per data node: the hash partitioner splits the
#: key space into this many regions per node.
REGIONS_PER_NODE = 4


def memory_budgets(
    memory: MemoryOptions | None, default_limit: float, nodes: Iterable[int]
) -> dict[int, MemoryBudget]:
    """One budget arbiter per node, in ``nodes`` order (none without
    memory adaptation); the limit defaults to the cache budget."""
    if memory is None or not memory.enabled:
        return {}
    limit = memory.budget_bytes
    if limit is None:
        limit = default_limit
    return {node: MemoryBudget(limit, node_id=node) for node in nodes}


def build_data_side(
    cluster: Cluster, data_nodes: Sequence[int], table: Table, udf: UDF,
    strategy: StrategyConfig, *, block_cache_bytes: float,
    budgets: dict[int, MemoryBudget], memory: MemoryOptions | None,
    tracer: Tracer, seed: int,
    use_exact_balancer: bool = False, stage: int | None = None,
) -> tuple[KVStore, dict[int, DataNodeServer]]:
    """The store side of one join: :data:`REGIONS_PER_NODE` hash
    regions per data node placed round-robin, one
    :class:`DataNodeServer` with its own load balancer per data node,
    each armed with its node's budget when ``budgets`` has one.

    A pipeline builds one per join ``stage``; the stage number keeps
    its balancer seeds (``lb:{stage}:{dn}``) and build-side owners
    (``build-{stage}-{dn}``) apart from the other stages'.
    """
    partitioner = HashPartitioner(n_regions=REGIONS_PER_NODE * len(data_nodes))
    # Every layer consults this one epoch-stamped map; inert (no
    # coordinator) it behaves exactly like the static RegionMap.
    region_map = PlacementService.round_robin(partitioner, list(data_nodes))
    kvstore = KVStore(table, region_map)
    servers = {}
    for dn in data_nodes:
        if stage is None:
            lb_label, owner = f"lb:{dn}", f"build-{dn}"
        else:
            lb_label, owner = f"lb:{stage}:{dn}", f"build-{stage}-{dn}"
        server = servers[dn] = DataNodeServer(
            cluster=cluster,
            node_id=dn,
            kvstore=kvstore,
            udf=udf,
            balancer=BatchLoadBalancer(
                enabled=strategy.load_balancing,
                use_exact=use_exact_balancer,
                rng=np.random.default_rng(derive_seed(seed, lb_label)),
            ),
            block_cache_bytes=block_cache_bytes,
            tracer=tracer,
        )
        if dn in budgets:
            server.arm_memory(budgets[dn], memory, owner=owner)
    return kvstore, servers


def collect_result(
    cluster: Cluster, strategy: StrategyConfig, n_tuples: int, makespan: float,
    runtimes: Sequence[ComputeNodeRuntime], servers: Sequence[DataNodeServer],
    budgets: Iterable[MemoryBudget], *, udfs: int,
    registry: MetricsRegistry | None, injector: FaultInjector | None = None,
    finish_times: Iterable[float] = (), completed: dict[int, int] | None = None,
    loops: Iterable[Any] = (), counters: dict[str, float] | None = None,
) -> JobResult:
    """Build a finished job's :class:`JobResult` and publish it, with
    every control loop in ``loops`` and the memory counters (plus
    ``counters``), to the ambient registry and ``registry``: what lets
    the benchmark JSON hook attach routing and fault counters without
    per-tuple instrumentation.  ``udfs``: UDF executions asked for (the
    data nodes' are subtracted); ``completed``: tuples finished per
    compute node (default: each runtime's own count).
    """
    udfs_data = sum(server.udfs_executed for server in servers)
    mem_hits = disk_hits = cache_spills = 0
    compute_reqs = data_reqs = 0
    flushes: Counter[str] = Counter()
    per_node: Counter[int] = Counter()
    for runtime in runtimes:
        per_node[runtime.node_id] += runtime.completed
        stats = runtime.cache.stats()
        mem_hits += stats.memory_hits
        disk_hits += stats.disk_hits
        cache_spills += runtime.cache.budget_spills
        # The requests every router sent: the optimizer's counts plus
        # the fixed routers' tallies.
        compute_reqs += runtime.routed_compute
        data_reqs += runtime.routed_data
        if runtime.optimizer is not None:
            ostats = runtime.optimizer.stats()
            compute_reqs += ostats.compute_requests
            data_reqs += ostats.data_requests_memory + ostats.data_requests_disk
        for buffer in runtime.buffers():
            flushes.update(buffer.flush_counts)
    # The mean kept fraction of the balancers that decided anything.
    kept = [
        server.balancer.mean_kept_fraction
        for server in servers
        if server.balancer.decisions > 0
    ]
    wire = sum_counters(
        "transport", TRANSPORT_COUNTERS, (r.transport for r in runtimes)
    )
    # Failover can execute one tuple at two servers (the dead owner ran
    # it, then the replay ran it at the successor), so the derived
    # compute-side count must not go negative.
    result = JobResult(
        strategy=strategy.name,
        n_tuples=n_tuples,
        makespan=makespan,
        bytes_moved=cluster.network.bytes_moved,
        udfs_at_data_nodes=udfs_data,
        udfs_at_compute_nodes=max(0, udfs - udfs_data),
        cache_memory_hits=mem_hits,
        cache_disk_hits=disk_hits,
        compute_requests=compute_reqs,
        data_requests=data_reqs,
        lb_kept_fraction=sum(kept) / len(kept) if kept else 0.0,
        events=cluster.sim.events_processed,
        timeouts=wire["transport.timeouts"],
        retries=wire["transport.retries"],
        fallbacks=wire["transport.fallbacks"],
        duplicate_responses=wire["transport.duplicate_responses"],
        duplicate_requests=sum(server.duplicate_requests for server in servers),
        messages_faulted=injector.messages_faulted if injector else 0,
        completed_per_node=dict(per_node) if completed is None else completed,
        flushes=dict(flushes),
        completion_times=sorted(finish_times),
    )
    # Per-component memory-adaptation counters (none of them without
    # memory adaptation), summed per name when published.
    sources = [budget.counters() for budget in budgets]
    sources += [c for c in (s.memory_counters() for s in servers) if c]
    if cache_spills:
        sources.append({"cache_spills": float(cache_spills)})
    if counters:
        sources.append(counters)
    for reg in (ambient_registry(), registry):
        if reg is None:
            continue
        publish_job_result(result, reg)
        for loop in loops:
            if loop is not None:
                loop.publish(reg)
        publish_memory_counters(reg, *sources)
    return result


class _Feeder:
    """Bounded-window feeder of one compute node's share of tuple ids
    (keys and ``params`` are looked up per submit, never copied)."""

    def __init__(
        self,
        runtime: ComputeNodeRuntime,
        keys: Sequence[Hashable],
        params: Sequence[Any] | None,
        share: range,
        window: int,
    ) -> None:
        self.runtime = runtime
        self.keys = keys
        self.params = params
        self.share = share
        self.window = window
        #: The next tuple id to submit (``share`` walked by its step).
        self._next = share.start
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
        """Top the window up; counters are held in locals.

        ``submit`` never re-enters the feeder synchronously (all
        completions arrive through scheduled events), so the cursor and
        window count can be written back once after the loop.
        """
        keys = self.keys
        params = self.params
        stop = self.share.stop
        step = self.share.step
        tuple_id = self._next
        out = self._outstanding
        window = self.window
        submit = self.runtime.submit
        while tuple_id < stop and out < window:
            out += 1
            submit(tuple_id, keys[tuple_id],
                   None if params is None else params[tuple_id])
            tuple_id += step
        self._next = tuple_id
        self._outstanding = out
        if tuple_id >= stop and not self._finished_input:
            self._finished_input = True
            self.runtime.finish_input()


class _QueueFeeder(_Feeder):
    """Bounded-window feeder pulling from the job's shared input queue."""

    def __init__(
        self,
        runtime: ComputeNodeRuntime,
        keys: Sequence[Hashable],
        params: Sequence[Any] | None,
        pending: deque[int],
        window: int,
    ) -> None:
        super().__init__(runtime, keys, params, range(0), window)
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
        params = self.params
        while pending and self._outstanding < self.window:
            tuple_id = pending.popleft()
            self._outstanding += 1
            self.runtime.submit(tuple_id, self.keys[tuple_id],
                                None if params is None else params[tuple_id])
        if not pending and not self._finished_input:
            self._finished_input = True
            self.runtime.finish_input()
