"""Simulated compute node: routing, batching, prefetching, local UDFs.

One :class:`ComputeNodeRuntime` models everything Figure 4 shows on the
compute side: the optimizer routing each tuple (Algorithm 1 or a fixed
strategy policy), per-data-node batch buffers, in-flight bookkeeping
(which doubles as the Appendix C statistics piggybacked on batches),
the local compute queue, and the tiered cache.

The runtime is event-driven: the job driver calls :meth:`submit` for
each input tuple (scheduled on the simulator), responses re-enter via
scheduled callbacks, and every completed tuple fires ``on_complete``.

All wire traffic — transmission, delivery faults, timeouts, retries
and replica fallback — goes through the shared runtime kernel
(:class:`repro.runtime.Transport`); this module keeps only the
engine-side policy: what to send, and what to do with each response.
"""

from __future__ import annotations

from collections import deque
from heapq import heapreplace
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterator

import numpy as np

from repro.cache.tiered import CacheTier, TieredCache
from repro.core.cost_model import CostModel
from repro.core.frequency import ExactCounter, LossyCounter
from repro.placement.batch import ComputeNodeStats, SizeProfile
from repro.core.optimizer import JoinLocationOptimizer, Route
from repro.core.smoothing import SmoothedValue
from repro.engine.batching import BatchBuffer
from repro.engine.requests import (
    BatchResponse,
    RequestItem,
    RequestKind,
    UDF,
)
from repro.perf.mode import reference_mode
from repro.engine.strategies import RoutingPolicy, StrategyConfig
from repro.faults.policy import FaultTolerance
from repro.obs.tracer import NO_TRACER, Span, Tracer
from repro.resilience.admission import (
    AdmissionController,
    TenantShare,
    WeightedFairAdmission,
)
from repro.resilience.hedging import HedgePolicy
from repro.resilience.options import ResilienceOptions
from repro.runtime.transport import Transport
from repro.sim.cluster import Cluster
from repro.store.datanode import DataNodeServer
from repro.store.kvstore import KVStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memory.budget import MemoryBudget
    from repro.tenancy.options import TenancyOptions


class _RowInfo:
    """What the compute node has learned about one stored row."""

    __slots__ = ("size", "compute_cost", "hydration_cost")

    def __init__(
        self, size: float, compute_cost: float, hydration_cost: float = 0.0
    ) -> None:
        self.size = size
        self.compute_cost = compute_cost
        self.hydration_cost = hydration_cost


class ComputeNodeRuntime:
    """The compute-node side of the join for one node.

    Parameters
    ----------
    cluster, node_id:
        The simulated node this runtime occupies.
    kvstore:
        Client handle to the parallel store (used for key routing).
    servers:
        Data-node servers by node id (the simulated RPC targets).
    udf:
        The user function being computed on join results.
    config:
        Strategy switches (NO/FC/FD/FR/CO/LO/FO).
    sizes:
        Average message sizes for batch statistics.
    on_complete:
        Callback ``(tuple_id, finish_time)`` fired per finished tuple.
    memory_cache_bytes:
        Memory-tier capacity of the local cache.
    batch_size, max_wait:
        Batching parameters (Section 7.2).
    expected_inputs:
        Total tuples this node will receive; needed to implement the
        non-adaptive freeze of Figure 9 (``config.adaptive_fraction``).
    seed:
        Seed for the FR coin and gradient-descent starting points.
    """

    def __init__(
        self,
        cluster: Cluster,
        node_id: int,
        kvstore: KVStore,
        servers: dict[int, DataNodeServer],
        udf: UDF,
        config: StrategyConfig,
        sizes: SizeProfile,
        on_complete: Callable[[int, float], None],
        memory_cache_bytes: float = 100e6,
        batch_size: int = 64,
        max_wait: float | None = None,
        expected_inputs: int | None = None,
        counter: LossyCounter | ExactCounter | None = None,
        fixed_threshold: float | None = None,
        reset_count_on_update: bool = True,
        update_notifications: bool = False,
        fault_tolerance: FaultTolerance | None = None,
        tracer: Tracer = NO_TRACER,
        obs_parent: Span | None = None,
        resilience: ResilienceOptions | None = None,
        tenancy: "TenancyOptions | None" = None,
        tenant_of: Callable[[int], str] | None = None,
        tenant_shares: dict[str, TenantShare] | None = None,
        budget: "MemoryBudget | None" = None,
        seed: int = 0,
    ) -> None:
        self.cluster = cluster
        self.node_id = node_id
        self.kvstore = kvstore
        self.servers = servers
        self.udf = udf
        self.config = config
        self.sizes = sizes
        self.on_complete = on_complete
        # Section 4.2.3: with notifications on, the data node records
        # which compute nodes cached each row and pushes a targeted
        # invalidation on update; otherwise staleness is detected via
        # the timestamps piggybacked on compute responses.
        self.update_notifications = update_notifications
        #: Span tracer and the job span routing/batch records nest under.
        self.tracer = tracer
        self.obs_parent = obs_parent
        self._node = cluster.node(node_id)
        self._rng = np.random.default_rng(seed)
        self._data_nodes = sorted(servers)
        bandwidths = {
            dn: cluster.network.effective_bandwidth(node_id, dn)
            for dn in self._data_nodes
        }
        local_disk_time = self._node.spec.cache_disk_time(sizes.value_size)
        self.cost_model = CostModel(node_id, bandwidths, local_disk_time)
        #: Per-node memory-budget arbiter (memory-adaptive execution);
        #: ``None`` keeps the cache unbudgeted and bit-identical.
        self.budget = budget
        self.cache = TieredCache(memory_bytes=memory_cache_bytes, budget=budget)
        self.optimizer: JoinLocationOptimizer | None = None
        if config.routing is RoutingPolicy.SKI_RENTAL:
            self.optimizer = JoinLocationOptimizer(
                self.cost_model, self.cache, counter=counter,
                fixed_threshold=fixed_threshold,
                reset_count_on_update=reset_count_on_update,
            )
        # Batch buffers per data node and request kind (Algorithm 1 routes
        # to distinct queues); unbatched, every item is a full batch.
        size = batch_size if config.batching else 1

        def make_buffers(kind: RequestKind) -> dict[int, BatchBuffer]:
            return {
                dn: BatchBuffer(
                    cluster.sim, size, self._make_flusher(dn, kind), max_wait
                )
                for dn in self._data_nodes
            }

        self._compute_buffers = make_buffers(RequestKind.COMPUTE)
        self._data_buffers = make_buffers(RequestKind.DATA)
        # Appendix C bookkeeping.
        self._pending_local = 0  # lcc_i
        self._inflight_data = 0  # ndrc_i
        self._inflight_compute: dict[int, int] = {dn: 0 for dn in self._data_nodes}
        #: Sum of ``_inflight_compute``, kept in step at every site that
        #: adjusts a per-node count (dispatch, abandon, response).
        self._inflight_compute_total = 0
        self._frac_computed: dict[int, SmoothedValue] = {
            dn: SmoothedValue(alpha=0.3, initial=1.0) for dn in self._data_nodes
        }
        self._tcc = SmoothedValue(alpha=0.3)
        # Learned row properties (independent of the optimizer so the
        # fixed strategies also know local execution costs).
        self._row_info: dict[Hashable, _RowInfo] = {}
        # In-flight data fetches: key -> waiting tuple ids.
        self._fetch_waiters: dict[Hashable, list[int]] = {}
        # Blocking (NO) machinery: one synchronous request in flight
        # per worker thread.  Engines run more I/O-blocked threads than
        # cores (a modest 2x here), but each thread still stalls for
        # its full fetch round trip — the inefficiency batching and
        # prefetching remove.
        self._input_queue: deque[tuple[int, Hashable]] = deque()
        self._free_workers = self._node.spec.cores * 2
        # Figure 9 freeze.
        self._submitted = 0
        self._freeze_after: int | None = None
        if expected_inputs is not None and config.adaptive_fraction < 1.0:
            self._freeze_after = int(expected_inputs * config.adaptive_fraction)
        self._completed = 0
        #: Real UDF results by tuple id (populated when the UDF has an
        #: ``apply_fn``; empty in pure-timing runs).
        self.outputs: dict[int, Any] = {}
        # ------------------------------------------------------------------
        # Wire traffic is the runtime kernel's job: the transport owns
        # idempotency tokens, delivery faults, timeouts with backoff,
        # same-id retries and replica fallback.  The engine plugs in
        # its policy via callbacks.
        # ------------------------------------------------------------------
        self.fault_tolerance = fault_tolerance
        self.transport = Transport(
            cluster,
            node_id,
            servers,
            sizes,
            key_size=udf.key_size,
            param_size=udf.param_size,
            comp_stats=(
                self._snapshot_stats if udf.side_effect_free else None
            ),
            on_response=self._on_batch_response,
            on_dispatch=self._on_dispatch,
            on_timeout=self.cost_model.observe_timeout,
            on_abandon=self._on_abandon,
            fault_tolerance=fault_tolerance,
            tracer=tracer,
        )
        # Exactly-once dispatch guard: under fallback, one tuple can be
        # reachable through two live paths (e.g. a fetch-waiter list
        # and a fallback response); the first dispatch wins.
        self._settled: set[int] = set()
        # ------------------------------------------------------------------
        # Resilience (opt-in; None wires nothing and stays bit-identical
        # to the pre-resilience runtime).
        # ------------------------------------------------------------------
        self.resilience = resilience
        self.admission: AdmissionController | None = None
        if resilience is not None and resilience.enabled:
            # Failover replay is exactly-once only for idempotent
            # requests; side-effecting UDFs ride out a dead primary on
            # same-id retries against its idempotency cache instead.
            self.transport.replay_on_failover = udf.side_effect_free
            if (
                resilience.hedging
                and udf.side_effect_free
                and len(self._data_nodes) > 1
            ):
                self.transport.hedge_policy = HedgePolicy(
                    quantile=resilience.hedge_quantile,
                    warmup=resilience.hedge_warmup,
                    min_delay=resilience.hedge_min_delay,
                )
            if resilience.admission and resilience.queue_bound is not None:
                self.admission = AdmissionController(
                    sim=cluster.sim,
                    bound=resilience.queue_bound,
                    dispatch=self._dispatch_admitted,
                    shed=self._shed,
                    deadline=resilience.shed_deadline,
                )
        # ------------------------------------------------------------------
        # Multi-tenant admission (opt-in; wins over the resilience
        # controller when both are configured).  ``fair=False`` wires
        # the plain global controller — the baseline the tenancy
        # benchmark compares the weighted-fair scheme against.
        # ------------------------------------------------------------------
        self.tenancy = tenancy
        if (
            tenancy is not None
            and tenancy.enabled
            and tenancy.queue_bound is not None
        ):
            if tenancy.fair:
                self.admission = WeightedFairAdmission(
                    sim=cluster.sim,
                    bound=tenancy.queue_bound,
                    dispatch=self._dispatch_admitted,
                    shed=self._shed,
                    deadline=tenancy.shed_deadline,
                    shares=tenant_shares,
                    tenant_of=tenant_of,
                    park_capacity=tenancy.park_capacity,
                )
            else:
                self.admission = AdmissionController(
                    sim=cluster.sim,
                    bound=tenancy.queue_bound,
                    dispatch=self._dispatch_admitted,
                    shed=self._shed,
                    deadline=tenancy.shed_deadline,
                    park_capacity=tenancy.park_capacity,
                )
        # ------------------------------------------------------------------
        # Optimized-mode fused submit: when the steady-state
        # configuration holds (ski-rental routing, non-blocking, no
        # adaptive freeze, side-effect-free UDF), per-tuple dispatch
        # skips the submit -> _route_and_dispatch -> node_for_key frame
        # chain.  The decision sequence and all side effects are
        # identical to the reference path.
        # ------------------------------------------------------------------
        self._recording = tracer.enabled
        self._dst_cache: dict[Hashable, int] = {}
        self._dst_gen = -1
        if (
            not reference_mode()
            and self.optimizer is not None
            and not config.blocking
            and self._freeze_after is None
            and udf.side_effect_free
        ):
            self.submit = self._submit_fast  # type: ignore[method-assign]

    def _submit_fast(
        self, tuple_id: int, key: Hashable, params: Any = None
    ) -> None:
        """Fused optimized-mode :meth:`submit` (see wiring above)."""
        self._submitted += 1
        region_map = self.kvstore.region_map
        if region_map.generation != self._dst_gen:
            self._dst_cache.clear()
            self._dst_gen = region_map.generation
            # Placement epoch advanced (migration/split/replica): the
            # cost model's memoized route costs key on it, so stale
            # entries invalidate on the next lookup.
            self.cost_model.observe_placement_epoch(region_map.generation)
            dst = None
        else:
            dst = self._dst_cache.get(key)
        if dst is None:
            if getattr(region_map, "elastic_active", False):
                # Hot-key read fan-in: readers spread across the
                # owner + replicas deterministically by node id.
                dst = region_map.route_for_key(key, self.node_id)
            else:
                dst = region_map.node_for_key(key)
            self._dst_cache[key] = dst
        assert self.optimizer is not None
        route, value = self.optimizer.route_fast(key, dst)
        if self._recording:
            self._record(tuple_id, key, route.value)
        if route is Route.LOCAL_MEMORY:
            self._execute_local_mem(tuple_id, key, value, params)
        elif route is Route.LOCAL_DISK:
            self._execute_local(tuple_id, key, CacheTier.DISK,
                                value=value, params=params)
        elif route is Route.COMPUTE_REQUEST:
            if self.admission is None:
                self._compute_buffers[dst].add(
                    RequestItem(key=key, kind=RequestKind.COMPUTE,
                                route=route, tuple_id=tuple_id, params=params)
                )
            else:
                self._enqueue(dst, tuple_id, key, RequestKind.COMPUTE,
                              route, params)
        else:
            self._enqueue_fetch(dst, tuple_id, key, route, params)

    # ------------------------------------------------------------------
    # Input
    # ------------------------------------------------------------------
    def submit(self, tuple_id: int, key: Hashable, params: Any = None) -> None:
        """Feed one input tuple (called at its arrival event).

        ``params`` is the tuple's extra UDF argument ``p``; it rides
        along on compute requests and is used for real UDF execution
        when the UDF defines ``apply_fn``.
        """
        self._submitted += 1
        if self.config.blocking:
            self._input_queue.append((tuple_id, key, params))
            self._dispatch_blocking()
            return
        self._route_and_dispatch(tuple_id, key, params)

    def buffers(self) -> Iterator[BatchBuffer]:
        """Every batch buffer of this node, compute queues first."""
        yield from self._compute_buffers.values()
        yield from self._data_buffers.values()

    def finish_input(self) -> None:
        """Flush every partially filled batch (end of a batch job)."""
        for buffer in self.buffers():
            buffer.flush()

    @property
    def completed(self) -> int:
        """Tuples fully processed by this node."""
        return self._completed

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _record(self, tuple_id: int, key: Hashable, route: str) -> None:
        if self.tracer.enabled:
            self.tracer.event(
                "route",
                parent=self.obs_parent,
                at=self.cluster.sim.now,
                node=self.node_id,
                tuple_id=tuple_id,
                key=key,
                route=route,
                frozen=self._frozen(),
            )

    def _dst_for(self, key: Hashable) -> int:
        """Serving node for a read of ``key`` under the current epoch."""
        region_map = self.kvstore.region_map
        if region_map.generation != self._dst_gen:
            self._dst_cache.clear()
            self._dst_gen = region_map.generation
            self.cost_model.observe_placement_epoch(region_map.generation)
        dst = self._dst_cache.get(key)
        if dst is None:
            if getattr(region_map, "elastic_active", False):
                dst = region_map.route_for_key(key, self.node_id)
            else:
                dst = region_map.node_for_key(key)
            self._dst_cache[key] = dst
        return dst

    def _route_and_dispatch(
        self, tuple_id: int, key: Hashable, params: Any = None
    ) -> None:
        if not self.udf.side_effect_free:
            # Side-effecting UDFs must run exactly once at the row's
            # owner: always a compute request, never cached, never
            # bounced (the batch omits the statistics the balancer
            # would need, so the data node executes everything) and
            # never served by a hot-key replica.
            dst = self.kvstore.node_for_key(key)
            self._record(tuple_id, key, Route.COMPUTE_REQUEST.value)
            self._enqueue(dst, tuple_id, key, RequestKind.COMPUTE,
                          Route.COMPUTE_REQUEST, params)
            return
        dst = self._dst_for(key)
        policy = self.config.routing
        if policy is RoutingPolicy.SKI_RENTAL:
            assert self.optimizer is not None
            if self._frozen():
                cached = self.cache.lookup(key)
                if cached is not None:
                    value, tier = cached
                    self._record(tuple_id, key,
                                 "local-memory" if tier is CacheTier.MEMORY
                                 else "local-disk")
                    self._execute_local(tuple_id, key, tier,
                                        value=value, params=params)
                else:
                    self._record(tuple_id, key, Route.COMPUTE_REQUEST.value)
                    self._enqueue(dst, tuple_id, key, RequestKind.COMPUTE,
                                  Route.COMPUTE_REQUEST, params)
                return
            decision = self.optimizer.route(key, dst)
            self._record(tuple_id, key, decision.route.value)
            if decision.route.is_local:
                tier = (
                    CacheTier.MEMORY
                    if decision.route is Route.LOCAL_MEMORY
                    else CacheTier.DISK
                )
                self._execute_local(tuple_id, key, tier,
                                    value=decision.value, params=params)
            elif decision.route is Route.COMPUTE_REQUEST:
                self._enqueue(dst, tuple_id, key, RequestKind.COMPUTE,
                              decision.route, params)
            else:
                self._enqueue_fetch(dst, tuple_id, key, decision.route, params)
            return
        if policy is RoutingPolicy.ALWAYS_COMPUTE:
            self._record(tuple_id, key, Route.COMPUTE_REQUEST.value)
            self._enqueue(dst, tuple_id, key, RequestKind.COMPUTE,
                          Route.COMPUTE_REQUEST, params)
        elif policy is RoutingPolicy.ALWAYS_DATA:
            self._record(tuple_id, key, Route.DATA_REQUEST_DISK.value)
            self._enqueue(dst, tuple_id, key, RequestKind.DATA,
                          Route.DATA_REQUEST_DISK, params)
        else:  # RANDOM (FR): fair coin per request.
            if self._rng.random() < 0.5:
                self._record(tuple_id, key, Route.COMPUTE_REQUEST.value)
                self._enqueue(dst, tuple_id, key, RequestKind.COMPUTE,
                              Route.COMPUTE_REQUEST, params)
            else:
                self._record(tuple_id, key, Route.DATA_REQUEST_DISK.value)
                self._enqueue(dst, tuple_id, key, RequestKind.DATA,
                              Route.DATA_REQUEST_DISK, params)

    def _frozen(self) -> bool:
        return self._freeze_after is not None and self._submitted > self._freeze_after

    def _enqueue(
        self, dst: int, tuple_id: int, key: Hashable, kind: RequestKind,
        route: Route, params: Any = None,
    ) -> None:
        if self.admission is not None and not self.admission.submit(
            dst, tuple_id, (key, kind, route, params)
        ):
            return  # parked; re-enters via _dispatch_admitted or _shed
        self._enqueue_direct(dst, tuple_id, key, kind, route, params)

    def _enqueue_direct(
        self, dst: int, tuple_id: int, key: Hashable, kind: RequestKind,
        route: Route, params: Any = None,
    ) -> None:
        item = RequestItem(key=key, kind=kind, route=route, tuple_id=tuple_id,
                           params=params)
        if kind is RequestKind.COMPUTE:
            self._compute_buffers[dst].add(item)
        else:
            self._data_buffers[dst].add(item)

    def _dispatch_admitted(self, dst: int, tuple_id: int, payload: Any) -> None:
        """Admission callback: a parked tuple won a freed slot."""
        key, kind, route, params = payload
        self._enqueue_direct(dst, tuple_id, key, kind, route, params)

    def _shed(self, dst: int, tuple_id: int, payload: Any) -> None:
        """Admission callback: a parked tuple hit its shed deadline.

        Shedding degrades rather than drops: per Section 5's linear
        load model the overloaded server's UDF queue is the bottleneck,
        so the tuple is forced onto the cheap route — fetch the raw
        bytes off disk and compute here — and dispatched outside the
        admission bound.  Side-effecting UDFs must not move off their
        owner, so they keep their original kind (deadline expiry then
        just ends the backpressure wait).
        """
        key, kind, route, params = payload
        if self.udf.side_effect_free and kind is RequestKind.COMPUTE:
            kind = RequestKind.DATA
            route = Route.DATA_REQUEST_DISK
        self._record(tuple_id, key, f"shed->{route.value}")
        self._enqueue_direct(dst, tuple_id, key, kind, route, params)

    def _admission_release(self, tuple_id: int) -> None:
        if self.admission is not None:
            self.admission.release(tuple_id)

    def _enqueue_fetch(
        self, dst: int, tuple_id: int, key: Hashable, route: Route,
        params: Any = None,
    ) -> None:
        """Issue a caching data request, deduplicating in-flight keys.

        Two tuples for the same key arriving before the fetch lands
        share one wire request (the Result HashMap of Figure 4 keys
        pending computations by item, so duplicates coalesce).
        """
        waiters = self._fetch_waiters.get(key)
        if waiters is not None:
            waiters.append((tuple_id, params))
            return
        self._fetch_waiters[key] = [(tuple_id, params)]
        self._enqueue(dst, tuple_id, key, RequestKind.DATA, route, params)

    # ------------------------------------------------------------------
    # Blocking (NO) mode
    # ------------------------------------------------------------------
    def _dispatch_blocking(self) -> None:
        while self._free_workers > 0 and self._input_queue:
            self._free_workers -= 1
            tuple_id, key, params = self._input_queue.popleft()
            self._route_and_dispatch(tuple_id, key, params)

    def _release_worker(self) -> None:
        if self.config.blocking:
            self._free_workers += 1
            self._dispatch_blocking()

    # ------------------------------------------------------------------
    # Local execution
    # ------------------------------------------------------------------
    def _execute_local(
        self,
        tuple_id: int,
        key: Hashable,
        tier: CacheTier | None,
        ready_at: float | None = None,
        hydrate: bool | None = None,
        value: Any = None,
        params: Any = None,
    ) -> None:
        """Run the UDF locally for one tuple.

        ``tier`` is where the value lives: DISK charges a local disk
        read before the CPU work; None means the value just arrived
        over the network (no storage access needed).  ``hydrate``
        forces/forgoes the deserialization cost; by default anything
        not already a live object in the memory cache hydrates.
        ``value``/``params`` enable real UDF execution when the UDF
        defines ``apply_fn``.
        """
        if tuple_id in self._settled:
            # Exactly-once: this tuple already completed (or is being
            # computed) through another path — e.g. its fetch-waiter
            # entry was served by a fallback response before the
            # original fetch landed.
            return
        self._settled.add(tuple_id)
        sim = self.cluster.sim
        at = sim.now if ready_at is None else ready_at
        info = self._row_info.get(key)
        if info is None:
            raise KeyError(
                f"local execution for {key!r} before its parameters are known"
            )
        start = at
        if tier is CacheTier.DISK:
            _s, start = self._node.disk.acquire(
                at, self._node.spec.cache_disk_time(info.size)
            )
        if hydrate is None:
            hydrate = tier is not CacheTier.MEMORY
        cpu_time = info.compute_cost + (info.hydration_cost if hydrate else 0.0)
        cpu_start, finish = self._node.cpu.acquire(start, cpu_time)
        if self.udf.apply_fn is not None:
            self.outputs[tuple_id] = self.udf.apply(key, params, value)
        self._pending_local += 1
        self._tcc.observe(cpu_time)
        # The local recurring-cost estimate is the *measured* wall time
        # per invocation (queueing included), matching how the remote
        # side reports its costs — both sides of the ski-rental
        # comparison see load the same way.
        self.cost_model.observe_local_compute(finish - start)

        def complete() -> None:
            self._pending_local -= 1
            self._completed += 1
            self._admission_release(tuple_id)
            self.on_complete(tuple_id, finish)
            self._release_worker()

        sim.schedule_at(finish, complete)

    def _execute_local_mem(
        self, tuple_id: int, key: Hashable, value: Any, params: Any
    ) -> None:
        """Fused memory-hit variant of :meth:`_execute_local`.

        Only reachable through :meth:`_submit_fast` (non-blocking,
        side-effect-free), so the worker-release hook is statically a
        no-op and the disk/hydration branches fall away; the simulated
        reservation, observations and completion sequence are the ones
        the general path would perform for ``tier=MEMORY``.
        """
        settled = self._settled
        if tuple_id in settled:
            return
        settled.add(tuple_id)
        sim = self.cluster.sim
        info = self._row_info.get(key)
        if info is None:
            raise KeyError(
                f"local execution for {key!r} before its parameters are known"
            )
        at = sim.now
        cpu_time = info.compute_cost + 0.0
        # Inlined Resource.acquire on the node CPU: peek the earliest
        # free server, then heapreplace the root with the new finish
        # (finish >= the popped min, so one sift-down call yields the
        # same multiset as pop+push).  Accounting matches acquire().
        cpu = self._node.cpu
        free = cpu._free
        earliest = free[0]
        start = earliest if earliest > at else at
        finish = start + cpu_time
        heapreplace(free, finish)
        cpu._requests += 1
        cpu._busy_time += cpu_time
        cpu._total_wait += start - at
        if finish > cpu._last_finish:
            cpu._last_finish = finish
        apply_fn = self.udf.apply_fn
        if apply_fn is not None:
            self.outputs[tuple_id] = apply_fn(key, params, value)
        self._pending_local += 1
        self._tcc.observe(cpu_time)
        self.cost_model.observe_local_compute(finish - at)
        admission = self.admission
        if admission is None:
            def complete() -> None:
                self._pending_local -= 1
                self._completed += 1
                self.on_complete(tuple_id, finish)
        else:
            def complete() -> None:
                self._pending_local -= 1
                self._completed += 1
                admission.release(tuple_id)
                self.on_complete(tuple_id, finish)

        sim.schedule_call(finish, complete)

    # ------------------------------------------------------------------
    # Batch send / receive (wire mechanics live in repro.runtime)
    # ------------------------------------------------------------------
    def _make_flusher(self, dst: int, kind: RequestKind):
        def flush(items: list[RequestItem]) -> None:
            if not self.tracer.enabled:
                self.transport.send(dst, kind, items)
                return
            # The batch span marks the buffer-to-wire handoff moment
            # (zero length); the transport's request span nests under
            # it, which keeps retries of the same batch together.
            now = self.cluster.sim.now
            span = self.tracer.start(
                "batch", parent=self.obs_parent, at=now,
                node=self.node_id, dst=dst,
                kind=kind.name, items=len(items),
            )
            self.tracer.end(span, at=now)
            self.transport.send(dst, kind, items, span_parent=span)

        return flush

    def _on_dispatch(
        self, dst: int, kind: RequestKind, items: list[RequestItem],
    ) -> None:
        """Transport hook: a new logical batch left this node."""
        n = len(items)
        if kind is RequestKind.COMPUTE:
            self._inflight_compute[dst] += n
            self._inflight_compute_total += n
            self._compute_buffers[dst].in_flight += 1
        else:
            self._inflight_data += n
            self._data_buffers[dst].in_flight += 1

    def _on_abandon(
        self, dst: int, kind: RequestKind, items: list[RequestItem],
    ) -> None:
        """Transport hook: a batch gave up on ``dst`` (replica fallback)."""
        n = len(items)
        if kind is RequestKind.COMPUTE:
            self._inflight_compute[dst] -= n
            self._inflight_compute_total -= n
            self._compute_buffers[dst].request_done()
        else:
            self._inflight_data -= n
            self._data_buffers[dst].request_done()

    def _on_batch_response(self, response: BatchResponse) -> None:
        """Process one matched response batch (transport already
        dropped duplicates and cancelled the retry timer)."""
        for item in response.items:
            self._row_info[item.key] = _RowInfo(
                size=item.cost_params.value_size,
                compute_cost=item.cost_params.service_time,
                hydration_cost=item.cost_params.hydration_time,
            )
            if item.route is Route.COMPUTE_REQUEST:
                self._inflight_compute[response.src] -= 1
                self._inflight_compute_total -= 1
                self._frac_computed[response.src].observe(1.0 if item.computed else 0.0)
            else:
                self._inflight_data -= 1
            if self.optimizer is not None:
                self.optimizer.observe_response(item.cost_params, item.updated_at)
            if item.computed:
                if item.tuple_id in self._settled:
                    continue  # exactly-once guard (see _execute_local)
                self._settled.add(item.tuple_id)
                if self.udf.apply_fn is not None:
                    self.outputs[item.tuple_id] = item.value
                self._completed += 1
                self._admission_release(item.tuple_id)
                self.on_complete(item.tuple_id, self.cluster.sim.now)
                self._release_worker()
                continue
            if item.route.is_data_request:
                self._complete_fetch(item)
            else:
                # Compute request bounced back by load balancing: the
                # value arrived uncomputed; run the UDF locally.
                self._execute_local(
                    item.tuple_id, item.key, tier=None,
                    value=item.value, params=item.params,
                )
        # The ack clock ticks last, once the completions above have refilled.
        compute = response.items[-1].route is Route.COMPUTE_REQUEST
        buffers = self._compute_buffers if compute else self._data_buffers
        buffers[response.src].request_done()

    def _complete_fetch(self, item) -> None:
        """A fetched value arrived: cache it and serve all waiters."""
        key = item.key
        if self.config.caching and self.optimizer is not None and not self._frozen():
            if item.route is Route.DATA_REQUEST_DISK:
                # Writing the fetched value into the disk cache costs a
                # disk write at the compute node.
                self._node.disk.acquire(
                    self.cluster.sim.now,
                    self._node.spec.cache_disk_time(item.cost_params.value_size),
                )
            self.optimizer.complete_fetch(key, item.value, item.route, item.updated_at)
            if self.update_notifications:
                self.kvstore.subscribe(
                    key,
                    subscriber_id=self.node_id,
                    listener=self._on_update_notification,
                )
        waiters = self._fetch_waiters.pop(key, [(item.tuple_id, item.params)])
        if all(tuple_id != item.tuple_id for tuple_id, _ in waiters):
            # A fallback fetch for a tuple that was never a fetch
            # waiter (it started life as a compute request): the value
            # serves the waiters *and* the fallback tuple itself.
            waiters = waiters + [(item.tuple_id, item.params)]
        for index, (tuple_id, params) in enumerate(waiters):
            # The value is in a network buffer right now; waiters
            # compute from memory regardless of the cache tier chosen.
            # Hydration happens once per fetch — the first waiter
            # deserializes; the live object serves the rest.
            self._execute_local(tuple_id, key, tier=None, hydrate=index == 0,
                                value=item.value, params=params)

    def _on_update_notification(self, key: Hashable, updated_at: float) -> None:
        """Targeted invalidation pushed by a data node (Section 4.2.3)."""
        if self.optimizer is not None:
            self.optimizer.updates.notify_update(key, updated_at)
        self._row_info.pop(key, None)

    # ------------------------------------------------------------------
    # Appendix C statistics
    # ------------------------------------------------------------------
    def _snapshot_stats(self, dst: int) -> ComputeNodeStats:
        """Per-batch piggyback: O(n_data) integer work, nothing per key."""
        inflight = self._inflight_compute
        expected_computed = queued_data = queued_compute = 0
        for dn in self._data_nodes:
            queued_data += len(self._data_buffers[dn])
            queued_compute += len(self._compute_buffers[dn])
            if dn != dst:
                expected_computed += int(
                    inflight[dn] * self._frac_computed[dn].value_or(1.0)
                )
        tcc = self._tcc
        return ComputeNodeStats(
            pending_local_computations=self._pending_local,
            pending_data_requests=queued_data,
            pending_compute_requests=queued_compute,
            pending_data_responses=self._inflight_data,
            pending_at_other_data_nodes=self._inflight_compute_total - inflight[dst],
            expected_computed_elsewhere=expected_computed,
            compute_time=tcc.value if tcc.initialized else self.sizes_compute_hint(),
            net_bandwidth=self.cluster.network.node_bandwidth(self.node_id),
        )

    def sizes_compute_hint(self) -> float:
        """Fallback ``tcc`` before any local execution has happened."""
        if self._row_info:
            costs = [info.compute_cost for info in self._row_info.values()]
            return sum(costs) / len(costs)
        return 0.0
