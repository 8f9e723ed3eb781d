"""Simulated data-node server: disk fetches, UDF execution, balancing.

The server owns a node's disk and CPU resources for the store side of
the workload.  For every arriving :class:`~repro.engine.requests.BatchRequest`
it:

1. decides, via the :class:`~repro.placement.batch.BatchLoadBalancer`,
   how many of the batch's compute requests to execute locally (``d``)
   — the rest are answered with raw stored values,
2. reserves the disk for each row fetch ("disk access cost will be
   incurred at the data node" regardless of the decision, Section 5),
3. reserves the CPU for each locally executed UDF invocation,
4. assembles a :class:`~repro.engine.requests.BatchResponse` carrying,
   for every item, the row's cost parameters and update timestamp.

Queue counters needed by Appendix C's load formulas are maintained by
scheduling decrement events at each item's completion time.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from heapq import heapreplace
from typing import TYPE_CHECKING, Callable

from repro.core.cost_model import CostParameters
from repro.perf.mode import reference_mode
from repro.core.smoothing import SmoothedValue
from repro.placement.batch import (
    BatchLoadBalancer,
    ComputeNodeStats,
    DataNodeStats,
    SizeProfile,
)
from repro.placement.service import WrongRegion
from repro.obs.tracer import NO_TRACER, Span, Tracer
from repro.store.messages import (
    BatchRequest,
    BatchResponse,
    RequestItem,
    ResponseItem,
    UDF,
)
from repro.sim.cluster import Cluster, Node
from repro.store.kvstore import KVStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memory.hybrid_join import HybridHashJoin


@dataclass(frozen=True)
class ServedBatch:
    """Result of serving one request batch."""

    response: BatchResponse
    ready_at: float
    kept_at_data_node: int


class DataNodeServer:
    """Server-side request handling for one data node.

    Parameters
    ----------
    cluster:
        The simulated cluster (provides the node's resources and clock).
    node_id:
        Which node this server runs on.
    kvstore:
        The logical store holding this node's regions (shared object;
        routing guarantees only owned keys arrive here).
    udf:
        The user function to execute for compute requests.
    balancer:
        The load-balancing policy for compute batches.
    per_item_overhead:
        Fixed CPU seconds of request-handling overhead per item
        (serialization, dispatch); batching exists to amortize this
        (Section 7.2).
    """

    def __init__(
        self,
        cluster: Cluster,
        node_id: int,
        kvstore: KVStore,
        udf: UDF,
        balancer: BatchLoadBalancer | None = None,
        per_item_overhead: float = 0.00005,
        batched_seek_factor: float = 0.25,
        block_cache_bytes: float = 0.0,
        tracer: Tracer = NO_TRACER,
    ) -> None:
        if not 0.0 < batched_seek_factor <= 1.0:
            raise ValueError("batched_seek_factor must be in (0, 1]")
        if block_cache_bytes < 0:
            raise ValueError("block_cache_bytes must be non-negative")
        self.cluster = cluster
        self.node_id = node_id
        self.kvstore = kvstore
        self.udf = udf
        self.balancer = balancer if balancer is not None else BatchLoadBalancer()
        self.tracer = tracer
        self.per_item_overhead = per_item_overhead
        # Batched multi-gets within a region are served in key order,
        # so seeks after the first are short (elevator scheduling);
        # single unbatched gets pay the full random seek every time.
        # This is the disk-side benefit of batching (Section 7.2).
        self.batched_seek_factor = batched_seek_factor
        # HBase block cache: rows read while the cache has room are
        # served from memory on later reads.  Disabled by default —
        # the paper's big-store experiments deliberately exceed memory
        # — but essential for small, hot tables (TPC-DS dimensions).
        self.block_cache_bytes = block_cache_bytes
        self._block_cached: set = set()
        self._block_cache_used = 0.0
        #: HFile block size: one seek reads a whole block, so small
        #: adjacent rows share positioning costs (per-region read
        #: counters approximate block locality without sort order).
        self.block_bytes = 65536.0
        self._region_reads: dict[int, int] = defaultdict(int)
        self._node: Node = cluster.node(node_id)
        # Measured-over-service sojourn ratio of UDF executions here;
        # reported costs scale pure service by this, so compute nodes
        # see load-inflated "measured CPU time" exactly as a real
        # implementation timing its coprocessor calls would.
        self._sojourn_ratio = SmoothedValue(alpha=0.2, initial=1.0)
        # Appendix C queue counters.
        self._pending_data = 0  # ndc_j
        self._pending_compute: dict[int, int] = defaultdict(int)  # nrd_ij
        self._to_compute: dict[int, int] = defaultdict(int)  # rd_ij
        # Sums of the two dicts (nrd_j, rd_j), kept in step at every site
        # that adjusts them, so local_stats never scans the compute nodes.
        self._pending_compute_total = 0
        self._to_compute_total = 0
        # tcd: computed once on first use (see _udf_time_estimate), and
        # (placement generation, this node hosts a region) of the last look.
        self._tcd_cache: float | None = None
        self._has_regions: tuple[int, bool] = (-1, False)
        self._items_served = 0
        self._udfs_executed = 0
        # Idempotency: responses by request id.  A retried or
        # network-duplicated batch is answered from here — no UDF
        # re-execution, no disk work, no double-counting (the paper's
        # Section 9.1.1 restart observation, made a guarantee).
        self._response_cache: dict[str, BatchResponse] = {}
        self._duplicate_requests = 0
        # Straggler windows: (start, end, slowdown) factors scaling
        # every disk and CPU service time while active.
        self._slowdowns: list[tuple[float, float, float]] = []
        # Optimized-mode serving loop (batch invariants hoisted out of
        # the per-item body); reference mode keeps the per-item calls.
        self._fast_serve = not reference_mode()
        # Memory-adaptive execution (opt-in via :meth:`arm_memory`):
        # a budget-governed spilling hybrid-hash build side standing in
        # front of the disk.  ``None`` keeps serving bit-identical.
        self.hybrid: "HybridHashJoin | None" = None
        self._hybrid_keys: set = set()
        self._hybrid_hits = 0
        self._hybrid_unspills = 0

    # ------------------------------------------------------------------
    # Memory-adaptive execution
    # ------------------------------------------------------------------
    def arm_memory(self, budget, options, owner: str | None = None) -> None:
        """Install the budget-governed spilling build side.

        Rows read from disk enter a :class:`HybridHashJoin` charged
        against ``budget``; later reads of a memory-resident row skip
        the disk entirely, reads of a spilled row pay the (cheaper,
        sequential) unspill instead of a random read, and budget
        pressure spills whole partitions — degrading service latency
        gracefully instead of failing.  Spill/unspill traffic is priced
        as one seek plus the streamed bytes and reserved on this node's
        disk arm, so the cost shows up in makespans the same way every
        other disk access does.
        """
        from repro.memory.hybrid_join import HybridHashJoin

        spec = self._node.spec
        seek = spec.disk_seek * self.batched_seek_factor
        bandwidth = spec.disk_bandwidth

        def io_cost(nbytes: float, op: str) -> float:
            # Whole-partition spills are sequential: one short seek
            # plus the streamed bytes, both ways.
            return seek + nbytes / bandwidth

        self.hybrid = HybridHashJoin(
            budget=budget,
            n_partitions=options.join_partitions,
            max_recursion=options.max_recursion,
            owner=owner or f"build-{self.node_id}",
            io_cost=io_cost,
        )
        self._hybrid_keys = set()

    def memory_counters(self) -> dict[str, float]:
        """Hybrid build-side counters (``memory.*`` registry fodder)."""
        if self.hybrid is None:
            return {}
        counts = dict(self.hybrid.counters())
        counts["build_hits"] = self._hybrid_hits
        counts["build_unspill_reads"] = self._hybrid_unspills
        return counts

    def _hybrid_disk_arm(
        self, at: float, key, size: float, slow: float
    ) -> tuple[float, float] | None:
        """Serve ``key``'s disk step through the hybrid build side.

        Returns ``(disk_time, disk_done)``, or ``None`` when the hybrid
        has never seen the key (caller performs the normal disk read
        and then calls :meth:`_hybrid_admit`).
        """
        hybrid = self.hybrid
        assert hybrid is not None
        if key not in self._hybrid_keys:
            return None
        status, _values = hybrid.probe(key)
        if status == "hit":
            self._hybrid_hits += 1
            return 0.0, at
        # Spilled partition: pay the sequential unspill on the disk
        # arm (recursive repartitions included in the returned cost).
        _values, io = hybrid.fetch_spilled(key)
        self._hybrid_unspills += 1
        disk_time = io * slow
        _start, disk_done = self._node.disk.acquire(at, disk_time)
        return disk_time, disk_done

    def _hybrid_admit(self, key, size: float, disk_done: float, slow: float) -> float:
        """Insert a freshly read row; charge any spill it forced.

        Returns the disk-arm finish time (``disk_done`` extended by the
        spill write when the insert displaced a partition).
        """
        hybrid = self.hybrid
        assert hybrid is not None
        io = hybrid.insert(key, True, size)
        self._hybrid_keys.add(key)
        if io > 0.0:
            _start, disk_done = self._node.disk.acquire(disk_done, io * slow)
        return disk_done

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def add_slowdown(self, start: float, end: float, factor: float) -> None:
        """Make this node a straggler: scale service times by ``factor``
        during ``[start, end)``."""
        if factor < 1.0:
            raise ValueError("slowdown factor must be >= 1")
        if end <= start:
            raise ValueError("slowdown window must have positive length")
        self._slowdowns.append((start, end, factor))

    def speed_factor(self, at: float) -> float:
        """Service-time multiplier in effect at ``at`` (1.0 = healthy)."""
        factor = 1.0
        for start, end, slow in self._slowdowns:
            if start <= at < end:
                factor = max(factor, slow)
        return factor

    # ------------------------------------------------------------------
    # Statistics for the load balancer
    # ------------------------------------------------------------------
    def local_stats(self, src: int, sizes: SizeProfile) -> DataNodeStats:
        """Snapshot of this node's queues for a batch from ``src``."""
        at = self.cluster.sim.now
        # Pending outbound responses (ndrd_j): infer from the NIC tx
        # backlog — booked egress seconds translated back into
        # value-sized items.
        bw = self.cluster.network.node_bandwidth(self.node_id)
        tx_seconds = self.cluster.network.tx_backlog(self.node_id, at)
        item_bytes = max(sizes.value_size, 1.0)
        ndrd_j = int(tx_seconds * bw / item_bytes)
        return DataNodeStats(
            pending_data_requests=self._pending_data,
            pending_data_responses=ndrd_j,
            pending_compute_requests=self._pending_compute_total,
            to_compute_locally=self._to_compute_total,
            pending_from_this_compute_node=self._pending_compute[src],
            to_compute_from_this_compute_node=self._to_compute[src],
            compute_time=self._udf_time_estimate(),
            net_bandwidth=bw,
        )

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve(
        self,
        at: float,
        batch: BatchRequest,
        sizes: SizeProfile,
        parent_span: Span | None = None,
    ) -> ServedBatch:
        """Serve one batch arriving at time ``at``.

        Returns the response and the time at which it is fully
        assembled and ready to transfer back.  ``parent_span`` nests
        the ``serve`` span under the request that carried the batch.
        """
        if batch.dst != self.node_id:
            raise ValueError(
                f"batch addressed to node {batch.dst} arrived at node {self.node_id}"
            )
        span: Span | None = None
        if self.tracer.enabled:
            span = self.tracer.start(
                "serve", parent=parent_span, at=at,
                node=self.node_id, items=len(batch),
            )
        if batch.request_id is not None and batch.request_id in self._response_cache:
            # Idempotent replay: the work already happened; answer from
            # the response cache at request-handling overhead only.
            self._duplicate_requests += 1
            cached = self._response_cache[batch.request_id]
            _c, finish = self._node.cpu.acquire(
                at, self.per_item_overhead * max(len(batch), 1)
            )
            replay = replace(cached, replayed=True)
            if span is not None:
                self.tracer.end(span, at=finish, status="replayed")
            return ServedBatch(response=replay, ready_at=finish, kept_at_data_node=0)
        region_map = self.kvstore.region_map
        if getattr(region_map, "elastic_active", False):
            # Ownership check under the *current* placement epoch,
            # before any effect (no disk, no CPU, no response-cache
            # entry): a batch routed under a stale epoch gets a
            # WrongRegion redirect instead of a wrong answer.  The
            # current owner, a hot-key replica, or the pre-cutover
            # owner inside its double-serve window all pass.
            keys = [item.key for item in batch.compute_items]
            keys.extend(item.key for item in batch.data_items)
            owners, stalled = region_map.check_batch(keys, self.node_id, at)
            if owners:
                region_map.counters["redirects"] += 1
                if stalled:
                    region_map.counters["cutover_stalls"] += 1
                if span is not None:
                    self.tracer.end(span, at=at, status="wrong_region")
                raise WrongRegion(region_map.generation, owners, stalled)
        src = batch.src
        n_compute = len(batch.compute_items)
        self._pending_data += len(batch.data_items)
        self._pending_compute[src] += n_compute
        self._pending_compute_total += n_compute

        if n_compute > 0 and batch.comp_stats is not None:
            data_stats = self.local_stats(src, sizes)
            d = self.balancer.choose(n_compute, batch.comp_stats, data_stats, sizes)
        else:
            # Without piggybacked statistics the node cannot balance;
            # it executes everything it was asked to (FD behaviour).
            d = n_compute
        self._to_compute[src] += d
        self._to_compute_total += d

        batched = len(batch) > 1
        response_items: list[ResponseItem] = []
        if self._fast_serve:
            ready_at = self._serve_batch_fast(
                at, batch, d, src, n_compute, batched, response_items
            )
        else:
            ready_at = at
            done_kept, done_bounced, done_data = self._completion_callbacks(src)
            for index, item in enumerate(batch.compute_items):
                execute_here = index < d
                finish, resp = self._serve_item(
                    at, item, execute_here,
                    short_seek=batched and index > 0,
                )
                response_items.append(resp)
                if finish > ready_at:
                    ready_at = finish
                self.cluster.sim.schedule_at(
                    finish, done_kept if execute_here else done_bounced
                )
            for index, item in enumerate(batch.data_items):
                short = batched and (index > 0 or n_compute > 0)
                finish, resp = self._serve_item(
                    at, item, execute_here=False, short_seek=short,
                )
                response_items.append(resp)
                if finish > ready_at:
                    ready_at = finish
                self.cluster.sim.schedule_at(finish, done_data)

        response = BatchResponse(
            src=self.node_id, dst=src, items=response_items,
            request_id=batch.request_id,
        )
        self._items_served += len(batch)
        if batch.request_id is not None:
            self._response_cache[batch.request_id] = response
        if span is not None:
            self.tracer.end(span, at=ready_at, kept_at_data_node=d)
        return ServedBatch(response=response, ready_at=ready_at, kept_at_data_node=d)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def items_served(self) -> int:
        """Total request items handled."""
        return self._items_served

    @property
    def udfs_executed(self) -> int:
        """UDF invocations executed at this data node."""
        return self._udfs_executed

    @property
    def duplicate_requests(self) -> int:
        """Batches answered from the idempotency cache."""
        return self._duplicate_requests

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _serve_item(
        self,
        at: float,
        item: RequestItem,
        execute_here: bool,
        short_seek: bool,
    ) -> tuple[float, ResponseItem]:
        key = item.key
        row = self.kvstore.table.get_or_none(key)
        if row is None:
            raise KeyError(
                f"key {key!r} not found in table {self.kvstore.table.name!r}"
            )
        spec = self._node.spec
        # Straggler injection: a slowed node takes ``slow`` times longer
        # for every disk and CPU operation while the window is active.
        slow = self.speed_factor(at)
        if key in self._block_cached:
            # Block-cache hit: the row is already in server memory.
            disk_time = 0.0
            disk_done = at
        else:
            hybrid_step = (
                self._hybrid_disk_arm(at, key, row.size, slow)
                if self.hybrid is not None
                else None
            )
            if hybrid_step is not None:
                disk_time, disk_done = hybrid_step
            else:
                seek = spec.disk_seek * (
                    self.batched_seek_factor if short_seek else 1.0
                )
                if self.block_cache_bytes > 0:
                    # Rows much smaller than an HFile block share seeks:
                    # only every Nth uncached read in a region positions
                    # the head; the rest ride along in the same block.
                    rows_per_block = max(
                        int(self.block_bytes // max(row.size, 1.0)), 1
                    )
                    region = self.kvstore.region_map.region_of(key)
                    reads = self._region_reads[region]
                    self._region_reads[region] = reads + 1
                    if reads % rows_per_block != 0:
                        seek = 0.0
                disk_time = (seek + row.size / spec.disk_bandwidth) * slow
                _start, disk_done = self._node.disk.acquire(at, disk_time)
                if self._block_cache_used + row.size <= self.block_cache_bytes:
                    self._block_cached.add(key)
                    self._block_cache_used += row.size
                if self.hybrid is not None:
                    disk_done = self._hybrid_admit(
                        key, row.size, disk_done, slow
                    )
        service = self.udf.cost(row)
        if execute_here:
            # The coprocessor hydrates the stored bytes into a live
            # object for every invocation — unlike a compute node's
            # memory cache, nothing persists between calls.
            cpu_time = (row.hydration_cost + service + self.per_item_overhead) * slow
            _c, finish = self._node.cpu.acquire(disk_done, cpu_time)
            self._udfs_executed += 1
            # Runtime measurement: wall time per invocation, queueing
            # included — the signal that reveals an overloaded node.
            if cpu_time > 0:
                self._sojourn_ratio.observe((finish - disk_done) / cpu_time)
            payload = self.udf.result_size
            if self.udf.apply_fn is not None:
                # Real execution: the coprocessor computes f'(k, p, v).
                value = self.udf.apply(key, item.params, row.value)
            else:
                value = row.value  # timing sim: carry the raw value through
        else:
            _c, finish = self._node.cpu.acquire(
                disk_done, self.per_item_overhead * slow
            )
            payload = self.udf.key_size + row.size
            value = row.value
        ratio = max(self._sojourn_ratio.value, 1.0)
        params = CostParameters(
            key=key,
            value_size=row.size,
            compute_time=(service + row.hydration_cost) * ratio,
            disk_time=max(disk_done - at, disk_time),
            param_size=self.udf.param_size,
            key_size=self.udf.key_size,
            computed_size=self.udf.result_size,
            node_id=self.node_id,
            cpu_service_time=service,
            hydration_time=row.hydration_cost,
        )
        response = ResponseItem(
            key=key,
            tuple_id=item.tuple_id,
            route=item.route,
            computed=execute_here,
            value=value,
            payload_size=payload,
            cost_params=params,
            updated_at=row.updated_at,
            params=None if execute_here else item.params,
        )
        return finish, response

    def _serve_batch_fast(
        self,
        at: float,
        batch: BatchRequest,
        d: int,
        src: int,
        n_compute: int,
        batched: bool,
        response_items: list[ResponseItem],
    ) -> float:
        """Optimized-mode serving loop.

        The :meth:`_serve_item` body with the batch invariants hoisted
        out of the per-item path: the slowdown factor (every item sees
        the same arrival time), resource/heap handles, UDF callables
        and size constants.  Resource reservations use peek +
        ``heapreplace`` (same multiset as pop+push), queue decrements
        go through :meth:`Simulator.schedule_call` in identical event
        order, and every simulated quantity is computed with the
        reference expressions.
        """
        sim = self.cluster.sim
        schedule = sim.schedule_call
        table = self.kvstore.table
        table_get = table.get_or_none
        spec = self._node.spec
        slow = self.speed_factor(at)
        udf = self.udf
        cost_fn = udf.cost_fn
        apply_fn = udf.apply_fn
        overhead = self.per_item_overhead
        disk = self._node.disk
        cpu = self._node.cpu
        disk_free = disk._free
        cpu_free = cpu._free
        sr = self._sojourn_ratio
        sr_a = sr.alpha
        sr_b = 1.0 - sr_a
        bc_bytes = self.block_cache_bytes
        bc_on = bc_bytes > 0
        block_cached = self._block_cached
        full_seek = spec.disk_seek
        short_seek_time = full_seek * self.batched_seek_factor
        disk_bw = spec.disk_bandwidth
        done_kept, done_bounced, done_data = self._completion_callbacks(src)
        node_id = self.node_id
        key_size = udf.key_size
        param_size = udf.param_size
        result_size = udf.result_size
        append = response_items.append
        ready_at = at
        udfs = 0

        for compute_pass in (True, False):
            items = batch.compute_items if compute_pass else batch.data_items
            index = 0
            for item in items:
                key = item.key
                row = table_get(key)
                if row is None:
                    raise KeyError(
                        f"key {key!r} not found in table {table.name!r}"
                    )
                rsize = row.size
                hybrid_step = None
                if key in block_cached:
                    disk_time = 0.0
                    disk_done = at
                elif self.hybrid is not None and (
                    hybrid_step := self._hybrid_disk_arm(at, key, rsize, slow)
                ) is not None:
                    disk_time, disk_done = hybrid_step
                else:
                    if compute_pass:
                        short = batched and index > 0
                    else:
                        short = batched and (index > 0 or n_compute > 0)
                    seek = short_seek_time if short else full_seek
                    if bc_on:
                        rows_per_block = max(
                            int(self.block_bytes // max(rsize, 1.0)), 1
                        )
                        region = self.kvstore.region_map.region_of(key)
                        reads = self._region_reads[region]
                        self._region_reads[region] = reads + 1
                        if reads % rows_per_block != 0:
                            seek = 0.0
                    disk_time = (seek + rsize / disk_bw) * slow
                    earliest = disk_free[0]
                    dstart = earliest if earliest > at else at
                    disk_done = dstart + disk_time
                    heapreplace(disk_free, disk_done)
                    disk._requests += 1
                    disk._busy_time += disk_time
                    disk._total_wait += dstart - at
                    if disk_done > disk._last_finish:
                        disk._last_finish = disk_done
                    if self._block_cache_used + rsize <= bc_bytes:
                        block_cached.add(key)
                        self._block_cache_used += rsize
                    if self.hybrid is not None:
                        disk_done = self._hybrid_admit(
                            key, rsize, disk_done, slow
                        )
                service = cost_fn(row) if cost_fn is not None else row.compute_cost
                if compute_pass and index < d:
                    cpu_time = (row.hydration_cost + service + overhead) * slow
                    earliest = cpu_free[0]
                    cstart = earliest if earliest > disk_done else disk_done
                    finish = cstart + cpu_time
                    heapreplace(cpu_free, finish)
                    cpu._requests += 1
                    cpu._busy_time += cpu_time
                    cpu._total_wait += cstart - disk_done
                    if finish > cpu._last_finish:
                        cpu._last_finish = finish
                    udfs += 1
                    if cpu_time > 0:
                        x = (finish - disk_done) / cpu_time
                        sr._value = sr_a * x + sr_b * sr._value
                        sr._observations += 1
                    payload = result_size
                    if apply_fn is not None:
                        value = apply_fn(key, item.params, row.value)
                    else:
                        value = row.value
                    executed = True
                else:
                    cpu_time = overhead * slow
                    earliest = cpu_free[0]
                    cstart = earliest if earliest > disk_done else disk_done
                    finish = cstart + cpu_time
                    heapreplace(cpu_free, finish)
                    cpu._requests += 1
                    cpu._busy_time += cpu_time
                    cpu._total_wait += cstart - disk_done
                    if finish > cpu._last_finish:
                        cpu._last_finish = finish
                    payload = key_size + rsize
                    value = row.value
                    executed = False
                srv = sr._value
                ratio = srv if srv > 1.0 else 1.0
                waited = disk_done - at
                params = CostParameters(
                    key=key,
                    value_size=rsize,
                    compute_time=(service + row.hydration_cost) * ratio,
                    disk_time=waited if waited >= disk_time else disk_time,
                    param_size=param_size,
                    key_size=key_size,
                    computed_size=result_size,
                    node_id=node_id,
                    cpu_service_time=service,
                    hydration_time=row.hydration_cost,
                )
                append(
                    ResponseItem(
                        key=key,
                        tuple_id=item.tuple_id,
                        route=item.route,
                        computed=executed,
                        value=value,
                        payload_size=payload,
                        cost_params=params,
                        updated_at=row.updated_at,
                        params=None if executed else item.params,
                    )
                )
                if finish > ready_at:
                    ready_at = finish
                if compute_pass:
                    schedule(finish, done_kept if executed else done_bounced)
                else:
                    schedule(finish, done_data)
                index += 1
        self._udfs_executed += udfs
        return ready_at

    def _udf_time_estimate(self) -> float:
        """Average UDF time at this node (``tcd``) from stored rows.

        Uses the mean compute cost over this node's rows; cheap and
        stable, standing in for the runtime-measured smoothed value.
        """
        region_map = self.kvstore.region_map
        if self._has_regions[0] != region_map.generation:
            self._has_regions = (
                region_map.generation,
                bool(region_map.regions_on_node(self.node_id)),
            )
        if not self._has_regions[1]:
            return 0.0
        # Sampling every row each time would be quadratic; cache it.
        if self._tcd_cache is None:
            total, count = 0.0, 0
            for row in self.kvstore.table.rows():
                if region_map.node_for_key(row.key) == self.node_id:
                    total += self.udf.cost(row) + row.hydration_cost
                    count += 1
            self._tcd_cache = total / count if count else 0.0
        return self._tcd_cache

    def _completion_callbacks(self, src: int) -> tuple[Callable[[], None], ...]:
        """Queue-counter decrements for one batch from ``src``, built
        once per batch: a compute item executed here, a compute item
        bounced back, a data item.  Each keeps the per-source count and
        its running total in step."""
        pending, to_compute = self._pending_compute, self._to_compute

        def done_kept() -> None:
            pending[src] -= 1
            to_compute[src] -= 1
            self._pending_compute_total -= 1
            self._to_compute_total -= 1

        def done_bounced() -> None:
            pending[src] -= 1
            self._pending_compute_total -= 1

        def done_data() -> None:
            self._pending_data -= 1

        return done_kept, done_bounced, done_data
