"""Unit-level tests of the compute-node runtime internals."""

from collections import Counter

import pytest

from repro.core.cost_model import CostParameters
from repro.core.optimizer import Route
from repro.placement.batch import BatchLoadBalancer, SizeProfile
from repro.engine.batching import HOLD_DEPTH
from repro.engine.compute_node import ComputeNodeRuntime, _RowInfo
from repro.engine.job import JoinJob
from repro.engine.strategies import Strategy
from repro.faults import CrashFault, FaultSchedule, FaultTolerance, MessageChaos
from repro.sim.cluster import Cluster
from repro.store.datanode import DataNodeServer
from repro.store.kvstore import KVStore
from repro.store.messages import UDF, BatchResponse, RequestItem, ResponseItem
from repro.store.partitioner import HashPartitioner, RegionMap
from repro.store.table import Row, Table
from repro.workloads.synthetic import SyntheticWorkload

from tests.reference_paths import use_reference_paths


def build_runtime(strategy, n_keys=40, value_size=1000.0, compute_cost=0.001,
                  batch_size=4, max_wait=0.005, data_nodes=(1,), **kwargs):
    """Compute node 0 over ``data_nodes``; returns the first one's server."""
    cluster = Cluster.homogeneous(1 + len(data_nodes))
    table = Table("t")
    for key in range(n_keys):
        table.put(Row(key=key, value=f"v{key}", size=value_size,
                      compute_cost=compute_cost))
    region_map = RegionMap.round_robin(HashPartitioner(4), list(data_nodes))
    kvstore = KVStore(table, region_map)
    udf = UDF(result_size=64.0, param_size=64.0, key_size=8.0)
    servers = {
        dn: DataNodeServer(
            cluster, dn, kvstore, udf,
            balancer=BatchLoadBalancer(enabled=strategy.load_balancing),
        )
        for dn in data_nodes
    }
    sizes = SizeProfile(key_size=8.0, param_size=64.0, value_size=value_size,
                        computed_size=64.0)
    completions = []
    runtime = ComputeNodeRuntime(
        cluster=cluster,
        node_id=0,
        kvstore=kvstore,
        servers=servers,
        udf=udf,
        config=strategy,
        sizes=sizes,
        on_complete=lambda tid, finish: completions.append((tid, finish)),
        memory_cache_bytes=1e6,
        batch_size=batch_size,
        max_wait=max_wait,
        **kwargs,
    )
    return cluster, runtime, servers[data_nodes[0]], completions


def drain(cluster, runtime, n):
    runtime.finish_input()
    cluster.sim.run()
    assert runtime.completed == n


class TestRoutingDispatch:
    def test_always_data_never_executes_remotely(self):
        cluster, runtime, server, completions = build_runtime(Strategy.fc())
        for i in range(12):
            runtime.submit(i, i % 40)
        drain(cluster, runtime, 12)
        assert server.udfs_executed == 0
        assert len(completions) == 12

    def test_always_compute_executes_remotely(self):
        cluster, runtime, server, completions = build_runtime(Strategy.fd())
        for i in range(12):
            runtime.submit(i, i % 40)
        drain(cluster, runtime, 12)
        assert server.udfs_executed == 12

    def test_random_splits(self):
        cluster, runtime, server, completions = build_runtime(Strategy.fr(), seed=3)
        for i in range(60):
            runtime.submit(i, i % 40)
        drain(cluster, runtime, 60)
        assert 10 < server.udfs_executed < 50

    def test_ski_rental_first_contact_rents(self):
        cluster, runtime, server, completions = build_runtime(Strategy.fo())
        runtime.submit(0, 7)
        drain(cluster, runtime, 1)
        assert runtime.optimizer.stats().first_contact == 1

    def test_submit_follows_a_moved_region(self):
        # The submit body caches each key's serving node per placement
        # generation; a region move must send the next read of the key
        # to the region's new owner.
        _, runtime, _, _ = build_runtime(
            Strategy.fo(), batch_size=8, data_nodes=(1, 2)
        )
        assert runtime.submit.__func__ is ComputeNodeRuntime.submit
        region_map = runtime.kvstore.region_map
        key = 7
        old = region_map.node_for_key(key)
        new = 2 if old == 1 else 1
        runtime.submit(0, key)  # first contact: a compute request
        region_map.move_region(region_map.region_of(key), new)
        runtime.submit(1, key)  # still unknown costs: rents again
        buffers = runtime._compute_buffers
        assert [item.tuple_id for item in buffers[old]._items] == [0]
        assert [item.tuple_id for item in buffers[new]._items] == [1]


class TestFetchDeduplication:
    def test_concurrent_fetches_share_one_wire_request(self):
        # Cheap UDF + disk-bound fetches: rent and buy cost about the
        # same, so the ski-rental buys on the second access.
        cluster, runtime, server, completions = build_runtime(
            Strategy.fo(), compute_cost=0.0001
        )
        # Teach the runtime the key's costs first.
        runtime.submit(0, 5)
        runtime.finish_input()
        cluster.sim.run()
        # Now submit several tuples for the same key back-to-back; the
        # optimizer elects to fetch, and duplicates must coalesce.
        served_before = server.items_served
        for i in range(1, 6):
            runtime.submit(i, 5)
        runtime.finish_input()
        cluster.sim.run()
        assert runtime.completed == 6
        # At most two extra served items (the single fetch, possibly
        # plus one straggling rent) — not five.
        assert server.items_served - served_before <= 2


class TestBlockingMode:
    def test_workers_bound_inflight(self):
        cluster, runtime, server, completions = build_runtime(
            Strategy.no(), batch_size=1
        )
        for i in range(50):
            runtime.submit(i, i % 40)
        # Workers = 2 cores x 2; everything beyond sits queued.
        assert runtime._free_workers == 0
        assert len(runtime._input_queue) == 50 - cluster.node(0).spec.cores * 2
        drain(cluster, runtime, 50)
        assert runtime._free_workers == cluster.node(0).spec.cores * 2


class TestFrozenMode:
    def test_frozen_cache_misses_become_compute_requests(self):
        cluster, runtime, server, completions = build_runtime(
            Strategy.fo_non_adaptive(0.2), expected_inputs=50
        )
        for i in range(50):
            runtime.submit(i, i % 40)
        drain(cluster, runtime, 50)
        stats = runtime.optimizer.stats()
        # After the freeze point the optimizer is bypassed, so its
        # routing counters stop well short of 50 decisions.
        assert stats.total <= 12


class TestStatsSnapshot:
    def test_snapshot_counts_are_consistent(self):
        cluster, runtime, server, completions = build_runtime(Strategy.fo())
        for i in range(3):
            runtime.submit(i, i)
        snapshot = runtime._snapshot_stats(dst=1)
        assert snapshot.pending_local_computations >= 0
        assert snapshot.net_bandwidth > 0
        drain(cluster, runtime, 3)
        # All queues drain by the end.
        end = runtime._snapshot_stats(dst=1)
        assert end.pending_data_responses == 0
        assert end.pending_at_other_data_nodes == 0


class TestAckClock:
    """How the runtime drives its buffers' ack clock (``engine/batching.py``).
    FD computes everything at data node 1, so each response completes
    its tuples synchronously and one compute buffer does all the work."""

    def build(self, batch_size):
        cluster, runtime, server, completions = build_runtime(
            Strategy.fd(), batch_size=batch_size, max_wait=None
        )
        return cluster, runtime, runtime._compute_buffers[1]

    def test_ack_flushes_only_after_the_refill(self):
        # A window of 4 over 16 tuples, batches of up to 8: each answer
        # completes 4 tuples, each completion feeds the next tuple, and
        # only then does the answer's ack release the partial — 4 tuples
        # per request.  An ack taken before the refill would find the
        # buffer empty and leave every batch to the idle flush.
        cluster, runtime, buffer = self.build(batch_size=8)
        feed = iter(range(16))

        def submit_next(tuple_id=None, finish=None):
            nxt = next(feed, None)
            if nxt is not None:
                runtime.submit(nxt, nxt)

        runtime.on_complete = submit_next
        for _ in range(4):
            submit_next()
        cluster.sim.run()
        assert runtime.completed == 16
        assert runtime.transport.requests_sent == 4
        assert buffer.flush_counts["idle"] == 1  # the prime, nothing in flight
        assert buffer.flush_counts["ack"] == 3
        assert buffer.in_flight == 0

    def test_partial_is_held_while_hold_depth_requests_are_out(self):
        cluster, runtime, buffer = self.build(batch_size=2)
        n = 2 * HOLD_DEPTH + 1
        for i in range(n):
            runtime.submit(i, i)
        assert buffer.in_flight == HOLD_DEPTH  # size flushes
        cluster.sim.run(until=1e-9)  # every zero-delay event has run
        assert len(buffer) == 1  # held: the destination owes answers
        cluster.sim.run()
        assert runtime.completed == n
        assert buffer.flush_counts["ack"] == 1
        assert buffer.in_flight == 0

    def test_abandon_flushes_the_held_partial(self):
        cluster, runtime, buffer = self.build(batch_size=2)
        n = 2 * HOLD_DEPTH + 1
        for i in range(n):
            runtime.submit(i, i)
        assert len(buffer) == 1
        # The transport gives up on one request (replica fallback): it
        # no longer occupies the destination, so the partial goes.
        rid, entry = next(iter(runtime.transport._pending.items()))
        runtime.transport._fallback(rid, entry)
        assert len(buffer) == 0
        assert buffer.flush_counts["ack"] == 1
        cluster.sim.run()
        assert runtime.completed == n
        assert [b.in_flight for b in runtime.buffers()] == [0, 0]


def faulty_fo_job():
    """A 2+2 FO job under drops, duplicates and a mid-run crash: every
    path that adjusts the Appendix C counters runs (dispatch, retry,
    abandon + replica fallback, duplicate responses)."""
    workload = SyntheticWorkload.data_heavy(
        n_keys=300, n_tuples=900, skew=0.5, seed=17
    )
    schedule = FaultSchedule(
        seed=5,
        crashes=(CrashFault(node_id=2, at=0.05, duration=0.6),),
        chaos=(MessageChaos(at=0.0, duration=1e6, drop=0.15, duplicate=0.15),),
    )
    job = JoinJob(
        cluster=Cluster.homogeneous(4),
        compute_nodes=[0, 1],
        data_nodes=[2, 3],
        table=workload.build_table(),
        udf=UDF(result_size=64.0, param_size=64.0, key_size=8.0),
        strategy=Strategy.fo(),
        sizes=workload.sizes,
        batch_size=8,
        fault_schedule=schedule,
        fault_tolerance=FaultTolerance(request_timeout=0.2, max_retries=1),
        seed=3,
    )
    return job, workload.keys()


def _drive_local_shapes():
    """Every call shape of local execution, in one queued-up node.

    The node's CPU cores and disk are pre-booked so each shape queues
    behind earlier work, then (all at time 0): a load-balancer bounce of
    key 3 (tuple 0), a disk fetch of key 5 serving two waiters (tuples 1
    and 2), a disk-tier hit on key 5 (tuple 3, which promotes it) and a
    memory-tier hit on key 5 (tuple 4).  Returns, per tuple, the node's
    CPU and disk bookings ``(resource, at, duration, start, finish)``
    made since the previous local execution, the value that execution
    fed to ``observe_local_compute``, and its completion ``(finish,
    event time)``.
    """
    cluster, runtime, _server, _ = build_runtime(Strategy.fo(), max_wait=None)
    node = runtime._node
    for core in range(node.spec.cores):
        node.cpu.acquire(0.0, 0.0031 + 0.0007 * core)
    node.disk.acquire(0.0, 0.0023)
    segments, bookings, done = [], [], {}

    def recorded(resource):
        inner = resource.acquire

        def acquire(at, duration):
            start, finish = inner(at, duration)
            bookings.append((resource.name, at, duration, start, finish))
            return start, finish

        return acquire

    node.cpu.acquire = recorded(node.cpu)
    node.disk.acquire = recorded(node.disk)
    observe = runtime.cost_model.observe_local_compute

    def observe_local_compute(elapsed):
        segments.append((list(bookings), elapsed))
        bookings.clear()
        observe(elapsed)

    runtime.cost_model.observe_local_compute = observe_local_compute
    runtime.on_complete = lambda tid, finish: done.__setitem__(
        tid, (finish, cluster.sim.now)
    )
    sent = []

    def send(dst, kind, items, span_parent=None):
        sent.extend(items)
        runtime._on_dispatch(dst, kind, items)

    runtime.transport.send = send

    def respond(request, value):
        params = CostParameters(
            key=request.key, value_size=1000.0, compute_time=0.0013,
            disk_time=0.0009, cpu_service_time=0.0011, hydration_time=0.00029,
        )
        runtime._on_batch_response(BatchResponse(src=1, dst=0, items=[
            ResponseItem(
                key=request.key, tuple_id=request.tuple_id,
                route=request.route, computed=False, value=value,
                payload_size=1000.0, cost_params=params, updated_at=0.0,
                params=request.params,
            )
        ]))

    runtime.submit(0, 3, "p0")  # first contact: a compute request
    runtime.finish_input()
    respond(sent.pop(), "v3")  # bounced back uncomputed
    runtime._enqueue_fetch(1, 1, 5, Route.DATA_REQUEST_DISK, "p1")
    runtime._enqueue_fetch(1, 2, 5, Route.DATA_REQUEST_DISK, "p2")
    runtime.finish_input()
    respond(sent.pop(), "v5")  # serves both waiters
    runtime.submit(3, 5, "p3")
    runtime.submit(4, 5, "p4")
    assert not sent and not bookings
    cluster.sim.run()
    stats = runtime.optimizer.stats()
    assert (stats.local_disk, stats.local_memory) == (1, 1)
    return {
        tid: (*segment, done[tid]) for tid, segment in enumerate(segments)
    }


#: Per shape, values captured before local execution became one routine:
#: ``(tuple id, bookings, observed local compute, (finish, event time))``.
#: A bounce and the first waiter hydrate (1.1 ms UDF + 0.29 ms); the
#: later waiter and the memory hit do not.  The first waiter's bookings
#: open with the fetch's cache write to disk.  A disk hit reads the
#: value off disk first and observes from the end of that read.
_LOCAL_SHAPES = {
    "bounced": (0, [
        ("cpu[0]", 0.0, 0.0013900000000000002, 0.0031, 0.00449),
    ], 0.00449, (0.00449, 0.00449)),
    "first_waiter": (1, [
        ("disk[0]", 0.0, 0.00010333333333333334, 0.0023, 0.0024033333333333333),
        ("cpu[0]", 0.0, 0.0013900000000000002, 0.0038, 0.00519),
    ], 0.00519, (0.00519, 0.00519)),
    "later_waiter": (2, [
        ("cpu[0]", 0.0, 0.0011, 0.00449, 0.00559),
    ], 0.00559, (0.00559, 0.00559)),
    "disk_hit": (3, [
        ("disk[0]", 0.0, 0.00010333333333333334, 0.0024033333333333333,
         0.0025066666666666666),
        ("cpu[0]", 0.0025066666666666666, 0.0013900000000000002, 0.0045,
         0.005889999999999999),
    ], 0.003383333333333333, (0.005889999999999999, 0.005889999999999999)),
    "memory_hit": (4, [
        ("cpu[0]", 0.0, 0.0011, 0.00519, 0.0062900000000000005),
    ], 0.0062900000000000005, (0.0062900000000000005, 0.0062900000000000005)),
}


class TestLocalExecutionGoldenPin:
    @pytest.mark.parametrize("reference", ["0", "1"])
    @pytest.mark.parametrize("shape", sorted(_LOCAL_SHAPES))
    def test_call_shape_keeps_its_bookings(self, monkeypatch, shape, reference):
        runs = use_reference_paths(monkeypatch) if reference == "1" else None
        tuple_id, *pinned = _LOCAL_SHAPES[shape]
        shapes = _drive_local_shapes()
        assert len(shapes) == len(_LOCAL_SHAPES)
        assert list(shapes[tuple_id]) == pinned
        assert runs is None or runs.submits


def _guarded_runtime():
    """FO node 0 whose sends are captured and whose local executions
    and completions are counted per tuple."""
    cluster, runtime, _server, completions = build_runtime(
        Strategy.fo(), max_wait=None
    )
    sent, executed = [], Counter()

    def send(dst, kind, items, span_parent=None):
        sent.extend(items)

    runtime.transport.send = send
    inner = runtime._execute_local

    def execute_local(tuple_id, *args, **kwargs):
        executed[tuple_id] += 1
        inner(tuple_id, *args, **kwargs)

    runtime._execute_local = execute_local
    return cluster, runtime, sent, executed, completions


def _deliver(runtime, request, computed, value="v"):
    """One response for ``request``, as a replayed or fallback copy
    would arrive: dispatched, then answered."""
    runtime._on_dispatch(1, request.kind, [request])
    params = CostParameters(
        key=request.key, value_size=1000.0, compute_time=0.0013,
        disk_time=0.0009, cpu_service_time=0.0011,
    )
    runtime._on_batch_response(BatchResponse(src=1, dst=0, items=[
        ResponseItem(
            key=request.key, tuple_id=request.tuple_id, route=request.route,
            computed=computed, value=value, payload_size=1000.0,
            cost_params=params, updated_at=0.0, params=request.params,
        )
    ]))


class TestExactlyOnceResponsePaths:
    """A tuple that reaches a response path twice runs once: the
    ``_settled`` guard sits on each of the three paths that can deliver
    it again, and a tuple executed at submit never enters the set."""

    def test_computed_response_delivered_twice(self):
        cluster, runtime, sent, executed, completions = _guarded_runtime()
        runtime.submit(0, 3)  # first contact: a compute request
        runtime.finish_input()
        (request,) = sent
        _deliver(runtime, request, computed=True)
        _deliver(runtime, request, computed=True)
        cluster.sim.run()
        assert [tid for tid, _ in completions] == [0]
        assert not executed
        assert runtime.completed == 1

    def test_bounced_compute_item_delivered_twice(self):
        cluster, runtime, sent, executed, completions = _guarded_runtime()
        runtime.submit(0, 3)
        runtime.finish_input()
        (request,) = sent
        _deliver(runtime, request, computed=False)
        _deliver(runtime, request, computed=False)
        cluster.sim.run()
        assert executed == {0: 1}
        assert [tid for tid, _ in completions] == [0]

    def test_fetch_waiter_also_served_by_a_fallback_response(self):
        cluster, runtime, sent, executed, completions = _guarded_runtime()
        runtime._enqueue_fetch(1, 1, 5, Route.DATA_REQUEST_DISK, "p1")
        runtime._enqueue_fetch(1, 2, 5, Route.DATA_REQUEST_DISK, "p2")
        runtime.finish_input()
        (request,) = sent  # one wire request, two waiters
        # A fallback copy answering waiter 2 lands first and serves
        # both waiters; the original fetch for tuple 1 lands after.
        fallback = RequestItem(key=5, kind=request.kind, route=request.route,
                               tuple_id=2, params="p2")
        _deliver(runtime, fallback, computed=False)
        _deliver(runtime, request, computed=False)
        cluster.sim.run()
        assert executed == {1: 1, 2: 1}
        assert sorted(tid for tid, _ in completions) == [1, 2]

    def test_memory_hits_leave_the_settled_set_empty(self):
        cluster, runtime, sent, executed, completions = _guarded_runtime()
        keys = range(8)
        for key in keys:
            runtime._row_info[key] = _RowInfo(1000.0, 0.001)
            assert runtime.cache.cond_cache_in_memory(key, f"v{key}", 1000.0)
        for tuple_id in range(40):
            runtime.submit(tuple_id, tuple_id % 8)
        drain(cluster, runtime, 40)
        assert not sent
        assert runtime.optimizer.stats().local_memory == 40
        assert executed == {tid: 1 for tid in range(40)}
        assert sorted(tid for tid, _ in completions) == list(range(40))
        assert not any(runtime._settled)


class TestAppendixCCost:
    @pytest.mark.parametrize("reference", ["0", "1"])
    def test_running_total_equals_the_sums_at_every_snapshot(
        self, monkeypatch, reference
    ):
        # Both the fused and the reference submit feed the totals.
        runs = use_reference_paths(monkeypatch) if reference == "1" else None
        snapshots = []
        inner = ComputeNodeRuntime._snapshot_stats

        def checked(self, dst):
            stats = inner(self, dst)
            inflight = self._inflight_compute
            elsewhere = [dn for dn in inflight if dn != dst]
            assert self._inflight_compute_total == sum(inflight.values())
            assert stats.pending_at_other_data_nodes == sum(
                inflight[dn] for dn in elsewhere
            )
            assert stats.expected_computed_elsewhere == sum(
                int(inflight[dn] * self._frac_computed[dn].value_or(1.0))
                for dn in elsewhere
            )
            assert stats.pending_data_requests == sum(
                len(buf) for buf in self._data_buffers.values()
            )
            assert stats.pending_compute_requests == sum(
                len(buf) for buf in self._compute_buffers.values()
            )
            snapshots.append(stats)
            return stats

        monkeypatch.setattr(ComputeNodeRuntime, "_snapshot_stats", checked)
        job, keys = faulty_fo_job()
        result = job.run(keys)
        # The run took the paths where a running total could drift ...
        assert result.retries > 0
        assert result.fallbacks > 0
        assert result.duplicate_responses > 0
        assert len(snapshots) > 100
        assert any(s.pending_at_other_data_nodes > 0 for s in snapshots)
        # ... and everything drained.
        for runtime in job.runtimes.values():
            assert runtime._inflight_compute_total == 0
            assert set(runtime._inflight_compute.values()) == {0}
            assert {b.in_flight for b in runtime.buffers()} == {0}
        assert runs is None or runs.submits

    def test_tcc_fallback_scan_stops_once_tcc_is_measured(self, monkeypatch):
        """Counting, not timing: the O(keys seen) fallback may only run
        while there is no measured ``tcc`` to report."""
        snapshots = []
        hints = []
        inner_snapshot = ComputeNodeRuntime._snapshot_stats
        inner_hint = ComputeNodeRuntime.sizes_compute_hint

        def snapshot(self, dst):
            snapshots.append(self._tcc.initialized)
            return inner_snapshot(self, dst)

        def hint(self):
            hints.append(self._tcc.initialized)
            return inner_hint(self)

        monkeypatch.setattr(ComputeNodeRuntime, "_snapshot_stats", snapshot)
        monkeypatch.setattr(ComputeNodeRuntime, "sizes_compute_hint", hint)
        workload = SyntheticWorkload.data_heavy(n_keys=5000, n_tuples=5000, seed=1)
        job = JoinJob(
            cluster=Cluster.homogeneous(4),
            compute_nodes=[0, 1],
            data_nodes=[2, 3],
            table=workload.build_table(),
            udf=workload.udf,
            strategy=Strategy.fo(),
            sizes=workload.sizes,
            batch_size=16,
            seed=3,
        )
        job.run(range(5000))  # every key distinct: all cold
        assert len(snapshots) > 200
        assert not any(hints)
        assert len(hints) == snapshots.count(False)
        assert len(hints) < len(snapshots) // 4
