"""Unit-level tests of the compute-node runtime internals."""

import pytest

from repro.perf.mode import REFERENCE_ENV
from repro.placement.batch import BatchLoadBalancer, SizeProfile
from repro.engine.batching import HOLD_DEPTH
from repro.engine.compute_node import ComputeNodeRuntime
from repro.engine.job import JoinJob
from repro.engine.strategies import Strategy
from repro.faults import CrashFault, FaultSchedule, FaultTolerance, MessageChaos
from repro.sim.cluster import Cluster
from repro.store.datanode import DataNodeServer
from repro.store.kvstore import KVStore
from repro.store.messages import UDF
from repro.store.partitioner import HashPartitioner, RegionMap
from repro.store.table import Row, Table
from repro.workloads.synthetic import SyntheticWorkload


def build_runtime(strategy, n_keys=40, value_size=1000.0, compute_cost=0.001,
                  batch_size=4, max_wait=0.005, **kwargs):
    cluster = Cluster.homogeneous(2)
    table = Table("t")
    for key in range(n_keys):
        table.put(Row(key=key, value=f"v{key}", size=value_size,
                      compute_cost=compute_cost))
    region_map = RegionMap.round_robin(HashPartitioner(4), [1])
    kvstore = KVStore(table, region_map)
    udf = UDF(result_size=64.0, param_size=64.0, key_size=8.0)
    server = DataNodeServer(
        cluster, 1, kvstore, udf,
        balancer=BatchLoadBalancer(enabled=strategy.load_balancing),
    )
    sizes = SizeProfile(key_size=8.0, param_size=64.0, value_size=value_size,
                        computed_size=64.0)
    completions = []
    runtime = ComputeNodeRuntime(
        cluster=cluster,
        node_id=0,
        kvstore=kvstore,
        servers={1: server},
        udf=udf,
        config=strategy,
        sizes=sizes,
        on_complete=lambda tid, finish: completions.append((tid, finish)),
        memory_cache_bytes=1e6,
        batch_size=batch_size,
        max_wait=max_wait,
        **kwargs,
    )
    return cluster, runtime, server, completions


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


class TestAppendixCCost:
    @pytest.mark.parametrize("reference", ["0", "1"])
    def test_running_total_equals_the_sums_at_every_snapshot(
        self, monkeypatch, reference
    ):
        # Both the optimized and the reference handlers adjust the totals.
        monkeypatch.setenv(REFERENCE_ENV, reference)
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
