"""Tests for the simulated data-node server."""

from dataclasses import replace

import pytest

from repro.memory import MemoryOptions
from repro.memory.budget import MemoryBudget
from repro.placement.batch import (
    BatchLoadBalancer,
    ComputeNodeStats,
    SizeProfile,
)
from repro.core.optimizer import Route
from repro.sim.cluster import Cluster, NodeSpec
from repro.sim.resources import ResourceStats
from repro.store.datanode import DataNodeServer
from repro.store.kvstore import KVStore
from repro.store.messages import BatchRequest, RequestItem, RequestKind, UDF
from repro.store.partitioner import HashPartitioner, RegionMap
from repro.store.table import Row, Table

from tests.reference_paths import use_reference_paths
from tests.test_compute_node import faulty_fo_job


def setup_server(balancer=None, n_rows=20, compute_cost=0.01, size=1000.0):
    cluster = Cluster.homogeneous(2, NodeSpec(cores=2))
    table = Table("t")
    for i in range(n_rows):
        table.put(Row(key=i, value=f"v{i}", size=size, compute_cost=compute_cost))
    region_map = RegionMap.round_robin(HashPartitioner(4), [1])
    kvstore = KVStore(table, region_map)
    udf = UDF(result_size=64.0, param_size=64.0, key_size=8.0)
    server = DataNodeServer(
        cluster, node_id=1, kvstore=kvstore, udf=udf,
        balancer=balancer if balancer is not None else BatchLoadBalancer(enabled=False),
    )
    return cluster, server


def compute_item(key, tid=0):
    return RequestItem(
        key=key, kind=RequestKind.COMPUTE, route=Route.COMPUTE_REQUEST, tuple_id=tid
    )


def data_item(key, tid=0):
    return RequestItem(
        key=key, kind=RequestKind.DATA, route=Route.DATA_REQUEST_DISK, tuple_id=tid
    )


def stats(**overrides):
    defaults = dict(
        pending_local_computations=0,
        pending_data_requests=0,
        pending_compute_requests=0,
        pending_data_responses=0,
        pending_at_other_data_nodes=0,
        expected_computed_elsewhere=0,
        compute_time=0.01,
        net_bandwidth=1e8,
    )
    defaults.update(overrides)
    return ComputeNodeStats(**defaults)


SIZES = SizeProfile(key_size=8.0, param_size=64.0, value_size=1000.0, computed_size=64.0)


class TestServing:
    def test_compute_batch_executes_udf_without_balancer(self):
        cluster, server = setup_server()
        batch = BatchRequest(src=0, dst=1, compute_items=[compute_item(i, i) for i in range(4)],
                             comp_stats=stats())
        served = server.serve(0.0, batch, SIZES)
        assert served.kept_at_data_node == 4
        assert server.udfs_executed == 4
        assert all(item.computed for item in served.response.items)
        assert served.ready_at > 0.0

    def test_data_batch_returns_values(self):
        cluster, server = setup_server()
        batch = BatchRequest(src=0, dst=1, data_items=[data_item(1), data_item(2)])
        served = server.serve(0.0, batch, SIZES)
        assert server.udfs_executed == 0
        assert all(not item.computed for item in served.response.items)
        # Payload carries the stored value (~sv), not the result (~scv).
        assert all(item.payload_size > 1000.0 for item in served.response.items)

    def test_response_carries_cost_parameters(self):
        cluster, server = setup_server(compute_cost=0.05, size=2000.0)
        batch = BatchRequest(src=0, dst=1, compute_items=[compute_item(3)],
                             comp_stats=stats())
        served = server.serve(0.0, batch, SIZES)
        params = served.response.items[0].cost_params
        assert params.value_size == 2000.0
        assert params.cpu_service_time == pytest.approx(0.05)
        assert params.node_id == 1
        assert params.disk_time > 0.0

    def test_missing_key_raises(self):
        cluster, server = setup_server(n_rows=1)
        batch = BatchRequest(src=0, dst=1, data_items=[data_item(99)])
        with pytest.raises(KeyError):
            server.serve(0.0, batch, SIZES)

    def test_wrong_destination_rejected(self):
        cluster, server = setup_server()
        batch = BatchRequest(src=0, dst=0, data_items=[data_item(1)])
        with pytest.raises(ValueError):
            server.serve(0.0, batch, SIZES)

    def test_without_stats_everything_executes_remotely(self):
        cluster, server = setup_server(balancer=BatchLoadBalancer(enabled=True))
        batch = BatchRequest(src=0, dst=1, compute_items=[compute_item(1)])
        served = server.serve(0.0, batch, SIZES)
        assert served.kept_at_data_node == 1


class TestLoadBalancing:
    def test_overloaded_compute_node_keeps_work_remote(self):
        cluster, server = setup_server(balancer=BatchLoadBalancer(enabled=True))
        batch = BatchRequest(
            src=0, dst=1,
            compute_items=[compute_item(i, i) for i in range(10)],
            comp_stats=stats(pending_local_computations=100_000, compute_time=0.1),
        )
        served = server.serve(0.0, batch, SIZES)
        assert served.kept_at_data_node == 10

    def test_bounced_items_marked_uncomputed(self):
        cluster, server = setup_server(balancer=BatchLoadBalancer(enabled=True))
        # Saturate the data node first so the balancer bounces work.
        for _ in range(20):
            server.serve(
                cluster.sim.now,
                BatchRequest(src=0, dst=1,
                             compute_items=[compute_item(i, i) for i in range(10)],
                             comp_stats=stats()),
                SIZES,
            )
        batch = BatchRequest(src=0, dst=1,
                             compute_items=[compute_item(i, i) for i in range(10)],
                             comp_stats=stats())
        served = server.serve(cluster.sim.now, batch, SIZES)
        bounced = [item for item in served.response.items if not item.computed]
        assert served.kept_at_data_node < 10
        assert len(bounced) == 10 - served.kept_at_data_node


class TestMeasuredCosts:
    def test_sojourn_inflates_reported_compute_time(self):
        """Back-to-back batches saturate the 2-core CPU; reported
        measured compute time must exceed the pure service time."""
        cluster, server = setup_server(compute_cost=0.05)
        last = None
        for round_ in range(10):
            batch = BatchRequest(
                src=0, dst=1,
                compute_items=[compute_item(i, i) for i in range(10)],
                comp_stats=stats(),
            )
            last = server.serve(0.0, batch, SIZES)
        reported = last.response.items[-1].cost_params.compute_time
        assert reported > 0.05 * 1.5

    def test_batched_seek_discount(self):
        cluster, server = setup_server()
        single = BatchRequest(src=0, dst=1, data_items=[data_item(1)])
        served_single = server.serve(0.0, single, SIZES)
        t_single = served_single.response.items[0].cost_params.disk_time

        cluster2, server2 = setup_server()
        batch = BatchRequest(src=0, dst=1,
                             data_items=[data_item(i, i) for i in range(5)])
        served_batch = server2.serve(0.0, batch, SIZES)
        # Later items in the batch paid a shorter seek (ignoring queue
        # effects, compare the second item's pure share): the summed
        # disk busy time per item is lower for the batch.
        busy_single = cluster.node(1).disk.stats().busy_time
        busy_batch = cluster2.node(1).disk.stats().busy_time / 5
        assert busy_batch < busy_single

    def test_decrement_events_restore_counters(self):
        cluster, server = setup_server()
        batch = BatchRequest(src=0, dst=1,
                             compute_items=[compute_item(1)], comp_stats=stats())
        server.serve(0.0, batch, SIZES)
        pending_before = server.local_stats(0, SIZES).pending_compute_requests
        assert pending_before == 1
        cluster.sim.run()
        assert server.local_stats(0, SIZES).pending_compute_requests == 0


class TestAppendixCCost:
    @pytest.mark.parametrize("reference", ["0", "1"])
    def test_running_totals_equal_the_sums_at_every_local_stats(
        self, monkeypatch, reference
    ):
        # One serve loop adjusts the totals; the fused and the reference
        # submit drive it.
        runs = use_reference_paths(monkeypatch) if reference == "1" else None
        calls = []
        inner = DataNodeServer.local_stats

        def checked(self, src, sizes):
            data_stats = inner(self, src, sizes)
            assert self._pending_compute_total == sum(self._pending_compute.values())
            assert self._to_compute_total == sum(self._to_compute.values())
            assert data_stats.pending_compute_requests == self._pending_compute_total
            assert data_stats.to_compute_locally == self._to_compute_total
            calls.append(data_stats)
            return data_stats

        monkeypatch.setattr(DataNodeServer, "local_stats", checked)
        job, keys = faulty_fo_job()
        result = job.run(keys)
        assert result.retries > 0 and result.fallbacks > 0
        assert sum(s.duplicate_requests for s in job.servers.values()) > 0
        assert len(calls) > 50
        assert any(s.to_compute_locally > 0 for s in calls)
        for server in job.servers.values():
            assert server._pending_compute_total == 0
            assert server._to_compute_total == 0
            assert set(server._pending_compute.values()) <= {0}
        assert runs is None or runs.submits

    def test_has_regions_is_looked_up_once_per_placement_generation(
        self, monkeypatch
    ):
        cluster, server = setup_server()
        lookups = []
        inner = RegionMap.regions_on_node

        def counted(self, node):
            lookups.append(node)
            return inner(self, node)

        monkeypatch.setattr(RegionMap, "regions_on_node", counted)
        for _ in range(3):
            assert server.local_stats(0, SIZES).compute_time == pytest.approx(0.01)
        assert lookups == [1]
        region_map = server.kvstore.region_map
        for region in range(4):
            region_map.move_region(region, 0)
        # The node hosts nothing now; tcd itself stays computed-once.
        assert server.local_stats(0, SIZES).compute_time == 0.0
        assert server.local_stats(0, SIZES).compute_time == 0.0
        assert lookups == [1, 1]
        region_map.move_region(0, 1)
        assert server.local_stats(0, SIZES).compute_time == pytest.approx(0.01)


class _KeepThree(BatchLoadBalancer):
    """Keeps three compute items at the data node, bounces the rest."""

    def choose(self, batch_size, comp, data, sizes):
        return 3


#: ``(key, computed, value, payload_size, compute_time, disk_time)`` per
#: response item of the batch below.  Captured from the serve loop as it
#: stood when the default and reference modes still ran separate
#: implementations, which agreed on every value here.
_GOLDEN_ITEMS = [
    (0, True, "v0|p0", 64.0, 0.010000000000000002, 0.0024000000000000132),
    (1, True, "v1|p1", 64.0, 0.02200000000000001, 0.0031134999999999913),
    (2, True, "v2|p2", 64.0, 0.035816928046989736, 0.003827999999999998),
    (3, False, "v3", 30608.0, 0.048458196769456695, 0.004845500000000003),
    (4, False, "v4", 30808.0, 0.06109946549192366, 0.005715999999999999),
    (0, False, "v0", 30008.0, 0.010534390602055804, 0.0),
    (1, False, "v1", 30208.0, 0.023175659324522764, 0.0),
    (9, False, "v9", 31808.0, 0.12430580910425848, 0.007158999999999971),
    (2, False, "v2", 30408.0, 0.035816928046989736, 0.009202999999999961),
    (6, False, "v6", 31208.0, 0.08638200293685759, 0.010077499999999961),
    (3, False, "v3", 30608.0, 0.048458196769456695, 0.011099999999999943),
    (0, False, "v0", 30008.0, 0.010534390602055804, 0.0),
]


class TestServeGoldenPin:
    """One batch through every branch of the serve loop, pinned to the
    float.  Both modes run this loop, so the differential suite cannot
    see it drift; this case can."""

    def test_every_branch_batch(self):
        cluster = Cluster.homogeneous(2, NodeSpec(cores=2))
        table = Table("t")
        for i in range(12):
            table.put(Row(
                key=i, value=f"v{i}", size=30000.0 + 200.0 * i,
                compute_cost=0.01 * (i + 1), hydration_cost=0.002 * i,
                updated_at=0.5 * i,
            ))
        kvstore = KVStore(table, RegionMap.round_robin(HashPartitioner(4), [1]))
        udf = UDF(
            result_size=64.0, param_size=32.0, key_size=8.0,
            apply_fn=lambda key, params, value: f"{value}|{params}",
        )
        # Room for one row in the block cache (key 0 hits it later) and
        # two rows per HFile block (every other uncached read in a
        # region skips its seek).
        server = DataNodeServer(
            cluster, node_id=1, kvstore=kvstore, udf=udf,
            balancer=_KeepThree(), block_cache_bytes=40000.0,
        )
        # A hybrid build side small enough that the batch's inserts
        # spill: key 1 comes back a hit, keys 2 and 3 need an unspill.
        server.arm_memory(
            MemoryBudget(100000.0, node_id=1),
            MemoryOptions.on(join_partitions=2, max_recursion=0),
        )
        server.add_slowdown(0.1, 5.0, 1.5)
        batch = BatchRequest(
            src=0, dst=1,
            compute_items=[
                RequestItem(key=k, kind=RequestKind.COMPUTE,
                            route=Route.COMPUTE_REQUEST, tuple_id=t,
                            params=f"p{t}")
                for t, k in enumerate([0, 1, 2, 3, 4, 0, 1])
            ],
            data_items=[data_item(k, 100 + t) for t, k in enumerate([9, 2, 6, 3, 0])],
            comp_stats=stats(),
        )
        served = server.serve(0.25, batch, SIZES)

        assert served.ready_at == 0.31855
        assert served.kept_at_data_node == 3
        assert [
            (i.key, i.computed, i.value, i.payload_size,
             i.cost_params.compute_time, i.cost_params.disk_time)
            for i in served.response.items
        ] == _GOLDEN_ITEMS
        for item in served.response.items:
            row = table.get(item.key)
            assert item.cost_params == replace(
                item.cost_params,
                value_size=row.size, param_size=32.0, key_size=8.0,
                computed_size=64.0, node_id=1,
                cpu_service_time=row.compute_cost,
                hydration_time=row.hydration_cost,
            )
        assert (server._pending_data, server._pending_compute_total,
                server._to_compute_total) == (5, 7, 3)
        cluster.sim.run()
        node = cluster.node(1)
        assert node.disk.stats() == ResourceStats(
            name="disk[1]", capacity=1, requests=13,
            busy_time=0.011099999999999999, total_wait=0.0463424999999999,
            last_finish=0.26109999999999994,
        )
        assert node.cpu.stats() == ResourceStats(
            name="cpu[1]", capacity=2, requests=12,
            busy_time=0.09990000000000006, total_wait=0.2939425,
            last_finish=0.31855,
        )
        assert (server._pending_data, server._pending_compute_total,
                server._to_compute_total) == (0, 0, 0)
        assert set(server._pending_compute.values()) == {0}
        assert set(server._to_compute.values()) == {0}
        assert (server.udfs_executed, server.items_served) == (3, 12)
        assert server.memory_counters() == {
            "spills": 2.0, "unspills": 1.0, "repartitions": 0.0,
            "spill_bytes": 215000.0, "unspill_bytes": 92000.0,
            "bnl_chunks": 1.0, "build_hits": 1, "build_unspill_reads": 2,
        }
