"""Unit tests for the fault-injection subsystem.

Integration-level correctness (faulty runs match the oracle) lives in
``test_faults_oracle.py``; this file exercises each mechanism in
isolation: event cancellation, the delivery-plan hook, crash windows,
server idempotency, straggler slowdowns, timeout charging, schedule
generation, and the trace/metrics plumbing.
"""

from __future__ import annotations

import pytest

from repro.core.cost_model import CostModel
from repro.placement.batch import BatchLoadBalancer, SizeProfile
from repro.core.optimizer import Route
from repro.engine.job import JoinJob
from repro.engine.requests import UDF
from repro.engine.strategies import Strategy
from repro.faults import (
    CrashFault,
    FaultInjector,
    FaultSchedule,
    FaultTolerance,
    MessageChaos,
    ReplaySlice,
    StragglerFault,
    UpdateFault,
)
from repro.obs import Tracer
from repro.sim.cluster import Cluster, NodeSpec
from repro.sim.events import Simulator
from repro.sim.network import Network
from repro.store.datanode import DataNodeServer
from repro.store.kvstore import KVStore
from repro.store.messages import BatchRequest, RequestItem, RequestKind
from repro.store.partitioner import HashPartitioner, RegionMap
from repro.store.table import Row, Table
from repro.workloads.synthetic import SyntheticWorkload

from tests.oracle import assert_oracle_equal, single_node_hash_join, snapshot_values

SIZES = SizeProfile(
    key_size=8.0, param_size=64.0, value_size=1000.0, computed_size=64.0
)


def setup_server(n_rows=20):
    cluster = Cluster.homogeneous(2, NodeSpec(cores=2))
    table = Table("t")
    for i in range(n_rows):
        table.put(Row(key=i, value=f"v{i}", size=1000.0, compute_cost=0.001))
    kvstore = KVStore(table, RegionMap.round_robin(HashPartitioner(4), [1]))
    udf = UDF(result_size=64.0, param_size=64.0, key_size=8.0)
    server = DataNodeServer(
        cluster, node_id=1, kvstore=kvstore, udf=udf,
        balancer=BatchLoadBalancer(enabled=False),
    )
    return cluster, server


def data_batch(rid, keys):
    items = [
        RequestItem(
            key=k, kind=RequestKind.DATA, route=Route.DATA_REQUEST_DISK, tuple_id=i
        )
        for i, k in enumerate(keys)
    ]
    return BatchRequest(src=0, dst=1, data_items=items, request_id=rid)


class TestEventHandles:
    def test_cancelled_event_never_fires(self):
        sim = Simulator()
        seen = []
        handle = sim.schedule_at(1.0, lambda: seen.append("a"))
        _ = sim.schedule_at(2.0, lambda: seen.append("b"))
        handle.cancel()
        sim.run()
        assert seen == ["b"]
        assert sim.events_processed == 1

    def test_cancel_is_idempotent_and_run_until_skips_cancelled_head(self):
        sim = Simulator()
        seen = []
        handle = sim.schedule_at(1.0, lambda: seen.append("a"))
        handle.cancel()
        handle.cancel()
        _ = sim.schedule_at(5.0, lambda: seen.append("b"))
        sim.run(until=2.0)
        assert seen == []
        assert sim.now == 2.0


class TestDeliveryPlan:
    def test_default_plan_is_single_prompt_delivery(self):
        net = Network([1e9, 1e9])
        assert net.delivery_plan(0, 1, 0.0, 0.1) == [0.0]

    def test_loopback_bypasses_fault_policy(self):
        net = Network([1e9, 1e9])

        class DropAll:
            def plan(self, src, dst, send_time, arrive_time):
                return []

        net.fault_policy = DropAll()
        assert net.delivery_plan(0, 0, 0.0, 0.0) == [0.0]
        assert net.delivery_plan(0, 1, 0.0, 0.1) == []


class TestCrashWindows:
    def test_downtime_is_half_open(self):
        cluster = Cluster.homogeneous(2)
        cluster.schedule_downtime(1, 1.0, 2.0)
        assert not cluster.node_is_down(1, 0.999)
        assert cluster.node_is_down(1, 1.0)
        assert cluster.node_is_down(1, 1.999)
        assert not cluster.node_is_down(1, 2.0)
        assert not cluster.node_is_down(0, 1.5)

    def test_downtime_validation(self):
        cluster = Cluster.homogeneous(2)
        with pytest.raises(Exception):
            cluster.schedule_downtime(9, 0.0, 1.0)
        with pytest.raises(Exception):
            cluster.schedule_downtime(0, 2.0, 1.0)


class TestServerIdempotency:
    def test_retried_request_is_replayed_not_reexecuted(self):
        cluster, server = setup_server()
        first = server.serve(0.0, data_batch("0:7", [1, 2, 3]), SIZES)
        items_before = server.items_served
        again = server.serve(1.0, data_batch("0:7", [1, 2, 3]), SIZES)
        assert again.response.replayed
        assert again.response.request_id == "0:7"
        assert [i.key for i in again.response.items] == [
            i.key for i in first.response.items
        ]
        # No disk or UDF work repeated — only dispatch overhead.
        assert server.items_served == items_before
        assert server.duplicate_requests == 1

    def test_distinct_request_ids_are_not_deduped(self):
        cluster, server = setup_server()
        server.serve(0.0, data_batch("0:1", [1]), SIZES)
        served = server.serve(0.5, data_batch("0:2", [1]), SIZES)
        assert not served.response.replayed
        assert server.duplicate_requests == 0

    def test_requests_without_id_bypass_the_cache(self):
        cluster, server = setup_server()
        server.serve(0.0, data_batch(None, [1]), SIZES)
        served = server.serve(0.5, data_batch(None, [1]), SIZES)
        assert not served.response.replayed
        assert server.duplicate_requests == 0


class TestStragglerSlowdowns:
    def test_speed_factor_windows(self):
        _cluster, server = setup_server()
        server.add_slowdown(1.0, 2.0, 4.0)
        server.add_slowdown(1.5, 3.0, 2.0)
        assert server.speed_factor(0.5) == 1.0
        assert server.speed_factor(1.2) == 4.0
        assert server.speed_factor(1.7) == 4.0  # max of overlapping windows
        assert server.speed_factor(2.5) == 2.0
        assert server.speed_factor(3.5) == 1.0

    def test_slowdown_factor_must_be_at_least_one(self):
        _cluster, server = setup_server()
        with pytest.raises(Exception):
            server.add_slowdown(0.0, 1.0, 0.5)

    def test_slow_window_stretches_service_time(self):
        _cluster, fast = setup_server()
        _cluster2, slow = setup_server()
        slow.add_slowdown(0.0, 10.0, 5.0)
        t_fast = fast.serve(0.0, data_batch("0:1", [1, 2, 3]), SIZES).ready_at
        t_slow = slow.serve(0.0, data_batch("0:1", [1, 2, 3]), SIZES).ready_at
        assert t_slow > t_fast


class TestTimeoutCharging:
    def make_model(self):
        return CostModel(node_id=0, bandwidth={1: 1e9}, local_disk_time=0.005)

    def test_observe_timeout_counts_and_charges(self):
        model = self.make_model()
        model.observe_timeout(1, 0.25)
        model.observe_timeout(1, 0.5)
        assert model.timeouts_charged == 2
        assert model.retry_seconds_charged == pytest.approx(0.75)

    def test_observe_timeout_inflates_remote_estimates(self):
        from repro.core.cost_model import CostParameters

        params = CostParameters(
            key=5, value_size=1000.0, compute_time=0.01, disk_time=0.005, node_id=1
        )
        punished, clean = self.make_model(), self.make_model()
        punished.observe(params)
        clean.observe(params)
        punished.observe_timeout(1, 10.0)
        assert punished.costs(5, 1).t_compute > clean.costs(5, 1).t_compute
        assert punished.costs(5, 1).t_fetch > clean.costs(5, 1).t_fetch

    def test_observe_timeout_rejects_negative_wait(self):
        with pytest.raises(ValueError):
            self.make_model().observe_timeout(1, -0.1)


class TestFaultTolerancePolicy:
    def test_backoff_grows_and_caps(self):
        ft = FaultTolerance(request_timeout=1.0, backoff_factor=2.0, max_backoff=3.0)
        assert ft.timeout_for(0) == 1.0
        assert ft.timeout_for(1) == 2.0
        assert ft.timeout_for(2) == 3.0  # capped
        assert ft.timeout_for(5) == 3.0

    def test_disabled_without_timeout(self):
        assert not FaultTolerance().enabled
        assert FaultTolerance(request_timeout=0.5).enabled


class TestFaultSchedule:
    def test_chaos_probabilities_validated(self):
        with pytest.raises(ValueError):
            MessageChaos(at=0.0, duration=1.0, drop=0.7, duplicate=0.4)
        with pytest.raises(ValueError):
            MessageChaos(at=0.0, duration=1.0, drop=-0.1)

    def test_fault_kinds_and_len(self):
        schedule = FaultSchedule(
            seed=1,
            crashes=(CrashFault(node_id=2, at=0.1, duration=0.2),),
            updates=(UpdateFault(at=0.1, key=3, value="x"),),
        )
        assert schedule.fault_kinds == {"crash", "update"}
        assert len(schedule) == 2

    def test_random_is_deterministic_in_seed(self):
        a = FaultSchedule.random(seed=9, data_nodes=[2, 3], horizon=2.0)
        b = FaultSchedule.random(seed=9, data_nodes=[2, 3], horizon=2.0)
        c = FaultSchedule.random(seed=10, data_nodes=[2, 3], horizon=2.0)
        assert a == b
        assert a != c

    def test_with_seed_keeps_faults(self):
        a = FaultSchedule.random(seed=9, data_nodes=[2], horizon=2.0)
        b = a.with_seed(99)
        assert b.seed == 99
        assert b.crashes == a.crashes

    def test_apply_replays_appends_slices(self):
        schedule = FaultSchedule(
            seed=0, replays=(ReplaySlice(start=0.0, length=0.5),)
        )
        keys = [10, 11, 12, 13]
        assert schedule.apply_replays(keys) == [10, 11, 12, 13, 10, 11]


class TestFaultInjector:
    def test_crash_drops_messages_inside_window(self):
        cluster = Cluster.homogeneous(3)
        schedule = FaultSchedule(
            seed=0, crashes=(CrashFault(node_id=2, at=1.0, duration=1.0),)
        )
        injector = FaultInjector(schedule)
        injector.install(cluster)
        assert cluster.network.fault_policy is injector
        # Receiver down at arrival.
        assert injector.plan(0, 2, 0.5, 1.5) == []
        # Sender down at send time (in-flight response lost).
        assert injector.plan(2, 0, 1.5, 2.5) == []
        # Healthy window: normal delivery.
        assert injector.plan(0, 2, 2.5, 3.0) == [0.0]
        assert injector.crash_drops == 2

    def test_double_install_raises(self):
        cluster = Cluster.homogeneous(3)
        injector = FaultInjector(FaultSchedule(seed=0))
        injector.install(cluster)
        with pytest.raises(Exception):
            injector.install(cluster)

    def test_chaos_draws_are_deterministic(self):
        schedule = FaultSchedule(
            seed=21,
            chaos=(MessageChaos(at=0.0, duration=10.0, drop=0.3, duplicate=0.3,
                                delay=0.3, max_delay=0.01),),
        )

        def trial():
            cluster = Cluster.homogeneous(3)
            injector = FaultInjector(schedule)
            injector.install(cluster)
            return [tuple(injector.plan(0, 2, t * 0.1, t * 0.1 + 0.05))
                    for t in range(50)]

        assert trial() == trial()

    def test_trace_records_injections(self):
        cluster = Cluster.homogeneous(3)
        trace = Tracer()
        schedule = FaultSchedule(
            seed=0,
            crashes=(CrashFault(node_id=2, at=0.5, duration=0.5),),
            stragglers=(StragglerFault(node_id=2, at=0.0, duration=1.0),),
        )
        _cluster, server = setup_server()
        injector = FaultInjector(schedule, tracer=trace)
        injector.install(cluster, servers={2: server})
        assert len(trace.events_named("fault.crash")) == 1
        assert len(trace.events_named("fault.straggler")) == 1
        assert trace.events_named("fault.crash")[0].attrs["node"] == 2


class TestFallbackToReplica:
    def test_permanently_dead_node_is_bypassed_via_replica(self):
        """Node 2 is down for the entire run; every batch aimed at it
        must exhaust retries and fall back to node 3 — and the answer
        must still match the oracle."""
        workload = SyntheticWorkload.data_heavy(
            n_keys=60, n_tuples=400, skew=0.8, seed=17
        )
        udf = UDF(result_size=64.0, param_size=64.0, key_size=8.0,
                  apply_fn=lambda k, p, v: f"{k}|{p}|{v}")
        schedule = FaultSchedule(
            seed=1, crashes=(CrashFault(node_id=2, at=0.0, duration=1e6),)
        )
        job = JoinJob(
            cluster=Cluster.homogeneous(4),
            compute_nodes=[0, 1],
            data_nodes=[2, 3],
            table=workload.build_table(),
            udf=udf,
            strategy=Strategy.fd(),
            sizes=workload.sizes,
            fault_schedule=schedule,
            fault_tolerance=FaultTolerance(request_timeout=0.2, max_retries=1),
            seed=3,
        )
        keys = workload.keys()
        values = snapshot_values(job.table)
        result = job.run(keys)
        assert result.fallbacks > 0
        assert result.timeouts > 0
        assert_oracle_equal(
            job.collected_outputs(), single_node_hash_join(keys, udf, values)
        )

    def test_timeout_below_service_time_converges(self):
        """A timeout shorter than the healthy service time triggers a
        retry storm on a perfectly healthy cluster.  Backoff must carry
        across fallback generations so the storm converges (timeouts
        eventually outgrow the service time) instead of livelocking
        between the two replicas at the base timeout forever."""
        workload = SyntheticWorkload.data_heavy(
            n_keys=50, n_tuples=300, skew=0.8, seed=1
        )
        udf = UDF(result_size=64.0, param_size=64.0, key_size=8.0,
                  apply_fn=lambda k, p, v: f"{k}|{p}|{v}")
        job = JoinJob(
            cluster=Cluster.homogeneous(4),
            compute_nodes=[0, 1],
            data_nodes=[2, 3],
            table=workload.build_table(),
            udf=udf,
            strategy=Strategy.fo(),
            sizes=workload.sizes,
            fault_tolerance=FaultTolerance(request_timeout=0.001, max_retries=2),
            seed=3,
        )
        keys = workload.keys()
        values = snapshot_values(job.table)
        result = job.run(keys)
        assert result.timeouts > 0  # the storm actually happened
        assert_oracle_equal(
            job.collected_outputs(), single_node_hash_join(keys, udf, values)
        )
