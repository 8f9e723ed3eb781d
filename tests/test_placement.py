"""Placement invariants, elastic differential, and migration chaos.

The acceptance suite for the versioned placement map (DESIGN.md §13):

* Hypothesis properties over arbitrary split/merge/migrate/replicate
  sequences — no key is ever unreachable at any epoch, and
  split-then-merge round-trips to the pre-split map.
* ``elastic=off`` is **bit-identical** to the static ``RegionMap``:
  outputs, makespan, and the full registry snapshot compare equal
  against a run monkeypatched onto the static map.
* ``elastic=on`` preserves the oracle answer while actually splitting,
  migrating and replicating, and publishes ``placement.*`` metrics.
* A stale-epoch batch is refused with :class:`WrongRegion` *before any
  effect* and the transport re-routes it to the current owner.
* ClusterBackend: mid-run migration under seeded message chaos loses no
  rows and re-executes no UDF (the file-ledger exactness check from
  ``tests/test_cluster_oracle.py``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.oracle import assert_oracle_equal, single_node_hash_join
from repro.api import JobSpec, RunConfig, run_join
from repro.placement import ElasticOptions, PlacementService, WrongRegion
from repro.runtime import ENGINES
from repro.store.partitioner import HashPartitioner, RegionMap

KEYS = list(range(60))


def service(n_regions=4, nodes=(1, 2)):
    svc = PlacementService.round_robin(HashPartitioner(n_regions), list(nodes))
    svc.elastic_active = True
    return svc


# ----------------------------------------------------------------------
# Property suite: reachability and round-trips under arbitrary histories
# ----------------------------------------------------------------------
@st.composite
def elastic_histories(draw):
    n_regions = draw(st.integers(min_value=2, max_value=6))
    n_nodes = draw(st.integers(min_value=2, max_value=4))
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ("split", "merge", "migrate", "replicate", "move")
                ),
                st.integers(min_value=0, max_value=10**6),
            ),
            max_size=25,
        )
    )
    return n_regions, n_nodes, ops


def apply_history(svc, nodes, ops):
    """Drive a service through a history, skipping structurally invalid
    picks (hypothesis explores the *valid* mutation space; the guards
    themselves are unit-tested below)."""
    clock = 0.0
    for op, pick in ops:
        clock += 1.0
        visible = svc.visible_regions()
        if op == "split":
            svc.split_region(visible[pick % len(visible)])
        elif op == "merge":
            mergeable = [
                parent
                for parent, (left, right, _bit) in svc._splits.items()
                if left not in svc._splits
                and right not in svc._splits
                and not {left, right}
                & (set(svc._migrating) | set(svc._double_serve))
            ]
            if mergeable:
                svc.merge_regions(sorted(mergeable)[pick % len(mergeable)])
        elif op == "migrate":
            region = visible[pick % len(visible)]
            if region in svc._migrating:
                continue
            target = nodes[pick % len(nodes)]
            svc.begin_migration(region, target)
            svc.complete_migration(
                region, target, at=clock, serve_window=0.5
            )
        elif op == "replicate":
            svc.replicate_key(pick % 60, nodes[pick % len(nodes)])
        elif op == "move":
            svc.move_region(
                visible[pick % len(visible)], nodes[pick % len(nodes)]
            )
    return clock


@given(history=elastic_histories())
@settings(max_examples=80, deadline=None)
def test_property_no_key_unreachable_at_any_epoch(history):
    """At every epoch of every history: each key maps to a live node,
    that node may serve it, and every fan-in route is a legal server."""
    n_regions, n_nodes, ops = history
    nodes = list(range(1, n_nodes + 1))
    svc = service(n_regions, nodes)
    clock = 0.0
    last_epoch = svc.epoch
    for step in range(len(ops) + 1):
        for key in KEYS:
            owner = svc.node_for_key(key)
            assert owner in nodes
            assert svc.may_serve(key, owner, clock)
            for reader in range(n_nodes + 2):
                route = svc.route_for_key(key, reader)
                assert svc.may_serve(key, route, clock)
        assert svc.epoch >= last_epoch  # epochs never rewind
        last_epoch = svc.epoch
        if step < len(ops):
            clock = apply_history(svc, nodes, ops[step : step + 1])


@given(history=elastic_histories(), region_pick=st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_property_split_merge_round_trips(history, region_pick):
    """Splitting any leaf and immediately merging it restores the exact
    key->node map, at a strictly later epoch."""
    n_regions, n_nodes, ops = history
    nodes = list(range(1, n_nodes + 1))
    svc = service(n_regions, nodes)
    apply_history(svc, nodes, ops)
    before = {key: svc.node_for_key(key) for key in KEYS}
    epoch = svc.epoch
    visible = svc.visible_regions()
    target = visible[region_pick % len(visible)]
    if target in svc.migrating_regions:
        return
    svc.split_region(target)
    svc.merge_regions(target)
    assert {key: svc.node_for_key(key) for key in KEYS} == before
    assert svc.epoch == epoch + 2


# ----------------------------------------------------------------------
# Unit mechanics: migration windows, failures, fan-in, guards
# ----------------------------------------------------------------------
class TestMigrationWindow:
    def test_double_serve_then_stall(self):
        svc = service()
        key = next(k for k in KEYS if svc.node_for_key(k) == 1)
        region = svc.region_of(key)
        assert svc.begin_migration(region, 2) == 1
        assert region in svc.migrating_regions
        svc.complete_migration(region, 2, at=1.0, serve_window=0.5)
        assert svc.node_for_key(key) == 2
        assert svc.counters["migrations"] == 1
        # Both old and new owner serve inside the window...
        assert svc.may_serve(key, 1, 1.2) and svc.may_serve(key, 2, 1.2)
        # ...but only the new owner after it expires.
        assert not svc.may_serve(key, 1, 1.6)
        owners, stalled = svc.check_batch([key], 1, 2.0)
        assert owners == {key: 2} and stalled  # a cutover stall
        svc.prune_double_serve(2.0)
        owners, stalled = svc.check_batch([key], 1, 2.0)
        assert owners == {key: 2} and not stalled

    def test_abort_leaves_map_unchanged(self):
        svc = service()
        before = {key: svc.node_for_key(key) for key in KEYS}
        epoch = svc.epoch
        svc.begin_migration(0, 2)
        svc.abort_migration(0)
        assert {key: svc.node_for_key(key) for key in KEYS} == before
        assert svc.epoch == epoch
        with pytest.raises(ValueError, match="no migration"):
            svc.complete_migration(0, 2, at=0.0, serve_window=0.5)

    def test_structural_guards(self):
        svc = service()
        svc.begin_migration(0, 2)
        with pytest.raises(ValueError, match="migrating"):
            svc.split_region(0)
        left, right = svc.split_region(1)
        with pytest.raises(ValueError, match="cannot be split|does not own"):
            svc.split_region(1)  # now an interior node
        with pytest.raises(ValueError, match="does not own"):
            svc.move_region(1, 2)
        svc.begin_migration(left, 2)
        with pytest.raises(ValueError, match="mid-migration"):
            svc.merge_regions(1)


class TestNodeDeath:
    def test_dead_node_leaves_no_serving_grant(self):
        svc = service(nodes=(1, 2, 3))
        key = next(k for k in KEYS if svc.node_for_key(k) == 1)
        region = svc.region_of(key)
        svc.replicate_key(key, 3)
        svc.begin_migration(region, 2)
        svc.complete_migration(region, 2, at=1.0, serve_window=5.0)
        other = next(r for r in svc.visible_regions() if r != region)
        svc.begin_migration(other, 3)
        svc.on_node_dead(3)
        # Replica on the corpse revoked; migration targeting it gone.
        assert 3 not in svc.replicas_of(key)
        assert svc.replica_map() == {}
        assert not any(
            target == 3 for target in svc._migrating.values()
        )
        svc.on_node_dead(1)
        # The double-serve grant named node 1: revoked too.
        assert not svc.may_serve(key, 1, 1.1)
        assert svc.may_serve(key, 2, 1.1)


class TestReplicaFanIn:
    def test_readers_spread_over_owner_and_replicas(self):
        svc = service(nodes=(1, 2, 3))
        key = next(k for k in KEYS if svc.node_for_key(k) == 1)
        svc.replicate_key(key, 2)
        svc.replicate_key(key, 3)
        svc.replicate_key(key, 1)  # owner: no-op
        svc.replicate_key(key, 2)  # duplicate: no-op
        assert svc.replicas_of(key) == (2, 3)
        routes = {svc.route_for_key(key, reader) for reader in range(6)}
        assert routes == {1, 2, 3}  # full fan-in
        for reader in range(6):  # deterministic per reader
            assert svc.route_for_key(key, reader) == svc.route_for_key(
                key, reader
            )
        assert svc.counters["hotkey_replica_hits"] == 0
        assert svc.may_serve(key, 3, 0.0)
        assert svc.counters["hotkey_replica_hits"] == 1
        svc.drop_replicas(key)
        assert {svc.route_for_key(key, r) for r in range(6)} == {1}


# ----------------------------------------------------------------------
# WrongRegion: refusal before effect, transport re-route
# ----------------------------------------------------------------------
class TestWrongRegion:
    def _job(self):
        from repro.engine.job import JoinJob
        from repro.engine.strategies import Strategy
        from repro.sim.cluster import Cluster
        from repro.workloads.synthetic import SyntheticWorkload

        synthetic = SyntheticWorkload.data_heavy(n_keys=8, n_tuples=8, seed=3)
        job = JoinJob(
            cluster=Cluster.homogeneous(3),
            compute_nodes=[0],
            data_nodes=[1, 2],
            table=synthetic.build_table(),
            udf=synthetic.udf,
            strategy=Strategy.by_name("FD"),
            sizes=synthetic.sizes,
            seed=3,
        )
        return job, synthetic

    def test_stale_batch_refused_before_any_effect(self):
        from repro.core.optimizer import Route
        from repro.store.messages import BatchRequest, RequestItem, RequestKind

        job, synthetic = self._job()
        svc = job.kvstore.region_map
        svc.elastic_active = True
        key = next(k for k in range(8) if svc.node_for_key(k) == 1)
        svc.move_region(svc.region_of(key), 2)
        server = job.servers[1]
        batch = BatchRequest(
            src=0,
            dst=1,
            data_items=[
                RequestItem(
                    key=key, kind=RequestKind.DATA,
                    route=Route.DATA_REQUEST_DISK, tuple_id=0,
                )
            ],
        )
        executed = server.udfs_executed
        with pytest.raises(WrongRegion) as excinfo:
            server.serve(0.0, batch, synthetic.sizes)
        assert excinfo.value.owners == {key: 2}
        assert excinfo.value.epoch == svc.epoch
        assert server.udfs_executed == executed  # refusal had no effect
        assert svc.counters["redirects"] == 1

    def test_transport_reroutes_to_current_owner(self):
        from repro.core.optimizer import Route
        from repro.runtime.transport import Transport
        from repro.store.messages import RequestItem, RequestKind

        job, synthetic = self._job()
        svc = job.kvstore.region_map
        svc.elastic_active = True
        key = next(k for k in range(8) if svc.node_for_key(k) == 1)
        responses = []
        transport = Transport(
            cluster=job.cluster,
            node_id=0,
            servers=job.servers,
            sizes=synthetic.sizes,
            on_response=responses.append,
        )
        item = RequestItem(
            key=key, kind=RequestKind.DATA,
            route=Route.DATA_REQUEST_DISK, tuple_id=0,
        )
        # Send to node 1 — then the region cuts over before delivery.
        transport.send(1, RequestKind.DATA, [item])
        svc.move_region(svc.region_of(key), 2)
        job.cluster.sim.run()
        assert transport.redirects == 1
        assert svc.counters["redirects"] == 1
        assert len(responses) == 1  # the re-routed batch still answered
        assert responses[0].src == 2  # ...by the current owner
        assert responses[0].items[0].key == key
        assert responses[0].items[0].value is not None


# ----------------------------------------------------------------------
# Differential: elastic off is the static map, on preserves the oracle
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def spec():
    return JobSpec.synthetic(
        "data_heavy", n_keys=40, n_tuples=400, skew=1.5, seed=9
    )


@pytest.fixture(scope="module")
def oracle(spec):
    workload = spec.to_workload()
    return single_node_hash_join(
        list(workload.keys), workload.udf, workload.stored_values()
    )


class TestElasticDifferential:
    def test_off_is_bit_identical_to_static_region_map(
        self, spec, oracle, monkeypatch
    ):
        """With elasticity off, the inert PlacementService must be
        indistinguishable — outputs, makespan and the whole metrics
        snapshot — from the pre-refactor static RegionMap."""
        import repro.engine.job as job_module

        config = RunConfig(engine="engine", n_compute=3, n_data=3, seed=9)
        with_service = run_join(spec, config)
        monkeypatch.setattr(job_module, "PlacementService", RegionMap)
        with_static = run_join(spec, config)
        assert with_service.outputs == with_static.outputs
        assert with_service.makespan == with_static.makespan
        assert with_service.snapshot == with_static.snapshot
        assert_oracle_equal(with_service.outputs, oracle)
        assert not any(
            name.startswith("placement.")
            for section in with_service.snapshot.values()
            for name in section
        )

    def test_on_preserves_outputs_and_publishes_metrics(self, spec, oracle):
        report = run_join(
            spec,
            RunConfig(
                engine="engine",
                n_compute=3,
                n_data=3,
                seed=9,
                memory_cache_bytes=2e5,
                elastic=ElasticOptions.on(
                    check_interval=0.05,
                    min_observations=16,
                    split_factor=1.5,
                    hot_key_fraction=0.05,
                ),
            ),
        )
        assert_oracle_equal(report.outputs, oracle)
        gauges = report.snapshot.get("gauges", {})
        counters = report.snapshot.get("counters", {})
        assert "placement.epoch" in gauges
        activity = sum(
            value
            for name, value in counters.items()
            if name.startswith("placement.")
        )
        assert gauges["placement.epoch"] > 0 and activity > 0


# ----------------------------------------------------------------------
# ClusterBackend: cutover under chaos loses nothing, duplicates nothing
# ----------------------------------------------------------------------
@pytest.mark.cluster
class TestClusterMigrationChaos:
    """Elastic placement on real worker processes under seeded message
    chaos: every key stays reachable across the mid-run rebalance
    cutover (oracle equivalence) and the file ledger proves no UDF
    re-executed (copy-then-cutover duplicates no effects)."""

    def _workload(self, ledger_path=None):
        from repro.runtime.backend import JoinWorkload
        from repro.workloads.synthetic import SyntheticWorkload

        base = SyntheticWorkload.data_heavy(
            n_keys=30, n_tuples=150, skew=1.5, seed=5
        )
        if ledger_path is None:
            return JoinWorkload.from_synthetic(base)

        def apply_fn(key, p, value):
            with open(ledger_path, "a") as ledger:
                ledger.write(f"{key}|{p}\n")
            return f"{key}|{p}|{value}"

        return JoinWorkload.from_synthetic(base, apply_fn=apply_fn)

    def _backend(self, engine, registry=None):
        from repro.cluster import ClusterBackend
        from repro.faults.schedule import FaultSchedule, MessageChaos

        chaos = FaultSchedule(
            seed=11,
            chaos=(
                MessageChaos(
                    at=0.0, duration=30.0, drop=0.15, duplicate=0.1,
                    delay=0.1,
                ),
            ),
        )
        return ClusterBackend(
            engine=engine,
            n_compute=2,
            n_data=2,
            seed=7,
            fault_schedule=chaos,
            registry=registry,
            elastic=ElasticOptions.on(
                min_observations=8,
                migrate_after_fraction=0.3,
                hot_key_fraction=0.1,
                buckets_per_node=4,
            ),
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_no_key_unreachable_under_chaos(self, engine):
        from repro.obs.registry import MetricsRegistry

        workload = self._workload()
        expected = single_node_hash_join(
            list(workload.keys), workload.udf, workload.stored_values()
        )
        registry = MetricsRegistry()
        run = self._backend(engine, registry).run_join(workload)
        assert_oracle_equal(run.outputs, expected)
        assert run.native.wire_faults > 0  # chaos really fired
        # The driver's placement service published its epoch.
        assert "placement.epoch" in registry.snapshot()["gauges"]

    def test_migration_duplicates_no_effects(self, tmp_path):
        path = tmp_path / "ledger.txt"
        workload = self._workload(path)
        # The oracle runs the plain UDF (a ledger-free twin), so the
        # ledger counts only the cluster run's executions.
        plain = self._workload()
        expected = single_node_hash_join(
            list(plain.keys), plain.udf, plain.stored_values()
        )
        run = self._backend("engine").run_join(workload)
        assert_oracle_equal(run.outputs, expected)
        with open(path) as ledger:
            lines = [line for line in ledger if line.strip()]
        assert len(lines) == len(workload.keys)  # exactly once per tuple
