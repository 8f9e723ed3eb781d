"""The cluster's one routing protocol: the driver's placement frame.

A static partition is epoch 0 of the driver's ``PlacementService``:
bucket ``b`` on data worker ``b % n``, so key -> bucket -> worker
equals the static ``owner_index`` partition for any bucket count.  The
first two classes check that without forking a process (the driver's
layout and welcome frame, fed to a worker object in this process); the
last one SIGKILLs a data worker on real processes and checks that the
write-off path fails the run cleanly, with elasticity off and on.
"""

from dataclasses import replace

import pytest

from repro.cluster import ClusterBackend, ClusterOptions, WorkerKill
from repro.cluster.driver import ClusterDriver
from repro.cluster.worker import _Worker, owner_index
from repro.obs.registry import MetricsRegistry
from repro.placement.options import ElasticOptions
from repro.runtime.backend import JoinWorkload
from repro.runtime.transport import TransportError
from repro.store.partitioner import stable_hash
from repro.workloads.synthetic import SyntheticWorkload

#: 1 000 probe keys of two hashable types.
KEYS = list(range(500)) + [f"k{i}" for i in range(500)]


@pytest.fixture(scope="module")
def workload():
    return JoinWorkload.from_synthetic(
        SyntheticWorkload.data_heavy(n_keys=60, n_tuples=120, skew=0.6, seed=5)
    )


def welcomed_workers(workload, tmp_path, **driver_kwargs):
    """Lay the fleet out and welcome one in-process worker per spec."""
    driver = ClusterDriver(workload, log_dir=str(tmp_path), **driver_kwargs)
    try:
        specs = driver._specs(("127.0.0.1", 0))
        frame = driver._welcome_frame()
    finally:
        driver.close()
    workers = []
    for spec in specs:
        spec.log_path = str(tmp_path / f"{spec.worker_id}.log")
        worker = _Worker(spec, workload)
        worker.welcome(frame)
        worker.close()
        workers.append(worker)
    return frame, workers


class TestEpochZeroIsTheStaticPartition:
    @pytest.mark.parametrize("buckets_per_node", [1, 8])
    @pytest.mark.parametrize("n_data", [1, 2, 3])
    def test_frame_routes_like_owner_index(
        self, workload, tmp_path, n_data, buckets_per_node
    ):
        frame, workers = welcomed_workers(
            workload, tmp_path, n_compute=2, n_data=n_data,
            elastic=ElasticOptions(buckets_per_node=buckets_per_node),
        )
        placement = frame["placement"]
        assert placement["epoch"] == 0
        assert placement["n_buckets"] == n_data * buckets_per_node
        ring = frame["data_ring"]
        assert ring == [f"d{j}" for j in range(n_data)]
        for worker in workers:
            for key in KEYS:
                assert worker.data_worker_for(key) == ring[
                    owner_index(key, n_data)
                ]


class TestBasePartition:
    @pytest.mark.parametrize("placement", ["split", "colocated"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_each_data_worker_loads_its_static_slice(
        self, workload, tmp_path, placement, n
    ):
        """The rows a data worker loads at welcome are the slice
        ``stable_hash(key) % n == its data index``, and together the
        slices hold the stored relation exactly once."""
        frame, workers = welcomed_workers(
            workload, tmp_path, n_compute=n, n_data=n, placement=placement,
        )
        stored = workload.stored_values()
        ring = frame["data_ring"]
        loaded = 0
        for worker in workers:
            if "data" not in worker.spec.roles:
                assert worker.values == {}
                continue
            index = ring.index(worker.spec.worker_id)
            assert worker.values == {
                key: value for key, value in stored.items()
                if stable_hash(key) % n == index
            }
            loaded += len(worker.values)
        assert loaded == len(stored)
        if placement == "colocated":
            assert ring == [f"w{i}" for i in range(n)]


@pytest.mark.cluster
class TestDataWorkerWriteOff:
    def _distinct_keys(self):
        """Every stored key once, so the keys dispatched after the kill
        were never fetched (or cached) before it."""
        base = JoinWorkload.from_synthetic(
            SyntheticWorkload.data_heavy(n_keys=64, n_tuples=64, seed=5)
        )
        return replace(base, keys=tuple(sorted(base.stored_values())))

    @pytest.mark.parametrize("elastic", [None, ElasticOptions.on()])
    def test_sigkilled_data_worker_fails_the_run(self, elastic):
        backend = ClusterBackend(
            engine="engine", n_compute=2, n_data=2, seed=7, elastic=elastic,
            options=ClusterOptions(kill=WorkerKill("d1", after_fraction=0.5)),
        )
        with pytest.raises(TransportError, match="d1"):
            backend.run_join(self._distinct_keys())

    def test_static_run_publishes_no_placement_names(self, workload):
        registry = MetricsRegistry()
        ClusterBackend(
            engine="engine", n_compute=2, n_data=2, seed=7, registry=registry
        ).run_join(workload)
        snapshot = registry.snapshot()
        names = [name for kind in snapshot.values() for name in kind]
        assert names and not [n for n in names if "placement" in n]
