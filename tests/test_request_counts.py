"""Every strategy's result counts the requests its routers sent.

``JobResult.compute_requests`` / ``data_requests`` (and the
``routing.*`` counters published from them) must equal the tuples the
runtimes' routers sent off the node, whether Algorithm 1 routed them or
a fixed router did: FC, FD, NO, FR and LO, FO with a side-effecting UDF
(always a compute request at the owner) and FO-NA (whose frozen phase
rents every cache miss).
"""

from collections import Counter
from dataclasses import replace

import pytest

from repro.core.optimizer import Route
from repro.engine import job as job_module
from repro.engine import multi_join
from repro.engine.job import JoinJob
from repro.engine.multi_join import MultiJoinJob
from repro.engine.strategies import Strategy
from repro.sim.cluster import Cluster
from repro.workloads.synthetic import SyntheticWorkload
from tests.test_multi_join import make_stage

#: name -> (strategy, side-effect free UDF?)
CASES = {
    "FC": (Strategy.fc(), True),
    "FD": (Strategy.fd(), True),
    "NO": (Strategy.no(), True),
    "FR": (Strategy.fr(), True),
    "LO": (Strategy.lo(), True),
    "FO-side-effect": (Strategy.fo(), False),
    "FO-NA": (Strategy.fo_non_adaptive(0.3), True),
}


def count_routes(monkeypatch, module):
    """Tally every route the runtimes ``module`` builds return."""
    routes: Counter = Counter()

    class Counting(module.ComputeNodeRuntime):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            router = self._router

            def counted(key, dst):
                route, value = router(key, dst)
                routes[route] += 1
                return route, value

            self._router = counted

    monkeypatch.setattr(module, "ComputeNodeRuntime", Counting)
    return routes


def assert_counts_match(name, result, routes):
    compute = routes[Route.COMPUTE_REQUEST]
    data = routes[Route.DATA_REQUEST_MEMORY] + routes[Route.DATA_REQUEST_DISK]
    assert compute + data > 0
    assert (result.compute_requests, result.data_requests) == (compute, data)
    if name == "FD":
        assert result.data_requests == 0
    if name == "FC":
        assert result.compute_requests == 0


@pytest.mark.parametrize("name", list(CASES))
def test_join_job_counts_every_routed_request(monkeypatch, name):
    strategy, side_effect_free = CASES[name]
    routes = count_routes(monkeypatch, job_module)
    wl = SyntheticWorkload.data_heavy(n_keys=200, n_tuples=800, skew=1.0, seed=3)
    job = JoinJob(
        cluster=Cluster.homogeneous(4),
        compute_nodes=[0, 1],
        data_nodes=[2, 3],
        table=wl.build_table(),
        udf=replace(wl.udf, side_effect_free=side_effect_free),
        strategy=strategy,
        sizes=wl.sizes,
        memory_cache_bytes=5e6,
        seed=3,
    )
    result = job.run(wl.keys())
    assert sum(routes.values()) == 800
    assert_counts_match(name, result, routes)


@pytest.mark.parametrize("name", list(CASES))
def test_multi_join_job_counts_every_routed_request(monkeypatch, name):
    strategy, side_effect_free = CASES[name]
    routes = count_routes(monkeypatch, multi_join)
    stages = [
        replace(stage, udf=replace(stage.udf, side_effect_free=side_effect_free))
        for stage in (make_stage(f"dim{i}", 50) for i in range(2))
    ]
    job = MultiJoinJob(
        cluster=Cluster.homogeneous(4),
        compute_nodes=[0, 1],
        data_nodes=[2, 3],
        stages=stages,
        strategy=strategy,
        pipeline_window=32,
        seed=3,
    )
    result = job.run([[i % 50, (i * 7) % 50] for i in range(300)])
    assert sum(routes.values()) == 600
    assert_counts_match(name, result, routes)
