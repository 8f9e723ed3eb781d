"""Edge-case tests for the job drivers."""

import pytest

from repro.engine.job import JoinJob, MembershipEvent
from repro.engine.strategies import Strategy
from repro.sim.cluster import Cluster
from repro.workloads.synthetic import SyntheticWorkload


def make_job(**kwargs):
    workload = SyntheticWorkload.data_heavy(n_keys=20, n_tuples=1, seed=79)
    defaults = dict(
        cluster=Cluster.homogeneous(4),
        compute_nodes=[0, 1],
        data_nodes=[2, 3],
        table=workload.build_table(),
        udf=workload.udf,
        strategy=Strategy.fo(),
        sizes=workload.sizes,
        seed=79,
    )
    defaults.update(kwargs)
    return JoinJob(**defaults)


class TestJobEdges:
    def test_empty_input(self):
        result = make_job().run([])
        assert result.n_tuples == 0
        assert result.makespan == 0.0
        assert result.throughput == 0.0

    def test_single_tuple(self):
        result = make_job().run([5])
        assert result.n_tuples == 1
        assert result.makespan > 0

    def test_more_compute_nodes_than_tuples(self):
        job = make_job()
        result = job.run([1, 2])  # two tuples, two compute nodes
        assert result.n_tuples == 2

    def test_single_data_node(self):
        job = make_job(data_nodes=[3])
        result = job.run([1, 2, 3, 4, 5])
        assert result.n_tuples == 5

    def test_tiny_pipeline_window(self):
        job = make_job(pipeline_window=1)
        result = job.run([i % 20 for i in range(50)])
        assert result.n_tuples == 50

    def test_batch_size_one(self):
        job = make_job(batch_size=1)
        result = job.run([i % 20 for i in range(30)])
        assert result.n_tuples == 30

    def test_no_max_wait_still_completes(self):
        # Without the timeout, the end-of-input flush must still drain
        # partially filled buffers.
        job = make_job(max_wait=None, batch_size=16)
        result = job.run([i % 20 for i in range(40)])
        assert result.n_tuples == 40

    def test_empty_rate_run(self):
        result = make_job().run_at_rate([], arrivals_per_second=10.0)
        assert result.n_tuples == 0
        assert result.throughput == 0.0


class TestPushMode:
    """``run_trace`` is the push mode of ``run``'s body."""

    def test_run_trace_freezes_like_run(self):
        # Figure 9's FO-NA freezes after a fraction of each node's
        # round-robin share; pushed tuples land on the same shares.
        keys = [i % 20 for i in range(300)]
        pulled = make_job(strategy=Strategy.fo_non_adaptive(0.1))
        pulled.run(keys)
        pushed = make_job(strategy=Strategy.fo_non_adaptive(0.1))
        pushed.run_trace(keys, [i * 0.001 for i in range(300)])
        want = {cn: rt._freeze_after for cn, rt in pulled.runtimes.items()}
        assert want == {0: 15, 1: 15}
        assert {cn: rt._freeze_after for cn, rt in pushed.runtimes.items()} == want

    def test_run_trace_rejects_a_membership_schedule(self):
        job = make_job(membership=[MembershipEvent(0.1, "add", 1)])
        with pytest.raises(ValueError, match="membership"):
            job.run_trace([1, 2, 3], [0.0, 0.1, 0.2])
        assert job.cluster.sim.events_processed == 0
