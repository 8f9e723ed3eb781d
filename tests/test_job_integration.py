"""Integration tests: full join jobs through the simulated cluster."""

import pytest

from repro.engine.job import JoinJob
from repro.engine.strategies import Strategy
from repro.sim.cluster import Cluster
from repro.workloads.synthetic import SyntheticWorkload


def run_job(strategy_name, workload=None, seed=11, **job_kwargs):
    wl = workload or SyntheticWorkload.data_heavy(
        n_keys=300, n_tuples=1500, skew=1.0, seed=seed
    )
    cluster = Cluster.homogeneous(6)
    job = JoinJob(
        cluster=cluster,
        compute_nodes=[0, 1, 2],
        data_nodes=[3, 4, 5],
        table=wl.build_table(),
        udf=wl.udf,
        strategy=Strategy.by_name(strategy_name),
        sizes=wl.sizes,
        memory_cache_bytes=5e6,
        seed=seed,
        **job_kwargs,
    )
    return job, job.run(wl.keys())


class TestAllStrategiesComplete:
    @pytest.mark.parametrize("name", ["NO", "FC", "FD", "FR", "CO", "LO", "FO"])
    def test_every_tuple_completes(self, name):
        _job, result = run_job(name)
        assert result.n_tuples == 1500
        assert result.makespan > 0.0
        assert result.throughput == pytest.approx(1500 / result.makespan)
        assert result.udfs_at_data_nodes + result.udfs_at_compute_nodes == 1500


class TestStrategySemantics:
    def test_fc_never_computes_at_data_nodes(self):
        _job, result = run_job("FC")
        assert result.udfs_at_data_nodes == 0

    def test_no_never_computes_at_data_nodes(self):
        _job, result = run_job("NO")
        assert result.udfs_at_data_nodes == 0

    def test_fd_computes_everything_at_data_nodes(self):
        _job, result = run_job("FD")
        assert result.udfs_at_data_nodes == 1500

    def test_fr_splits_roughly_evenly(self):
        _job, result = run_job("FR")
        assert 0.35 < result.udfs_at_data_nodes / 1500 < 0.65

    def test_fo_uses_cache_under_skew(self):
        _job, result = run_job("FO")
        assert result.cache_memory_hits + result.cache_disk_hits > 0
        assert result.data_requests > 0

    def test_co_has_no_load_balancing(self):
        job, result = run_job("CO")
        for server in job.servers.values():
            assert not server.balancer.enabled

    def test_lo_does_not_cache(self):
        _job, result = run_job("LO")
        assert result.cache_memory_hits == 0
        assert result.cache_disk_hits == 0


class TestDeterminism:
    def test_same_seed_same_makespan(self):
        _j1, r1 = run_job("FO", seed=5)
        _j2, r2 = run_job("FO", seed=5)
        assert r1.makespan == r2.makespan
        assert r1.bytes_moved == r2.bytes_moved

    def test_different_seed_differs(self):
        _j1, r1 = run_job("FR", seed=5)
        _j2, r2 = run_job("FR", seed=6)
        assert r1.makespan != r2.makespan


class TestPaperShapes:
    """Coarse qualitative invariants the paper's figures rely on."""

    def test_caching_wins_under_high_skew_data_heavy(self):
        wl_skewed = SyntheticWorkload.data_heavy(
            n_keys=1500, n_tuples=1500, skew=1.5, seed=2
        )
        _f, fo = run_job("FO", workload=wl_skewed)
        _d, fd = run_job("FD", workload=wl_skewed)
        assert fo.makespan < fd.makespan

    def test_fd_suffers_skew_in_compute_heavy(self):
        flat = SyntheticWorkload.compute_heavy(
            n_keys=1500, n_tuples=1500, skew=0.0, seed=2
        )
        skewed = SyntheticWorkload.compute_heavy(
            n_keys=1500, n_tuples=1500, skew=1.5, seed=2
        )
        _a, fd_flat = run_job("FD", workload=flat)
        _b, fd_skew = run_job("FD", workload=skewed)
        assert fd_skew.makespan > fd_flat.makespan * 1.2

    def test_load_balancing_beats_fd_in_compute_heavy(self):
        wl = SyntheticWorkload.compute_heavy(
            n_keys=1500, n_tuples=1500, skew=0.5, seed=2
        )
        _a, lo = run_job("LO", workload=wl)
        _b, fd = run_job("FD", workload=wl)
        assert lo.makespan < fd.makespan


class TestConfigurationOptions:
    def test_exact_counting_mode(self):
        _job, result = run_job("FO", exact_counting=True)
        assert result.n_tuples == 1500

    def test_exact_balancer_mode(self):
        _job, result = run_job("FO", use_exact_balancer=True)
        assert result.n_tuples == 1500

    def test_validation(self):
        wl = SyntheticWorkload.data_heavy(n_keys=10, n_tuples=10)
        with pytest.raises(ValueError):
            JoinJob(
                cluster=Cluster.homogeneous(2),
                compute_nodes=[],
                data_nodes=[1],
                table=wl.build_table(),
                udf=wl.udf,
                strategy=Strategy.fo(),
                sizes=wl.sizes,
            )
