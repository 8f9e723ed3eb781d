"""Tests for the tracer's routing-decision views."""

from collections import Counter

import pytest

from repro.engine.job import JoinJob
from repro.engine.strategies import Strategy
from repro.obs import Tracer
from repro.sim.cluster import Cluster
from repro.workloads.synthetic import SyntheticWorkload


def traced_run(strategy="FO", n_tuples=1500, skew=1.3, seed=73):
    workload = SyntheticWorkload.data_heavy(
        n_keys=300, n_tuples=n_tuples, skew=skew, seed=seed
    )
    trace = Tracer()
    cluster = Cluster.homogeneous(4)
    job = JoinJob(
        cluster=cluster,
        compute_nodes=[0, 1],
        data_nodes=[2, 3],
        table=workload.build_table(),
        udf=workload.udf,
        strategy=Strategy.by_name(strategy),
        sizes=workload.sizes,
        memory_cache_bytes=20e6,
        pipeline_window=32,
        tracer=trace,
        seed=seed,
    )
    result = job.run(workload.keys())
    return result, trace


def windowed_mix(trace, n_windows):
    """Route mixes over ``n_windows`` equal time slices: after a
    distribution shift the early windows fill with compute requests
    (re-learning) and the late windows with local hits."""
    if n_windows < 1:
        raise ValueError("n_windows must be >= 1")
    routes = trace.events_named("route")
    buckets = [Counter() for _ in range(n_windows)]
    end = max((e.time for e in routes), default=0.0) or 1.0
    for event in routes:
        index = min(int(event.time / end * n_windows), n_windows - 1)
        buckets[index][event.attrs["route"]] += 1
    return [dict(b) for b in buckets]


def local_hit_rate_curve(trace, n_windows=10):
    """Fraction of locally served tuples per time window."""
    curve = []
    for mix in windowed_mix(trace, n_windows):
        total = sum(mix.values())
        local = mix.get("local-memory", 0) + mix.get("local-disk", 0)
        curve.append(local / total if total else 0.0)
    return curve


def per_node_counts(trace):
    """Routing decisions per compute node."""
    return dict(Counter(e.attrs["node"] for e in trace.events_named("route")))


class TestRoutingTrace:
    def test_one_event_per_tuple(self):
        result, trace = traced_run()
        assert len(trace.events_named("route")) == result.n_tuples

    def test_route_mix_covers_expected_routes(self):
        _result, trace = traced_run("FO")
        mix = trace.route_mix()
        assert mix.get("compute-request", 0) > 0
        assert mix.get("local-memory", 0) > 0

    def test_fixed_strategy_mixes_are_pure(self):
        _result, trace = traced_run("FD")
        assert set(trace.route_mix()) == {"compute-request"}
        _result, trace = traced_run("FC")
        assert set(trace.route_mix()) == {"data-request-disk"}

    def test_key_history_shows_rent_then_buy_then_hits(self):
        _result, trace = traced_run("FO")
        # The hottest key's trajectory: rents first, ends with hits.
        hottest = Counter(
            e.attrs["key"] for e in trace.events_named("route")
        ).most_common(1)[0][0]
        history = trace.key_history(hottest)
        assert history[0] == "compute-request"
        assert history[-1] == "local-memory"

    def test_local_hit_rate_rises_over_time(self):
        _result, trace = traced_run("FO")
        curve = local_hit_rate_curve(trace, n_windows=5)
        assert len(curve) == 5
        assert curve[-1] > curve[0]

    def test_per_node_counts_cover_all_compute_nodes(self):
        _result, trace = traced_run("FO")
        assert set(per_node_counts(trace)) == {0, 1}

    def test_windowed_mix_validation(self):
        trace = Tracer()
        with pytest.raises(ValueError):
            windowed_mix(trace, 0)
        assert windowed_mix(trace, 3) == [{}, {}, {}]
        assert local_hit_rate_curve(trace, 2) == [0.0, 0.0]
