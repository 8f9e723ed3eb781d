"""Tests for pipelined multi-join execution (Section 6)."""

import pytest

from repro.engine.multi_join import JoinStageSpec, MultiJoinJob
from repro.engine.strategies import Strategy
from repro.experiments import fig7_tpcds
from repro.memory import MemoryOptions
from repro.memory.replan import plan_repr
from repro.obs.registry import MetricsRegistry
from repro.placement.batch import SizeProfile
from repro.sim.cluster import Cluster
from repro.store.messages import UDF
from repro.store.table import Row, Table
from tests.test_memory import TestStageBoundaryReplan as _Replan
from tests.test_memory import _multi_join_job


def make_stage(name, n_keys, compute_cost=0.001, size=500.0):
    table = Table(name)
    for key in range(n_keys):
        table.put(Row(key=key, value=f"{name}-{key}", size=size,
                      compute_cost=compute_cost))
    sizes = SizeProfile(key_size=8.0, param_size=64.0, value_size=size,
                        computed_size=64.0)
    udf = UDF(result_size=64.0, param_size=64.0, key_size=8.0)
    return JoinStageSpec(name, table, udf, sizes)


def make_job(n_stages=2, strategy=None, **kwargs):
    cluster = Cluster.homogeneous(4)
    stages = [make_stage(f"dim{i}", 50) for i in range(n_stages)]
    kwargs.setdefault("pipeline_window", 32)
    return MultiJoinJob(
        cluster=cluster,
        compute_nodes=[0, 1],
        data_nodes=[2, 3],
        stages=stages,
        strategy=strategy or Strategy.fo(),
        **kwargs,
    )


class TestMultiJoin:
    def test_all_tuples_traverse_all_stages(self):
        job = make_job(n_stages=3)
        keys = [[i % 50, (i * 7) % 50, (i * 13) % 50] for i in range(400)]
        result = job.run(keys)
        assert result.n_tuples == 400
        assert result.udfs_at_data_nodes + result.udfs_at_compute_nodes == 1200

    def test_none_keys_skip_stages(self):
        job = make_job(n_stages=3)
        keys = [[i % 50, None, (i * 3) % 50] for i in range(200)]
        result = job.run(keys)
        # Stage 1 is skipped for every tuple: only 2 UDFs per tuple.
        assert result.udfs_at_data_nodes + result.udfs_at_compute_nodes == 400

    def test_tuple_dropped_mid_pipeline(self):
        job = make_job(n_stages=2)
        keys = [[i % 50, None] for i in range(100)]
        result = job.run(keys)
        assert result.n_tuples == 100
        assert result.udfs_at_data_nodes + result.udfs_at_compute_nodes == 100

    def test_single_stage_matches_join_job_semantics(self):
        job = make_job(n_stages=1)
        result = job.run([[i % 50] for i in range(300)])
        assert result.n_tuples == 300

    def test_requires_stages(self):
        with pytest.raises(ValueError):
            MultiJoinJob(
                cluster=Cluster.homogeneous(2),
                compute_nodes=[0],
                data_nodes=[1],
                stages=[],
                strategy=Strategy.fo(),
            )

    def test_deterministic(self):
        keys = [[i % 50, (i * 3) % 50] for i in range(200)]
        r1 = make_job(seed=9).run(keys)
        r2 = make_job(seed=9).run(keys)
        assert r1.makespan == r2.makespan

    def test_caching_reduces_wire_traffic_across_stages(self):
        keys = [[i % 10, i % 10] for i in range(500)]  # very hot keys
        fo = make_job(strategy=Strategy.fo(), seed=1).run(keys)
        fc = make_job(strategy=Strategy.fc(), seed=1).run(keys)
        assert fo.bytes_moved < fc.bytes_moved
        assert fo.cache_memory_hits > 0

    def test_none_first_key_skips_stage(self):
        # Tuple i: all keys None (i % 4 == 0), no stage-0 key (1), or
        # stage 0 and 1 only (2, 3).  ``run`` raises unless every tuple
        # completes.
        keys = [
            [None, None, None] if i % 4 == 0
            else [None, (i * 7) % 50, (i * 13) % 50] if i % 4 == 1
            else [i % 50, (i * 7) % 50, None]
            for i in range(200)
        ]
        result = make_job(n_stages=3).run(keys)
        assert result.n_tuples == 200
        assert result.udfs_at_data_nodes + result.udfs_at_compute_nodes == sum(
            key is not None for row in keys for key in row
        )

    def test_result_counts_the_optimizers_requests(self, monkeypatch):
        from repro.engine import multi_join
        from repro.obs.registry import ambient_registry

        built = []

        class Recording(multi_join.ComputeNodeRuntime):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(multi_join, "ComputeNodeRuntime", Recording)
        registry = MetricsRegistry()
        runs_before = ambient_registry().value("jobs.runs")
        keys = [[i % 50, (i * 7) % 50, (i * 13) % 50] for i in range(300)]
        result = make_job(n_stages=3, seed=5, registry=registry).run(keys)
        stats = [rt.optimizer.stats() for rt in built]
        assert len(stats) == 6  # 3 stages x 2 compute nodes
        compute = sum(s.compute_requests for s in stats)
        data = sum(s.data_requests_memory + s.data_requests_disk for s in stats)
        assert compute + data > 0
        assert (result.compute_requests, result.data_requests) == (compute, data)
        assert registry.value("jobs.runs") == 1
        assert registry.value("routing.compute_requests") == compute
        assert registry.value("routing.data_requests") == data
        assert ambient_registry().value("jobs.runs") == runs_before + 1


# ----------------------------------------------------------------------
# Golden rows: the pipeline's simulated results, pinned to the float.
# ----------------------------------------------------------------------
_DENSE = [[i % 50, (i * 7) % 50, (i * 13) % 50] for i in range(300)]
# Stages 1 and 2 dropped for some tuples (stage 0 always keyed).
_HOLES = [
    [i % 50,
     None if i % 3 == 0 else (i * 7) % 50,
     None if i % 5 == 0 else (i * 13) % 50]
    for i in range(300)
]
# Every stage, the first included, dropped for some tuples.
_HOLES_FIRST = [
    [None if i % 7 == 0 else i % 50,
     None if i % 3 == 0 else (i * 7) % 50,
     (i * 13) % 50]
    for i in range(400)
]


def _left_deep(strategy, **kwargs):
    return make_job(n_stages=3, strategy=strategy, seed=5, **kwargs)


def _replan(**kwargs):
    return _multi_join_job(
        seed=3,
        memory=MemoryOptions.on(replan=True, replan_min_observations=32),
        **kwargs,
    )


# name -> (job factory, keys).  Each factory takes the registry the
# job publishes its memory counters to.
_GOLDEN_CASES = {
    "fo": (lambda r: _left_deep(Strategy.fo(), registry=r), _DENSE),
    "fc": (lambda r: _left_deep(Strategy.fc(), registry=r), _DENSE),
    "fd": (lambda r: _left_deep(Strategy.fd(), registry=r), _DENSE),
    "no": (lambda r: _left_deep(Strategy.no(), registry=r), _DENSE),
    "fo-holes": (lambda r: _left_deep(Strategy.fo(), registry=r), _HOLES),
    "fc-holes": (lambda r: _left_deep(Strategy.fc(), registry=r), _HOLES),
    "fd-holes": (lambda r: _left_deep(Strategy.fd(), registry=r), _HOLES),
    "no-holes": (lambda r: _left_deep(Strategy.no(), registry=r), _HOLES),
    "fo-memory": (
        lambda r: _left_deep(
            Strategy.fo(), memory=MemoryOptions.on(), registry=r
        ),
        _DENSE,
    ),
    "fo-budget-20kB": (
        lambda r: _left_deep(
            Strategy.fo(),
            memory=MemoryOptions.on(budget_bytes=20e3),
            registry=r,
        ),
        _DENSE,
    ),
    "replan-wrong-estimates": (
        lambda r: _replan(stage_estimates=_Replan.ESTIMATES, registry=r),
        _Replan.KEYS,
    ),
    "replan-no-estimates": (lambda r: _replan(registry=r), _Replan.KEYS),
    "replan-holes": (
        lambda r: _replan(stage_estimates=_Replan.ESTIMATES, registry=r),
        _HOLES_FIRST,
    ),
}

# (makespan, events, bytes_moved, memory hits, disk hits, UDFs at data
# nodes, UDFs at compute nodes, [(stage, switched, new plan)] per
# checkpoint, memory counters published)
_GOLDEN_ROWS = {
    "fo": (0.16131670666666656, 1742, 175640.0, 463, 0, 40, 860, [], {}),
    "fc": (0.468521112000004, 3816, 464400.0, 0, 0, 0, 900, [], {}),
    "fd": (0.4460339440000038, 2788, 122400.0, 0, 0, 900, 0, [], {}),
    "no": (0.7599449866666622, 4500, 464400.0, 0, 0, 0, 900, [], {}),
    "fo-holes": (0.1817608293333335, 1724, 159016.0, 352, 0, 41, 699, [], {}),
    "fc-holes": (0.4080027786666698, 3320, 381840.0, 0, 0, 0, 740, [], {}),
    "fd-holes": (0.3990156106666696, 2528, 100640.0, 0, 0, 740, 0, [], {}),
    "no-holes": (0.6308016533333326, 3700, 381840.0, 0, 0, 0, 740, [], {}),
    "fo-memory": (
        0.08862155199999992, 2611, 192692.0, 330, 0, 293, 607, [],
        {"memory.build_hits": 418.0},
    ),
    "fo-budget-20kB": (
        0.13311670933333317, 2087, 187188.0, 188, 194, 133, 767, [],
        {
            "memory.bnl_chunks": 23.0,
            "memory.budget_refusals": 485.0,
            "memory.build_hits": 193.0,
            "memory.build_unspill_reads": 97.0,
            "memory.cache_spills": 266.0,
            "memory.repartitions": 15.0,
            "memory.spill_bytes": 171000.0,
            "memory.spills": 97.0,
            "memory.unspill_bytes": 136000.0,
            "memory.unspills": 72.0,
        },
    ),
    "replan-wrong-estimates": (
        0.11438760266666674, 3206, 206752.0, 502, 0, 431, 769,
        [(0, False, "(0) -> (1) -> (2)"),
         (1, False, "(0) -> (1) -> (2)"),
         (2, True, "(0) -> (1+2)")],
        {
            "memory.build_hits": 547.0,
            "memory.replan_checkpoints": 3.0,
            "memory.replans": 1.0,
        },
    ),
    "replan-no-estimates": (
        0.11438760266666674, 3206, 206752.0, 502, 0, 431, 769,
        [(0, False, "(0) -> (1) -> (2)"),
         (1, False, "(0) -> (1) -> (2)"),
         (2, True, "(0) -> (1+2)")],
        {
            "memory.build_hits": 547.0,
            "memory.replan_checkpoints": 3.0,
            "memory.replans": 1.0,
        },
    ),
    "replan-holes": (
        0.11684609599999997, 2792, 173760.0, 473, 0, 276, 732,
        [(0, False, "(0) -> (1) -> (2)"),
         (1, False, "(0) -> (1) -> (2)"),
         (2, False, "(0) -> (1) -> (2)")],
        {"memory.build_hits": 374.0, "memory.replan_checkpoints": 3.0},
    ),
}


def _golden_row(name):
    factory, keys = _GOLDEN_CASES[name]
    registry = MetricsRegistry()
    job = factory(registry)
    result = job.run(keys)
    return (
        result.makespan,
        result.events,
        result.bytes_moved,
        result.cache_memory_hits,
        result.cache_disk_hits,
        result.udfs_at_data_nodes,
        result.udfs_at_compute_nodes,
        [(d.stage, d.switched, plan_repr(d.new_plan))
         for d in job.replan_decisions],
        {
            name: value
            for name, value in registry.snapshot()["counters"].items()
            if name.startswith("memory.")
        },
    )


class TestGoldenPipeline:
    """The pipeline's simulated results, pinned to the float for
    left-deep runs under four strategies (with and without dropped
    stages), a budgeted run and three re-planning runs, and Figure 7's
    smoke rows.  A change that moves any of them moves a simulated
    float and must say so."""

    @pytest.mark.parametrize("name", list(_GOLDEN_CASES))
    def test_row(self, name):
        assert _golden_row(name) == _GOLDEN_ROWS[name]

    def test_fig7_smoke_rows(self):
        table = fig7_tpcds.run(scale="smoke", seed=7)
        assert [tuple(row) for row in table.rows] == _FIG7_ROWS


# (query, sparksql seconds, framework seconds, speedup)
_FIG7_ROWS = [
    ("Q3", 0.215403948, 0.07983527200000014, 2.698105018042647),
    ("Q7", 0.3181176035555557, 0.09138452800000038, 3.4810882161097814),
    ("Q27", 0.31807855022222226, 0.09014948800000051, 3.528345609929814),
    ("Q42", 0.2153886822222223, 0.07888843200000006, 2.730294883059941),
]
