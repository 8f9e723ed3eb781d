"""Tests for the MapReduce analog and the skew partitioners."""

import pytest

from repro.mapreduce.api import MapReduceSpec, hash_partition
from repro.mapreduce.local import LocalMapReduce
from repro.mapreduce.simulated import (
    MapReduceCosts,
    SimulatedMapReduce,
    reduce_side_join,
)
from repro.mapreduce.skew_partitioners import (
    CSAWPartitioner,
    FlowJoinLBPartitioner,
    KeyStatistics,
)
from repro.sim.cluster import Cluster
from repro.workloads.annotation import AnnotationWorkload


def word_count_spec(partitioner=None):
    return MapReduceSpec(
        map_fn=lambda _k, text: [(w, 1) for w in text.split()],
        reduce_fn=lambda w, counts: [(w, sum(counts))],
        partitioner=partitioner,
    )


class TestLocalMapReduce:
    def test_word_count(self):
        engine = LocalMapReduce(n_reducers=3)
        result = dict(engine.run(word_count_spec(), [(0, "a b a"), (1, "b c")]))
        assert result == {"a": 2, "b": 2, "c": 1}

    def test_combiner_applies(self):
        spec = MapReduceSpec(
            map_fn=lambda _k, text: [(w, 1) for w in text.split()],
            reduce_fn=lambda w, counts: [(w, sum(counts))],
            combiner=lambda w, counts: [sum(counts)],
        )
        engine = LocalMapReduce(n_reducers=2)
        result = dict(engine.run(spec, [(0, "a a a")]))
        assert result == {"a": 3}

    def test_partition_sizes_recorded(self):
        engine = LocalMapReduce(n_reducers=2)
        engine.run(word_count_spec(), [(0, "a b c d e")])
        assert sum(engine.last_partition_sizes) == 5

    def test_reducer_count_validation(self):
        with pytest.raises(ValueError):
            LocalMapReduce(n_reducers=0)

    def test_route_default_is_hash(self):
        spec = word_count_spec()
        assert spec.route("word", 8) == hash_partition("word", 8)


class TestKeyStatistics:
    def test_from_stream_counts(self):
        stats = KeyStatistics.from_stream(["a", "a", "b"])
        assert stats.frequencies == {"a": 2, "b": 1}
        assert stats.total_tuples == 3

    def test_work_uses_costs(self):
        stats = KeyStatistics.from_stream(["a", "a", "b"], costs={"a": 2.0, "b": 5.0})
        assert stats.work("a") == 4.0
        assert stats.work("b") == 5.0
        assert stats.total_work == 9.0

    def test_default_cost_is_one(self):
        stats = KeyStatistics.from_stream(["a"])
        assert stats.work("a") == 1.0


class TestFlowJoinLB:
    def test_heavy_hitters_replicated(self):
        keys = ["hot"] * 100 + [f"cold{i}" for i in range(50)]
        stats = KeyStatistics.from_stream(keys)
        p = FlowJoinLBPartitioner(stats, n_reducers=10, seed=1)
        assert p.is_replicated("hot")
        assert not p.is_replicated("cold1")

    def test_replicated_keys_spread(self):
        keys = ["hot"] * 1000
        stats = KeyStatistics.from_stream(keys)
        p = FlowJoinLBPartitioner(stats, n_reducers=4, seed=1)
        targets = {p.partition("hot", 4) for _ in range(200)}
        assert len(targets) == 4

    def test_light_keys_hash_deterministically(self):
        keys = [f"k{i}" for i in range(100)] + ["hot"] * 50
        stats = KeyStatistics.from_stream(keys)
        p = FlowJoinLBPartitioner(stats, n_reducers=4, seed=1)
        assert not p.is_replicated("k1")
        assert p.partition("k1", 4) == p.partition("k1", 4)

    def test_validation(self):
        stats = KeyStatistics.from_stream(["a"])
        with pytest.raises(ValueError):
            FlowJoinLBPartitioner(stats, n_reducers=0)
        with pytest.raises(ValueError):
            FlowJoinLBPartitioner(stats, n_reducers=2, threshold=0.0)


class TestCSAW:
    def test_expensive_rare_key_replicated(self):
        """CSAW replicates by work (freq x cost), not frequency alone."""
        keys = ["cheap_hot"] * 100 + ["pricey_rare"] * 5
        stats = KeyStatistics.from_stream(
            keys, costs={"cheap_hot": 0.001, "pricey_rare": 10.0}
        )
        p = CSAWPartitioner(stats, n_reducers=4, seed=1)
        assert p.is_replicated("pricey_rare")
        assert not p.is_replicated("cheap_hot")

    def test_flowjoin_misses_expensive_rare_key(self):
        keys = ["cheap_hot"] * 100 + ["pricey_rare"] * 5
        stats = KeyStatistics.from_stream(
            keys, costs={"cheap_hot": 0.001, "pricey_rare": 10.0}
        )
        p = FlowJoinLBPartitioner(stats, n_reducers=4, seed=1)
        assert not p.is_replicated("pricey_rare")
        assert p.is_replicated("cheap_hot")

    def test_light_keys_balanced_greedily(self):
        keys = [f"k{i}" for i in range(100)]
        stats = KeyStatistics.from_stream(keys)
        p = CSAWPartitioner(stats, n_reducers=4, seed=1)
        loads = [0] * 4
        for key in set(keys):
            loads[p.partition(key, 4)] += 1
        assert max(loads) - min(loads) <= 1

    def test_unseen_key_falls_back_to_hash(self):
        stats = KeyStatistics.from_stream(["a"])
        p = CSAWPartitioner(stats, n_reducers=8, seed=1)
        assert p.partition("never-seen", 8) == hash_partition("never-seen", 8)


class TestReduceSideJoin:
    #: The naive job's makespan on this workload, pinned to the float.
    NAIVE_MAKESPAN = 1.7125348679441068

    def make_workload(self):
        return AnnotationWorkload(n_tokens=300, n_docs=60, seed=3)

    def run_join(self, wl, partitioner=None, n_nodes=4):
        spec, costs = reduce_side_join(
            wl.model_sizes, wl.model_costs, wl.model_hydration, partitioner
        )
        return SimulatedMapReduce(
            Cluster.homogeneous(n_nodes), costs=costs
        ).run(spec, enumerate(wl.documents))

    def test_runs_to_completion(self):
        wl = self.make_workload()
        result = self.run_join(wl)
        assert result.makespan == self.NAIVE_MAKESPAN
        assert sum(count for _token, count in result.outputs) == wl.n_spots
        assert result.map_finish <= result.shuffle_finish <= result.makespan

    def test_skew_mitigation_beats_naive(self):
        wl = self.make_workload()
        naive = self.run_join(wl)
        stats = KeyStatistics.from_stream(wl.spot_stream(), costs=wl.model_costs)
        csaw = self.run_join(wl, CSAWPartitioner(stats, 4, seed=1))
        assert csaw.makespan < naive.makespan
        assert csaw.straggler_ratio < naive.straggler_ratio

    def test_empty_input(self):
        spec, costs = reduce_side_join({}, {})
        result = SimulatedMapReduce(Cluster.homogeneous(2), costs=costs).run(
            spec, []
        )
        assert result.makespan == 0.0
        assert result.outputs == []


class TestSimulatedMapReduce:
    def make_wordcount(self, partitioner=None):
        return MapReduceSpec(
            map_fn=lambda _k, text: [(w, 1) for w in text.split()],
            reduce_fn=lambda w, counts: [(w, sum(counts))],
            partitioner=partitioner,
        )

    def test_outputs_match_local_engine(self):
        inputs = [(i, f"w{i % 5} w{i % 3} common") for i in range(40)]
        spec = self.make_wordcount()
        local = LocalMapReduce(n_reducers=4).run(spec, inputs)
        cluster = Cluster.homogeneous(4)
        simulated = SimulatedMapReduce(cluster).run(spec, inputs)
        assert sorted(simulated.outputs) == sorted(local)
        assert simulated.makespan > 0
        assert simulated.map_finish <= simulated.shuffle_finish

    def test_skewed_reduce_costs_create_stragglers(self):
        # One expensive hot key plus several cheap ones spread across
        # reducers, so more than one reducer has work.
        inputs = [(i, f"hot cold{i % 8}") for i in range(100)]
        spec = self.make_wordcount()
        costs = MapReduceCosts(
            reduce_cpu=lambda key, _v: 0.05 if key == "hot" else 1e-6,
        )
        cluster = Cluster.homogeneous(4)
        result = SimulatedMapReduce(cluster, costs=costs).run(spec, inputs)
        assert result.straggler_ratio > 2.0

    def test_reduce_setup_charged_per_group(self):
        inputs = [(0, "a b c d")]
        spec = self.make_wordcount()
        light = SimulatedMapReduce(Cluster.homogeneous(2)).run(spec, inputs)
        heavy_costs = MapReduceCosts(reduce_setup=lambda key: (0.0, 0.5))
        heavy = SimulatedMapReduce(
            Cluster.homogeneous(2), costs=heavy_costs
        ).run(spec, inputs)
        assert heavy.makespan > light.makespan + 0.4

    def test_combiner_applied_before_reduce(self):
        spec = MapReduceSpec(
            map_fn=lambda _k, text: [(w, 1) for w in text.split()],
            reduce_fn=lambda w, counts: [(w, sum(counts))],
            combiner=lambda w, counts: [sum(counts)],
        )
        result = SimulatedMapReduce(Cluster.homogeneous(2)).run(
            spec, [(0, "x x x")]
        )
        assert ("x", 3) in result.outputs

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulatedMapReduce(Cluster.homogeneous(2), reducers_per_node=0)


class TestFigure5GoldenRows:
    """Figure 5's reduce-side bars, pinned to the float (seed 7).

    Each bar is ``makespan / 60``; a change to the reduce-side dataflow
    (map CPU, shuffle sizes, reduce order, model loads) moves them.
    """

    MAKESPANS = {
        ("smoke", "Hadoop"): 14.120588022786261,
        ("smoke", "CSAW"): 2.566579658132888,
        ("smoke", "FlowJoinLB"): 2.614518629768057,
        ("default", "Hadoop"): 40.28209929559424,
        ("default", "CSAW"): 4.359827039005987,
        ("default", "FlowJoinLB"): 7.1395263752265725,
    }

    @pytest.mark.parametrize("scale", ["smoke", "default"])
    def test_reduce_side_bars(self, scale):
        from repro.experiments import fig5_clueweb

        preset = fig5_clueweb.SCALES[scale]
        workload = AnnotationWorkload(
            n_tokens=preset.n_tokens, n_docs=preset.n_docs, seed=7
        )
        for technique in ("Hadoop", "CSAW", "FlowJoinLB"):
            minutes = fig5_clueweb._reduce_side_minutes(
                workload, preset, technique, 7
            )
            assert minutes == self.MAKESPANS[(scale, technique)] / 60.0, technique
