"""Memory-adaptive execution: budgets, spilling hybrid join, replan.

Four layers of verification:

* unit tests for :class:`MemoryBudget` and :class:`MemoryOptions`;
* hypothesis properties — the hybrid-hash join's output is a
  permutation of the oracle join for *arbitrary* budgets including the
  degenerate minimum, and spill counts grow monotonically as the
  budget shrinks;
* differential tests that ``MemoryOptions.off()`` is bit-identical to
  a run without the subsystem, on every engine;
* acceptance scenarios — a budget of 25% of the build side completes
  on every engine with oracle-identical outputs and nonzero
  ``memory.spills``; a kill lands mid-spill under resilience and the
  run still heals; a mis-estimated multi-join chain records a plan
  switch that does not regress the makespan.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import JobSpec, RunConfig, run_join
from repro.faults.policy import FaultTolerance
from repro.faults.schedule import (
    CrashFault,
    FaultSchedule,
    MemoryPressureFault,
)
from repro.memory import (
    HybridHashJoin,
    MemoryBudget,
    MemoryOptions,
    StageEstimate,
)
from repro.memory.budget import publish_memory_counters
from repro.obs.registry import MetricsRegistry
from repro.placement.batch import SizeProfile
from repro.resilience import ResilienceOptions
from repro.runtime import ENGINES, JoinWorkload, SimBackend
from repro.workloads.synthetic import SyntheticWorkload
from tests.oracle import assert_oracle_equal, single_node_hash_join


@pytest.fixture(scope="module")
def workload() -> JoinWorkload:
    synthetic = SyntheticWorkload.data_heavy(
        n_keys=40, n_tuples=300, skew=0.8, seed=11, value_size=4000
    )
    return JoinWorkload.from_synthetic(synthetic)


@pytest.fixture(scope="module")
def oracle(workload):
    return single_node_hash_join(
        list(workload.keys), workload.udf, workload.stored_values()
    )


def build_side_bytes(workload: JoinWorkload) -> float:
    return workload.sizes.value_size * len(workload.stored_values())


# ----------------------------------------------------------------------
# MemoryBudget unit tests
# ----------------------------------------------------------------------
class TestMemoryBudget:
    def test_reserve_refuse_release(self):
        budget = MemoryBudget(100.0)
        assert budget.try_reserve("a", 60.0)
        assert not budget.try_reserve("b", 50.0)
        assert budget.refusals == 1
        budget.release("a", 60.0)
        assert budget.try_reserve("b", 100.0)

    def test_release_clamps_to_held(self):
        budget = MemoryBudget(100.0)
        assert budget.try_reserve("a", 30.0)
        budget.release("a", 1000.0)  # over-release is clamped
        assert budget.used == 0.0
        assert budget.used_by("a") == 0.0

    def test_force_reserve_overdrafts(self):
        budget = MemoryBudget(10.0)
        budget.force_reserve("floor", 50.0)
        assert budget.used == 50.0
        assert budget.forced == 1
        assert not budget.try_reserve("x", 1.0)

    def test_shrink_calls_reclaimers(self):
        budget = MemoryBudget(100.0)
        freed_log = []

        def reclaim(need: float) -> float:
            freed_log.append(need)
            budget.release("a", need)
            return need

        budget.add_reclaimer("a", reclaim)
        assert budget.try_reserve("a", 90.0)
        budget.shrink(0.5)
        assert budget.limit == 50.0
        assert budget.shrinks == 1
        assert freed_log and freed_log[0] == pytest.approx(40.0)
        assert budget.used <= budget.limit

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryBudget(0.0)
        budget = MemoryBudget(10.0)
        with pytest.raises(ValueError):
            budget.try_reserve("a", -1.0)
        with pytest.raises(ValueError):
            budget.shrink(0.0)
        with pytest.raises(ValueError):
            budget.shrink(1.5)

    def test_publish_skips_zero_counters(self):
        registry = MetricsRegistry()
        budget = MemoryBudget(10.0)
        assert not budget.try_reserve("a", 20.0)
        publish_memory_counters(registry, budget.counters())
        counters = registry.snapshot().get("counters", {})
        assert counters.get("memory.budget_refusals") == 1.0
        assert "memory.budget_forced" not in counters


class TestMemoryOptions:
    def test_off_is_default(self):
        assert not MemoryOptions().enabled
        assert not MemoryOptions.off().enabled
        assert MemoryOptions.on().enabled
        assert MemoryOptions.on(budget_bytes=1e6).budget_bytes == 1e6

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryOptions(budget_bytes=-1.0)
        with pytest.raises(ValueError):
            MemoryOptions(join_partitions=0)
        with pytest.raises(ValueError):
            MemoryOptions(bushy_fraction=0.0)


# ----------------------------------------------------------------------
# Hypothesis: hybrid join == oracle join for arbitrary budgets
# ----------------------------------------------------------------------
def oracle_join(rows, probes):
    table: dict = {}
    for key, value, _size in rows:
        table.setdefault(key, []).append(value)
    return sorted(
        (key, value) for key in probes for value in table.get(key, ())
    )


rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=15),          # key
        st.integers(min_value=0, max_value=10_000),      # value
        st.floats(min_value=1.0, max_value=200.0),       # size
    ),
    min_size=0,
    max_size=60,
)


class TestHybridJoinOracle:
    @given(
        rows=rows_strategy,
        budget_bytes=st.one_of(
            st.none(), st.floats(min_value=1.0, max_value=5000.0)
        ),
        n_partitions=st.integers(min_value=1, max_value=8),
        max_recursion=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_output_is_permutation_of_oracle(
        self, rows, budget_bytes, n_partitions, max_recursion
    ):
        budget = (
            MemoryBudget(budget_bytes) if budget_bytes is not None else None
        )
        join = HybridHashJoin(
            budget=budget,
            n_partitions=n_partitions,
            max_recursion=max_recursion,
        )
        for key, value, size in rows:
            join.insert(key, value, size)
        probes = sorted({key for key, _v, _s in rows}) + [999]
        got = []
        for key in probes:
            values, io = join.lookup(key)
            assert io >= 0.0
            got.extend((key, value) for value in values)
        assert sorted(got) == oracle_join(rows, probes)
        join.close()
        if budget is not None:
            # Every reserved byte must be returned on close.
            assert budget.used_by(join.owner) == pytest.approx(0.0)

    def test_minimum_budget_never_crashes_or_drops(self):
        # A budget smaller than any single row: everything must spill,
        # the BNL floor must force-reserve, and no tuple may be lost.
        budget = MemoryBudget(1.0)
        join = HybridHashJoin(budget=budget, n_partitions=4)
        rows = [(k % 7, k, 100.0) for k in range(50)]
        for key, value, size in rows:
            join.insert(key, value, size)
        probes = list(range(8))
        got = []
        for key in probes:
            values, _io = join.lookup(key)
            got.extend((key, value) for value in values)
        assert sorted(got) == oracle_join(rows, probes)
        assert join.counters()["spill_bytes"] > 0

    def test_deferred_probes_survive_repartition(self):
        budget = MemoryBudget(500.0)
        join = HybridHashJoin(budget=budget, n_partitions=2, max_recursion=2)
        rows = [(k % 5, k, 120.0) for k in range(40)]
        for key, value, size in rows:
            join.insert(key, value, size)
        for token, key in enumerate(range(5)):
            join.defer(token, key)
        answered, io = join.drain_deferred()
        assert io >= 0.0
        got = sorted(
            (key, value)
            for _token, key, values in answered
            for value in values
        )
        assert got == oracle_join(rows, list(range(5)))


class TestSpillMonotonicity:
    def test_residency_degrades_monotonically_with_budget(self):
        # Spill-event *counts* are churn metrics (a roomier budget can
        # readmit a partition and spill it again); the monotone
        # quantity is how much of the build side stays answerable from
        # memory.  Resident-probe hits must weakly decrease as the
        # budget shrinks, and spilled bytes must appear once they do.
        rows = [(k % 11, k, 100.0) for k in range(120)]
        hit_counts = []
        spilled_bytes = []
        for budget_bytes in (12_000.0, 6_000.0, 3_000.0, 800.0, 150.0):
            join = HybridHashJoin(
                budget=MemoryBudget(budget_bytes), n_partitions=4
            )
            for key, value, size in rows:
                join.insert(key, value, size)
            hit_counts.append(
                sum(1 for key in range(11) if join.probe(key)[0] == "hit")
            )
            spilled_bytes.append(join.counters()["spill_bytes"])
        assert hit_counts == sorted(hit_counts, reverse=True)
        assert hit_counts[0] == 11  # roomy: fully resident...
        assert spilled_bytes[0] == 0.0  # ...and nothing on disk
        assert hit_counts[-1] == 0  # tight: fully spilled
        assert spilled_bytes[-1] > 0.0


# ----------------------------------------------------------------------
# Differential: off() is bit-identical on every engine
# ----------------------------------------------------------------------
class TestOffIsIdentical:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_off_matches_absent(self, engine, workload):
        plain = SimBackend(engine=engine, seed=9).run_join(workload)
        off = SimBackend(
            engine=engine, seed=9, memory=MemoryOptions.off()
        ).run_join(workload)
        assert off.outputs == plain.outputs
        assert off.duration == plain.duration

    @pytest.mark.parametrize("engine", ENGINES)
    def test_off_through_the_facade(self, engine):
        spec = JobSpec.synthetic(n_keys=20, n_tuples=80, seed=7)
        plain = run_join(spec, RunConfig(engine=engine, seed=7))
        off = run_join(spec, RunConfig(
            engine=engine, seed=7, memory=MemoryOptions.off()
        ))
        assert off.outputs == plain.outputs
        assert off.makespan == plain.makespan


# ----------------------------------------------------------------------
# Acceptance: 25%-of-build-side budget on every engine
# ----------------------------------------------------------------------
class TestTightBudgetAcceptance:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_quarter_budget_completes_with_spills(
        self, engine, workload, oracle
    ):
        budget = 0.25 * build_side_bytes(workload)
        registry = MetricsRegistry()
        run = SimBackend(
            engine=engine,
            seed=9,
            memory=MemoryOptions.on(budget_bytes=budget),
            registry=registry,
        ).run_join(workload)
        assert_oracle_equal(run.outputs, oracle)
        counters = registry.snapshot().get("counters", {})
        spills = sum(
            value
            for name, value in counters.items()
            if name in ("memory.spills", "memory.budget_refusals")
        )
        assert spills > 0, f"{engine}: no memory pressure at 25% budget"

    def test_cache_budget_spills_are_counted(self, workload, oracle):
        # Small budget + large value cache: admissions must arbitrate.
        registry = MetricsRegistry()
        run = SimBackend(
            engine="engine",
            seed=9,
            memory=MemoryOptions.on(budget_bytes=20_000.0),
            registry=registry,
        ).run_join(workload)
        assert_oracle_equal(run.outputs, oracle)
        counters = registry.snapshot().get("counters", {})
        assert counters.get("memory.spills", 0) > 0


# ----------------------------------------------------------------------
# memory_pressure faults
# ----------------------------------------------------------------------
class TestMemoryPressureFault:
    def test_shrink_lands_and_run_survives(self, workload, oracle):
        healthy = SimBackend(engine="engine", seed=9).run_join(workload)
        faults = FaultSchedule(memory_pressure=(
            MemoryPressureFault(
                node_id=2, at=0.3 * healthy.duration, factor=0.25
            ),
        ))
        registry = MetricsRegistry()
        run = SimBackend(
            engine="engine",
            seed=9,
            fault_schedule=faults,
            memory=MemoryOptions.on(
                budget_bytes=0.5 * build_side_bytes(workload)
            ),
            registry=registry,
        ).run_join(workload)
        assert_oracle_equal(run.outputs, oracle)
        counters = registry.snapshot().get("counters", {})
        assert counters.get("memory.budget_shrinks", 0) >= 1

    def test_pressure_without_budget_is_recorded_not_fatal(self, workload):
        faults = FaultSchedule(memory_pressure=(
            MemoryPressureFault(node_id=2, at=0.001, factor=0.5),
        ))
        run = SimBackend(
            engine="engine", seed=9, fault_schedule=faults
        ).run_join(workload)
        assert len(run.outputs) == len(workload.keys)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            MemoryPressureFault(node_id=0, at=-1.0)
        with pytest.raises(ValueError):
            MemoryPressureFault(node_id=0, at=1.0, factor=1.0)


# ----------------------------------------------------------------------
# Kill mid-spill under resilience
# ----------------------------------------------------------------------
class TestKillMidSpill:
    def test_data_node_death_during_spilling_heals(self, workload, oracle):
        budget = 0.25 * build_side_bytes(workload)
        healthy = SimBackend(
            engine="engine",
            seed=5,
            memory=MemoryOptions.on(budget_bytes=budget),
        ).run_join(workload)
        makespan = healthy.duration
        faults = FaultSchedule(crashes=(
            CrashFault(node_id=2, at=0.5 * makespan,
                       duration=10 * makespan + 1.0),
        ))
        run = SimBackend(
            engine="engine",
            seed=5,
            memory=MemoryOptions.on(budget_bytes=budget),
            fault_schedule=faults,
            fault_tolerance=FaultTolerance(
                request_timeout=makespan / 20, max_retries=64
            ),
            resilience=ResilienceOptions.on(
                heartbeat_interval=makespan / 40
            ),
        ).run_join(workload)
        assert_oracle_equal(run.outputs, oracle)


# ----------------------------------------------------------------------
# Multi-join stage-boundary replanning
# ----------------------------------------------------------------------
def _multi_join_job(**kwargs):
    from repro.engine.multi_join import JoinStageSpec, MultiJoinJob
    from repro.engine.strategies import Strategy
    from repro.sim.cluster import Cluster
    from repro.store.messages import UDF
    from repro.store.table import Row, Table

    def make_stage(name, compute_cost):
        table = Table(name)
        for key in range(50):
            table.put(Row(key=key, value=f"{name}-{key}", size=500.0,
                          compute_cost=compute_cost))
        sizes = SizeProfile(key_size=8.0, param_size=64.0,
                            value_size=500.0, computed_size=64.0)
        udf = UDF(result_size=64.0, param_size=64.0, key_size=8.0)
        return JoinStageSpec(name, table, udf, sizes)

    stages = [
        make_stage("dim0", 0.004),
        make_stage("dim1", 0.0001),
        make_stage("dim2", 0.0001),
    ]
    return MultiJoinJob(
        cluster=Cluster.homogeneous(4),
        compute_nodes=[0, 1],
        data_nodes=[2, 3],
        stages=stages,
        strategy=Strategy.fo(),
        pipeline_window=32,
        **kwargs,
    )


class TestStageBoundaryReplan:
    KEYS = [[i % 50, (i * 7) % 50, (i * 13) % 50] for i in range(400)]
    # Submit-time beliefs, deliberately wrong: stage 1 is claimed to be
    # the heavy one while it is actually trivial.
    ESTIMATES = (
        StageEstimate(cost=0.001, fraction=1.0),
        StageEstimate(cost=0.05, fraction=1.0),
        StageEstimate(cost=0.001, fraction=1.0),
    )

    def test_replan_records_a_switch_and_does_not_regress(self):
        from repro.obs.tracer import Tracer

        never = _multi_join_job(
            seed=3, memory=MemoryOptions.on(replan=False)
        ).run(self.KEYS)

        tracer = Tracer()
        job = _multi_join_job(
            seed=3,
            memory=MemoryOptions.on(replan=True, replan_min_observations=32),
            stage_estimates=self.ESTIMATES,
            tracer=tracer,
        )
        adaptive = job.run(self.KEYS)
        assert adaptive.n_tuples == never.n_tuples
        total = (
            adaptive.udfs_at_data_nodes + adaptive.udfs_at_compute_nodes
        )
        assert total == 1200  # bushy groups never drop a stage
        assert job.replans >= 1
        assert any(d.switched for d in job.replan_decisions)
        events = tracer.events_named("memory.replan")
        assert len(events) == 3  # one checkpoint per stage
        assert any(e.attrs["switched"] for e in events)
        assert adaptive.makespan <= never.makespan * 1.001

    def test_replan_off_is_identical(self):
        keys = [[i % 50, (i * 3) % 50, (i * 9) % 50] for i in range(200)]
        plain = _multi_join_job(seed=9).run(keys)
        off = _multi_join_job(seed=9, memory=MemoryOptions.off()).run(keys)
        assert off.makespan == plain.makespan
        assert off.events == plain.events
        # Re-planning armed, but no stage reaches its checkpoint: the
        # plan stays left-deep and the run is the replan=False run.
        never = _multi_join_job(
            seed=9, memory=MemoryOptions.on(replan=False)
        ).run(keys)
        job = _multi_join_job(
            seed=9,
            memory=MemoryOptions.on(
                replan=True, replan_min_observations=len(keys) + 1
            ),
        )
        armed = job.run(keys)
        assert job.replan_decisions == []
        assert armed.makespan == never.makespan
        assert armed.events == never.events

    def test_accurate_estimates_do_not_switch(self):
        job = _multi_join_job(
            seed=3,
            memory=MemoryOptions.on(replan=True, replan_min_observations=32),
            # No estimates: defaults are uniform, and the observed
            # profile must clear the improvement bar to switch.
            stage_estimates=None,
        )
        job.run([[i % 50, (i * 7) % 50, (i * 13) % 50] for i in range(150)])
        # Checkpoints ran, but any switch must have cleared the
        # improvement threshold on observed (not estimated) costs.
        for decision in job.replan_decisions:
            if decision.switched:
                assert decision.new_cost < decision.old_cost * 0.98


# ----------------------------------------------------------------------
# Shuffle-buffer budget charging
# ----------------------------------------------------------------------
class TestShuffleBudgets:
    def test_refused_transfers_degrade_not_drop(self, workload, oracle):
        registry = MetricsRegistry()
        run = SimBackend(
            engine="mapreduce",
            seed=9,
            memory=MemoryOptions.on(budget_bytes=5_000.0),
            registry=registry,
        ).run_join(workload)
        assert_oracle_equal(run.outputs, oracle)
        counters = registry.snapshot().get("counters", {})
        assert counters.get("memory.shuffle_refusals", 0) > 0
