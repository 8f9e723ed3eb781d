"""Differential fault testing: the headline correctness guarantee.

Any seeded fault schedule — crashes, message chaos, stragglers, update
races, replayed input slices — must leave the join *answer* untouched:
the engine's collected outputs are compared bit-for-bit against the
naive single-node hash join in :mod:`tests.oracle`.  Performance may
degrade (that is measured, not asserted away); correctness may not.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.job import JoinJob
from repro.engine.requests import UDF
from repro.engine.strategies import Strategy
from repro.faults import (
    CrashFault,
    FaultSchedule,
    FaultTolerance,
    MessageChaos,
    StragglerFault,
    UpdateFault,
)
from repro.obs import NO_TRACER, Tracer
from repro.runtime import collect_runtime_metrics
from repro.sim.cluster import Cluster
from repro.workloads.synthetic import SyntheticWorkload

from tests.oracle import (
    admissible_outputs,
    assert_oracle_admissible,
    assert_oracle_equal,
    single_node_hash_join,
    snapshot_values,
)

REAL_UDF = UDF(
    result_size=64.0,
    param_size=64.0,
    key_size=8.0,
    apply_fn=lambda k, p, v: f"{k}|{p}|{v}",
)

FT = FaultTolerance(request_timeout=0.25, max_retries=2)


def build_job(workload, strategy, schedule=None, ft=None, trace=NO_TRACER, seed=11):
    cluster = Cluster.homogeneous(4)
    return JoinJob(
        cluster=cluster,
        compute_nodes=[0, 1],
        data_nodes=[2, 3],
        table=workload.build_table(),
        udf=REAL_UDF,
        strategy=strategy,
        sizes=workload.sizes,
        memory_cache_bytes=20e6,
        fault_schedule=schedule,
        fault_tolerance=ft,
        tracer=trace,
        seed=seed,
    )


def run_against_oracle(workload, strategy, schedule=None, ft=None, trace=NO_TRACER):
    """Run the job and return (result, engine outputs, oracle outputs)."""
    keys = workload.keys()
    job = build_job(workload, strategy, schedule=schedule, ft=ft, trace=trace)
    values = snapshot_values(job.table)
    oracle = single_node_hash_join(keys, REAL_UDF, values)
    result = job.run(keys)
    return job, result, job.collected_outputs(), oracle


class TestAcceptanceScenario:
    """ISSUE acceptance: >= 3 fault types at once, exact oracle match."""

    def test_crash_drop_straggler_combined_matches_oracle(self):
        workload = SyntheticWorkload.data_heavy(
            n_keys=300, n_tuples=2500, skew=1.0, seed=23
        )
        schedule = FaultSchedule(
            seed=5,
            crashes=(CrashFault(node_id=2, at=0.4, duration=0.8),),
            chaos=(
                MessageChaos(
                    at=0.0, duration=3.0,
                    drop=0.15, duplicate=0.1, delay=0.1, max_delay=0.03,
                ),
            ),
            stragglers=(
                StragglerFault(node_id=3, at=1.0, duration=1.0, slowdown=5.0),
            ),
        )
        assert schedule.fault_kinds >= {"crash", "chaos", "straggler"}
        trace = Tracer()
        job, result, outputs, oracle = run_against_oracle(
            workload, Strategy.fo(), schedule=schedule, ft=FT, trace=trace
        )
        assert_oracle_equal(outputs, oracle)
        # The run visibly went through the fire ...
        assert result.messages_faulted > 0
        assert result.timeouts > 0
        assert result.retries > 0
        # ... and the trace shows both sides: injections and reactions.
        assert len(trace.events_named("fault.crash")) == 1
        assert len(trace.events_named("fault.straggler")) == 1
        assert len(trace.events_named("retry")) == result.retries

    def test_fault_stats_collector_aggregates_job(self):
        workload = SyntheticWorkload.data_heavy(
            n_keys=150, n_tuples=1200, skew=1.0, seed=29
        )
        schedule = FaultSchedule(
            seed=7,
            chaos=(MessageChaos(at=0.0, duration=2.0, drop=0.2),),
        )
        job, result, outputs, oracle = run_against_oracle(
            workload, Strategy.fo(), schedule=schedule, ft=FT
        )
        assert_oracle_equal(outputs, oracle)
        # The injector's own counters ...
        assert job.injector.messages_dropped > 0
        assert job.injector.messages_faulted == result.messages_faulted
        # ... and the kernel metrics a SimBackend run reports.
        metrics = collect_runtime_metrics(
            job.cluster,
            transports=[runtime.transport for runtime in job.incarnations],
            injector=job.injector,
        )
        assert metrics.messages_faulted == result.messages_faulted
        assert metrics.transport.timeouts == result.timeouts
        assert metrics.transport.retries == result.retries
        assert metrics.transport.fallbacks == result.fallbacks
        assert metrics.recovery_actions == result.retries + result.fallbacks
        assert metrics.perturbed
        assert sum(
            runtime.cost_model.retry_seconds_charged
            for runtime in job.incarnations
        ) > 0.0


class TestPerFaultFamilies:
    """Each fault family alone must already be oracle-clean."""

    @pytest.mark.parametrize("strategy_name", ["fo", "fd", "co"])
    def test_crash_only(self, strategy_name):
        workload = SyntheticWorkload.data_heavy(
            n_keys=120, n_tuples=900, skew=0.8, seed=31
        )
        schedule = FaultSchedule(
            seed=1, crashes=(CrashFault(node_id=2, at=0.2, duration=0.6),)
        )
        strategy = getattr(Strategy, strategy_name)()
        _job, result, outputs, oracle = run_against_oracle(
            workload, strategy, schedule=schedule, ft=FT
        )
        assert_oracle_equal(outputs, oracle)
        assert result.n_tuples == len(outputs)

    def test_chaos_only_without_tolerance_stalls_with_hint(self):
        workload = SyntheticWorkload.data_heavy(
            n_keys=100, n_tuples=800, skew=0.8, seed=37
        )
        schedule = FaultSchedule(
            seed=2, chaos=(MessageChaos(at=0.0, duration=10.0, drop=0.3),)
        )
        job = build_job(workload, Strategy.fo(), schedule=schedule, ft=None)
        with pytest.raises(RuntimeError, match="fault tolerance is disabled"):
            job.run(workload.keys())

    def test_straggler_only_slows_but_stays_correct(self):
        workload = SyntheticWorkload.data_heavy(
            n_keys=120, n_tuples=900, skew=0.8, seed=41
        )
        _job, clean_result, clean_out, oracle = run_against_oracle(
            workload, Strategy.fo(), ft=FT
        )
        schedule = FaultSchedule(
            seed=3,
            stragglers=(
                StragglerFault(node_id=2, at=0.0, duration=2.0, slowdown=8.0),
            ),
        )
        _job2, slow_result, slow_out, _ = run_against_oracle(
            workload, Strategy.fo(), schedule=schedule, ft=FT
        )
        assert_oracle_equal(clean_out, oracle)
        assert_oracle_equal(slow_out, oracle)
        assert slow_result.makespan > clean_result.makespan

    def test_update_race_yields_admissible_outputs(self):
        workload = SyntheticWorkload.data_heavy(
            n_keys=50, n_tuples=600, skew=1.2, seed=43
        )
        keys = workload.keys()
        hot = max(set(keys), key=keys.count)
        schedule = FaultSchedule(
            seed=4,
            updates=(
                UpdateFault(at=0.05, key=hot, value="v2"),
                UpdateFault(at=0.15, key=hot, value="v3"),
            ),
            chaos=(MessageChaos(at=0.0, duration=1.0, drop=0.1),),
        )
        job = build_job(workload, Strategy.fo(), schedule=schedule, ft=FT)
        values = snapshot_values(job.table)
        admissible = admissible_outputs(
            keys, REAL_UDF, values,
            updates=[(u.key, u.value) for u in schedule.updates],
        )
        job.run(keys)
        assert_oracle_admissible(job.collected_outputs(), admissible)


# ----------------------------------------------------------------------
# The headline property: ANY generated fault schedule is oracle-clean.
# ----------------------------------------------------------------------
@st.composite
def workload_and_schedule(draw):
    workload_seed = draw(st.integers(min_value=0, max_value=2**20))
    fault_seed = draw(st.integers(min_value=0, max_value=2**20))
    n_keys = draw(st.integers(min_value=10, max_value=60))
    n_tuples = draw(st.integers(min_value=50, max_value=300))
    skew = draw(st.floats(min_value=0.0, max_value=1.5))
    profile = draw(st.sampled_from(["DH", "CH"]))
    workload = SyntheticWorkload.by_name(
        profile, n_keys=n_keys, n_tuples=n_tuples, skew=skew, seed=workload_seed
    )
    schedule = FaultSchedule.random(
        seed=fault_seed,
        data_nodes=[2, 3],
        horizon=2.0,
        n_crashes=draw(st.integers(min_value=0, max_value=2)),
        n_stragglers=draw(st.integers(min_value=0, max_value=2)),
        n_chaos=draw(st.integers(min_value=0, max_value=2)),
    )
    strategy = draw(st.sampled_from(["fo", "fd", "co", "fr"]))
    return workload, schedule, strategy


@given(case=workload_and_schedule())
@settings(max_examples=20, deadline=None)
def test_property_any_fault_schedule_is_oracle_identical(case):
    workload, schedule, strategy_name = case
    strategy = getattr(Strategy, strategy_name)()
    _job, result, outputs, oracle = run_against_oracle(
        workload, strategy, schedule=schedule, ft=FT
    )
    assert_oracle_equal(outputs, oracle)
    assert result.n_tuples == workload.n_tuples


@given(
    seed=st.integers(min_value=0, max_value=2**20),
    drop=st.floats(min_value=0.0, max_value=0.35),
    duplicate=st.floats(min_value=0.0, max_value=0.25),
)
@settings(max_examples=15, deadline=None)
def test_property_chaos_grid_is_oracle_identical(seed, drop, duplicate):
    workload = SyntheticWorkload.data_heavy(
        n_keys=40, n_tuples=250, skew=1.0, seed=seed
    )
    schedule = FaultSchedule(
        seed=seed,
        chaos=(
            MessageChaos(
                at=0.0, duration=5.0,
                drop=drop, duplicate=duplicate, delay=0.1, max_delay=0.02,
            ),
        ),
    )
    _job, _result, outputs, oracle = run_against_oracle(
        workload, Strategy.fo(), schedule=schedule, ft=FT
    )
    assert_oracle_equal(outputs, oracle)
