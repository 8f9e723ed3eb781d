"""Side-effecting UDFs execute exactly once, at the owning data node.

The paper restricts itself to side-effect-free functions and lists
side-effecting ones as future work; this implements the obvious safe
semantics — pin every invocation to the row's data node — and verifies
the exactly-once, single-site property.
"""

from repro.placement.batch import SizeProfile
from repro.engine.job import JoinJob
from repro.engine.strategies import Strategy
from repro.faults.policy import FaultTolerance
from repro.faults.schedule import CrashFault, FaultSchedule
from repro.resilience import ResilienceOptions
from repro.sim.cluster import Cluster
from repro.store.messages import UDF
from repro.store.table import Row, Table


def run_with_side_effects(
    strategy_name="FO",
    n=400,
    seed=83,
    fault_schedule=None,
    fault_tolerance=None,
    resilience=None,
):
    table = Table("ledger")
    for key in range(40):
        table.put(Row(key=key, value=0, size=200.0, compute_cost=0.001))
    invocations = []
    udf = UDF(
        result_size=32.0, param_size=32.0, key_size=8.0,
        apply_fn=lambda key, params, value: invocations.append(key) or key,
        side_effect_free=False,
    )
    sizes = SizeProfile(key_size=8.0, param_size=32.0, value_size=200.0,
                        computed_size=32.0)
    cluster = Cluster.homogeneous(4)
    job = JoinJob(
        cluster=cluster, compute_nodes=[0, 1], data_nodes=[2, 3],
        table=table, udf=udf, strategy=Strategy.by_name(strategy_name),
        sizes=sizes, pipeline_window=32, seed=seed,
        fault_schedule=fault_schedule, fault_tolerance=fault_tolerance,
        resilience=resilience,
    )
    keys = [i % 40 for i in range(n)]
    result = job.run(keys)
    return result, invocations, job


class TestSideEffectingUDFs:
    def test_everything_executes_at_data_nodes(self):
        result, invocations, job = run_with_side_effects("FO")
        assert result.udfs_at_data_nodes == 400
        assert result.udfs_at_compute_nodes == 0
        assert result.cache_memory_hits == 0 and result.cache_disk_hits == 0

    def test_exactly_once_per_tuple(self):
        result, invocations, _job = run_with_side_effects("FO")
        # One real invocation per input tuple, no replays, no skips.
        assert len(invocations) == 400

    def test_load_balancer_never_bounces(self):
        _result, _invocations, job = run_with_side_effects("FO")
        for server in job.servers.values():
            # With no piggybacked stats the balancer is never consulted.
            assert server.balancer.decisions == 0

    def test_results_still_collected(self):
        _result, _invocations, job = run_with_side_effects("FO")
        outputs = job.collected_outputs()
        assert len(outputs) == 400


class TestSideEffectsUnderFailover:
    """Failover must not replay side-effecting work (ISSUE 4 bugfix).

    The recovery manager replays in-flight batches at the new region
    owner only for idempotent requests; with ``side_effect_free=False``
    replay is suppressed, in-flight batches keep retrying the primary,
    and its idempotency cache deduplicates once it restarts — so each
    ledger entry is still written exactly once."""

    def test_no_duplicate_side_effects_after_failover(self):
        # Healthy makespan calibrates the crash window.
        healthy, _, _ = run_with_side_effects("FO")
        makespan = healthy.makespan
        faults = FaultSchedule(crashes=(
            CrashFault(node_id=2, at=0.5 * makespan, duration=makespan),
        ))
        result, invocations, job = run_with_side_effects(
            "FO",
            fault_schedule=faults,
            fault_tolerance=FaultTolerance(
                request_timeout=makespan / 20,
                max_retries=64,
                fallback_to_replica=False,
            ),
            resilience=ResilienceOptions.on(
                heartbeat_interval=makespan / 40
            ),
        )
        # Exactly once, despite the crash and the region failover.
        assert len(invocations) == 400
        assert len(job.collected_outputs()) == 400
        manager = job.resilience_manager
        assert manager is not None
        assert manager.recovery.failovers >= 1
        # The replay path stayed closed for side-effecting work.
        assert manager.recovery.requests_replayed == 0
        for runtime in job.runtimes.values():
            assert runtime.transport.replay_on_failover is False

    def test_no_replica_fallback_with_the_default_policy(self):
        # The default policy falls back to a replica once the retries
        # run out; a replica fetch would run the UDF at the compute
        # node, a second time for a tuple the primary already ran.
        # Side-effecting batches keep retrying the primary instead.
        healthy, _, _ = run_with_side_effects("FO")
        makespan = healthy.makespan
        faults = FaultSchedule(crashes=(
            CrashFault(node_id=2, at=0.5 * makespan, duration=makespan),
        ))
        result, invocations, job = run_with_side_effects(
            "FO",
            fault_schedule=faults,
            fault_tolerance=FaultTolerance(
                request_timeout=makespan / 20, max_retries=1
            ),
        )
        assert FaultTolerance().fallback_to_replica  # the premise
        assert len(invocations) == 400
        assert result.udfs_at_compute_nodes == 0
        assert len(job.collected_outputs()) == 400
        assert result.retries > 0 and result.fallbacks == 0
