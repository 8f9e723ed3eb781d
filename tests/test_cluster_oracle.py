"""Cross-process differential oracle: ClusterBackend vs. ground truth.

The whole point of ``repro.cluster`` is that the *same* three engines
produce the *same* answers when the nodes are real processes and the
wire is a real socket.  This suite holds the cluster backend to the
single-node oracle (``tests/oracle.py``) and to ``SimBackend``:

* all three engines, healthy, on >= 2 workers per role — bit-for-bit;
* all three engines under seeded message chaos (drops / duplicates /
  delays actually injected, counted, and survived);
* a scheduled :class:`CrashFault` killing a real data-worker process
  mid-run (``os._exit``), restarted by the driver, outputs intact;
* SIGKILL of a compute worker at 50% of the batches — with resilience
  the corpse is restarted, without it work reroutes to the ring
  successor; either way outputs match and a file-backed side-effect
  ledger proves every tuple's UDF ran exactly once;
* engine-parity details: an unknown engine is rejected at construction,
  as on the simulator; colocated placement joins locally; cluster ==
  sim for identical specs.

All tests run under the ``cluster`` marker's SIGALRM hard timeout and
the child-process/fd leak check from ``tests/conftest.py``.
"""

from dataclasses import replace

import pytest

from tests.oracle import assert_oracle_equal, single_node_hash_join
from repro.cluster import ClusterBackend, ClusterOptions, WorkerKill
from repro.faults.schedule import CrashFault, FaultSchedule, MessageChaos
from repro.resilience.options import ResilienceOptions
from repro.runtime.backend import ENGINES, JoinWorkload, SimBackend
from repro.workloads.synthetic import SyntheticWorkload

pytestmark = pytest.mark.cluster

#: Message chaos covering the whole (short) run, heavy enough that a
#: healthy pass is implausible without the retry machinery.
CHAOS = FaultSchedule(
    seed=11,
    chaos=(MessageChaos(at=0.0, duration=30.0, drop=0.15, duplicate=0.1,
                        delay=0.1),),
)

#: Data worker d0 is node 2 in the SimBackend numbering (compute 0..1,
#: data 2..3); ``at=0.01`` maps to its second served message, early
#: enough that every engine plan still has batches in flight.
CRASH = FaultSchedule(
    seed=3, crashes=(CrashFault(node_id=2, at=0.01, duration=1.0),)
)

@pytest.fixture(scope="module")
def workload():
    return JoinWorkload.from_synthetic(
        SyntheticWorkload.data_heavy(n_keys=30, n_tuples=120, skew=0.6, seed=5)
    )


@pytest.fixture(scope="module")
def expected(workload):
    return single_node_hash_join(
        workload.keys, workload.udf, workload.stored_values(), workload.params
    )


def cluster(engine, **kwargs):
    return ClusterBackend(engine=engine, n_compute=2, n_data=2, seed=7,
                          **kwargs)


class TestHealthyOracle:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_engine_matches_oracle(self, engine, workload, expected):
        run = cluster(engine).run_join(workload)
        assert run.backend == "cluster"
        assert_oracle_equal(run.outputs, expected)
        assert run.native.n_workers == 4
        assert not run.native.perturbed

    @pytest.mark.parametrize("engine", ENGINES)
    def test_engine_matches_oracle_with_params(self, engine, workload):
        params = tuple(f"p{i % 7}" for i in range(len(workload.keys)))
        with_params = replace(workload, params=params)
        expected = single_node_hash_join(
            workload.keys, workload.udf, workload.stored_values(), params
        )
        run = cluster(engine).run_join(with_params)
        assert_oracle_equal(run.outputs, expected)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_cluster_equals_sim(self, engine, workload):
        """Same workload, same engine: processes and simulator agree."""
        real = cluster(engine).run_join(workload)
        simulated = SimBackend(engine=engine, n_compute=2, n_data=2,
                               seed=7).run_join(workload)
        assert real.outputs == simulated.outputs

    def test_colocated_placement(self, workload, expected):
        run = cluster(
            "engine", options=ClusterOptions(placement="colocated")
        ).run_join(workload)
        assert_oracle_equal(run.outputs, expected)


class TestChaosOracle:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_engine_survives_chaos(self, engine, workload, expected):
        run = cluster(engine, fault_schedule=CHAOS).run_join(workload)
        assert_oracle_equal(run.outputs, expected)
        # The schedule really fired on the real wire: responses were
        # dropped/duplicated/delayed and the RPC layer absorbed it.
        info = run.native
        assert info.wire_faults > 0
        assert info.perturbed

    def test_chaos_counters_reach_registry(self, workload):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        run = cluster(
            "engine", fault_schedule=CHAOS, registry=registry
        ).run_join(workload)
        assert run.native.wire_faults > 0
        merged = registry.counters_matching("cluster.wire.")
        assert sum(merged.values()) > 0


class TestCrashRestart:
    @pytest.mark.parametrize("engine", ("engine", "mapreduce", "sparklite"))
    def test_scheduled_crash_restarts_and_matches(
        self, engine, workload, expected
    ):
        """A real process dies via os._exit mid-run; the driver forks a
        replacement on the same address and the answer is unchanged."""
        run = cluster(engine, fault_schedule=CRASH).run_join(workload)
        assert_oracle_equal(run.outputs, expected)
        info = run.native
        assert info.scheduled_restarts >= 1
        assert info.unscheduled_deaths == 0

    def test_crash_worker_comes_back_with_new_pid(self, workload):
        run = cluster("engine", fault_schedule=CRASH).run_join(workload)
        info = run.native
        assert info.restarts >= 1
        assert info.perturbed
        # The restarted generation answered the final snapshot RPC:
        # every worker slot reports a live pid after the run.
        assert len(info.worker_pids) == info.n_workers


def ledger_workload(path):
    """A workload whose UDF appends one line per invocation to a file.

    O_APPEND writes of short lines are atomic, so the ledger is exact
    across worker processes; re-executed UDFs would show up as
    duplicate tuple ids.
    """
    base = SyntheticWorkload.data_heavy(
        n_keys=30, n_tuples=120, skew=0.6, seed=5
    )

    def apply_fn(key, p, value):
        with open(path, "a") as ledger:
            ledger.write(f"{key}|{p}\n")
        return f"{key}|{p}|{value}"

    return JoinWorkload.from_synthetic(base, apply_fn=apply_fn)


def read_ledger(path):
    with open(path) as ledger:
        return [line.strip() for line in ledger if line.strip()]


class TestKillFailover:
    def test_sigkill_with_resilience_restarts_exactly_once(
        self, expected, tmp_path
    ):
        """SIGKILL a compute worker at 50% of the batches: resilience
        restarts the corpse, outputs match the oracle, and the ledger
        shows every tuple's UDF executed exactly once."""
        path = tmp_path / "ledger.txt"
        workload = ledger_workload(path)
        run = cluster(
            "engine",
            resilience=ResilienceOptions(enabled=True),
            options=ClusterOptions(kill=WorkerKill("c1", after_fraction=0.5)),
        ).run_join(workload)
        assert_oracle_equal(run.outputs, expected)
        info = run.native
        assert info.kills == 1
        assert info.restarts >= 1 and info.unscheduled_deaths >= 1
        lines = read_ledger(path)
        assert len(lines) == len(workload.keys)  # exactly once per tuple

    def test_sigkill_without_resilience_reroutes(self, expected, tmp_path):
        """Without detection+recovery the dead worker stays dead; its
        share reroutes to the ring successor and the answer holds."""
        path = tmp_path / "ledger.txt"
        workload = ledger_workload(path)
        run = cluster(
            "engine",
            options=ClusterOptions(kill=WorkerKill("c1", after_fraction=0.5)),
        ).run_join(workload)
        assert_oracle_equal(run.outputs, expected)
        info = run.native
        assert info.kills == 1
        assert info.restarts == 0  # nobody brought c1 back
        assert len(read_ledger(path)) == len(workload.keys)

    def test_chaos_preserves_exactly_once(self, expected, tmp_path):
        """Dropped/duplicated responses force same-rid retries; the
        replay cache must absorb them without re-running the UDF."""
        path = tmp_path / "ledger.txt"
        workload = ledger_workload(path)
        run = cluster("engine", fault_schedule=CHAOS).run_join(workload)
        assert_oracle_equal(run.outputs, expected)
        assert run.native.wire_faults > 0
        lines = read_ledger(path)
        assert len(lines) == len(workload.keys)


class TestEngineParity:
    def test_unknown_engine_rejected(self):
        # Refused at construction, before any process is forked;
        # ``streaming`` names no engine (stream runs are ``engine`` runs).
        for engine in ("warp", "streaming"):
            with pytest.raises(ValueError, match="unknown engine"):
                ClusterBackend(engine=engine)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="n_compute"):
            ClusterBackend(n_compute=0)
        with pytest.raises(ValueError, match="placement"):
            ClusterOptions(placement="everywhere")
