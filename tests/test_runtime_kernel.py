"""Cross-engine differential suite for the runtime kernel.

One small DH workload, four engines, two backends, one oracle: every
execution path the kernel offers must produce bit-for-bit the same
``tuple_id -> result`` mapping as the naive single-node hash join —
healthy, and under a fault schedule injected at the transport seam.
"""

import dataclasses

import pytest

from repro.faults.policy import FaultTolerance
from repro.faults.schedule import FaultSchedule, MessageChaos
from repro.obs import MetricsRegistry
from repro.runtime import ENGINES, JoinWorkload, LocalBackend, SimBackend
from repro.workloads.synthetic import SyntheticWorkload
from tests.oracle import assert_oracle_equal, single_node_hash_join


@pytest.fixture(scope="module")
def workload() -> JoinWorkload:
    synthetic = SyntheticWorkload.data_heavy(
        n_keys=30, n_tuples=120, skew=0.6, seed=5
    )
    return JoinWorkload.from_synthetic(synthetic)


@pytest.fixture(scope="module")
def oracle(workload):
    return single_node_hash_join(
        list(workload.keys), workload.udf, workload.stored_values()
    )


CHAOS = FaultSchedule(
    seed=11,
    chaos=(
        MessageChaos(at=0.0, duration=5.0, drop=0.15, duplicate=0.1, delay=0.1),
    ),
)
TOLERANCE = FaultTolerance(request_timeout=0.05)


class TestSimBackend:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_every_engine_matches_the_oracle(self, engine, workload, oracle):
        run = SimBackend(engine=engine, seed=5).run_join(workload)
        assert run.engine == engine
        assert run.backend == "sim"
        assert run.duration > 0
        assert_oracle_equal(run.outputs, oracle)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_fault_schedule_perturbs_every_engine(
        self, engine, workload, oracle
    ):
        healthy = SimBackend(engine=engine, seed=5).run_join(workload)
        faulted = SimBackend(
            engine=engine,
            seed=5,
            fault_schedule=CHAOS,
            fault_tolerance=TOLERANCE,
        ).run_join(workload)
        # The transport seam visibly touched the run (messages were
        # faulted and the engine reacted) ...
        assert faulted.metrics is not None
        assert faulted.metrics.perturbed
        assert faulted.metrics.messages_faulted > 0
        assert faulted.duration != healthy.duration
        # ... and the answer is still exactly the oracle's.
        assert_oracle_equal(faulted.outputs, oracle)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_each_counter_has_one_publisher(self, engine, workload):
        """Every ``transport.*`` / ``faults.*`` counter in the per-run
        registry equals the field it was read from — published once."""
        registry = MetricsRegistry()
        run = SimBackend(
            engine=engine,
            seed=5,
            fault_schedule=CHAOS,
            fault_tolerance=TOLERANCE,
            registry=registry,
        ).run_join(workload)
        counters = registry.snapshot()["counters"]
        sources = {"faults.messages_faulted": run.metrics.messages_faulted}
        assert sources["faults.messages_faulted"] > 0
        for field in dataclasses.fields(run.metrics.transport):
            if field.name != "latencies":
                sources[f"transport.{field.name}"] = getattr(
                    run.metrics.transport, field.name
                )
        if engine in ("engine", "streaming"):
            # A JoinJob ran: its JobResult carries the same three sums.
            for name in ("timeouts", "retries", "fallbacks"):
                sources[f"faults.{name}"] = sources[f"transport.{name}"]
                if engine == "engine":
                    assert getattr(run.native, name) == sources[f"faults.{name}"]
        published = {
            name: value for name, value in counters.items()
            if name.startswith(("transport.", "faults."))
        }
        assert published == sources

    def test_engines_agree_with_each_other(self, workload):
        runs = {
            engine: SimBackend(engine=engine, seed=5).run_join(workload)
            for engine in ENGINES
        }
        reference = runs["engine"].outputs
        for engine, run in runs.items():
            assert run.outputs == reference, f"{engine} diverged"

    def test_params_flow_through_the_join(self):
        synthetic = SyntheticWorkload.data_heavy(
            n_keys=10, n_tuples=40, skew=0.0, seed=2
        )
        keys = tuple(synthetic.keys())
        workload = JoinWorkload.from_synthetic(
            synthetic, params=[f"p{i}" for i in range(len(keys))]
        )
        oracle = single_node_hash_join(
            list(workload.keys),
            workload.udf,
            workload.stored_values(),
            params=list(workload.params),
        )
        for engine in ("engine", "mapreduce", "sparklite"):
            run = SimBackend(engine=engine, seed=2).run_join(workload)
            assert_oracle_equal(run.outputs, oracle)
        # Bare-key streams cannot carry per-tuple params.
        with pytest.raises(ValueError, match="params"):
            SimBackend(engine="streaming").run_join(workload)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            SimBackend(engine="spark")


class TestLocalBackend:
    def test_matches_the_oracle(self, workload, oracle):
        run = LocalBackend(max_workers=3, batch_size=16).run_join(workload)
        assert run.backend == "local"
        assert run.duration > 0
        assert_oracle_equal(run.outputs, oracle)

    def test_agrees_with_the_simulated_engines(self, workload):
        local = LocalBackend().run_join(workload)
        simulated = SimBackend(engine="engine", seed=5).run_join(workload)
        assert local.outputs == simulated.outputs

    def test_single_worker_degenerate_case(self, workload, oracle):
        run = LocalBackend(max_workers=1, batch_size=1).run_join(workload)
        assert_oracle_equal(run.outputs, oracle)

    def test_validation(self):
        with pytest.raises(ValueError):
            LocalBackend(max_workers=0)
        with pytest.raises(ValueError):
            LocalBackend(batch_size=0)


class TestJoinWorkload:
    def test_requires_a_real_udf(self):
        synthetic = SyntheticWorkload.data_heavy(n_keys=5, n_tuples=10)
        with pytest.raises(ValueError, match="apply_fn"):
            JoinWorkload(
                table=synthetic.build_table(),
                udf=synthetic.udf,  # timing-only: no apply_fn
                keys=tuple(synthetic.keys()),
                sizes=synthetic.sizes,
            )

    def test_params_must_align(self):
        synthetic = SyntheticWorkload.data_heavy(n_keys=5, n_tuples=10)
        with pytest.raises(ValueError, match="align"):
            JoinWorkload.from_synthetic(synthetic, params=["only-one"])
