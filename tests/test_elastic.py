"""Tests for elastic compute-node membership (``JoinJob.membership``)."""

import dataclasses

import pytest

from repro.api import (
    ElasticOptions,
    JobSpec,
    MemoryOptions,
    ResilienceOptions,
    RunConfig,
    run_join,
)
from repro.engine.job import JoinJob, MembershipEvent, replay_membership
from repro.engine.strategies import Strategy
from repro.faults import CrashFault, FaultSchedule, FaultTolerance, MessageChaos
from repro.obs import ObsOptions
from repro.sim.cluster import Cluster
from repro.workloads.synthetic import SyntheticWorkload

from tests.oracle import assert_oracle_equal, single_node_hash_join
from tests.reference_paths import use_reference_paths


def make_job(events=(), compute=(0,), seed=31, n_tuples=2400, strategy=None):
    """``compute`` is every node that may take part; nodes whose first
    event is an "add" sit out until it fires."""
    workload = SyntheticWorkload.compute_heavy(
        n_keys=400, n_tuples=n_tuples, skew=0.8, seed=seed
    )
    cluster = Cluster.homogeneous(5)
    job = JoinJob(
        cluster=cluster,
        compute_nodes=list(compute),
        data_nodes=[3, 4],
        table=workload.build_table(),
        udf=workload.udf,
        strategy=strategy if strategy is not None else Strategy.fo(),
        sizes=workload.sizes,
        membership=list(events),
        memory_cache_bytes=20e6,
        pipeline_window=128,
        seed=seed,
    )
    return workload, job


def _oracle(spec):
    workload = spec.to_workload()
    return single_node_hash_join(
        list(workload.keys), workload.udf, workload.stored_values(),
        params=workload.params,
    )


class TestMembershipEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            MembershipEvent(time=1.0, action="explode", node_id=0)
        with pytest.raises(ValueError):
            MembershipEvent(time=-1.0, action="add", node_id=0)


class TestElasticRuns:
    def test_static_membership_completes(self):
        workload, job = make_job(compute=(0, 1))
        result = job.run(workload.keys())
        assert result.n_tuples == 2400
        assert sum(result.completed_per_node.values()) == 2400
        assert set(result.completed_per_node) == {0, 1}

    def test_added_node_takes_work(self):
        workload, job = make_job(
            compute=(0, 1), events=[MembershipEvent(1.0, "add", 1)]
        )
        result = job.run(workload.keys())
        assert result.completed_per_node[1] > 0
        assert sum(result.completed_per_node.values()) == 2400

    def test_adding_a_node_speeds_up_the_job(self):
        workload, static_job = make_job(compute=(0,))
        static = static_job.run(workload.keys())
        workload2, elastic_job = make_job(
            compute=(0, 1, 2),
            events=[MembershipEvent(0.5, "add", 1), MembershipEvent(0.5, "add", 2)],
        )
        elastic = elastic_job.run(workload2.keys())
        assert elastic.makespan < static.makespan

    def test_removed_node_stops_taking_work(self):
        workload, job = make_job(
            compute=(0, 1), events=[MembershipEvent(0.3, "remove", 1)]
        )
        result = job.run(workload.keys())
        assert sum(result.completed_per_node.values()) == 2400
        # Node 1 finished strictly less than half the work.
        assert result.completed_per_node[1] < 1200

    def test_throughput_rises_after_scale_out(self):
        workload, job = make_job(
            compute=(0, 1, 2),
            events=[MembershipEvent(1.0, "add", 1), MembershipEvent(1.0, "add", 2)],
            n_tuples=4000,
        )
        result = job.run(workload.keys())
        before = result.throughput_in(0.3, 1.0)
        after = result.throughput_in(1.3, 2.0)
        assert after > 1.5 * before

    def test_double_add_rejected(self):
        workload, job = make_job(
            compute=(0,), events=[MembershipEvent(0.1, "add", 0)]
        )
        with pytest.raises(ValueError):
            job.run(workload.keys())

    def test_remove_unknown_rejected(self):
        workload, job = make_job(
            compute=(0,), events=[MembershipEvent(0.1, "remove", 2)]
        )
        with pytest.raises(ValueError):
            job.run(workload.keys())

    def test_throughput_window_validation(self):
        workload, job = make_job(compute=(0, 1))
        result = job.run(workload.keys())
        with pytest.raises(ValueError):
            result.throughput_in(1.0, 1.0)
        # A static run records no finish times to window over.
        with pytest.raises(ValueError, match="membership runs"):
            result.throughput_in(0.0, 1.0)


#: Shared-queue makespans for the configurations above, identical on the
#: fast paths and on the reference paths of :mod:`tests.reference_paths`
#: (the second static configuration, two nodes and no events, is a plain
#: round-robin run and has no shared-queue float to hold).
PINNED = {
    "static-one-node": (dict(compute=(0,)), 11.542062042666643, {0: 2400}),
    "add-one": (
        dict(compute=(0, 1), events=[MembershipEvent(1.0, "add", 1)]),
        8.33832429866665, {0: 1392, 1: 1008},
    ),
    "add-two": (
        dict(compute=(0, 1, 2), events=[
            MembershipEvent(0.5, "add", 1), MembershipEvent(0.5, "add", 2),
        ]),
        6.538749807999993, {0: 898, 1: 748, 2: 754},
    ),
    "remove-one": (
        dict(compute=(0, 1), events=[MembershipEvent(0.3, "remove", 1)]),
        11.039152887999979, {0: 2252, 1: 148},
    ),
    "scale-out-4000": (
        dict(compute=(0, 1, 2), n_tuples=4000, events=[
            MembershipEvent(1.0, "add", 1), MembershipEvent(1.0, "add", 2),
        ]),
        10.839132951999975, {0: 1573, 1: 1221, 2: 1206},
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_bare_membership_runs_keep_their_floats(name):
    kwargs, makespan, completed = PINNED[name]
    for side in ("fast", "reference"):
        with pytest.MonkeyPatch.context() as monkeypatch:
            runs = use_reference_paths(monkeypatch) if side == "reference" else None
            workload, job = make_job(**kwargs)
            result = job.run(workload.keys())
        assert result.makespan == makespan, side
        assert result.completed_per_node == completed, side
        assert runs is None or runs.submits


class TestScheduleValidation:
    """The schedule is checked by replay before anything runs."""

    @pytest.mark.parametrize("n_compute, events, match", [
        (2, [MembershipEvent(0.05, "add", 3)], "not one of the compute nodes"),
        (2, [MembershipEvent(0.05, "add", 9)], "not one of the compute nodes"),
        (2, [MembershipEvent(0.05, "add", 1), MembershipEvent(0.1, "add", 1)],
         "already active"),
        (2, [MembershipEvent(0.05, "add", 1), MembershipEvent(0.1, "remove", 1),
             MembershipEvent(0.2, "remove", 1)], "not active"),
        (2, [MembershipEvent(0.05, "remove", 0), MembershipEvent(0.1, "remove", 1)],
         "last active"),
        (2, [MembershipEvent(0.05, "add", 0), MembershipEvent(0.1, "add", 1)],
         "no active compute node"),
    ])
    def test_run_config_rejects_at_construction(self, n_compute, events, match):
        with pytest.raises(ValueError, match=match):
            RunConfig(n_compute=n_compute, n_data=2, membership=tuple(events))

    def test_first_event_decides_who_starts(self):
        events = [
            MembershipEvent(0.2, "add", 1),
            MembershipEvent(0.1, "remove", 2),
            MembershipEvent(0.3, "add", 2),
        ]
        assert replay_membership([0, 1, 2], events) == [0, 2]

    def test_figure9_freeze_rejected_before_the_first_event(self):
        workload, job = make_job(
            compute=(0, 1),
            events=[MembershipEvent(0.1, "add", 1)],
            strategy=Strategy.fo_non_adaptive(0.5),
        )
        with pytest.raises(ValueError, match="adaptive_fraction"):
            job.run(workload.keys())
        assert job.cluster.sim.events_processed == 0
        assert not job.incarnations

    def test_timed_arrivals_reject_a_schedule(self):
        workload, job = make_job(
            compute=(0, 1), events=[MembershipEvent(0.1, "add", 1)]
        )
        with pytest.raises(ValueError, match="membership"):
            job.run_at_rate(workload.keys(), 1000.0)


def test_every_incarnation_is_counted():
    """Remove → re-add gives node 1 a second runtime; the first one's
    outputs and counters must not drop out of the totals."""
    spec = JobSpec.synthetic(
        "compute_heavy", n_keys=400, n_tuples=2400, skew=0.8, seed=31
    )
    report = run_join(spec, RunConfig(
        n_compute=2, n_data=2, seed=31, memory_cache_bytes=20e6,
        obs=ObsOptions(tracing=True),
        membership=(
            MembershipEvent(0.3, "remove", 1),
            MembershipEvent(0.6, "add", 1),
        ),
    ))
    assert_oracle_equal(report.outputs, _oracle(spec))
    assert sum(report.result.native.completed_per_node.values()) == 2400
    # One request span per logical request, whichever runtime sent it.
    requests = report.tracer.find("request")
    from_node_1 = [s.start for s in requests if s.attrs["src"] == 1]
    assert min(from_node_1) < 0.3 and max(from_node_1) > 0.6
    assert report.metrics.transport.requests_sent == len(requests)


# ----------------------------------------------------------------------
# Membership composes with every other option group
# ----------------------------------------------------------------------
SPEC = JobSpec.synthetic(
    "data_heavy", n_keys=200, n_tuples=1000, skew=1.0, seed=1, value_size=20000
)
MEMBERSHIP = dict(
    n_compute=3, n_data=2, seed=1,
    membership=(MembershipEvent(0.05, "add", 2),),
)
#: The bare membership run's makespan, equal in both engine modes.
BARE_MAKESPAN = 0.2224460106666679

_CRASH = CrashFault(node_id=3, at=0.02, duration=0.05)
_CHAOS = FaultSchedule(
    seed=3,
    crashes=(_CRASH,),
    chaos=(MessageChaos(at=0.0, duration=10.0, drop=0.3, duplicate=0.1),),
)
_FT = FaultTolerance(request_timeout=0.05, max_retries=2)
_MEMORY = MemoryOptions.on(budget_bytes=1e5)

#: name -> (RunConfig options, counters that prove the group acted).
ARMED = {
    "chaos": (
        dict(faults=_CHAOS, fault_tolerance=_FT),
        ("faults.messages_faulted", "transport.retries"),
    ),
    "memory": (dict(memory=_MEMORY), ("memory.spills",)),
    "resilience": (
        dict(
            faults=FaultSchedule(seed=3, crashes=(_CRASH,)),
            fault_tolerance=_FT,
            resilience=ResilienceOptions.on(heartbeat_interval=0.005),
        ),
        ("resilience.heartbeats.sent", "resilience.failover.count"),
    ),
    "elastic": (
        dict(elastic=ElasticOptions.on(
            check_interval=0.02, min_observations=16,
            split_factor=1.5, hot_key_fraction=0.05,
        )),
        ("placement.splits",),
    ),
    "chaos+memory": (
        dict(faults=_CHAOS, fault_tolerance=_FT, memory=_MEMORY),
        ("faults.messages_faulted", "memory.spills"),
    ),
}


class TestMembershipComposes:
    def test_bare_run_keeps_its_float(self):
        report = run_join(SPEC, RunConfig(**MEMBERSHIP))
        assert report.makespan == BARE_MAKESPAN
        assert_oracle_equal(report.outputs, _oracle(SPEC))

    @pytest.mark.parametrize("case", list(ARMED))
    def test_armed_group_acts_on_a_membership_run(self, case):
        options, acted = ARMED[case]
        report = run_join(SPEC, RunConfig(
            **MEMBERSHIP, **options, obs=ObsOptions(tracing=True)
        ))
        assert_oracle_equal(report.outputs, _oracle(SPEC))
        counters = report.snapshot["counters"]
        for name in acted:
            assert counters.get(name, 0) > 0, f"{case} never moved {name}"
        assert report.makespan != BARE_MAKESPAN
        native = report.result.native
        assert sum(native.completed_per_node.values()) == len(SPEC.keys)
        assert native.completed_per_node[2] > 0  # the joiner took work
        # The run is traced like a static one: the late joiner's batches
        # and routing decisions hang off the same job span.
        tracer = report.tracer
        assert len(tracer) > 0
        assert not tracer.orphans() and not tracer.unfinished()
        assert {e.attrs["node"] for e in tracer.events_named("route")} == {0, 1, 2}

    @pytest.mark.parametrize("case", list(ARMED))
    def test_side_effects_happen_exactly_once(self, case):
        """The ledger: a side-effecting UDF runs once per tuple whoever
        joins or leaves and whatever the armed group does to the run."""
        options, _acted = ARMED[case]
        if "fault_tolerance" in options:
            # Degrading to a replica fetch would re-run the effect.
            options = dict(options, fault_tolerance=dataclasses.replace(
                options["fault_tolerance"], fallback_to_replica=False
            ))
        ledger = []

        def apply_fn(key, p, value):
            ledger.append(key)
            return f"{key}|{p}|{value}"

        spec = dataclasses.replace(SPEC, udf=dataclasses.replace(
            SPEC.udf, apply_fn=apply_fn, side_effect_free=False
        ))
        report = run_join(spec, RunConfig(**MEMBERSHIP, **options))
        assert_oracle_equal(report.outputs, _oracle(SPEC))
        assert sorted(ledger) == sorted(SPEC.keys)

    def test_per_tuple_params_ride_the_shared_queue(self):
        spec = dataclasses.replace(
            SPEC, params=tuple(f"p{i}" for i in range(len(SPEC.keys)))
        )
        report = run_join(spec, RunConfig(**MEMBERSHIP))
        assert_oracle_equal(report.outputs, _oracle(spec))
        assert report.outputs[7].split("|")[1] == "p7"
