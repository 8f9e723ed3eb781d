"""The ack-clocked batching rule at engine level (``engine/batching.py``).

With ``BatchOptions.max_wait=None`` (the default) nothing but the ack
clock and the idle flush moves a partial batch, so these runs are where
a hole in the liveness invariant would show as a stall, and a hole in
the in-flight accounting as a lost or doubled tuple: every fault path
that abandons a request (replica fallback, failover, ``WrongRegion``
redirect) and every way a node's buffers go away mid-run (leave,
rejoin) is driven for FO / NO / FR, on the fast paths and on the
reference paths of :mod:`tests.reference_paths`, and compared with the
single-node hash join.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import (
    BatchOptions,
    ElasticOptions,
    JobSpec,
    MembershipEvent,
    RunConfig,
    run_join,
)
from repro.engine.job import JoinJob
from repro.engine.strategies import Strategy
from repro.faults import CrashFault, FaultSchedule, FaultTolerance, MessageChaos
from repro.sim.cluster import Cluster
from repro.workloads.synthetic import SyntheticWorkload

from tests.oracle import assert_oracle_equal, single_node_hash_join
from tests.reference_paths import use_reference_paths

SPEC = JobSpec.synthetic(
    "data_heavy", n_keys=120, n_tuples=600, skew=1.2, seed=11
)
_CHAOS = FaultSchedule(
    seed=5,
    crashes=(CrashFault(node_id=2, at=0.01, duration=0.6),),
    chaos=(MessageChaos(at=0.0, duration=3.0, drop=0.15, duplicate=0.1,
                        delay=0.1, max_delay=0.03),),
)
_FT = FaultTolerance(request_timeout=0.05, max_retries=1)

#: name -> (RunConfig options, counters proving the path was taken).
_CASES = {
    # Drops, duplicates and a crashed data node: timeouts, same-id
    # retries, then abandon + replica fallback.
    "chaos-fallback": (
        dict(faults=_CHAOS, fault_tolerance=_FT),
        ("transport.retries", "transport.fallbacks"),
    ),
    # Regions split and move under in-flight batches: the refused batch
    # is abandoned and regrouped by current owner.
    "wrong-region": (
        dict(
            n_compute=3, n_data=3, memory_cache_bytes=2e4,
            faults=_CHAOS, fault_tolerance=_FT,
            elastic=ElasticOptions.on(
                check_interval=0.02, min_observations=16,
                split_factor=1.5, hot_key_fraction=0.05,
            ),
        ),
        ("placement.redirects",),
    ),
    # Node 1 leaves with requests in flight and comes back as a fresh
    # incarnation with fresh buffers.
    "leave-rejoin": (
        dict(
            n_compute=3,
            membership=(
                MembershipEvent(0.02, "remove", 1),
                MembershipEvent(0.06, "add", 1),
            ),
        ),
        (),
    ),
}


def _oracle(spec):
    workload = spec.to_workload()
    return single_node_hash_join(
        list(workload.keys), workload.udf, workload.stored_values()
    )


@pytest.mark.parametrize("reference", ["0", "1"])
@pytest.mark.parametrize("scenario", list(_CASES))
@pytest.mark.parametrize("strategy", ["FO", "NO", "FR"])
def test_oracle_equal_without_max_wait(strategy, scenario, reference, monkeypatch):
    runs = use_reference_paths(monkeypatch) if reference == "1" else None
    options, exercised = _CASES[scenario]
    spec = dataclasses.replace(SPEC, strategy=strategy)
    config = RunConfig(seed=11, **options)
    assert config.batching.max_wait is None
    report = run_join(spec, config)
    assert_oracle_equal(report.outputs, _oracle(spec))
    counters = report.snapshot["counters"]
    for name in exercised:
        assert counters.get(name, 0) > 0, f"{scenario} never hit {name}"
    assert runs is None or runs.submits


@pytest.mark.parametrize("reference", ["0", "1"])
@pytest.mark.parametrize("scenario", list(_CASES))
def test_side_effects_happen_exactly_once(scenario, reference, monkeypatch):
    """The ledger: with a side-effecting UDF every tuple is a compute
    request at the row's owner, held and released by the same clock."""
    runs = use_reference_paths(monkeypatch) if reference == "1" else None
    options, _ = _CASES[scenario]
    if "fault_tolerance" in options:
        # Degrading to a replica fetch would re-run the effect.
        options = dict(options, fault_tolerance=dataclasses.replace(
            _FT, fallback_to_replica=False
        ))
    ledger = []

    def apply_fn(key, p, value):
        ledger.append(key)
        return f"{key}|{p}|{value}"

    spec = dataclasses.replace(SPEC, udf=dataclasses.replace(
        SPEC.udf, apply_fn=apply_fn, side_effect_free=False
    ))
    report = run_join(spec, RunConfig(seed=11, **options))
    assert_oracle_equal(report.outputs, _oracle(SPEC))
    assert sorted(ledger) == sorted(SPEC.keys)
    assert runs is None or runs.submits


def test_open_loop_trace_terminates_without_max_wait():
    """``run_trace`` has no pipeline window and no end-of-input flush
    until the last arrival; the idle flush and the ack clock alone must
    drain it."""
    workload = SyntheticWorkload.data_heavy(
        n_keys=2000, n_tuples=1500, skew=0.5, seed=7
    )
    job = JoinJob(
        cluster=Cluster.homogeneous(4),
        compute_nodes=[0, 1],
        data_nodes=[2, 3],
        table=workload.build_table(),
        udf=workload.udf,
        strategy=Strategy.fo(),
        sizes=workload.sizes,
        batch_size=16,
        max_wait=None,
        seed=7,
    )
    arrivals = [i / 2000.0 for i in range(1500)]
    result = job.run_trace(workload.keys(), arrivals)
    assert result.n_tuples == 1500
    assert all(latency > 0 for latency in result.latencies)


def test_cold_key_run_fills_its_batches():
    """The tripwire: 2.5 tuples per request (a 5 ms timer firing 60
    times per round trip) cannot come back silently."""
    spec = JobSpec.synthetic(
        "data_heavy", n_keys=5000, n_tuples=2000, skew=0.5, seed=1
    )
    report = run_join(spec, RunConfig(batching=BatchOptions(batch_size=16)))
    counters = report.snapshot["counters"]
    remote = counters["routing.compute_requests"] + counters["routing.data_requests"]
    assert remote / counters["transport.requests_sent"] >= 8
    # The report says why: batches left full or on an answer, not on a
    # timer (none is armed).
    assert counters["batching.flushes_timeout"] == 0
    assert counters["batching.flushes_size"] > counters["batching.flushes_idle"]


@pytest.mark.parametrize("kind", ["compute_heavy", "data_compute_heavy"])
@pytest.mark.parametrize("n, batch, skew", [(3, 64, 0.0), (10, 16, 0.0), (10, 16, 1.0)])
def test_hold_depth_keeps_the_balancer_fed(kind, n, batch, skew):
    """The guard that justifies ``HOLD_DEPTH``: where the UDF dominates,
    coarse batches starve the Appendix-C balancer (plain Nagle, depth 1,
    loses up to 20 % on these cells); the default must stay within 10 %
    of the fine-grained 5 ms timer it replaced."""
    spec = JobSpec.synthetic(kind, n_keys=3000, n_tuples=6000, skew=skew, seed=5)

    def makespan(**batching):
        return run_join(spec, RunConfig(
            n_compute=n, n_data=n, seed=5,
            batching=BatchOptions(batch_size=batch, **batching),
        )).makespan

    assert makespan() <= 1.10 * makespan(max_wait=0.005)
