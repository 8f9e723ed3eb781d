"""Differential equivalence: the fast hot paths vs their references.

Three hot paths run a lean form unconditionally: the one submit body
with its per-strategy routers, the event queue's tombstone compaction,
and its one-entry timed series.  Their references are held by :mod:`tests.reference_paths`.  These tests
are the contract that makes the lean forms admissible: for the same
spec, both sides must produce byte-identical join outputs, identical
simulated makespans and metric snapshots (the "cost totals"), and —
with tracing on — identical span trees and events.  Any divergence
means a lean form changed behaviour, not just speed.
:class:`TestGoldenRuns` pins what neither side may move: the outputs
and makespans of ten runs, two of them at the benchmark's own shapes.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import BatchOptions, JobSpec, MembershipEvent, RunConfig, run_join
from repro.engine.job import JoinJob
from repro.engine.strategies import Strategy
from repro.faults.policy import FaultTolerance
from repro.faults.schedule import CrashFault, FaultSchedule, MessageChaos
from repro.memory import MemoryOptions
from repro.placement import ElasticOptions
from repro.runtime.backend import ENGINES
from repro.sim.cluster import Cluster
from repro.workloads.synthetic import SyntheticWorkload

from tests.reference_paths import use_reference_paths


def _spec(spec_kwargs: dict) -> JobSpec:
    """A synthetic spec; ``side_effect_free=False`` flips its UDF."""
    kwargs = dict(spec_kwargs)
    side_effect_free = kwargs.pop("side_effect_free", True)
    spec = JobSpec.synthetic(**kwargs)
    if side_effect_free:
        return spec
    udf = dataclasses.replace(spec.udf, side_effect_free=False)
    return dataclasses.replace(spec, udf=udf)


def _run(mode: str, spec_kwargs: dict, cfg: RunConfig):
    with pytest.MonkeyPatch.context() as monkeypatch:
        runs = use_reference_paths(monkeypatch) if mode == "1" else None
        report = run_join(_spec(spec_kwargs), cfg)
    if runs is not None and cfg.engine == "engine":
        # The shuffle engines route no tuple through a compute node.
        assert runs.submits, "the reference submit never ran"
    spans = None
    routes: Counter[str] = Counter()
    if report.tracer is not None:
        spans = [
            (
                s.span_id,
                s.parent_id,
                s.name,
                s.start,
                s.end,
                s.status,
                repr(sorted(s.attrs.items())),
            )
            for s in report.tracer.spans
        ]
        spans += [
            (e.name, e.time, e.parent_id, repr(sorted(e.attrs.items())))
            for e in report.tracer.events
        ]
        routes.update(
            f"route.{e.attrs['route']}"
            for e in report.tracer.events if e.name == "route"
        )
    return report.outputs, report.makespan, report.snapshot, spans, routes


def _assert_equivalent(spec_kwargs: dict, cfg: RunConfig) -> dict:
    """Both sides agree on every observable; returns the counters, with
    a ``route.<route>`` count per traced routing decision."""
    ref = _run("1", spec_kwargs, cfg)
    opt = _run("0", spec_kwargs, cfg)
    assert ref[0] == opt[0], "join outputs diverged"
    assert ref[1] == opt[1], "simulated makespan diverged"
    assert ref[2] == opt[2], "metrics snapshot diverged"
    assert ref[3] == opt[3], "span trees diverged"
    return {**opt[2].get("counters", {}), **opt[4]}


_CHAOS = FaultSchedule(
    seed=5,
    crashes=(CrashFault(node_id=2, at=0.01, duration=0.6),),
    chaos=(
        MessageChaos(
            at=0.0, duration=3.0,
            drop=0.15, duplicate=0.1, delay=0.1, max_delay=0.03,
        ),
    ),
)
_FT = FaultTolerance(request_timeout=0.05, max_retries=1)

#: One plain case per engine, then each strategy's router and the
#: branches of the one submit body that a plain run never takes:
#: (config, spec overrides, counters that must be non-zero so the case
#: keeps exercising what it claims to, and the exact set of routes its
#: tuples take or ``None``).  ``route.<route>`` counts the traced
#: routing decisions.
_ENGINE_CASES = {
    **{engine: (dict(engine=engine), {}, (), None) for engine in ENGINES},
    # Hybrid build side armed at the data nodes: hits skip the disk,
    # spilled partitions pay an unspill, inserts can force a spill.
    "engine-memory": (
        dict(
            engine="engine",
            memory=MemoryOptions.on(budget_bytes=2e5),
            memory_cache_bytes=1e5,
        ),
        {},
        ("memory.build_hits", "memory.build_unspill_reads", "memory.spills"),
        None,
    ),
    # A working set larger than the memory tier: disk-tier hits read
    # the value off disk before the UDF runs.
    "engine-disk-tier": (
        dict(engine="engine", memory_cache_bytes=2e5),
        dict(n_keys=400, n_tuples=3000, skew=0.8, seed=3),
        ("cache.disk_hits",),
        None,
    ),
    # NO: blocking workers, one unbatched fetch in flight per thread.
    "engine-blocking": (
        dict(engine="engine"), dict(strategy="NO"), (),
        {"route.data-request-disk"},
    ),
    # FD and LO always ship the function to the data node (LO's data
    # nodes may bounce some of it back).
    "engine-fd": (
        dict(engine="engine"), dict(strategy="FD"),
        ("jobs.udfs_at_data_nodes",), {"route.compute-request"},
    ),
    "engine-lo": (
        dict(engine="engine"), dict(strategy="LO"),
        ("jobs.udfs_at_data_nodes",), {"route.compute-request"},
    ),
    # FR: a fair coin per tuple, so both kinds of request.
    "engine-fr": (
        dict(engine="engine"), dict(strategy="FR"),
        ("jobs.udfs_at_data_nodes", "jobs.udfs_at_compute_nodes"),
        {"route.compute-request", "route.data-request-disk"},
    ),
    # CO: ski-rental caching without load balancing; enough tuples that
    # hot keys are bought and then served from the memory tier.
    "engine-co": (
        dict(engine="engine"), dict(strategy="CO", n_tuples=2000),
        ("cache.memory_hits", "route.local-memory"), None,
    ),
    # FO-NA: the adaptive prefix (first 10 % per node) runs Algorithm 1,
    # the frozen rest only looks the key up in the cache.  In this shape
    # the prefix only rents, so every frozen lookup misses.
    "engine-fo-na": (
        dict(engine="engine"), dict(strategy="FO-NA", n_tuples=2000), (),
        None,
    ),
    # A side-effecting UDF under FO: every tuple is a compute request at
    # the row's owner, never cached.
    "engine-side-effects": (
        dict(engine="engine"), dict(side_effect_free=False),
        ("jobs.udfs_at_data_nodes",), {"route.compute-request"},
    ),
    # Drops, duplicates and a crashed data node: same-id retries,
    # idempotent replays, and replica fallback (routes rewritten to
    # DATA_REQUEST_DISK).
    "engine-chaos": (
        dict(engine="engine", faults=_CHAOS, fault_tolerance=_FT),
        {},
        (
            "transport.retries", "transport.fallbacks",
            "transport.duplicate_responses",
        ),
        None,
    ),
    # The same chaos while elastic placement moves regions under the
    # in-flight batches: WrongRegion refusals regroup and resend.
    "engine-elastic-chaos": (
        dict(
            engine="engine",
            n_compute=3,
            n_data=3,
            faults=_CHAOS,
            fault_tolerance=_FT,
            memory_cache_bytes=2e4,
            elastic=ElasticOptions.on(
                check_interval=0.02,
                min_observations=16,
                split_factor=1.5,
                hot_key_fraction=0.05,
            ),
        ),
        dict(skew=1.5),
        ("placement.redirects", "transport.retries", "transport.fallbacks"),
        None,
    ),
    # Mid-run data-store updates, armed unsorted as one timed series:
    # cached copies are invalidated and refetched (Section 4.2.3).
    "engine-updates": (
        dict(
            engine="engine",
            faults=FaultSchedule.random(
                seed=5, data_nodes=(0,), horizon=0.4, keys=range(60),
                n_crashes=0, n_stragglers=0, n_chaos=0, n_updates=200,
            ),
        ),
        dict(n_tuples=2000),
        ("cache.memory_hits", "cache.disk_hits"),
        None,
    ),
    # A node joins and another leaves mid-run: the shared input queue
    # replaces the per-node feeders, under the same chaos.
    "engine-membership": (
        dict(
            engine="engine",
            n_compute=3,
            faults=FaultSchedule(
                seed=5,
                crashes=(CrashFault(node_id=3, at=0.01, duration=0.6),),
                chaos=_CHAOS.chaos,
            ),
            fault_tolerance=_FT,
            membership=(
                MembershipEvent(0.01, "add", 2),
                MembershipEvent(0.03, "remove", 1),
            ),
        ),
        {},
        ("transport.retries", "transport.duplicate_responses"),
        None,
    ),
}


class TestEngineEquivalence:
    """One pinned workload per engine, tracer on."""

    @pytest.mark.parametrize("case", list(_ENGINE_CASES))
    def test_engine_matches_reference(self, case):
        cfg_kwargs, spec_kwargs, exercised, routes = _ENGINE_CASES[case]
        spec = dict(kind="data_heavy", n_keys=60, n_tuples=300, skew=1.2, seed=11)
        counters = _assert_equivalent(
            {**spec, **spec_kwargs},
            RunConfig(**cfg_kwargs).with_obs(tracing=True),
        )
        for name in exercised:
            assert counters.get(name, 0) > 0, f"{case} never hit {name}"
        if routes is not None:
            taken = {name for name in counters if name.startswith("route.")}
            assert taken == routes

    def test_compute_heavy_matches_reference(self):
        _assert_equivalent(
            dict(kind="compute_heavy", n_keys=40, n_tuples=200, skew=0.8, seed=5),
            RunConfig(engine="engine").with_obs(tracing=True),
        )

    def test_queued_compute_node_matches_reference(self):
        # Enough compute-heavy tuples on few hot keys that the compute
        # node's CPU queues: the memory-hit path must observe the same
        # queueing-included local cost as its reference, or the route mix
        # (and the makespan) parts.  Smaller cases never reach that scale.
        _assert_equivalent(
            dict(kind="compute_heavy", n_keys=60, n_tuples=3000, skew=1.5, seed=11),
            RunConfig(),
        )

    def test_fixed_threshold_strategy_matches_reference(self):
        # FC always fetches and builds no optimizer, so no threshold
        # reaches either side: this is the batched always-fetch
        # differential (the fixed-threshold one follows).
        _assert_equivalent(
            dict(
                kind="data_heavy",
                n_keys=40,
                n_tuples=200,
                skew=1.0,
                seed=9,
                strategy="FC",
            ),
            RunConfig(engine="engine").with_obs(tracing=True),
        )


def _threshold_run(mode: str, fixed_threshold: float | None):
    """FO under a fixed ski-rental threshold, in the ablation bench's
    shape (``benchmarks/bench_ablation_threshold.py``), scaled down."""
    workload = SyntheticWorkload.data_heavy(
        n_keys=400, n_tuples=2000, skew=1.2, seed=11
    )
    with pytest.MonkeyPatch.context() as monkeypatch:
        runs = use_reference_paths(monkeypatch) if mode == "1" else None
        job = JoinJob(
            cluster=Cluster.homogeneous(6),
            compute_nodes=[0, 1, 2],
            data_nodes=[3, 4, 5],
            table=workload.build_table(),
            udf=workload.udf,
            strategy=Strategy.fo(),
            sizes=workload.sizes,
            memory_cache_bytes=10e6,
            fixed_threshold=fixed_threshold,
            seed=11,
        )
        result = job.run(workload.keys())
    assert runs is None or runs.submits, "the reference submit never ran"
    for runtime in job.runtimes.values():
        assert runtime.optimizer.fixed_threshold == fixed_threshold
    return result, job.collected_outputs()


def _pushed_run(mode: str):
    """Open-loop arrivals and unsorted mid-run updates, both series."""
    workload = SyntheticWorkload.data_heavy(
        n_keys=60, n_tuples=1500, skew=1.2, seed=11
    )
    keys = list(workload.keys())
    updates = [(0.3 - i * 0.002, i % 60, f"u{i}") for i in range(120)]
    with pytest.MonkeyPatch.context() as monkeypatch:
        runs = use_reference_paths(monkeypatch) if mode == "1" else None
        job = JoinJob(
            cluster=Cluster.homogeneous(4),
            compute_nodes=[0, 1],
            data_nodes=[2, 3],
            table=workload.build_table(),
            udf=workload.udf,
            strategy=Strategy.fo(),
            sizes=workload.sizes,
            seed=11,
        )
        result = job.run_trace(
            keys, [i / 4000 for i in range(len(keys))], updates=updates
        )
    assert runs is None or runs.submits, "the reference submit never ran"
    return result, job.collected_outputs()


def test_pushed_arrivals_and_updates_match_reference():
    """``run_trace``'s two series agree with arming every item."""
    ref, ref_outputs = _pushed_run("1")
    opt, opt_outputs = _pushed_run("0")
    assert ref_outputs == opt_outputs
    assert ref == opt


def test_fixed_threshold_matches_reference():
    """``fixed_threshold`` reaches both routers, and they agree."""
    ref, ref_outputs = _threshold_run("1", 2.0)
    opt, opt_outputs = _threshold_run("0", 2.0)
    assert ref_outputs == opt_outputs
    assert ref == opt
    # The knob is live: the cost-based thresholds route differently.
    adaptive, _ = _threshold_run("0", None)
    assert adaptive.data_requests != opt.data_requests


@given(
    kind=st.sampled_from(["data_heavy", "compute_heavy", "data_compute_heavy"]),
    n_keys=st.integers(min_value=5, max_value=60),
    n_tuples=st.integers(min_value=10, max_value=3000),
    skew=st.sampled_from([0.0, 0.5, 1.0, 1.5]),
    seed=st.integers(min_value=0, max_value=2**16),
    engine=st.sampled_from(ENGINES),
)
@settings(max_examples=12, deadline=None)
def test_property_run_join_equivalence(kind, n_keys, n_tuples, skew, seed, engine):
    """Random workloads: both sides agree on every observable."""
    _assert_equivalent(
        dict(kind=kind, n_keys=n_keys, n_tuples=n_tuples, skew=skew, seed=seed),
        RunConfig(engine=engine).with_obs(tracing=True),
    )


def _digest(parts: list[str]) -> str:
    """blake2b-16 over NUL-terminated parts (the pinned digests' recipe)."""
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()


#: Figure 8's data-heavy shape at z = 1.5 (the paper's high-skew panel).
_FIG8 = dict(n_keys=200, n_tuples=2000, skew=1.5, seed=7)

#: name -> (data-heavy spec shape, config, digest, simulated makespan).
_GOLDEN = {
    "fig8_engine": (
        _FIG8, RunConfig(engine="engine"),
        "55c12c8d669237fd2a01f418e34f7fc9", 0.4345240640000007,
    ),
    "fig8_mapreduce": (
        _FIG8, RunConfig(engine="mapreduce"),
        "3223a04cd71dfd57f6797b1a5b9e797a", 0.010684479999999816,
    ),
    "fig8_sparklite": (
        _FIG8, RunConfig(engine="sparklite"),
        "f6a30ce96b83de7a755e58f8c82c5c54", 0.1552624,
    ),
    "fig8_engine_full": (
        dict(n_keys=400, n_tuples=8000, skew=1.5, seed=7), RunConfig(),
        "e2a0e0c31fa61d69dacf746262aa33ca", 0.6663845359999957,
    ),
    # Cold keys: most tuples are first contacts, so compute-request
    # batches (and the Appendix C statistics riding on them) dominate.
    "cold_keys_smoke": (
        dict(n_keys=5_000, n_tuples=2000, skew=0.5, seed=7), RunConfig(),
        "115577ffea24417018515a27a913c2ea", 0.9846383119999834,
    ),
    "cold_keys": (
        dict(n_keys=20_000, n_tuples=8000, skew=0.5, seed=7), RunConfig(),
        "c8d741f1a59168f62055c36a620224c2", 3.7636345360002075,
    ),
    # A hot spot elastic placement splits, migrates and replicates away
    # mid-run.
    "skew_migration": (
        dict(n_keys=400, n_tuples=4000, skew=1.5, seed=21),
        RunConfig(
            n_compute=4,
            n_data=4,
            seed=21,
            memory_cache_bytes=2e5,
            elastic=ElasticOptions.on(
                check_interval=0.05,
                min_observations=16,
                split_factor=1.5,
                hot_key_fraction=0.05,
            ),
        ),
        "35777aa226b61bc28f9e7f4b13aa8c4e", 0.5752092799999998,
    ),
    # joinbench's seed-3 shapes: cold keys with ~70 % compute requests,
    # and a working set 20x the memory tier.
    "sim_rent": (
        dict(n_keys=20_000, n_tuples=30_000, skew=0.5, seed=3),
        RunConfig(seed=3, batching=BatchOptions(batch_size=16),
                  memory_cache_bytes=100e6),
        "b452211bee1a32885dfd42882cd02e12", 12.495918880002094,
    ),
    "sim_churn": (
        dict(n_keys=2_000, n_tuples=60_000, skew=0.8, seed=3),
        RunConfig(seed=3, batching=BatchOptions(batch_size=16),
                  memory_cache_bytes=15e6),
        "42e580fcb0e17416f4964cafaea131f0", 12.29171945600502,
    ),
}

#: Rows whose digest covers the join outputs alone.
_OUTPUTS_ONLY = {"skew_migration"}


class TestGoldenRuns:
    """Pinned runs keep their outputs and simulated makespan to the bit.

    The digest is taken over the sorted ``repr`` of the outputs plus
    ``repr(round(makespan, 12))``.  A change that moves any simulated
    float moves these, and must say so and regenerate them.
    """

    @pytest.mark.parametrize("name", list(_GOLDEN))
    def test_run_keeps_its_digest_and_makespan(self, name):
        shape, cfg, digest, makespan = _GOLDEN[name]
        report = run_join(JobSpec.synthetic(kind="data_heavy", **shape), cfg)
        parts = sorted(map(repr, report.outputs.items()))
        if name not in _OUTPUTS_ONLY:
            parts.append(repr(round(report.makespan, 12)))
        assert _digest(parts) == digest
        assert report.makespan == makespan
