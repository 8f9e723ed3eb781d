"""Differential equivalence: optimized hot paths vs the reference path.

Every optimized hot path keeps its pre-optimization algorithm alive
behind ``REPRO_PERF_REFERENCE=1``.  These tests are the contract that
makes the optimizations admissible: for the same spec, both modes must
produce byte-identical join outputs, identical simulated makespans and
metric snapshots (the "cost totals"), and — with tracing on — identical
span trees.  Any divergence means an optimization changed behaviour,
not just speed.  :class:`TestGoldenRuns` pins what neither mode may
move: the outputs and makespans of eight runs, in whichever mode the
suite runs.
"""

from __future__ import annotations

import hashlib
import os
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.api import BatchOptions, JobSpec, MembershipEvent, RunConfig, run_join
from repro.faults.policy import FaultTolerance
from repro.faults.schedule import CrashFault, FaultSchedule, MessageChaos
from repro.memory import MemoryOptions
from repro.perf.mode import REFERENCE_ENV
from repro.placement import ElasticOptions
from repro.runtime.backend import ENGINES


def _run(mode: str, spec_kwargs: dict, cfg: RunConfig):
    saved = os.environ.get(REFERENCE_ENV)
    os.environ[REFERENCE_ENV] = mode
    try:
        report = run_join(JobSpec.synthetic(**spec_kwargs), cfg)
    finally:
        if saved is None:
            os.environ.pop(REFERENCE_ENV, None)
        else:
            os.environ[REFERENCE_ENV] = saved
    spans = None
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
    return report.outputs, report.makespan, report.snapshot, spans


def _assert_equivalent(spec_kwargs: dict, cfg: RunConfig) -> dict:
    """Both modes agree on every observable; returns the counters."""
    ref = _run("1", spec_kwargs, cfg)
    opt = _run("0", spec_kwargs, cfg)
    assert ref[0] == opt[0], "join outputs diverged"
    assert ref[1] == opt[1], "simulated makespan diverged"
    assert ref[2] == opt[2], "metrics snapshot diverged"
    assert ref[3] == opt[3], "span trees diverged"
    return opt[2].get("counters", {})


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

#: One plain case per engine, then the branches of the one optimized
#: request path that a plain run never takes: (config, spec overrides,
#: counters that must be non-zero so the case keeps exercising what it
#: claims to).
_ENGINE_CASES = {
    **{engine: (dict(engine=engine), {}, ()) for engine in ENGINES},
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
    ),
    # NO: blocking workers, one unbatched request in flight per thread.
    "engine-blocking": (dict(engine="engine"), dict(strategy="NO"), ()),
    # FO-NA: the adaptive prefix (first 10 % per node) goes through
    # _route_and_dispatch, the frozen rest through its cache-only branch.
    "engine-fo-na": (
        dict(engine="engine"), dict(strategy="FO-NA", n_tuples=2000), ()
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
    ),
}


class TestEngineEquivalence:
    """One pinned workload per engine, tracer on."""

    @pytest.mark.parametrize("case", list(_ENGINE_CASES))
    def test_engine_matches_reference(self, case):
        cfg_kwargs, spec_kwargs, exercised = _ENGINE_CASES[case]
        spec = dict(kind="data_heavy", n_keys=60, n_tuples=300, skew=1.2, seed=11)
        counters = _assert_equivalent(
            {**spec, **spec_kwargs},
            RunConfig(**cfg_kwargs).with_obs(tracing=True),
        )
        for name in exercised:
            assert counters.get(name, 0) > 0, f"{case} never hit {name}"

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

    @pytest.mark.parametrize(
        "shape, cache_bytes",
        [
            # sim_rent: cold keys, ~70 % compute requests.
            (dict(n_keys=20_000, skew=0.5, n_tuples=30_000), 100e6),
            # sim_churn: working set 20x the memory tier.
            (dict(n_keys=2_000, skew=0.8, n_tuples=60_000), 15e6),
        ],
        ids=["sim_rent", "sim_churn"],
    )
    def test_joinbench_shape_matches_reference(self, shape, cache_bytes):
        # Mode equality at the benchmark's scale, not only at 3 000
        # tuples: what ROADMAP 2(ii) asks for before the reference goes.
        _assert_equivalent(
            dict(kind="data_heavy", seed=3, **shape),
            RunConfig(
                seed=3,
                batching=BatchOptions(batch_size=16),
                memory_cache_bytes=cache_bytes,
            ),
        )

    def test_fixed_threshold_strategy_matches_reference(self):
        # FC exercises the fixed-threshold branch of the router.
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
    """Random workloads: both modes agree on every observable."""
    _assert_equivalent(
        dict(kind=kind, n_keys=n_keys, n_tuples=n_tuples, skew=skew, seed=seed),
        RunConfig(engine=engine).with_obs(tracing=True),
    )


#: The forks DESIGN.md §11 keeps, one row of evidence each ("Two tiers
#: where they pay").  A new ``reference_mode()`` fork needs its row first.
_GUARDED_MODULES = {
    "engine/compute_node.py",
    "engine/job.py",
    "sim/events.py",
}


def test_reference_mode_forks_are_the_ones_design_keeps():
    root = pathlib.Path(repro.__file__).parent
    guarded = {
        path.relative_to(root).as_posix()
        for path in root.rglob("*.py")
        if path.parent.name != "perf" and "reference_mode" in path.read_text()
    }
    assert guarded == _GUARDED_MODULES


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
    "fig8_streaming": (
        _FIG8, RunConfig(engine="streaming"),
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
