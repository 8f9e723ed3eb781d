"""Differential equivalence: optimized hot paths vs the reference path.

The performance pass (``repro.perf``) keeps every pre-optimization
algorithm alive behind ``REPRO_PERF_REFERENCE=1``.  These tests are
the contract that makes the optimizations admissible: for the same
spec, both modes must produce byte-identical join outputs, identical
simulated makespans and metric snapshots (the "cost totals"), and —
with tracing on — identical span trees.  Any divergence means an
optimization changed behaviour, not just speed.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import BatchOptions, JobSpec, RunConfig, run_join
from repro.perf.harness import verify_scenario
from repro.perf.mode import REFERENCE_ENV
from repro.perf.scenarios import SCENARIOS
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


def _assert_equivalent(spec_kwargs: dict, cfg: RunConfig) -> None:
    ref = _run("1", spec_kwargs, cfg)
    opt = _run("0", spec_kwargs, cfg)
    assert ref[0] == opt[0], "join outputs diverged"
    assert ref[1] == opt[1], "simulated makespan diverged"
    assert ref[2] == opt[2], "metrics snapshot diverged"
    assert ref[3] == opt[3], "span trees diverged"


class TestEngineEquivalence:
    """One pinned workload per engine, tracer on."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_engine_matches_reference(self, engine):
        _assert_equivalent(
            dict(kind="data_heavy", n_keys=60, n_tuples=300, skew=1.2, seed=11),
            RunConfig(engine=engine).with_obs(tracing=True),
        )

    def test_compute_heavy_matches_reference(self):
        _assert_equivalent(
            dict(kind="compute_heavy", n_keys=40, n_tuples=200, skew=0.8, seed=5),
            RunConfig(engine="engine").with_obs(tracing=True),
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


class TestVectorEquivalence:
    """The columnar batch kernels vs the reference scalar loops.

    Reference mode never runs the vector kernels, so each case below
    is a vector-vs-scalar differential: any batch-kernel divergence —
    lane partitioning, frozen-threshold reuse, window splitting —
    shows up as a mismatch in outputs, makespan, metrics or spans.
    """

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("vector_width", [1, 16, 256])
    def test_vector_width_matches_reference(self, engine, vector_width):
        _assert_equivalent(
            dict(kind="data_heavy", n_keys=60, n_tuples=300, skew=1.5, seed=11),
            RunConfig(
                engine=engine,
                batching=BatchOptions(vector_width=vector_width),
            ).with_obs(tracing=True),
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_columnar_off_matches_reference(self, engine):
        # columnar=False pins the scalar per-tuple algorithms even in
        # optimized mode; both modes must still agree.
        _assert_equivalent(
            dict(kind="data_heavy", n_keys=60, n_tuples=300, skew=1.5, seed=11),
            RunConfig(
                engine=engine, batching=BatchOptions(columnar=False)
            ).with_obs(tracing=True),
        )

    def test_vector_widths_agree_with_each_other(self):
        # The width is a blocking factor, not a semantic knob: every
        # width must give the same optimized-mode observables.
        spec = dict(kind="data_heavy", n_keys=60, n_tuples=300, skew=1.5, seed=3)
        runs = [
            _run(
                "0",
                spec,
                RunConfig(
                    engine="engine",
                    batching=BatchOptions(vector_width=width),
                ).with_obs(tracing=True),
            )
            for width in (1, 16, 256)
        ]
        assert runs[0] == runs[1] == runs[2]


@given(
    kind=st.sampled_from(["data_heavy", "compute_heavy", "data_compute_heavy"]),
    n_keys=st.integers(min_value=5, max_value=60),
    n_tuples=st.integers(min_value=10, max_value=200),
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


class TestScenarioVerification:
    """The harness's own differential check holds for every scenario
    cheap enough to run twice under pytest."""

    @pytest.mark.parametrize(
        "name",
        [
            "micro_route",
            "micro_route_batch",
            "micro_lossy_counter",
            "micro_cache_churn",
            "micro_event_cancel",
            "macro_fig8_engine",
            "macro_cold_keys_smoke",
        ],
    )
    def test_scenario_identical_across_modes(self, name):
        scenario = next(s for s in SCENARIOS if s.name == name)
        verified, ref, opt = verify_scenario(scenario)
        assert verified, f"{name}: ref={ref.digest} opt={opt.digest}"
