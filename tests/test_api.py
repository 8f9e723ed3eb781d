"""Tests for the ``repro.api`` facade and the curated package surface.

The acceptance bar from the redesign: one ``run_join`` call per engine
must yield a trace JSONL and a rendered run report; the curated
``repro.__all__`` must import cleanly and is the whole top-level
surface.
"""

import dataclasses
import json
import re
import warnings
from pathlib import Path

import pytest

import repro
from repro.api import (
    BACKENDS,
    BatchOptions,
    ClusterRunOptions,
    ElasticOptions,
    JobSpec,
    MemoryOptions,
    ResilienceOptions,
    RunConfig,
    TenancyOptions,
    run_join,
)
from repro.faults import FaultSchedule, FaultTolerance
from repro.obs import ObsOptions
from repro.runtime import ENGINES
from tests.oracle import assert_oracle_equal, single_node_hash_join


@pytest.fixture(scope="module")
def spec() -> JobSpec:
    return JobSpec.synthetic(n_keys=30, n_tuples=120, skew=0.6, seed=5)


@pytest.fixture(scope="module")
def oracle(spec):
    workload = spec.to_workload()
    return single_node_hash_join(
        list(workload.keys), workload.udf, workload.stored_values()
    )


class TestJobSpec:
    def test_synthetic_builds_all_profiles(self):
        for kind in ("data_heavy", "compute_heavy", "data_compute_heavy"):
            built = JobSpec.synthetic(kind, n_keys=10, n_tuples=20, seed=1)
            assert len(built.keys) == 20
            assert built.strategy == "FO"

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown synthetic workload"):
            JobSpec.synthetic("mystery", n_keys=10, n_tuples=20)

    def test_workload_round_trip(self, spec):
        workload = spec.to_workload()
        again = JobSpec.from_workload(workload, strategy="FD")
        assert again.keys == spec.keys
        assert again.strategy == "FD"

    def test_params_must_align(self, spec):
        with pytest.raises(ValueError, match="align"):
            JobSpec(
                table=spec.table,
                udf=spec.udf,
                keys=spec.keys,
                sizes=spec.sizes,
                params=(1, 2, 3),
            )


class TestRunConfig:
    def test_rejects_unknown_engine_and_backend(self):
        with pytest.raises(ValueError, match="unknown engine"):
            RunConfig(engine="warp")
        with pytest.raises(ValueError, match="unknown backend"):
            RunConfig(backend="cloud")
        assert set(BACKENDS) == {"sim", "local", "cluster"}

    def test_with_obs_copies(self):
        config = RunConfig()
        traced = config.with_obs(tracing=True, trace_path="t.jsonl")
        assert traced.obs.tracing is True
        assert config.obs.tracing is False  # original untouched

    def test_local_backend_rejects_non_default_engine(self):
        with pytest.raises(ValueError, match="local"):
            RunConfig(backend="local", engine="mapreduce")
        # The default engine stays accepted.
        assert RunConfig(backend="local").engine == "engine"

    ARMED = {
        "faults": FaultSchedule(seed=1),
        "fault_tolerance": FaultTolerance(request_timeout=0.05),
        "resilience": ResilienceOptions.on(),
        "elastic": ElasticOptions.on(),
        "memory": MemoryOptions.on(budget_bytes=1e6),
    }

    @pytest.mark.parametrize("group", sorted(ARMED))
    def test_local_backend_rejects_what_it_would_drop(self, group):
        with pytest.raises(ValueError, match=f"cannot honour {group}"):
            RunConfig(backend="local", **{group: self.ARMED[group]})
        # Tenancy stays: the replay runner drives local service windows.
        RunConfig(backend="local", tenancy=TenancyOptions.on(window=0.5))


class TestOptionGroups:
    """BatchOptions / ClusterRunOptions: the only spelling of their knobs."""

    def test_batch_options_validation(self):
        with pytest.raises(ValueError, match="batch_size"):
            BatchOptions(batch_size=0)
        # None (the ack clock alone) or a positive bound: a zero used
        # to pass here and die inside BatchBuffer mid-run.
        for bad in (-1.0, 0, 0.0):
            with pytest.raises(ValueError, match="max_wait"):
                BatchOptions(max_wait=bad)
        assert BatchOptions().max_wait is None
        assert BatchOptions(max_wait=0.02).max_wait == 0.02
        # The request path has one batch format; the knobs that used
        # to pick another are gone, not ignored.
        assert [f.name for f in dataclasses.fields(BatchOptions)] == [
            "batch_size", "max_wait",
        ]

    def test_cluster_options_validation(self):
        with pytest.raises(ValueError, match="placement"):
            ClusterRunOptions(placement="everywhere")
        with pytest.raises(ValueError, match="startup_timeout"):
            ClusterRunOptions(startup_timeout=0.0)

    def test_groups_accepted_directly(self):
        config = RunConfig(
            batching=BatchOptions(batch_size=8, max_wait=0.02),
            cluster=ClusterRunOptions(placement="colocated"),
        )
        assert config.batching.batch_size == 8
        assert config.batching.max_wait == 0.02
        assert config.cluster.placement == "colocated"

    def test_run_config_fields_are_pinned(self):
        # Knobs live in their option group; a flat kwarg beside the
        # groups (the retired batch_size / max_wait / placement /
        # startup_timeout) must not creep back.
        assert [f.name for f in dataclasses.fields(RunConfig)] == [
            "engine", "backend", "n_compute", "n_data", "seed",
            "batching", "cluster", "faults", "fault_tolerance",
            "resilience", "elastic", "membership", "memory",
            "memory_cache_bytes", "tenancy", "obs",
        ]
        with pytest.raises(TypeError):
            RunConfig(batch_size=4)

    def test_with_batching_copies(self):
        config = RunConfig()
        tuned = config.with_batching(max_wait=0.25)
        assert tuned.batching.max_wait == 0.25
        assert config.batching.max_wait is None  # original untouched
        assert tuned.batching.batch_size == config.batching.batch_size


class TestRunJoin:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_one_call_yields_trace_and_report(
        self, engine, spec, oracle, tmp_path
    ):
        trace_path = tmp_path / f"{engine}.jsonl"
        report = run_join(
            spec,
            RunConfig(
                engine=engine,
                obs=ObsOptions(tracing=True, trace_path=trace_path),
            ),
        )
        assert report.engine == engine
        assert report.strategy == "FO"
        assert report.makespan > 0
        assert_oracle_equal(report.outputs, oracle)
        # Trace JSONL written and non-trivial.
        records = [
            json.loads(line) for line in trace_path.read_text().splitlines()
        ]
        assert any(
            r["type"] == "span" and r["name"] == "job" for r in records
        )
        assert report.trace_path == str(trace_path)
        # Report renders with the headline numbers.
        text = report.render()
        assert "makespan" in text and "throughput" in text
        assert "## Trace" in text

    def test_untraced_run_carries_no_tracer(self, spec, oracle):
        report = run_join(spec, RunConfig())
        assert report.tracer is None
        assert report.trace_path is None
        assert report.snapshot["counters"]["jobs.runs"] == 1.0
        assert_oracle_equal(report.outputs, oracle)

    def test_local_backend(self, spec, oracle):
        report = run_join(spec, RunConfig(backend="local", n_compute=3))
        assert report.backend == "local"
        assert_oracle_equal(report.outputs, oracle)

    def test_default_config(self, spec):
        report = run_join(spec)
        assert report.engine == "engine"
        assert report.n_tuples == len(spec.keys)


class TestCuratedSurface:
    def test_curated_all_imports_cleanly(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name in repro.__all__:
                assert getattr(repro, name) is not None

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.does_not_exist

    def test_dir_lists_the_curated_surface(self):
        assert dir(repro) == sorted(repro.__all__)

    def test_internal_names_pruned_from_shim(self):
        # Neither internal plumbing nor the subpackages' entry points
        # resolve at the top level; import them from their subpackage.
        for name in ("BatchBuffer", "ResultHashMap", "SmoothedValue",
                     "RuntimeMetrics", "StreamResult", "PreMapRunner",
                     "JoinJob", "Cluster", "Transport"):
            with pytest.raises(AttributeError):
                getattr(repro, name)

    def test_readme_curated_surface_matches_all(self):
        """The README's curated-surface listing is `repro.__all__`."""
        readme = (
            Path(__file__).resolve().parent.parent / "README.md"
        ).read_text()
        match = re.search(
            r"curated top-level surface.*?```text\n(.*?)```",
            readme,
            re.DOTALL,
        )
        assert match is not None, "README curated-surface block missing"
        documented = set(match.group(1).split())
        assert documented == set(repro.__all__)


class TestQuickstartDemo:
    def test_returns_run_report(self):
        report = repro.quickstart_demo(n_tuples=200, skew=1.0, seed=0)
        assert report.strategy == "FO"
        assert report.makespan > 0
        assert len(report.outputs) == 200
