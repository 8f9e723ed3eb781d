"""A job's outputs: one slot list indexed by tuple id, read through a
read-only ``Mapping`` view that skips empty slots."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import replace

import pytest

from repro.api import JobSpec
from repro.engine.compute_node import ComputeNodeRuntime
from repro.engine.job import EMPTY, MembershipEvent, OutputView
from repro.engine.multi_join import MultiJoinJob
from repro.engine.strategies import Strategy
from repro.runtime import SimBackend
from repro.sim.cluster import Cluster

from tests.oracle import single_node_hash_join
from tests.test_multi_join import make_stage
from tests.test_runtime_kernel import record_instances


@pytest.fixture
def view():
    """Five slots, two of them empty: ids 0, 2 and 3 are written."""
    return OutputView(["a", EMPTY, None, "d", EMPTY])


class TestOutputView:
    def test_is_a_mapping_equal_to_its_dict_both_ways(self, view):
        written = {0: "a", 2: None, 3: "d"}
        assert isinstance(view, Mapping)
        assert view == written
        assert written == view
        assert view != {0: "a", 2: None}
        assert {0: "a", 1: EMPTY, 2: None, 3: "d"} != view

    def test_membership_skips_empty_slots(self, view):
        assert 0 in view and 2 in view and 3 in view
        assert 1 not in view and 4 not in view
        assert -1 not in view and 5 not in view and "3" not in view

    def test_key_set_difference(self, view):
        expected = {0: "a", 1: "b", 2: None}
        assert view.keys() - expected.keys() == {3}
        assert expected.keys() - view.keys() == {1}

    def test_iterates_in_tuple_id_order(self, view):
        assert list(view) == [0, 2, 3]
        assert list(view.items()) == [(0, "a"), (2, None), (3, "d")]

    def test_len_counts_written_slots_only(self, view):
        assert len(view) == 3
        assert len(OutputView([EMPTY] * 4)) == 0
        assert len(OutputView([])) == 0

    @pytest.mark.parametrize("key", [1, 4, -1, 5, "3", 2.0, None])
    def test_key_error_for_anything_but_a_written_id(self, view, key):
        with pytest.raises(KeyError):
            view[key]
        assert view.get(key, "missing") == "missing"

    def test_read_only(self, view):
        assert not hasattr(view, "__setitem__")
        with pytest.raises(TypeError):
            view[1] = "b"
        assert view.slots[1] is EMPTY

    def test_reads_the_live_list(self, view):
        view.slots[1] = "b"
        assert view[1] == "b" and len(view) == 4


SPEC = JobSpec.synthetic(
    "compute_heavy", n_keys=300, n_tuples=1500, skew=0.8, seed=17
)


def _oracle(spec):
    workload = spec.to_workload()
    return single_node_hash_join(
        list(workload.keys), workload.udf, workload.stored_values()
    )


def test_run_trace_fills_every_slot():
    job = SimBackend(engine="engine", seed=17).build_job(SPEC.to_workload())
    arrivals = [i * 0.0005 for i in range(len(SPEC.keys))]
    job.run_trace(SPEC.keys, arrivals)
    assert len(job.outputs) == len(SPEC.keys)
    assert EMPTY not in job.outputs
    assert all(runtime.outputs is job.outputs for runtime in job.incarnations)
    outputs = job.collected_outputs()
    assert outputs.slots is job.outputs
    assert outputs == _oracle(SPEC)


def test_a_rejoining_node_writes_into_the_same_slots():
    """Remove → re-add gives node 1 two incarnations; both write into
    the job's one slot list."""
    backend = SimBackend(
        engine="engine", n_compute=2, n_data=2, seed=31,
        memory_cache_bytes=20e6,
        membership=(
            MembershipEvent(0.3, "remove", 1),
            MembershipEvent(0.6, "add", 1),
        ),
    )
    job = backend.build_job(SPEC.to_workload())
    job.run(SPEC.keys)
    node_ids = [runtime.node_id for runtime in job.incarnations]
    assert node_ids.count(1) == 2
    assert all(runtime.outputs is job.outputs for runtime in job.incarnations)
    first, second = [rt for rt in job.incarnations if rt.node_id == 1]
    assert first.completed > 0 and second.completed > 0
    assert job.collected_outputs() == _oracle(SPEC)


def test_a_multi_join_stage_writes_one_slot_list(monkeypatch):
    """A pipeline stage whose UDF has an ``apply_fn`` gets one slot list
    shared by its runtimes, as a ``JoinJob`` does."""
    built = record_instances(monkeypatch, ComputeNodeRuntime)
    stages = [
        replace(stage, udf=replace(stage.udf, apply_fn=lambda k, p, v: v))
        for stage in (make_stage("dim0", 50), make_stage("dim1", 50))
    ]
    job = MultiJoinJob(
        cluster=Cluster.homogeneous(4), compute_nodes=[0, 1],
        data_nodes=[2, 3], stages=stages, strategy=Strategy.fo(),
        pipeline_window=32,
    )
    keys = [[i % 50, None if i % 3 else (i * 7) % 50] for i in range(400)]
    job.run(keys)
    for s in range(2):
        (slots,) = {id(rt.outputs): rt.outputs for rt in built[2 * s:2 * s + 2]}.values()
        assert OutputView(slots) == {
            i: f"dim{s}-{k[s]}" for i, k in enumerate(keys) if k[s] is not None
        }
