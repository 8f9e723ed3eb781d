"""What a static ``run_join`` on ``sim`` holds per tuple.

A compute node works over a stream with bounded per-key state, so at
the end of the event loop the only per-tuple memory left is the join
output itself: the job's one list of output slots, indexed by tuple id,
which holds one pointer per tuple and no key.  No copy of the key
stream, no per-node slice of it, no merged copy of the outputs, no
tuple-id int kept alive and no per-tuple exactly-once entry for a tuple
that was never sent.  The tiered cache's victim heap holds one live
entry per resident, so it too is bounded by the keys, not by the
stream.
"""

from __future__ import annotations

import inspect
import tracemalloc

import pytest

from repro.api import BatchOptions, JobSpec, RunConfig, run_join
from repro.cache import tiered
from repro.engine import compute_node, job as job_module
from repro.engine.job import JoinJob
from repro.sim.events import Simulator
from repro.store import datanode

from tests.oracle import single_node_hash_join

N_TUPLES = 40_000
MB = 1_000_000
KIB = 1024


def _run_traced(monkeypatch, spec, config):
    """``run_join`` under tracemalloc; returns the spec, the report, the
    job and the snapshot taken at the end of ``Simulator.run``."""
    jobs, snapshots = [], []
    job_run, sim_run = JoinJob.run, Simulator.run

    def run_job(self, *args, **kwargs):
        jobs.append(self)
        return job_run(self, *args, **kwargs)

    def run_sim(self, *args, **kwargs):
        sim_run(self, *args, **kwargs)
        snapshots.append(tracemalloc.take_snapshot())

    monkeypatch.setattr(JoinJob, "run", run_job)
    monkeypatch.setattr(Simulator, "run", run_sim)
    tracemalloc.start()
    try:
        report = run_join(spec, config)
    finally:
        tracemalloc.stop()
    (job,) = jobs
    (snapshot,) = snapshots
    return spec, report, job, snapshot


def _slot_site():
    """``(file, line)`` of ``JoinJob._execute``'s slot-list allocation
    (the list object itself may come from a free list, so its own
    traceback cannot name the site; its item array's can)."""
    lines, first = inspect.getsourcelines(JoinJob._execute)
    (offset,) = [i for i, line in enumerate(lines) if "[EMPTY] *" in line]
    return job_module.__file__, first + offset


def _held_by(snapshot, module):
    """Bytes live at each ``(file, line)`` site of ``module``."""
    return {
        (stat.traceback[0].filename, stat.traceback[0].lineno): stat
        for stat in snapshot.statistics("lineno")
        if stat.traceback[0].filename == module.__file__
    }


@pytest.fixture(scope="module")
def traced_run():
    spec = JobSpec.synthetic(n_keys=400, n_tuples=N_TUPLES, skew=1.5, seed=3)
    config = RunConfig(engine="engine", backend="sim", n_compute=4, n_data=4,
                       seed=3)
    with pytest.MonkeyPatch.context() as monkeypatch:
        return _run_traced(monkeypatch, spec, config)


def test_a_static_run_holds_each_tuple_once(traced_run):
    spec, report, job, snapshot = traced_run
    assert len(job.outputs) == N_TUPLES
    assert job.incarnations
    assert all(runtime.outputs is job.outputs for runtime in job.incarnations)
    assert report.outputs.slots is job.outputs
    values = {row.key: row.value for row in spec.table.rows()}
    assert report.outputs == single_node_hash_join(spec.keys, spec.udf, values)

    # The slot list is one pointer per tuple; every other site in the
    # job and the compute node, the feeder's tuple ids included, holds
    # less than 1 MB.
    held = _held_by(snapshot, job_module) | _held_by(snapshot, compute_node)
    slots = held.pop(_slot_site())
    assert slots.size <= 8 * N_TUPLES + KIB
    for (filename, lineno), stat in held.items():
        assert stat.size < MB, f"{filename}:{lineno} holds {stat.size} B"


def test_the_cache_heap_holds_one_entry_per_resident(traced_run):
    """A memory hit pushes no heap entry unless the key's benefit fell,
    so the cache's sites hold per-key state only: at most 400 keys on
    each of four nodes, not an entry per hit."""
    snapshot = traced_run[3]
    held = sum(
        stat.size for stat in snapshot.statistics("lineno")
        if stat.traceback[0].filename == tiered.__file__
    )
    assert held < MB, f"cache/tiered.py holds {held} B"


def test_a_data_node_holds_no_response_past_its_request():
    """joinbench's ``sim_rent`` shape (cold keys, ~70 % compute
    requests, 2 + 2 nodes, batches of 16): every served batch caches its
    response for replays, and the transport releases it once the
    request is settled and no copy is left on the wire.  Without the
    release the cached responses and their cost parameters grow with
    the stream, past 1 MB a site here."""
    n = 20_000
    spec = JobSpec.synthetic(n_keys=n, n_tuples=n, skew=0.5, seed=3)
    config = RunConfig(engine="engine", backend="sim", n_compute=2, n_data=2,
                       seed=3, batching=BatchOptions(batch_size=16))
    with pytest.MonkeyPatch.context() as monkeypatch:
        _, report, _, snapshot = _run_traced(monkeypatch, spec, config)
    assert report.result.native.compute_requests > n // 2
    for (filename, lineno), stat in _held_by(snapshot, datanode).items():
        assert stat.size < MB, f"{filename}:{lineno} holds {stat.size} B"
