"""One (workload, rep) in a fresh process.

``run.py`` starts this file once per repetition so that no repetition
inherits another's heap, caches or collector state (back-to-back runs
in one process drifted by 20%).  Everything before the timed region —
imports, input generation, ``ClusterDriver.start()`` — is set-up; the
timed region is ``run_join`` on ``sim_*`` and ``ClusterDriver.run()``
on ``cluster_*``.  A plain ``sim_*`` repetition reports the region in
slices of equal work, with one chunk of the reference join timed at
each cut (``Region``); ``run.py`` puts the repetitions' slices together.
The last line of standard output is one JSON object.

Modes: ``plain`` measures the end-to-end numbers; ``traced`` runs the
timed region under ``cProfile`` and yields the per-layer numbers (its
timings are never reported as end-to-end); ``alone`` drives single
layers over the workload's keys without running the join at all.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import resource
import shutil
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import drive  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402


class Spans:
    """Spans around the benchmark's own calls, kept in memory."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.records: list[dict[str, Any]] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = {
            "type": "span", "id": len(self.records), "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload, "start": time.time(), "end": None,
        }
        self.records.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            self._open.pop()
            record["end"] = time.time()


#: A plain ``sim_*`` repetition stops the clocks this many times at
#: equal steps of work (UDF calls), cutting the timed region into
#: slices that ``run.py`` matches across repetitions.
SLICES = 512
#: At each stop it joins this many tuples of the key stream (cycling
#: through it) with ``oracle.hash_join``: the reference join.  Long
#: enough (0.2 ms) that its own cold start does not dominate it.
REFERENCE_CHUNK = 512


class Region:
    """Wall and CPU clocks (and, traced, the profiler) over one call.

    ``mark`` may be called while the region is open: it closes a slice,
    runs and times ``reference`` off the region's clocks, and opens the
    next slice.  ``slices`` are the ``[wall_s, cpu_s]`` of each slice,
    ``reference_s`` the wall seconds of each ``reference`` call.
    """

    def __init__(self, traced: bool) -> None:
        self.profile = layers.ThreadedProfile() if traced else None
        self.reference: Callable[[], None] | None = None
        self.slices: list[list[float]] = []
        self.reference_s: list[float] = []

    def _open(self) -> None:
        self._cpu = time.process_time()
        self._wall = time.perf_counter()

    def _close(self) -> None:
        wall = time.perf_counter() - self._wall
        self.slices.append([wall, time.process_time() - self._cpu])

    def mark(self) -> None:
        self._close()
        if self.reference is not None:
            # Collector off: a collection the program's heap has come
            # due for is the program's cost, not the reference's (one
            # seed in ten put a 45 ms full collection in a 0.2 ms chunk,
            # in every repetition alike).
            gc.disable()
            started = time.perf_counter()
            self.reference()
            self.reference_s.append(time.perf_counter() - started)
            gc.enable()
        self._open()

    def __enter__(self) -> "Region":
        if self.profile is not None:
            self.profile.__enter__()
        self._open()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._close()
        if self.profile is not None:
            self.profile.__exit__(*exc)

    @property
    def wall_s(self) -> float:
        return sum(wall for wall, _ in self.slices)

    @property
    def cpu_s(self) -> float:
        return sum(cpu for _, cpu in self.slices)


def _cpu(usage: resource.struct_rusage) -> float:
    return usage.ru_utime + usage.ru_stime


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ----------------------------------------------------------------------
# sim_*: the timed region is run_join
# ----------------------------------------------------------------------
def run_sim(inputs: workloads.Inputs, spans: Spans, region: Region, t0: float):
    from repro.api import run_join

    setup_s = time.time() - t0
    with spans.span("run"), region:
        report = run_join(inputs.spec, inputs.config)
    n = inputs.n_tuples
    native = report.result.native
    transport = report.metrics.transport
    gauges = report.snapshot["gauges"]
    request_s = report.snapshot["histograms"].get("transport.request_seconds")
    mem_hits = getattr(native, "cache_memory_hits", 0)
    disk_hits = getattr(native, "cache_disk_hits", 0)
    compute_req = getattr(native, "compute_requests", 0)
    data_req = getattr(native, "data_requests", 0)
    counts = {
        "core.optimizer.local_mem_share": _share(mem_hits, n),
        "core.optimizer.local_disk_share": _share(disk_hits, n),
        "core.optimizer.compute_request_share": _share(compute_req, n),
        "core.optimizer.data_request_share": _share(data_req, n),
        "cache.hit_ratio": _share(mem_hits + disk_hits, n),
        "runtime.transport.requests_sent": transport.requests_sent,
        "runtime.transport.tuples_per_request": _share(
            compute_req + data_req, transport.requests_sent
        ),
        "runtime.transport.retries": transport.retries,
        "runtime.transport.timeouts": transport.timeouts,
        "runtime.transport.sim_request_mean_s": (
            request_s["mean"] if request_s else 0.0
        ),
        "store.udfs_at_data_nodes_share": _share(
            getattr(native, "udfs_at_data_nodes", 0), n
        ),
        "engine.batching.lb_kept_fraction": getattr(
            native, "lb_kept_fraction", 0.0
        ),
        "sim.events_per_tuple": _share(getattr(native, "events", 0), n),
        "sim.bytes_moved_per_tuple": _share(
            gauges.get("usage.bytes_moved", 0.0), n
        ),
        "sim.cpu_skew": gauges.get("usage.cpu_skew", 0.0),
        "sim.disk_skew": gauges.get("usage.disk_skew", 0.0),
        "shuffle.sends": report.metrics.shuffle.sends,
    }
    return {
        "outputs": report.outputs,
        "setup_s": setup_s,
        "slices": region.slices,
        "reference_s": region.reference_s,
        "makespan_s": report.makespan,
        "peak_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "counts": counts,
    }


# ----------------------------------------------------------------------
# cluster_*: the timed region is ClusterDriver.run()
# ----------------------------------------------------------------------
def run_cluster(
    inputs: workloads.Inputs, spans: Spans, region: Region, t0: float,
    log_dir: Path,
):
    from repro.cluster.driver import ClusterDriver
    from repro.cluster.rpc import RpcClient
    from repro.obs.registry import MetricsRegistry

    registry = MetricsRegistry()
    driver = ClusterDriver(
        inputs.spec.to_workload(),
        engine=inputs.definition.engine,
        n_compute=workloads.N_COMPUTE,
        n_data=workloads.N_DATA,
        batch_size=workloads.BATCH_SIZE,
        seed=inputs.seed,
        fault_schedule=inputs.faults,
        registry=registry,
        log_dir=str(log_dir),
    )
    phase: dict[str, float] = {}
    call_s: list[float] = []
    original_call = RpcClient.call

    def timed_call(self: Any, op: str, timeout_scale: float = 1.0, **payload):
        started = time.perf_counter()
        try:
            return original_call(self, op, timeout_scale, **payload)
        finally:
            call_s.append(time.perf_counter() - started)

    @contextmanager
    def timed(name: str, span: str) -> Iterator[None]:
        started = time.perf_counter()
        with spans.span(span):
            yield
        phase[name] = time.perf_counter() - started

    try:
        with timed("start_s", "setup.start"):
            driver.start()
        setup_s = time.time() - t0
        if region.profile is not None:
            # Patched after the fork, so only the driver's calls — the
            # closed loop's per-batch latency — are sampled.
            RpcClient.call = timed_call  # type: ignore[method-assign]
        try:
            with timed("run_s", "run"), region:
                outputs = driver.run()
        finally:
            RpcClient.call = original_call  # type: ignore[method-assign]
        with timed("collect_s", "teardown.collect"):
            driver.collect()
    finally:
        with timed("close_s", "teardown.close"):
            driver.close()
        shutil.rmtree(log_dir, ignore_errors=True)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    info = driver.info
    rpc = registry.snapshot()["counters"]
    served = info.worker_counters
    call_s.sort()
    counts = {
        "cluster.driver.start_s": phase["start_s"],
        "cluster.driver.run_s": phase["run_s"],
        "cluster.driver.collect_s": phase["collect_s"],
        "cluster.driver.close_s": phase["close_s"],
        "cluster.driver.cpu_s": region.cpu_s,
        "cluster.driver.wait_s": max(region.wall_s - region.cpu_s, 0.0),
        "cluster.workers.cpu_s": _cpu(workers),
        "cluster.rpc.requests_sent": rpc.get("cluster.rpc.requests_sent", 0.0),
        "cluster.rpc.retries": rpc.get("cluster.rpc.retries", 0.0),
        "cluster.rpc.timeouts": rpc.get("cluster.rpc.timeouts", 0.0),
        "cluster.rpc.call_samples": len(call_s),
        "cluster.rpc.call_p50_ms": (
            statistics.median(call_s) * 1e3 if call_s else 0.0
        ),
        # Only where at least ten samples lie beyond the percentile.
        "cluster.rpc.call_p99_ms": (
            call_s[len(call_s) * 99 // 100] * 1e3
            if len(call_s) >= 1000 else 0.0
        ),
        "cluster.worker.peer_requests": served.get("peer.requests", 0.0),
        "cluster.worker.serve_run_batch": served.get("serve.run_batch", 0.0),
        "cluster.worker.serve_get_values": served.get("serve.get_values", 0.0),
        "cluster.worker.values_served": served.get("values.served", 0.0),
        "cluster.worker.udf_applied": served.get("udf.applied", 0.0),
        "cluster.wire_faults": info.wire_faults,
        "cluster.dispatch_retries": info.dispatch_retries,
    }
    own = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "outputs": outputs,
        "setup_s": setup_s,
        # One slice: nothing of the benchmark's runs inside the workers.
        # Worker CPU is whole-life (fork to reap): RUSAGE_CHILDREN has
        # no finer grain from outside the program.
        "slices": [[region.wall_s, region.cpu_s + _cpu(workers)]],
        "reference_s": [],
        "makespan_s": sum(phase.values()),
        "peak_kb": max(own.ru_maxrss, workers.ru_maxrss),
        "counts": counts,
    }


def run_workload(args: argparse.Namespace, spans: Spans) -> dict[str, Any]:
    definition = workloads.BY_NAME[args.workload]
    region = Region(traced=args.mode == "traced")
    udf = workloads.join_udf
    sliced = definition.backend == "sim" and region.profile is None
    every = max(workloads.scaled_tuples(definition, args.scale) // SLICES, 1)
    if sliced:
        udf = workloads.marking_udf(region.mark, every)
    with spans.span("setup.import"):
        import repro.api  # noqa: F401
        if definition.backend == "cluster":
            import repro.cluster  # noqa: F401
    with spans.span("setup.build_inputs"):
        inputs = workloads.build(args.workload, args.seed, args.scale, udf)
    reference_tuples = 0
    if sliced:
        chunks = itertools.cycle(range(0, inputs.n_tuples, REFERENCE_CHUNK))

        def reference_chunk() -> None:
            nonlocal reference_tuples
            at = next(chunks)
            keys = inputs.keys[at:at + REFERENCE_CHUNK]
            reference_tuples += len(keys)
            oracle.hash_join(keys, inputs.stored, workloads.join_udf)

        region.reference = reference_chunk
    if definition.backend == "sim":
        run = run_sim(inputs, spans, region, args.t0)
    else:
        log_dir = Path(args.out_dir) / f"logs-{args.workload}-{time.time_ns()}"
        run = run_cluster(inputs, spans, region, args.t0, log_dir)
    with spans.span("verify"):
        failed = oracle.count_failed(
            run["outputs"], inputs.keys, inputs.stored,
            workloads.join_udf, inputs.updates,
        )
    result: dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "tuples": inputs.n_tuples,
        "failed": failed,
        "wall_s": region.wall_s,
        "cpu_s": sum(cpu for _, cpu in run["slices"]),
        "slices": run["slices"],
        "reference_s": run["reference_s"],
        "reference_tuples": reference_tuples,
        "makespan_s": run["makespan_s"],
        "setup_s": run["setup_s"],
        "peak_rss_mb": run["peak_kb"] / 1024.0,
        "counts": run["counts"],
    }
    if region.profile is not None:
        result["profile"] = layers.attribute(region.profile.stats())
    return result


def run_alone(args: argparse.Namespace, spans: Spans) -> dict[str, Any]:
    definition = workloads.BY_NAME[args.workload]
    inputs = workloads.build(args.workload, args.seed, args.scale)
    keys = inputs.keys[:drive.MAX_KEYS]
    alone: dict[str, float] = {}

    @contextmanager
    def driven(name: str) -> Iterator[None]:
        with spans.span(f"drive.{name}"):
            yield

    with driven("core.optimizer.route_fast"):
        alone["core.optimizer.route_fast_us"] = drive.route_fast_us(
            keys, definition.n_keys
        )
    with driven("core.optimizer.route_batch"):
        alone["core.optimizer.route_batch_us_per_key"] = (
            drive.route_batch_us_per_key(keys, definition.n_keys)
        )
    with driven("core.frequency.add"):
        alone["core.frequency.add_us"] = drive.frequency_add_us(keys)
    with driven("cache.churn"):
        alone["cache.churn_us"] = drive.cache_churn_us(
            keys, definition.memory_cache_bytes,
            inputs.spec.sizes.value_size,
        )
    with driven("sim.event"):
        alone["sim.event_us"] = drive.sim_event_us()
    with driven("cluster.codec.roundtrip"):
        frames = drive.codec_frames(
            keys, oracle.hash_join(keys, inputs.stored, workloads.join_udf),
            workloads.BATCH_SIZE,
        )
        per_frame, per_tuple = drive.codec_roundtrip(frames, len(keys))
        alone["cluster.codec.roundtrip_us_per_frame"] = per_frame
        alone["cluster.codec.bytes_per_tuple"] = per_tuple
    return {
        "workload": args.workload, "seed": args.seed, "mode": "alone",
        "alone": alone,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--mode", choices=("plain", "traced", "alone"), default="plain")
    parser.add_argument("--t0", type=float, default=None,
                        help="wall-clock time at which the parent spawned us")
    parser.add_argument("--out-dir", default=str(HERE / "out"))
    args = parser.parse_args(argv)
    if args.t0 is None:
        args.t0 = time.time()
    spans = Spans(args.workload)
    if args.mode == "alone":
        result = run_alone(args, spans)
    else:
        result = run_workload(args, spans)
    result["spans"] = spans.records
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
