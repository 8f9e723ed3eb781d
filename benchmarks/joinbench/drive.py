"""Layers driven alone, through their public functions only.

Each drive feeds one layer the workload's own first ``MAX_KEYS`` probe
keys with nothing else running, so a per-layer change can be read
without the rest of the engine around it.  Every figure is the median
of ``REPEATS`` passes over freshly built objects.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Any, Callable, Hashable, Sequence

MAX_KEYS = 50_000
ROUTE_WIDTH = 64
SIM_EVENTS = 100_000
REPEATS = 3


def _median_us(build: Callable[[], Callable[[], int]]) -> float:
    """Median over ``REPEATS`` of (seconds per item) * 1e6."""
    per_item = []
    for _ in range(REPEATS):
        work = build()
        started = time.perf_counter()
        items = work()
        per_item.append((time.perf_counter() - started) / max(items, 1))
    return statistics.median(per_item) * 1e6


def _optimizer(n_keys: int) -> Any:
    """One optimizer with a cost observation per key (as ``micro_route``)."""
    from repro.cache.tiered import TieredCache
    from repro.core.cost_model import CostModel, CostParameters
    from repro.core.frequency import LossyCounter
    from repro.core.optimizer import JoinLocationOptimizer

    model = CostModel(node_id=0, bandwidth={1: 100e6}, local_disk_time=0.004)
    cache = TieredCache(memory_bytes=64_000.0, disk_bytes=256_000.0)
    optimizer = JoinLocationOptimizer(
        model, cache, counter=LossyCounter(epsilon=1e-3)
    )
    rng = random.Random(11)
    for key in range(n_keys):
        model.observe(CostParameters(
            key=key,
            value_size=200.0 + rng.random() * 1800.0,
            compute_time=0.001 + rng.random() * 0.004,
            disk_time=0.003,
            node_id=1,
        ))
    model.observe_local_compute(0.002)
    return optimizer


def route_fast_us(keys: Sequence[Hashable], n_keys: int) -> float:
    """Scalar routing, fetches completed at window boundaries."""
    def build() -> Callable[[], int]:
        optimizer = _optimizer(n_keys)

        def work() -> int:
            for at in range(0, len(keys), ROUTE_WIDTH):
                window = keys[at:at + ROUTE_WIDTH]
                decided = [
                    (key, optimizer.route_fast(key, 1)[0]) for key in window
                ]
                for key, route in decided:
                    if route.is_data_request:
                        optimizer.complete_fetch(key, f"v{key}", route)
            return len(keys)
        return work
    return _median_us(build)


def route_batch_us_per_key(keys: Sequence[Hashable], n_keys: int) -> float:
    """The columnar routing kernel over the same windows."""
    def build() -> Callable[[], int]:
        optimizer = _optimizer(n_keys)

        def work() -> int:
            for at in range(0, len(keys), ROUTE_WIDTH):
                window = list(keys[at:at + ROUTE_WIDTH])
                lanes = optimizer.route_batch(window, [1] * len(window))
                for key, route in zip(window, lanes.routes):
                    if route.is_data_request:
                        optimizer.complete_fetch(key, f"v{key}", route)
            return len(keys)
        return work
    return _median_us(build)


def frequency_add_us(keys: Sequence[Hashable]) -> float:
    def build() -> Callable[[], int]:
        from repro.core.frequency import LossyCounter

        counter = LossyCounter(1e-4)

        def work() -> int:
            add = counter.add
            for key in keys:
                add(key)
            return len(keys)
        return work
    return _median_us(build)


def cache_churn_us(
    keys: Sequence[Hashable], memory_bytes: float, value_size: float
) -> float:
    """Lookup / admit / demote with the workload's own tier sizes."""
    def build() -> Callable[[], int]:
        from repro.cache.tiered import TieredCache

        cache = TieredCache(memory_bytes=memory_bytes)

        def work() -> int:
            for key in keys:
                cache.update_benefit(key, weight=1.0)
                hit = cache.lookup(key)
                if hit is None:
                    if cache.cond_cache_in_memory(key, None, value_size):
                        cache.fulfill(key, key)
                    else:
                        cache.add_to_disk(key, key, value_size)
                elif hit[1].name == "DISK":
                    cache.cond_cache_in_memory(key, hit[0], value_size)
            return len(keys)
        return work
    return _median_us(build)


def sim_event_us() -> float:
    def build() -> Callable[[], int]:
        from repro.sim.events import Simulator

        sim = Simulator()
        rng = random.Random(43)
        times = [rng.random() * 100.0 for _ in range(SIM_EVENTS)]

        def work() -> int:
            callback = int
            for at in times:
                sim.schedule_at(at, callback)
            sim.run()
            return SIM_EVENTS
        return work
    return _median_us(build)


def codec_frames(
    keys: Sequence[Hashable], outputs: dict[int, Any], batch_size: int
) -> list[dict[str, Any]]:
    """The run's own ``run_batch`` requests and their responses."""
    frames: list[dict[str, Any]] = []
    for at in range(0, len(keys), batch_size):
        tids = list(range(at, min(at + batch_size, len(keys))))
        rid = f"0123456789abcdef:{at // batch_size + 1}"
        frames.append({
            "rid": rid, "op": "run_batch",
            "tids": tids, "keys": [keys[t] for t in tids],
        })
        frames.append({
            "rid": rid, "ok": True, "value": {t: outputs[t] for t in tids},
        })
    return frames


def codec_roundtrip(frames: list[dict[str, Any]], n_tuples: int):
    """``(us per frame, wire bytes per tuple)`` for encode + decode."""
    from repro.cluster.codec import Framer, encode_frame

    wire_bytes = sum(len(encode_frame(frame)) for frame in frames)

    def build() -> Callable[[], int]:
        framer = Framer()

        def work() -> int:
            for frame in frames:
                framer.feed(encode_frame(frame))
                for _decoded in framer.frames():
                    pass
            return len(frames)
        return work
    return _median_us(build), wire_bytes / max(n_tuples, 1)
