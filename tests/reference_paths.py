"""The reference side of the differential tests.

Two hot paths run a lean form unconditionally, and each must behave
exactly like the plainer code it replaced:

* ``ComputeNodeRuntime.submit``, the one submit body: it calls the
  strategy's router (``JoinLocationOptimizer.route_fast`` for
  ski-rental, a one-line router for each fixed strategy) and acts on
  the route.  Its reference is the ``submit`` -> ``_route_and_dispatch``
  -> :func:`route` chain below: one branch per strategy, and
  Algorithm 1 written out with a :class:`RoutingDecision` per request.
* ``Simulator._note_cancel``'s tombstone compaction.  Its reference is
  the lazy queue: a cancelled entry stays in the heap until the run
  loop pops and skips it.
* ``Simulator.schedule_series``, which keeps one heap entry per timed
  series (pushed arrivals, data-store updates).  Its reference arms
  every item up front, one event each.

:func:`use_reference_paths` puts components constructed after the call
on the reference side, so a test can compare one run on both sides.
It counts the calls of the reference ``submit``: a reference-side test
asserts the count is non-zero, so it cannot silently become a duplicate
of the fast side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable

import pytest

from repro.cache.tiered import CacheTier
from repro.core.cost_model import RequestCosts
from repro.core.optimizer import _MIN_WEIGHT, JoinLocationOptimizer, Route
from repro.engine.compute_node import ComputeNodeRuntime
from repro.engine.requests import RequestKind
from repro.engine.strategies import RoutingPolicy
from repro.sim.events import Simulator


@dataclass(frozen=True)
class RoutingDecision:
    """Outcome of routing one request."""

    key: Hashable
    route: Route
    value: Any = None
    costs: RequestCosts | None = None


def _threshold(
    opt: JoinLocationOptimizer, rent: float, buy: float, recurring: float
) -> float:
    if opt.fixed_threshold is not None:
        return opt.fixed_threshold
    if rent <= recurring:
        return float("inf")
    return buy / (rent - recurring)


def _benefit_weight(
    opt: JoinLocationOptimizer, key: Hashable, data_node: int
) -> float:
    """Weighted LFU-DA: weight by per-access savings of caching.

    A memory-cached item saves ``rent - tRecMem`` per access; items
    with bigger savings deserve residency over small savers of the
    same frequency.  Unknown keys get weight 1.
    """
    if not opt.cost_model.knows_key(key):
        return 1.0
    try:
        costs = opt.cost_model.costs(key, data_node)
    except KeyError:
        return 1.0
    return max(costs.rent - costs.t_rec_mem, _MIN_WEIGHT)


def route(
    opt: JoinLocationOptimizer, key: Hashable, data_node: int
) -> RoutingDecision:
    """Algorithm 1 for one request, step by step (``route_fast``'s
    reference): the same decision and the same side effects on the
    optimizer's counters, cache and access counts."""
    opt.cache.update_benefit(key, weight=_benefit_weight(opt, key, data_node))
    count = opt.counter.add(key)

    cached = opt.cache.lookup(key)
    if cached is not None:
        value, tier = cached
        if tier is CacheTier.MEMORY:
            opt._n_local_mem += 1
            return RoutingDecision(key=key, route=Route.LOCAL_MEMORY, value=value)
        # Disk hit: Algorithm 1 lines 6-9 — serve it and consider
        # promoting the item to memory for future accesses.
        opt._n_local_disk += 1
        size = opt._item_size(key)
        opt.cache.cond_cache_in_memory(key, value, size)
        return RoutingDecision(key=key, route=Route.LOCAL_DISK, value=value)

    if not opt.cost_model.knows_key(key):
        # First contact: costs unknown, must rent (Section 4.3).
        opt._n_first += 1
        opt._n_compute += 1
        return RoutingDecision(key=key, route=Route.COMPUTE_REQUEST)

    costs = opt.cost_model.costs(key, data_node)
    mem_threshold = _threshold(opt, costs.rent, costs.buy, costs.t_rec_mem)
    if count <= mem_threshold:
        opt._n_compute += 1
        return RoutingDecision(key=key, route=Route.COMPUTE_REQUEST, costs=costs)

    size = opt._item_size(key)
    if opt.cache.cond_cache_in_memory(key, None, size):
        opt._n_data_mem += 1
        return RoutingDecision(key=key, route=Route.DATA_REQUEST_MEMORY, costs=costs)

    disk_threshold = _threshold(opt, costs.rent, costs.buy, costs.t_rec_disk)
    if count <= disk_threshold:
        opt._n_compute += 1
        return RoutingDecision(key=key, route=Route.COMPUTE_REQUEST, costs=costs)

    opt._n_data_disk += 1
    return RoutingDecision(key=key, route=Route.DATA_REQUEST_DISK, costs=costs)


def _route_and_dispatch(
    self: ComputeNodeRuntime, tuple_id: int, key: Hashable, params: Any = None
) -> None:
    if not self.udf.side_effect_free:
        # Side-effecting UDFs run exactly once at the row's owner.
        dst = self.kvstore.node_for_key(key)
        self.routed_compute += 1
        self._record(tuple_id, key, Route.COMPUTE_REQUEST.value)
        self._enqueue(dst, tuple_id, key, RequestKind.COMPUTE,
                      Route.COMPUTE_REQUEST, params)
        return
    dst = self._dst_for(key)
    policy = self.config.routing
    if policy is RoutingPolicy.SKI_RENTAL:
        assert self.optimizer is not None
        if self._frozen():
            cached = self.cache.lookup(key)
            if cached is not None:
                value, tier = cached
                disk = tier is CacheTier.DISK
                self._record(tuple_id, key,
                             "local-disk" if disk else "local-memory")
                self._execute_local(tuple_id, key, value, params,
                                    disk=disk, hydrate=disk)
            else:
                self.routed_compute += 1
                self._record(tuple_id, key, Route.COMPUTE_REQUEST.value)
                self._enqueue(dst, tuple_id, key, RequestKind.COMPUTE,
                              Route.COMPUTE_REQUEST, params)
            return
        decision = route(self.optimizer, key, dst)
        self._record(tuple_id, key, decision.route.value)
        if decision.route.is_local:
            disk = decision.route is Route.LOCAL_DISK
            self._execute_local(tuple_id, key, decision.value, params,
                                disk=disk, hydrate=disk)
        elif decision.route is Route.COMPUTE_REQUEST:
            self._enqueue(dst, tuple_id, key, RequestKind.COMPUTE,
                          decision.route, params)
        else:
            self._enqueue_fetch(dst, tuple_id, key, decision.route, params)
        return
    if policy is RoutingPolicy.ALWAYS_COMPUTE:
        self.routed_compute += 1
        self._record(tuple_id, key, Route.COMPUTE_REQUEST.value)
        self._enqueue(dst, tuple_id, key, RequestKind.COMPUTE,
                      Route.COMPUTE_REQUEST, params)
    elif policy is RoutingPolicy.ALWAYS_DATA:
        self.routed_data += 1
        self._record(tuple_id, key, Route.DATA_REQUEST_DISK.value)
        self._enqueue(dst, tuple_id, key, RequestKind.DATA,
                      Route.DATA_REQUEST_DISK, params)
    else:  # RANDOM (FR): fair coin per request.
        if self._rng.random() < 0.5:
            self.routed_compute += 1
            self._record(tuple_id, key, Route.COMPUTE_REQUEST.value)
            self._enqueue(dst, tuple_id, key, RequestKind.COMPUTE,
                          Route.COMPUTE_REQUEST, params)
        else:
            self.routed_data += 1
            self._record(tuple_id, key, Route.DATA_REQUEST_DISK.value)
            self._enqueue(dst, tuple_id, key, RequestKind.DATA,
                          Route.DATA_REQUEST_DISK, params)


def _dispatch_blocking(self: ComputeNodeRuntime) -> None:
    while self._free_workers > 0 and self._input_queue:
        self._free_workers -= 1
        tuple_id, key, params = self._input_queue.popleft()
        _route_and_dispatch(self, tuple_id, key, params)


class ReferenceRuns:
    """What ran on the reference side (see :func:`use_reference_paths`)."""

    def __init__(self) -> None:
        #: Calls of the reference ``ComputeNodeRuntime.submit``.
        self.submits = 0


def _never_compact(self: Simulator) -> None:
    """The lazy queue: tombstones wait until the run loop pops them."""


def _series_loop(self: Simulator, times, callback) -> None:
    """Every item of a series armed up front, one event each."""
    for i, time in enumerate(times):
        self.schedule_at(time, lambda i=i: callback(i))


def use_reference_paths(monkeypatch: pytest.MonkeyPatch) -> ReferenceRuns:
    """Route new components through the reference paths until undone."""
    runs = ReferenceRuns()

    def submit(
        self: ComputeNodeRuntime, tuple_id: int, key: Hashable,
        params: Any = None,
    ) -> None:
        runs.submits += 1
        self._submitted += 1
        if self.config.blocking:
            self._input_queue.append((tuple_id, key, params))
            self._dispatch_blocking()
            return
        _route_and_dispatch(self, tuple_id, key, params)

    monkeypatch.setattr(ComputeNodeRuntime, "submit", submit)
    monkeypatch.setattr(ComputeNodeRuntime, "_submit_blocking", submit)
    monkeypatch.setattr(ComputeNodeRuntime, "_dispatch_blocking",
                        _dispatch_blocking)
    monkeypatch.setattr(Simulator, "_note_cancel", _never_compact)
    monkeypatch.setattr(Simulator, "schedule_series", _series_loop)
    return runs
