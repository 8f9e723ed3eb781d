"""Algorithm 1 — ``skiRentalCaching``: the per-key request router.

For each incoming tuple with join key ``k`` the optimizer decides
where the lookup and UDF execution happen:

* ``LOCAL_MEMORY`` / ``LOCAL_DISK`` — cache hit; compute locally.
* ``COMPUTE_REQUEST`` — "rent": ship ``(k, p)`` to the data node.
* ``DATA_REQUEST_MEMORY`` — "buy" into the memory tier (space was
  reserved by the probe form of ``condCacheInMemory``).
* ``DATA_REQUEST_DISK`` — "buy" into the disk tier.

The ski-rental tests use the extended thresholds ``b / (r - br)`` with
``br`` equal to the memory (``tRecMem``) or disk (``tRecDisk``)
recurring cost.  Because costs are key specific, the first request for
an unknown key is always a compute request (Section 4.3); the response
carries the key's cost parameters, after which informed decisions are
possible.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Hashable, NamedTuple, Sequence

from repro.cache.tiered import CacheTier, TieredCache
from repro.core.cost_model import CostModel, CostParameters
from repro.core.frequency import ExactCounter, LossyCounter
from repro.core.update_tracker import UpdateTracker

#: Benefit weights must stay positive even when rent barely beats the
#: recurring cost; this floor keeps LFU-DA well defined.
_MIN_WEIGHT = 1e-9

_INF = float("inf")


class Route(enum.Enum):
    """Where one request is sent / executed."""

    LOCAL_MEMORY = "local-memory"
    LOCAL_DISK = "local-disk"
    COMPUTE_REQUEST = "compute-request"
    DATA_REQUEST_MEMORY = "data-request-memory"
    DATA_REQUEST_DISK = "data-request-disk"

    @property
    def is_local(self) -> bool:
        """True when the value is already cached at the compute node."""
        return self in (Route.LOCAL_MEMORY, Route.LOCAL_DISK)

    @property
    def is_data_request(self) -> bool:
        """True when the stored value will be fetched and cached."""
        return self in (Route.DATA_REQUEST_MEMORY, Route.DATA_REQUEST_DISK)


class RouteBatch(NamedTuple):
    """Per-input ``(route, value)`` columns of ``route_batch``."""

    routes: list[Route]
    values: list[Any]


@dataclass(frozen=True)
class OptimizerStats:
    """Routing counters for one optimizer instance."""

    local_memory: int
    local_disk: int
    compute_requests: int
    data_requests_memory: int
    data_requests_disk: int
    first_contact: int

    @property
    def total(self) -> int:
        return (
            self.local_memory
            + self.local_disk
            + self.compute_requests
            + self.data_requests_memory
            + self.data_requests_disk
        )


class JoinLocationOptimizer:
    """Per-compute-node router implementing Algorithm 1.

    Parameters
    ----------
    cost_model:
        Runtime cost estimates for this node.
    cache:
        The node's tiered cache.
    counter:
        Per-key access counter (lossy or exact).
    """

    def __init__(
        self,
        cost_model: CostModel,
        cache: TieredCache,
        counter: LossyCounter | ExactCounter | None = None,
        fixed_threshold: float | None = None,
        reset_count_on_update: bool = True,
    ) -> None:
        self.cost_model = cost_model
        self.cache = cache
        self.counter = counter if counter is not None else LossyCounter(epsilon=1e-4)
        # Ablation knob: replace the cost-based ski-rental thresholds
        # b/(r - br) with one fixed access count (the "somewhat
        # arbitrary threshold" approach the paper argues against).
        self.fixed_threshold = fixed_threshold
        # Section 4.2.3: resetting the counter on update is optional —
        # the 2 - br/r guarantee holds either way, but without the
        # reset, frequently updated items keep getting bought.
        self.reset_count_on_update = reset_count_on_update
        self.updates = UpdateTracker(on_stale=self._on_stale_key)
        self._n_local_mem = 0
        self._n_local_disk = 0
        self._n_compute = 0
        self._n_data_mem = 0
        self._n_data_disk = 0
        self._n_first = 0

    # ------------------------------------------------------------------
    # Algorithm 1 body
    # ------------------------------------------------------------------
    def route_fast(self, key: Hashable, data_node: int) -> tuple[Route, Any]:
        """Route one request for ``key`` served by ``data_node``.

        Returns ``(route, value)``; ``value`` is the cached value on a
        local route and ``None`` otherwise.  The benefit weight
        (weighted LFU-DA: a memory resident saves ``rent - tRecMem`` per
        access; unknown keys weigh 1) is read before the probe, and the
        four costs of the ski-rental thresholds only after a miss.
        """
        model = self.cost_model
        weight = model.hit_weight(key, data_node)
        if weight is None:  # unknown key or missing bandwidth
            weight = 1.0
        elif not weight > _MIN_WEIGHT:
            weight = max(weight, _MIN_WEIGHT)
        # Benefit update and lookup fused into one cache probe; the
        # counter add in between touches disjoint state, so the swap
        # with the lookup is unobservable.
        cached = self.cache.access_fast(key, weight)
        count = self.counter.add(key)

        if cached is not None:
            value, tier = cached
            if tier is CacheTier.MEMORY:
                self._n_local_mem += 1
                return Route.LOCAL_MEMORY, value
            # Disk hit: Algorithm 1 lines 6-9 — serve it and consider
            # promoting the item to memory for future accesses.
            self._n_local_disk += 1
            size = self._item_size(key)
            self.cache.cond_cache_in_memory(key, value, size)
            return Route.LOCAL_DISK, value

        if not model.knows_key(key):
            # First contact: costs unknown, must rent (Section 4.3).
            self._n_first += 1
            self._n_compute += 1
            return Route.COMPUTE_REQUEST, None

        # The weight's costs: the probe and the count move no estimate.
        rent, buy, rec_mem, rec_disk = model.costs4(key, data_node)
        fixed = self.fixed_threshold
        if fixed is not None:
            mem_threshold = fixed
        elif rent <= rec_mem:
            mem_threshold = _INF
        else:
            mem_threshold = buy / (rent - rec_mem)
        if count <= mem_threshold:
            self._n_compute += 1
            return Route.COMPUTE_REQUEST, None

        size = self._item_size(key)
        if self.cache.cond_cache_in_memory(key, None, size):
            self._n_data_mem += 1
            return Route.DATA_REQUEST_MEMORY, None

        if fixed is not None:
            disk_threshold = fixed
        elif rent <= rec_disk:
            disk_threshold = _INF
        else:
            disk_threshold = buy / (rent - rec_disk)
        if count <= disk_threshold:
            self._n_compute += 1
            return Route.COMPUTE_REQUEST, None

        self._n_data_disk += 1
        return Route.DATA_REQUEST_DISK, None

    def route_batch(
        self, keys: Sequence[Hashable], data_nodes: Sequence[int]
    ) -> RouteBatch:
        """:meth:`route_fast` on each ``(key, data_node)`` pair, in order."""
        routes: list[Route] = []
        values: list[Any] = []
        for key, data_node in zip(keys, data_nodes, strict=True):
            route, value = self.route_fast(key, data_node)
            routes.append(route)
            values.append(value)
        return RouteBatch(routes, values)

    # ------------------------------------------------------------------
    # Completion callbacks
    # ------------------------------------------------------------------
    def complete_fetch(
        self, key: Hashable, value: Any, route: Route, updated_at: float = 0.0
    ) -> None:
        """Install a fetched value into the tier the route selected."""
        size = self._item_size(key)
        if route is Route.DATA_REQUEST_MEMORY:
            try:
                self.cache.fulfill(key, value)
            except KeyError:
                # The reservation was evicted while the fetch was in
                # flight; fall back to the disk tier.
                self.cache.add_to_disk(key, value, size)
        elif route is Route.DATA_REQUEST_DISK:
            # The route may have been degraded in flight (a failover
            # rewrote a memory request to the disk form).  Any memory
            # reservation made when the request was routed would never
            # be fulfilled — cancel it so the slot (and its budget
            # charge) is released rather than leaked.
            self.cache.cancel_reservation(key)
            self.cache.add_to_disk(key, value, size)
        else:
            raise ValueError(f"complete_fetch called with non-fetch route {route}")
        self.updates.observe_timestamp(key, updated_at)

    def observe_response(self, params: CostParameters, updated_at: float = 0.0) -> None:
        """Fold a compute-request response's cost parameters in."""
        self.cost_model.observe(params)
        self.updates.observe_timestamp(params.key, updated_at)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> OptimizerStats:
        """Routing counters so far."""
        return OptimizerStats(
            local_memory=self._n_local_mem,
            local_disk=self._n_local_disk,
            compute_requests=self._n_compute,
            data_requests_memory=self._n_data_mem,
            data_requests_disk=self._n_data_disk,
            first_contact=self._n_first,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _item_size(self, key: Hashable) -> float:
        try:
            return self.cost_model.value_size(key)
        except KeyError:
            return 0.0

    def _on_stale_key(self, key: Hashable) -> None:
        """Update detected: invalidate cache and restart ski-rental."""
        self.cache.invalidate(key)
        if self.reset_count_on_update:
            self.counter.reset(key)
        self.cost_model.forget_key(key)
