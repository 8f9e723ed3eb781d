"""The logical parallel KV store: routing, updates, notifications.

:class:`KVStore` binds a :class:`~repro.store.table.Table` to a
:class:`~repro.store.partitioner.RegionMap` and provides:

* key-routed access (``get``/``put``/``node_for_key``),
* region-aware request grouping — the paper's wrapper API that sends
  each ``(k, p)`` pair only to the region whose range contains ``k``
  instead of broadcasting the batch to every region on the node
  (Appendix D.3),
* update listeners — the targeted cache-invalidation channel of
  Section 4.2.3: data nodes remember which compute nodes cached a row
  and notify exactly those on change.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Hashable

from repro.store.partitioner import RegionMap
from repro.store.table import Row, Table

#: Signature of an update listener: (key, new_timestamp) -> None.
UpdateListener = Callable[[Hashable, float], None]


class KVStore:
    """Partitioned keyed store with update notification support."""

    def __init__(self, table: Table, region_map: RegionMap) -> None:
        self.table = table
        self.region_map = region_map
        # key -> {subscriber_id: listener}: who cached this row.
        self._listeners: dict[Hashable, dict[int, UpdateListener]] = defaultdict(dict)
        self._notifications_sent = 0

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def node_for_key(self, key: Hashable) -> int:
        """Data node owning ``key``."""
        return self.region_map.node_for_key(key)

    # ------------------------------------------------------------------
    # Data access
    # ------------------------------------------------------------------
    def get(self, key: Hashable) -> Row:
        """Fetch the row for ``key`` (logical access, no timing)."""
        return self.table.get(key)

    def put(self, row: Row, at_time: float = 0.0) -> None:
        """Insert or replace a row and notify cached copies."""
        existed = row.key in self.table
        self.table.put(row, at_time=at_time)
        if existed:
            self._notify(row.key, at_time)

    def update_value(
        self, key: Hashable, value: Any, at_time: float, size: float | None = None
    ) -> Row:
        """Mutate a row in place, bumping its timestamp and notifying."""
        row = self.table.update_value(key, value, at_time, size=size)
        self._notify(key, at_time)
        return row

    # ------------------------------------------------------------------
    # Update notifications (Section 4.2.3)
    # ------------------------------------------------------------------
    def subscribe(
        self, key: Hashable, subscriber_id: int, listener: UpdateListener
    ) -> None:
        """Record that ``subscriber_id`` cached ``key``.

        The data node keeps this map so that updates notify only the
        compute nodes actually holding a stale copy, instead of
        broadcasting to the whole cluster.
        """
        self._listeners[key][subscriber_id] = listener

    def unsubscribe(self, key: Hashable, subscriber_id: int) -> None:
        """Forget a cached-copy record (e.g. after eviction)."""
        subs = self._listeners.get(key)
        if subs is not None:
            subs.pop(subscriber_id, None)
            if not subs:
                del self._listeners[key]

    @property
    def notifications_sent(self) -> int:
        """Total targeted invalidations delivered."""
        return self._notifications_sent

    def _notify(self, key: Hashable, at_time: float) -> None:
        subs = self._listeners.get(key)
        if not subs:
            return
        for listener in list(subs.values()):
            listener(key, at_time)
            self._notifications_sent += 1
