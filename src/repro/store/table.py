"""Keyed table storage with per-row update timestamps.

Rows carry everything the simulation and the real executors need:

* ``value`` — an arbitrary payload (real data for correctness tests and
  the sparklite executor; opaque descriptors for pure-timing runs),
* ``size`` — the stored value size ``sv`` in bytes, which drives disk
  and network costs,
* ``compute_cost`` — CPU seconds one UDF invocation on this row takes
  (entity-annotation models have wildly different classification
  costs; Section 2.1),
* ``updated_at`` — last-update timestamp, piggybacked on compute
  responses for the staleness protocol of Section 4.2.3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterator


@dataclass
class Row:
    """One stored row of the indexed join relation.

    ``hydration_cost`` is the CPU cost of turning the stored bytes into
    a live object (e.g. deserializing a classification model).  It is
    paid per UDF invocation at a data node (the coprocessor re-reads
    the row each call) and once per fetch at a compute node — a
    memory-cached object skips it, which is a large part of why
    caching hot models wins in the entity-annotation workload.
    """

    key: Hashable
    value: Any = None
    size: float = 0.0
    compute_cost: float = 0.0
    updated_at: float = 0.0
    hydration_cost: float = 0.0

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("size must be non-negative")
        if self.compute_cost < 0 or self.hydration_cost < 0:
            raise ValueError("costs must be non-negative")


class Table:
    """A named collection of rows indexed by key.

    Examples
    --------
    >>> t = Table("models")
    >>> t.put(Row(key="jordan", size=1024.0))
    >>> t.get("jordan").size
    1024.0
    >>> len(t)
    1
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._rows: dict[Hashable, Row] = {}

    def put(self, row: Row, at_time: float | None = None) -> None:
        """Insert or replace a row; optionally stamping the update time."""
        if at_time is not None:
            row.updated_at = at_time
        self._rows[row.key] = row

    def get(self, key: Hashable) -> Row:
        """Fetch a row; raises KeyError if absent."""
        return self._rows[key]

    def get_or_none(self, key: Hashable) -> Row | None:
        """Fetch a row or None."""
        return self._rows.get(key)

    def update_value(
        self, key: Hashable, value: Any, at_time: float, size: float | None = None
    ) -> Row:
        """Mutate an existing row in place, bumping its timestamp."""
        row = self._rows[key]
        row.value = value
        row.updated_at = at_time
        if size is not None:
            if size < 0:
                raise ValueError("size must be non-negative")
            row.size = size
        return row

    def delete(self, key: Hashable) -> bool:
        """Remove a row; returns True if it existed."""
        return self._rows.pop(key, None) is not None

    def __contains__(self, key: Hashable) -> bool:
        return key in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def keys(self) -> Iterator[Hashable]:
        """Iterate over stored keys."""
        return iter(self._rows)

    def rows(self) -> Iterator[Row]:
        """Iterate over stored rows."""
        return iter(self._rows.values())

    def total_bytes(self) -> float:
        """Sum of row sizes — the stored data volume."""
        return sum(row.size for row in self._rows.values())
