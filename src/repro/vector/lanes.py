"""Lane-partition result type for the columnar route sweep.

A *lane* is a list of input positions that took the same branch of a
per-tuple decision.  The batch kernel classifies a whole key column in
one sweep and returns lanes instead of per-tuple objects, so downstream
code can process each branch array-at-a-time.  Lane order preserves
input order within each lane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(slots=True)
class RouteLanes:
    """Result of :meth:`JoinLocationOptimizer.route_batch`.

    ``routes[i]`` / ``values[i]`` are the exact ``(route, value)`` pair
    scalar ``route_fast`` would have returned for input ``i`` (values
    are ``None`` for non-local routes).  :meth:`lane` projects the
    positions that took one route, in input order.
    """

    routes: list[Any]
    values: list[Any]

    def __len__(self) -> int:
        return len(self.routes)

    def lane(self, route: Any) -> list[int]:
        """Input positions routed to ``route``, in input order."""
        return [i for i, r in enumerate(self.routes) if r is route]
