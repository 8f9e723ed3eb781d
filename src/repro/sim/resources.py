"""FCFS multi-server resources: CPU cores, disk arms, NIC directions.

The simulator uses *reservation-style* resources rather than coroutine
blocking: when a request arrives at simulation time ``t`` a component
calls :meth:`Resource.acquire`, which books the earliest-free server
and returns ``(start, finish)`` times.  Because events are processed in
timestamp order and reservations are made in event order, this yields
first-come-first-served service with ``capacity`` parallel servers —
exactly an M/G/c-style queue, which is what drives the paper's skew and
bottleneck effects.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass


@dataclass(frozen=True)
class ResourceStats:
    """Aggregate statistics for a resource over a simulation run."""

    name: str
    capacity: int
    requests: int
    busy_time: float
    total_wait: float
    last_finish: float

    def utilization(self, horizon: float) -> float:
        """Fraction of available server-seconds consumed up to ``horizon``."""
        if horizon <= 0:
            return 0.0
        return self.busy_time / (horizon * self.capacity)

    @property
    def mean_wait(self) -> float:
        """Average queueing delay (seconds) before service started."""
        if self.requests == 0:
            return 0.0
        return self.total_wait / self.requests


class Resource:
    """A FCFS resource with ``capacity`` identical servers.

    Each server is represented by the time at which it next becomes
    free; a min-heap over those times gives O(log c) reservation.

    Examples
    --------
    >>> r = Resource("cpu", capacity=2)
    >>> r.acquire(at=0.0, duration=1.0)
    (0.0, 1.0)
    >>> r.acquire(at=0.0, duration=1.0)
    (0.0, 1.0)
    >>> r.acquire(at=0.0, duration=1.0)   # third request queues behind
    (1.0, 2.0)
    """

    def __init__(self, name: str, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.name = name
        self.capacity = capacity
        self._free: list[float] = [0.0] * capacity
        heapq.heapify(self._free)
        self._requests = 0
        self._busy_time = 0.0
        self._total_wait = 0.0
        self._last_finish = 0.0

    def acquire(self, at: float, duration: float) -> tuple[float, float]:
        """Reserve one server for ``duration`` seconds, no earlier than ``at``.

        Returns the ``(start, finish)`` times of the reservation.
        Zero-duration requests are legal and return immediately at the
        server's availability time (they still count as requests).
        """
        if duration < 0:
            raise ValueError(f"duration must be non-negative, got {duration!r}")
        earliest = self._free[0]
        start = earliest if earliest > at else at
        finish = start + duration
        # finish >= earliest: one sift leaves the multiset pop + push would.
        heapq.heapreplace(self._free, finish)
        self._requests += 1
        self._busy_time += duration
        self._total_wait += start - at
        if finish > self._last_finish:
            self._last_finish = finish
        return start, finish

    def next_free(self, at: float) -> float:
        """Earliest time a server would be available for a request at ``at``."""
        return max(self._free[0], at)

    def backlog(self, at: float) -> float:
        """Total remaining booked server-seconds beyond ``at``.

        Used by the load balancer as a proxy for queue length.
        """
        return sum(max(0.0, free - at) for free in self._free)

    def stats(self) -> ResourceStats:
        """Snapshot of usage statistics."""
        return ResourceStats(
            name=self.name,
            capacity=self.capacity,
            requests=self._requests,
            busy_time=self._busy_time,
            total_wait=self._total_wait,
            last_finish=self._last_finish,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Resource({self.name!r}, capacity={self.capacity})"
