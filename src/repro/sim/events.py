"""Event loop for the discrete-event cluster simulator.

The simulator keeps a priority queue of ``(time, sequence, callback)``
entries.  Callbacks run in strict timestamp order; ties are broken by
insertion order, which makes every simulation deterministic for a given
seed and schedule.  There are no coroutines: components schedule plain
callables, and resource contention is expressed through reservation
times returned by :class:`repro.sim.resources.Resource`.

Cancellation is lazy: a cancelled entry stays in the heap until it is
popped (and then skipped) or until a compaction pass rebuilds the heap
without it.  Compaction triggers from :meth:`EventHandle.cancel` once
tombstones dominate the queue, so a cancellation storm (timeout timers
that almost never fire) cannot grow the heap without bound; the O(n)
rebuild is paid for by the >= n/2 cancels that triggered it, keeping
``cancel`` O(1) amortized.  Rebuilding only ever drops entries whose
handle is already cancelled — live ``(time, seq, callback, handle)``
tuples are preserved verbatim — so the execution order of surviving
events is bit-identical to the lazy-skip reference path (selectable at
construction via ``REPRO_PERF_REFERENCE=1``, see :mod:`repro.perf.mode`;
``tests/test_sim_events.py::TestCancellationStorm`` compares the two).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.perf.mode import reference_mode

_INF = float("inf")
_NEG_INF = float("-inf")

#: Compaction watermark: rebuild the heap once more than this many
#: tombstones have accumulated *and* they outnumber live entries.  The
#: floor keeps tiny simulations on the cheap lazy path.
_COMPACT_MIN_TOMBSTONES = 64


class SimulationError(RuntimeError):
    """Raised on misuse of the simulator (e.g. scheduling in the past)."""


class EventHandle:
    """Cancellation token for one scheduled callback.

    Timeout timers (the engine's retry machinery) schedule far more
    events than ever fire; cancelling is O(1) amortized — the entry
    stays in the heap but is skipped, uncounted, when popped, and the
    owning simulator compacts the heap once tombstones dominate it.
    """

    __slots__ = ("cancelled", "_sim")

    def __init__(self, sim: "Simulator | None" = None) -> None:
        self.cancelled = False
        # Back-reference for tombstone accounting; ``None`` in reference
        # mode, where cancel degrades to the pre-optimization flag set.
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        if not self.cancelled:
            self.cancelled = True
            sim = self._sim
            if sim is not None:
                sim._note_cancel()


#: Shared sentinel for events that can never be cancelled (see
#: :meth:`Simulator.schedule_call`); the run loop's cancelled check
#: reads it like any other handle.
_NEVER_CANCELLED = EventHandle(None)


class Simulator:
    """A deterministic discrete-event loop.

    Examples
    --------
    >>> sim = Simulator()
    >>> seen = []
    >>> _ = sim.schedule_at(2.0, lambda: seen.append("late"))
    >>> _ = sim.schedule_at(1.0, lambda: seen.append("early"))
    >>> sim.run()
    >>> seen
    ['early', 'late']
    >>> sim.now
    2.0
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self._queue: list[tuple[float, int, Callable[[], Any], EventHandle]] = []
        self._events_processed = 0
        self._events_cancelled = 0
        # Cancelled entries still sitting in the heap.  The count may
        # over-estimate (a handle cancelled after its entry fired still
        # notifies), which at worst triggers one harmless early
        # compaction; it is reset to exact zero by every rebuild.
        self._tombstones = 0
        self._handle_sim: Simulator | None = None if reference_mode() else self

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far."""
        return self._events_processed

    @property
    def events_cancelled(self) -> int:
        """Number of cancelled entries discarded from the heap.

        Timeout timers are scheduled per request and cancelled on every
        healthy response, so a large heap is usually cancellation churn,
        not an event storm; this counter tells the two apart.  Entries
        removed by compaction count here the moment they are dropped.
        """
        return self._events_cancelled

    @property
    def pending(self) -> int:
        """Number of callbacks still queued (including tombstones)."""
        return len(self._queue)

    def schedule_at(self, time: float, callback: Callable[[], Any]) -> EventHandle:
        """Schedule ``callback`` to run at absolute simulation ``time``.

        Returns an :class:`EventHandle` that can cancel the callback
        before it fires.

        Raises
        ------
        SimulationError
            If ``time`` is before the current clock (events cannot run
            in the past) or is not a finite number.
        """
        if time != time or time == _INF or time == _NEG_INF:
            raise SimulationError(f"event time must be finite, got {time!r}")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time:.9f}; clock is already at {self._now:.9f}"
            )
        handle = EventHandle(self._handle_sim)
        heapq.heappush(self._queue, (time, self._seq, callback, handle))
        self._seq += 1
        return handle

    def schedule_after(self, delay: float, callback: Callable[[], Any]) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay!r}")
        return self.schedule_at(self._now + delay, callback)

    def schedule_call(self, time: float, callback: Callable[[], Any]) -> None:
        """:meth:`schedule_at` for never-cancelled events, in either mode.

        The data-node serve loop books its queue-counter decrements here
        in both modes.  Queue ordering (time, then insertion sequence) is
        identical to :meth:`schedule_at`; the per-event :class:`EventHandle` is
        replaced by a shared never-cancelled sentinel, so no token is
        returned.  Callers guarantee ``time`` is finite and not in the
        past (completion events computed as ``now + duration``).
        """
        heapq.heappush(self._queue, (time, self._seq, callback, _NEVER_CANCELLED))
        self._seq += 1

    def _note_cancel(self) -> None:
        """Record a tombstone; compact the heap once they dominate it."""
        self._tombstones += 1
        queue = self._queue
        if (
            self._tombstones > _COMPACT_MIN_TOMBSTONES
            and self._tombstones * 2 > len(queue)
        ):
            live = [entry for entry in queue if not entry[3].cancelled]
            self._events_cancelled += len(queue) - len(live)
            heapq.heapify(live)
            self._queue = live
            self._tombstones = 0

    def step(self) -> bool:
        """Run the next queued callback.  Returns False if none remain.

        Cancelled entries are discarded without advancing the clock or
        the event counter.
        """
        while self._queue:
            time, _seq, callback, handle = heapq.heappop(self._queue)
            if handle.cancelled:
                self._events_cancelled += 1
                if self._tombstones:
                    self._tombstones -= 1
                continue
            self._now = time
            self._events_processed += 1
            callback()
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run callbacks until the queue drains.

        Parameters
        ----------
        until:
            If given, stop once the next event would run strictly after
            this time; the clock is then advanced to ``until``.
        max_events:
            Safety valve: raise :class:`SimulationError` if more than
            this many events execute (guards against accidental
            infinite event chains in tests).
        """
        executed = 0
        queue = self._queue
        while queue:
            time, _seq, callback, handle = queue[0]
            if handle.cancelled:
                heapq.heappop(queue)
                self._events_cancelled += 1
                if self._tombstones:
                    self._tombstones -= 1
                continue
            if until is not None and time > until:
                self._now = until
                return
            heapq.heappop(queue)
            self._now = time
            self._events_processed += 1
            callback()
            executed += 1
            if max_events is not None and executed > max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events}; possible event storm"
                )
            queue = self._queue  # compaction may have swapped the list
        if until is not None and until > self._now:
            self._now = until

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self._now:.6f}, "
            f"processed={self._events_processed}, "
            f"cancelled={self._events_cancelled}, "
            f"pending={len(self._queue)})"
        )
