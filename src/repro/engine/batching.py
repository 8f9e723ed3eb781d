"""Per-data-node request batching with max-wait flushing (Section 7.2).

Sending requests individually wastes per-request overhead; the paper
batches data and compute requests per destination data node.  A batch
flushes when it reaches ``batch_size``, or — to bound latency in
streaming settings — when ``max_wait`` has elapsed since the first item
was queued, whichever comes first.  The waiting time is the knob the
application turns for its latency requirement.
"""

from __future__ import annotations

from typing import Callable

from repro.engine.requests import RequestItem
from repro.sim.events import Simulator

class BatchBuffer:
    """A buffer of pending request items for one (dst, queue) pair.

    Parameters
    ----------
    sim:
        Simulator used to schedule max-wait timeouts.
    batch_size:
        Flush threshold in items.
    max_wait:
        Seconds after which a non-empty buffer flushes regardless of
        fill level; ``None`` disables the timeout (batch jobs flush on
        size and at end-of-input).
    on_flush:
        Callback receiving the flushed items.
    """

    def __init__(
        self,
        sim: Simulator,
        batch_size: int,
        on_flush: Callable[[list[RequestItem]], None],
        max_wait: float | None = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if max_wait is not None and max_wait <= 0:
            raise ValueError("max_wait must be positive when set")
        self.sim = sim
        self.batch_size = batch_size
        self.max_wait = max_wait
        self.on_flush = on_flush
        self._items: list[RequestItem] = []
        self._epoch = 0  # invalidates stale timeout events
        self._flushes = 0
        self._timeout_flushes = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def flushes(self) -> int:
        """Total flushes performed."""
        return self._flushes

    @property
    def timeout_flushes(self) -> int:
        """Flushes triggered by the max-wait timer rather than fill."""
        return self._timeout_flushes

    def add(self, item: RequestItem) -> None:
        """Queue one item, flushing if the buffer fills."""
        if not self._items:
            self._arm_timer()
        self._items.append(item)
        if len(self._items) >= self.batch_size:
            self.flush()

    def _arm_timer(self) -> None:
        """First item of a batch: start the max-wait clock."""
        if self.max_wait is not None:
            epoch = self._epoch
            self.sim.schedule_after(self.max_wait, lambda: self._on_timeout(epoch))

    def flush(self) -> None:
        """Flush the buffer immediately (no-op when empty)."""
        if not self._items:
            return
        items, self._items = self._items, []
        self._epoch += 1
        self._flushes += 1
        self.on_flush(items)

    def _on_timeout(self, epoch: int) -> None:
        # A flush since scheduling invalidates the timer: the items it
        # was guarding are already gone.
        if epoch != self._epoch or not self._items:
            return
        self._timeout_flushes += 1
        self.flush()
