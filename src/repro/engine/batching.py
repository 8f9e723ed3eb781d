"""Per-data-node request batching, ack-clocked (Section 7.2).

Sending requests individually wastes per-request overhead; the paper
batches data and compute requests per destination data node.  A batch
flushes when it reaches ``batch_size`` and at end of input.  A
*partial* batch is held only while :data:`HOLD_DEPTH` requests of its
(data node, kind) are in flight: the next response or abandon is then
the flush clock, and what accumulated meanwhile rides in one request.
With fewer in flight the partial goes out at the end of the current
event — one zero-delay event, which coalesces a whole feed burst.
``max_wait`` is the optional streaming latency bound on a hold.

Liveness needs no timer: every non-empty buffer has a pending idle
flush, ``HOLD_DEPTH`` requests in flight whose response or abandon
flushes it, or an armed ``max_wait``.  DESIGN.md, "Batching contract".
"""

from __future__ import annotations

from typing import Callable

from repro.engine.requests import RequestItem
from repro.sim.events import Simulator

#: In-flight requests per (data node, kind) from which a partial batch
#: is held.  Measured, not tuned per workload: 1 (plain Nagle) fills
#: batches best but starves the Appendix-C balancer where the UDF
#: dominates (+20 % makespan); 4 keeps that within +6 % (DESIGN.md).
HOLD_DEPTH = 4

#: Why a batch left its buffer, as :attr:`BatchBuffer.flush_counts` keys.
FLUSH_CAUSES = ("size", "ack", "idle", "timeout", "end_of_input")


class BatchBuffer:
    """A buffer of pending request items for one (dst, queue) pair.

    Parameters
    ----------
    sim:
        Simulator used to schedule idle flushes and max-wait timeouts.
    batch_size:
        Flush threshold in items.
    max_wait:
        Seconds after which a held partial batch flushes whatever is in
        flight; ``None`` (the default) leaves it to the ack clock.
    on_flush:
        Callback receiving the flushed items.

    The owner counts every request of this kind it sends to the
    destination into ``in_flight`` (replica fallbacks and redirects
    occupy it too, not only what was flushed from here) and reports
    each answer or abandon through :meth:`request_done`.
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
        self._epoch = 0  # invalidates stale idle and timeout events
        #: Requests out at this destination, neither answered nor abandoned.
        self.in_flight = 0
        #: Flushes performed, by cause (see :data:`FLUSH_CAUSES`).
        self.flush_counts = dict.fromkeys(FLUSH_CAUSES, 0)

    def __len__(self) -> int:
        return len(self._items)

    def add(self, item: RequestItem) -> None:
        """Queue one item, flushing if the buffer fills."""
        items = self._items
        items.append(item)
        if len(items) >= self.batch_size:
            self.flush("size")
        elif len(items) == 1:
            # First item: what flushes it if the buffer never fills?
            # The end of this event, or the next ack within max_wait.
            epoch, sim = self._epoch, self.sim
            if self.in_flight < HOLD_DEPTH:
                sim.schedule_call(sim.now, lambda: self._on_timer(epoch, "idle"))
            elif self.max_wait is not None:
                sim.schedule_after(
                    self.max_wait, lambda: self._on_timer(epoch, "timeout")
                )

    def request_done(self) -> None:
        """A request counted in ``in_flight`` was answered or abandoned:
        the ack clock.  Call it after the response has been processed,
        so the items its completions fed back are here to ride along."""
        self.in_flight -= 1
        if self._items and self.in_flight < HOLD_DEPTH:
            self.flush("ack")

    def flush(self, cause: str = "end_of_input") -> None:
        """Flush the buffer immediately (no-op when empty)."""
        if not self._items:
            return
        items, self._items = self._items, []
        self._epoch += 1
        self.flush_counts[cause] += 1
        self.on_flush(items)

    def _on_timer(self, epoch: int, cause: str) -> None:
        # Stale after any flush: the items this event guarded are gone.
        if epoch == self._epoch and self._items:
            self.flush(cause)
