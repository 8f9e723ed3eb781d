"""MapUpdate stream processing (Muppet analog).

:class:`MuppetLocal` executes real MapUpdate applications in-process
— ``map`` fans each event out into keyed records, ``update`` folds
records into per-key *slates* (Muppet's persistent per-key state).
An optional ``pre_map`` hook mirrors the paper's prefetching extension
(Appendix D.2): it runs ahead of ``map`` on a window of events and
issues batched lookups through a user-supplied fetcher.

The simulated Muppet throughput runs of Figures 6 and 11 are plain
:class:`~repro.engine.job.JoinJob` runs read as
:attr:`~repro.engine.job.JobResult.throughput`.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable

from repro.engine.prefetch import PreMapRunner


class MuppetLocal:
    """Real in-process MapUpdate execution.

    Parameters
    ----------
    map_fn:
        ``event -> iterable of (key, record)``.
    update_fn:
        ``(key, record, slate) -> new_slate`` — slate is ``None`` on
        the key's first record.
    pre_map:
        Optional ``event -> iterable of lookup keys`` prefetch hook;
        requires ``bulk_fetch``.
    bulk_fetch:
        ``(keys) -> {key: value}`` batched lookup used by ``pre_map``;
        fetched values are passed to ``map_fn`` as a second argument.
    window:
        Prefetch look-ahead in events.

    Examples
    --------
    >>> app = MuppetLocal(
    ...     map_fn=lambda e: [(e % 2, e)],
    ...     update_fn=lambda k, v, slate: (slate or 0) + v,
    ... )
    >>> app.run([1, 2, 3, 4])
    {1: 4, 0: 6}
    """

    def __init__(
        self,
        map_fn: Callable[..., Iterable[tuple[Hashable, Any]]],
        update_fn: Callable[[Hashable, Any, Any], Any],
        pre_map: Callable[[Any], Iterable[Hashable]] | None = None,
        bulk_fetch: Callable[[list[Hashable]], dict[Hashable, Any]] | None = None,
        window: int = 64,
    ) -> None:
        if pre_map is not None and bulk_fetch is None:
            raise ValueError("pre_map requires a bulk_fetch implementation")
        self.map_fn = map_fn
        self.update_fn = update_fn
        self.pre_map = pre_map
        self.bulk_fetch = bulk_fetch
        self.window = window
        self.slates: dict[Hashable, Any] = {}
        self._events = 0

    @property
    def events_processed(self) -> int:
        """Events consumed so far."""
        return self._events

    def run(self, events: Iterable[Any]) -> dict[Hashable, Any]:
        """Process a stream of events; returns the final slates."""
        if self.pre_map is None:
            for event in events:
                self._apply(self.map_fn(event))
        else:
            assert self.bulk_fetch is not None
            runner = PreMapRunner(
                pre_map=self.pre_map,
                bulk_fetch=self.bulk_fetch,
                map_fn=lambda event, values: list(self.map_fn(event, values)),
                window=self.window,
            )
            for records in runner.run(events):
                self._apply(records)
        return self.slates

    def _apply(self, records: Iterable[tuple[Hashable, Any]]) -> None:
        self._events += 1
        for key, record in records:
            self.slates[key] = self.update_fn(key, record, self.slates.get(key))
