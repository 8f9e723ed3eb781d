"""The ``preMap`` prefetching API (Section 7.1, Appendix D.2).

Requests to a data store block; processing one tuple at a time leaves
the pipeline idle.  The paper extends the Hadoop/Spark/Muppet APIs with
a ``preMap`` function running ahead of ``map``: ``preMap`` consumes
input items, issues prefetch requests (``submit_comp``) and pushes the
items onto a map queue; ``map`` later collects results with a blocking
``fetch_comp`` from a result hash map (Figure 4).

This module provides the *real-execution* counterpart used by the
mapreduce/sparklite executors and the examples: a windowed runner that
stays ``window`` items ahead with prefetches, batching them per key set
so a user-supplied bulk fetcher can amortize lookups.  (Inside the
cluster simulation the same behaviour is modelled natively by
:mod:`repro.engine.compute_node`.)
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Hashable, Iterable, Iterator


class ResultHashMap:
    """Completed prefetch results keyed by (key, call id).

    Multiple in-flight calls for the same key are legal (different
    parameters); each ``submit`` returns a handle used to ``take`` the
    result exactly once.
    """

    def __init__(self) -> None:
        self._results: dict[int, Any] = {}
        self._next_handle = 0

    def reserve(self) -> int:
        """Allocate a handle for an in-flight computation."""
        handle = self._next_handle
        self._next_handle += 1
        return handle

    def deliver(self, handle: int, result: Any) -> None:
        """Store a completed result."""
        if handle in self._results:
            raise KeyError(f"handle {handle} already delivered")
        self._results[handle] = result

    def ready(self, handle: int) -> bool:
        """Whether the result for ``handle`` is available."""
        return handle in self._results

    def take(self, handle: int) -> Any:
        """Remove and return the result for ``handle``.

        Raises
        ------
        KeyError
            If the result has not been delivered (the simulated
            blocking wait is the caller's job; in real execution the
            runner guarantees delivery-before-take).
        """
        return self._results.pop(handle)

    def __len__(self) -> int:
        return len(self._results)


class PreMapRunner:
    """Windowed prefetch-ahead execution of a map over an input stream.

    Parameters
    ----------
    pre_map:
        Extracts the prefetch keys for one input item (the paper's
        ``preMap`` body calling ``submitComp`` per spot).
    bulk_fetch:
        ``(keys) -> {key: value}`` — one batched lookup for a window's
        worth of distinct keys (the data-store batch API).
    map_fn:
        ``(item, {key: value}) -> result`` — the ``map`` body, handed
        the prefetched values it asked for (``fetchComp``).
    window:
        How many input items to stay ahead by.

    Examples
    --------
    >>> store = {"a": 1, "b": 2}
    >>> runner = PreMapRunner(
    ...     pre_map=lambda item: [item],
    ...     bulk_fetch=lambda keys: {k: store[k] for k in keys},
    ...     map_fn=lambda item, vals: vals[item] * 10,
    ...     window=2,
    ... )
    >>> list(runner.run(["a", "b", "a"]))
    [10, 20, 10]
    """

    def __init__(
        self,
        pre_map: Callable[[Any], Iterable[Hashable]],
        bulk_fetch: Callable[[list[Hashable]], dict[Hashable, Any]],
        map_fn: Callable[[Any, dict[Hashable, Any]], Any],
        window: int = 64,
    ) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.pre_map = pre_map
        self.bulk_fetch = bulk_fetch
        self.map_fn = map_fn
        self.window = window
        self._bulk_calls = 0

    @property
    def bulk_calls(self) -> int:
        """Number of batched fetches issued (amortization metric)."""
        return self._bulk_calls

    def run(self, items: Iterable[Any]) -> Iterator[Any]:
        """Yield ``map_fn`` outputs in input order, prefetching ahead."""
        pending: deque[tuple[Any, list[Hashable]]] = deque()
        iterator = iter(items)
        exhausted = False
        while True:
            # preMap phase: fill the window, collecting prefetch keys.
            while not exhausted and len(pending) < self.window:
                try:
                    item = next(iterator)
                except StopIteration:
                    exhausted = True
                    break
                pending.append((item, list(self.pre_map(item))))
            if not pending:
                return
            # One batched fetch covers the whole window's distinct keys.
            window_keys: list[Hashable] = []
            seen: set[Hashable] = set()
            for _item, keys in pending:
                for key in keys:
                    if key not in seen:
                        seen.add(key)
                        window_keys.append(key)
            fetched = self.bulk_fetch(window_keys) if window_keys else {}
            self._bulk_calls += 1
            # map phase: drain the window in order.
            while pending:
                item, keys = pending.popleft()
                values = {key: fetched[key] for key in keys}
                yield self.map_fn(item, values)


class PostMapRunner:
    """Prefetch-ahead execution that reuses preMap's preprocessing.

    Appendix D.2's refinement: with plain ``preMap``/``map`` the raw
    input is preprocessed twice (e.g. ``document.getSpots()`` runs in
    both functions).  Here ``pre_map`` returns ``(keys, preprocessed)``
    and the downstream ``post_map`` consumes the preprocessed form
    directly, so the work happens once.

    Examples
    --------
    >>> store = {"a": 1, "b": 2}
    >>> runner = PostMapRunner(
    ...     pre_map=lambda text: (text.split(), text.split()),
    ...     bulk_fetch=lambda keys: {k: store[k] for k in keys},
    ...     post_map=lambda words, vals: sum(vals[w] for w in words),
    ... )
    >>> list(runner.run(["a b", "b"]))
    [3, 2]
    """

    def __init__(
        self,
        pre_map: Callable[[Any], tuple[Iterable[Hashable], Any]],
        bulk_fetch: Callable[[list[Hashable]], dict[Hashable, Any]],
        post_map: Callable[[Any, dict[Hashable, Any]], Any],
        window: int = 64,
    ) -> None:
        self.pre_map = pre_map
        self.post_map = post_map
        self._preprocessed: dict[int, Any] = {}
        self._next_id = 0

        def split_pre_map(item: Any) -> Iterable[Hashable]:
            keys, preprocessed = self.pre_map(item)
            self._preprocessed[self._take_id()] = preprocessed
            return keys

        # Items flow through the inner runner in FIFO order, so the
        # preprocessed values can be replayed in the same order.
        self._inner = PreMapRunner(
            pre_map=split_pre_map,
            bulk_fetch=bulk_fetch,
            map_fn=self._consume,
            window=window,
        )

    def _take_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _consume(self, _item: Any, values: dict[Hashable, Any]) -> Any:
        oldest = min(self._preprocessed)
        preprocessed = self._preprocessed.pop(oldest)
        return self.post_map(preprocessed, values)

    @property
    def bulk_calls(self) -> int:
        """Batched fetches issued by the underlying runner."""
        return self._inner.bulk_calls

    def run(self, items: Iterable[Any]) -> Iterator[Any]:
        """Yield ``post_map`` outputs in input order."""
        return self._inner.run(items)
