"""Tests for the Muppet analog's in-process MapUpdate executor."""

import pytest

from repro.streaming.muppet import MuppetLocal


class TestMuppetLocal:
    def test_map_update_fold(self):
        app = MuppetLocal(
            map_fn=lambda e: [(e % 2, 1)],
            update_fn=lambda k, v, slate: (slate or 0) + v,
        )
        slates = app.run(range(10))
        assert slates == {0: 5, 1: 5}
        assert app.events_processed == 10

    def test_multiple_records_per_event(self):
        app = MuppetLocal(
            map_fn=lambda e: [("a", e), ("b", e)],
            update_fn=lambda k, v, slate: (slate or []) + [v],
        )
        slates = app.run([1, 2])
        assert slates == {"a": [1, 2], "b": [1, 2]}

    def test_pre_map_prefetching(self):
        store = {i: i * 100 for i in range(10)}
        fetch_calls = []

        def bulk_fetch(keys):
            fetch_calls.append(list(keys))
            return {k: store[k] for k in keys}

        app = MuppetLocal(
            map_fn=lambda e, values: [(e, values[e])],
            update_fn=lambda k, v, slate: v,
            pre_map=lambda e: [e],
            bulk_fetch=bulk_fetch,
            window=5,
        )
        slates = app.run(range(10))
        assert slates == {i: i * 100 for i in range(10)}
        assert len(fetch_calls) == 2  # two windows of five

    def test_pre_map_requires_bulk_fetch(self):
        with pytest.raises(ValueError):
            MuppetLocal(
                map_fn=lambda e: [],
                update_fn=lambda k, v, s: v,
                pre_map=lambda e: [e],
            )

