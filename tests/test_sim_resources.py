"""Tests for FCFS multi-server resources."""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.resources import Resource, ResourceStats


class TestSingleServer:
    def test_sequential_requests_queue(self):
        r = Resource("disk")
        assert r.acquire(0.0, 1.0) == (0.0, 1.0)
        assert r.acquire(0.0, 1.0) == (1.0, 2.0)
        assert r.acquire(0.0, 0.5) == (2.0, 2.5)

    def test_idle_gap_respected(self):
        r = Resource("disk")
        r.acquire(0.0, 1.0)
        assert r.acquire(5.0, 1.0) == (5.0, 6.0)

    def test_zero_duration_allowed(self):
        r = Resource("disk")
        assert r.acquire(2.0, 0.0) == (2.0, 2.0)

    def test_negative_duration_rejected(self):
        r = Resource("disk")
        with pytest.raises(ValueError):
            r.acquire(0.0, -0.1)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            Resource("bad", capacity=0)


class TestMultiServer:
    def test_parallel_servers_overlap(self):
        r = Resource("cpu", capacity=2)
        assert r.acquire(0.0, 1.0) == (0.0, 1.0)
        assert r.acquire(0.0, 1.0) == (0.0, 1.0)
        assert r.acquire(0.0, 1.0) == (1.0, 2.0)

    def test_next_free_reports_earliest_server(self):
        r = Resource("cpu", capacity=2)
        r.acquire(0.0, 1.0)
        r.acquire(0.0, 3.0)
        assert r.next_free(0.0) == 1.0
        assert r.next_free(2.0) == 2.0

    def test_backlog_sums_remaining_work(self):
        r = Resource("cpu", capacity=2)
        r.acquire(0.0, 2.0)
        r.acquire(0.0, 4.0)
        assert r.backlog(0.0) == pytest.approx(6.0)
        assert r.backlog(3.0) == pytest.approx(1.0)
        assert r.backlog(10.0) == 0.0


class TestStats:
    def test_stats_accumulate(self):
        r = Resource("disk")
        r.acquire(0.0, 1.0)
        r.acquire(0.0, 2.0)  # waits 1.0
        stats = r.stats()
        assert stats.requests == 2
        assert stats.busy_time == pytest.approx(3.0)
        assert stats.total_wait == pytest.approx(1.0)
        assert stats.mean_wait == pytest.approx(0.5)
        assert stats.last_finish == pytest.approx(3.0)

    def test_utilization(self):
        r = Resource("cpu", capacity=2)
        r.acquire(0.0, 1.0)
        stats = r.stats()
        assert stats.utilization(1.0) == pytest.approx(0.5)
        assert stats.utilization(0.0) == 0.0

    def test_mean_wait_empty(self):
        assert Resource("x").stats().mean_wait == 0.0


@given(
    durations=st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False), min_size=1, max_size=40
    ),
    capacity=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_property_fcfs_conservation(durations, capacity):
    """Total busy time is conserved and finishes never precede starts."""
    r = Resource("p", capacity=capacity)
    finishes = []
    for d in durations:
        start, finish = r.acquire(0.0, d)
        assert finish == pytest.approx(start + d)
        assert start >= 0.0
        finishes.append(finish)
    stats = r.stats()
    assert stats.busy_time == pytest.approx(sum(durations))
    # The makespan can never beat perfect parallel packing.
    assert max(finishes) >= sum(durations) / capacity - 1e-9


class _PopPushResource:
    """The textbook booking: pop the earliest free server, push its
    new free time.  ``Resource.acquire`` must be indistinguishable."""

    def __init__(self, capacity):
        self.free = [0.0] * capacity
        self.requests = 0
        self.busy_time = 0.0
        self.total_wait = 0.0
        self.last_finish = 0.0

    def acquire(self, at, duration):
        earliest = heapq.heappop(self.free)
        start = max(earliest, at)
        finish = start + duration
        heapq.heappush(self.free, finish)
        self.requests += 1
        self.busy_time += duration
        self.total_wait += start - at
        self.last_finish = max(self.last_finish, finish)
        return start, finish


_TIMES = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


@given(
    capacity=st.integers(min_value=1, max_value=8),
    bookings=st.lists(
        st.tuples(_TIMES, st.floats(min_value=-1.0, max_value=10.0, allow_nan=False)),
        max_size=60,
    ),
)
@settings(max_examples=100, deadline=None)
def test_property_acquire_matches_pop_push(capacity, bookings):
    """Every ``(start, finish)``, the stats and the free-time multiset
    equal the pop + push model's; negative durations change nothing."""
    r = Resource("p", capacity=capacity)
    model = _PopPushResource(capacity)
    for at, duration in bookings:
        if duration < 0:
            with pytest.raises(ValueError):
                r.acquire(at, duration)
        else:
            assert r.acquire(at, duration) == model.acquire(at, duration)
        assert sorted(r._free) == sorted(model.free)
        assert r.next_free(at) == max(model.free[0], at)
    assert r.stats() == ResourceStats(
        name="p",
        capacity=capacity,
        requests=model.requests,
        busy_time=model.busy_time,
        total_wait=model.total_wait,
        last_finish=model.last_finish,
    )
