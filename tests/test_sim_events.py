"""Tests for the discrete-event loop."""

import gc
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.events import SimulationError, Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(3.0, lambda: seen.append("c"))
        sim.schedule_at(1.0, lambda: seen.append("a"))
        sim.schedule_at(2.0, lambda: seen.append("b"))
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        seen = []
        for label in ["first", "second", "third"]:
            sim.schedule_at(1.0, lambda lbl=label: seen.append(lbl))
        sim.run()
        assert seen == ["first", "second", "third"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        sim.schedule_at(5.5, lambda: None)
        sim.run()
        assert sim.now == 5.5

    def test_schedule_after_uses_relative_delay(self):
        sim = Simulator()
        times = []
        sim.schedule_at(2.0, lambda: sim.schedule_after(3.0, lambda: times.append(sim.now)))
        sim.run()
        assert times == [5.0]

    def test_scheduling_in_the_past_raises(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_negative_delay_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_after(-1.0, lambda: None)

    def test_non_finite_time_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_at(float("inf"), lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)

    def test_events_can_schedule_more_events(self):
        sim = Simulator()
        seen = []

        def chain(n):
            seen.append(n)
            if n < 4:
                sim.schedule_after(1.0, lambda: chain(n + 1))

        sim.schedule_at(0.0, lambda: chain(0))
        sim.run()
        assert seen == [0, 1, 2, 3, 4]
        assert sim.now == 4.0


class TestRunControls:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(1.0, lambda: seen.append(1))
        sim.schedule_at(10.0, lambda: seen.append(10))
        sim.run(until=5.0)
        assert seen == [1]
        assert sim.now == 5.0
        assert sim.pending == 1

    def test_run_until_advances_clock_even_without_events(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_max_events_guards_against_storms(self):
        sim = Simulator()

        def forever():
            sim.schedule_after(0.001, forever)

        sim.schedule_at(0.0, forever)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=100)

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule_at(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_events_cancelled_counter(self):
        sim = Simulator()
        handles = [sim.schedule_at(float(i), lambda: None) for i in range(5)]
        handles[1].cancel()
        handles[3].cancel()
        assert sim.events_cancelled == 0  # counted on discard, not cancel
        sim.run()
        assert sim.events_processed == 3
        assert sim.events_cancelled == 2
        assert sim.pending == 0

    def test_repr_distinguishes_churn_from_storms(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None).cancel()
        sim.run()
        text = repr(sim)
        assert "processed=1" in text
        assert "cancelled=1" in text
        assert "pending=0" in text


class _LazySimulator(Simulator):
    """The reference queue: it never compacts, so a cancelled entry
    stays in the heap until the run loop pops and skips it."""

    def _note_cancel(self) -> None:
        pass


class TestCancellationStorm:
    """Regression tests for tombstone compaction.

    Timeout timers cancel far more events than ever fire; the queue
    must absorb a 10k-event / 90%-cancel storm without unbounded
    growth and without perturbing the surviving execution order.
    """

    def _storm(self, reference: bool, n_events: int = 10_000):
        import random

        sim = _LazySimulator() if reference else Simulator()
        rng = random.Random(99)
        fired: list[int] = []
        handles = []
        for i in range(n_events):
            t = rng.random() * 50.0
            handles.append(sim.schedule_at(t, lambda i=i: fired.append(i)))
        cancelled = rng.sample(range(n_events), (n_events * 9) // 10)
        for i in cancelled:
            handles[i].cancel()
        pending_after_storm = sim.pending
        sim.run()
        return sim, fired, pending_after_storm

    def test_10k_cancel_storm_bounds_the_queue(self):
        """Compaction keeps the heap within ~2x the live event count
        at every point of the storm, instead of holding all 9k
        tombstones until the run loop drains them."""
        n_live = 1_000
        sim, fired, after_storm = self._storm(reference=False)
        assert len(fired) == n_live
        assert sim.events_processed == n_live
        assert sim.events_cancelled == 9_000
        # Once the storm is over: either tombstones never crossed the
        # compaction floor (64) or the last rebuild left at most half
        # the queue dead, so the queue holds well under the 9k
        # tombstones the reference path would still be carrying.
        assert after_storm <= 2 * n_live + 130
        assert sim.pending == 0

    def test_storm_execution_order_matches_reference(self):
        """Compaction must not reorder or drop surviving events."""
        ref_sim, ref_fired, _ = self._storm(reference=True)
        opt_sim, opt_fired, _ = self._storm(reference=False)
        assert opt_fired == ref_fired
        assert opt_sim.now == ref_sim.now
        assert opt_sim.events_processed == ref_sim.events_processed
        assert opt_sim.events_cancelled == ref_sim.events_cancelled

    def test_reference_mode_keeps_lazy_behaviour(self):
        """The reference queue holds tombstones until popped — the
        lazy queue the equivalence suite compares against (and the
        baseline this regression test guards)."""
        sim, fired, after_storm = self._storm(reference=True, n_events=2_000)
        assert len(fired) == 200
        # No compaction: every cancelled entry stays queued until the
        # run loop pops and skips it.
        assert after_storm == 2_000


# ----------------------------------------------------------------------
# schedule_series: one heap entry, the order of a schedule_call loop.
# ----------------------------------------------------------------------
#: Few distinct times (sums of them are exact), so items tie with each
#: other and with the events their callbacks schedule.
_SERIES_TIMES = st.sampled_from([0.0, 0.25, 0.5, 1.0])
#: What an item's callback does: schedule a cancellable event, schedule
#: a never-cancelled one, cancel one of the handles made so far, or
#: schedule and cancel 70 timers (past the compaction floor of 64).
_SERIES_ACTION = st.one_of(
    st.tuples(st.just("at"), _SERIES_TIMES),
    st.tuples(st.just("call"), _SERIES_TIMES),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=50)),
    st.tuples(st.just("storm"), _SERIES_TIMES),
)


def _drive_series(series: bool, before, items, after):
    """Arm ``before`` events, then the items (as one series or as a
    ``schedule_call`` loop), then ``after`` events, and run."""
    sim = Simulator()
    log = []
    handles = []

    def note(label):
        return lambda: log.append((label, sim.now))

    def item(i):
        log.append(("item", i, sim.now))
        kind, arg = items[i][1]
        if kind == "at":
            handles.append(sim.schedule_at(sim.now + arg, note(("at", i))))
        elif kind == "call":
            sim.schedule_call(sim.now + arg, note(("call", i)))
        elif kind == "cancel" and handles:
            handles[arg % len(handles)].cancel()
        elif kind == "storm":
            for n in range(70):
                sim.schedule_at(sim.now + arg, note(("storm", i, n))).cancel()

    for n, t in enumerate(before):
        handles.append(sim.schedule_at(t, note(("before", n))))
    queued = sim.pending
    times = [t for t, _ in items]
    if series:
        sim.schedule_series(times, item)
    else:
        for i, t in enumerate(times):
            sim.schedule_call(t, lambda i=i: item(i))
    grown = sim.pending - queued
    for n, t in enumerate(after):
        handles.append(sim.schedule_at(t, note(("after", n))))
    sim.run()
    run = (log, sim.now, sim.events_processed, sim.events_cancelled)
    return run, grown


@given(
    before=st.lists(_SERIES_TIMES, max_size=6),
    items=st.lists(st.tuples(_SERIES_TIMES, _SERIES_ACTION), max_size=30),
    after=st.lists(_SERIES_TIMES, max_size=6),
)
# Unsorted, tied items; a storm compacts the loop's heap of tombstones.
@example(
    before=[0.5],
    items=[(1.0, ("call", 0.0)), (0.0, ("storm", 0.5)), (0.5, ("at", 0.5)),
           (0.0, ("cancel", 0)), (0.5, ("cancel", 1))],
    after=[0.0, 1.0],
)
@settings(max_examples=150, deadline=None)
def test_property_series_runs_as_the_schedule_call_loop(before, items, after):
    """Same callback order, clock and counters as arming every item with
    ``schedule_call``; the series adds one heap entry, not one per item."""
    loop, loop_grown = _drive_series(False, before, items, after)
    series, series_grown = _drive_series(True, before, items, after)
    assert series == loop
    assert loop_grown == len(items)
    assert series_grown == min(len(items), 1)


class TestScheduleSeries:
    def test_many_items_keep_one_heap_entry(self):
        sim = Simulator()
        seen = []
        sim.schedule_series([float(i % 7) for i in range(10_000)], seen.append)
        assert sim.pending == 1
        sim.run()
        assert len(seen) == 10_000 and sim.pending == 0
        assert seen[:3] == [0, 7, 14] and sim.now == 6.0

    @pytest.mark.parametrize("times", [[0.5, 1.0, 2.0], [2.0, 0.5, 1.0]])
    def test_a_finished_series_keeps_nothing_alive(self, times):
        """Without the cyclic collector, a series' callback (and with it
        its times and order) is freed once its last item has fired."""
        sim = Simulator()
        seen = []

        def callback(i):
            seen.append(i)

        ref = weakref.ref(callback)
        gc.disable()
        try:
            sim.schedule_series(times, callback)
            del callback
            sim.run()
            assert seen == sorted(range(3), key=times.__getitem__)
            assert ref() is None
        finally:
            gc.enable()

    def test_bad_times_raise_before_arming(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.run()
        for times in ([2.0, 0.5], [2.0, float("nan")], [float("inf")]):
            with pytest.raises(SimulationError):
                sim.schedule_series(times, lambda i: None)
        assert sim.pending == 0
