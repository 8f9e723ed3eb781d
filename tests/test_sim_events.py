"""Tests for the discrete-event loop."""

import pytest

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

    def test_step_returns_false_when_empty(self):
        sim = Simulator()
        assert sim.step() is False

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

    def test_events_cancelled_counted_by_step(self):
        sim = Simulator()
        sim.schedule_at(0.0, lambda: None).cancel()
        sim.schedule_at(1.0, lambda: None)
        assert sim.step() is True  # discards the cancelled entry en route
        assert sim.events_cancelled == 1
        assert sim.events_processed == 1

    def test_repr_distinguishes_churn_from_storms(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None).cancel()
        sim.run()
        text = repr(sim)
        assert "processed=1" in text
        assert "cancelled=1" in text
        assert "pending=0" in text


class TestCancellationStorm:
    """Regression tests for tombstone compaction.

    Timeout timers cancel far more events than ever fire; the queue
    must absorb a 10k-event / 90%-cancel storm without unbounded
    growth and without perturbing the surviving execution order.
    """

    def _storm(self, reference: bool, n_events: int = 10_000):
        import os
        import random

        from repro.perf.mode import REFERENCE_ENV

        saved = os.environ.get(REFERENCE_ENV)
        os.environ[REFERENCE_ENV] = "1" if reference else "0"
        try:
            sim = Simulator()
        finally:
            if saved is None:
                os.environ.pop(REFERENCE_ENV, None)
            else:
                os.environ[REFERENCE_ENV] = saved
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
        pre-optimization behaviour the equivalence suite compares
        against (and the baseline this regression test guards)."""
        sim, fired, after_storm = self._storm(reference=True, n_events=2_000)
        assert len(fired) == 200
        # No compaction: every cancelled entry stays queued until the
        # run loop pops and skips it.
        assert after_storm == 2_000
