"""Unit tests for batching, prefetching and strategy configuration."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.optimizer import Route
from repro.engine.batching import FLUSH_CAUSES, HOLD_DEPTH, BatchBuffer
from repro.engine.prefetch import PreMapRunner, ResultHashMap
from repro.engine.strategies import RoutingPolicy, Strategy, StrategyConfig
from repro.store.messages import RequestItem, RequestKind
from repro.sim.events import Simulator


def item(key="k", tid=0):
    return RequestItem(
        key=key, kind=RequestKind.COMPUTE, route=Route.COMPUTE_REQUEST, tuple_id=tid
    )


def held_buffer(sim, flushed, **kwargs):
    """A buffer whose destination owes HOLD_DEPTH answers: partials hold."""
    buf = BatchBuffer(sim, on_flush=flushed.append, **kwargs)
    buf.in_flight = HOLD_DEPTH
    return buf


def tids(flushed):
    return [[it.tuple_id for it in batch] for batch in flushed]


class TestBatchBuffer:
    def test_flushes_when_full(self):
        sim = Simulator()
        flushed = []
        buf = BatchBuffer(sim, batch_size=3, on_flush=flushed.append)
        for i in range(3):
            buf.add(item(tid=i))
        assert tids(flushed) == [[0, 1, 2]]
        assert len(buf) == 0
        assert buf.flush_counts["size"] == 1

    def test_manual_flush(self):
        sim = Simulator()
        flushed = []
        buf = BatchBuffer(sim, batch_size=10, on_flush=flushed.append)
        buf.add(item())
        buf.flush()
        assert len(flushed) == 1
        buf.flush()  # empty: no-op
        assert len(flushed) == 1
        assert buf.flush_counts["end_of_input"] == 1

    def test_burst_coalesces_into_one_idle_flush(self):
        # Nothing in flight: the partial leaves at the end of the event
        # that fed it, carrying the whole burst, without a clock tick.
        sim = Simulator()
        flushed = []
        buf = BatchBuffer(sim, batch_size=10, on_flush=flushed.append)

        def burst():
            for i in range(7):
                buf.add(item(tid=i))
            assert flushed == []  # not before the event ends

        sim.schedule_at(2.0, burst)
        sim.run()
        assert tids(flushed) == [list(range(7))]
        assert buf.flush_counts == {**dict.fromkeys(FLUSH_CAUSES, 0), "idle": 1}
        assert sim.now == 2.0

    def test_partial_is_held_at_hold_depth(self):
        sim = Simulator()
        flushed = []
        buf = held_buffer(sim, flushed, batch_size=10)
        sim.schedule_at(0.0, lambda: buf.add(item(tid=0)))
        sim.run()
        assert flushed == [] and len(buf) == 1  # waits for an answer
        # One below the depth the same item does not wait.
        buf.request_done()
        assert tids(flushed) == [[0]]
        assert buf.flush_counts["ack"] == 1

    def test_ack_above_hold_depth_keeps_holding(self):
        sim = Simulator()
        flushed = []
        buf = held_buffer(sim, flushed, batch_size=10)
        buf.in_flight += 1  # HOLD_DEPTH + 1 requests out
        buf.add(item(tid=0))
        buf.request_done()  # still HOLD_DEPTH owed
        assert flushed == []
        buf.request_done()
        assert tids(flushed) == [[0]]

    def test_stale_idle_event_after_size_flush_is_a_no_op(self):
        sim = Simulator()
        flushed = []
        buf = BatchBuffer(sim, batch_size=2, on_flush=flushed.append)

        def fill():
            buf.add(item(tid=0))  # schedules the idle flush
            buf.add(item(tid=1))  # size flush: that event is now stale
            buf.in_flight = HOLD_DEPTH
            buf.add(item(tid=2))  # a newer generation, held

        sim.schedule_at(0.0, fill)
        sim.run()
        assert tids(flushed) == [[0, 1]]
        assert len(buf) == 1
        assert buf.flush_counts["idle"] == 0

    def test_max_wait_timeout_flushes(self):
        # The streaming bound: however many answers the destination
        # owes, a first item waits at most max_wait.
        sim = Simulator()
        flushed = []
        buf = held_buffer(sim, flushed, batch_size=10, max_wait=1.0)
        sim.schedule_at(0.0, lambda: buf.add(item()))
        sim.run()
        assert len(flushed) == 1
        assert buf.flush_counts["timeout"] == 1
        assert sim.now == pytest.approx(1.0)

    def test_max_wait_is_not_armed_below_hold_depth(self):
        sim = Simulator()
        flushed = []
        buf = BatchBuffer(sim, batch_size=10, on_flush=flushed.append, max_wait=1.0)
        sim.schedule_at(0.0, lambda: buf.add(item()))
        sim.run()
        assert buf.flush_counts["idle"] == 1
        assert sim.now == 0.0  # no timer was left behind

    def test_stale_timeout_does_not_double_flush(self):
        sim = Simulator()
        flushed = []
        buf = held_buffer(sim, flushed, batch_size=2, max_wait=1.0)

        def fill():
            buf.add(item(tid=0))
            buf.add(item(tid=1))  # flushes by size

        sim.schedule_at(0.0, fill)
        sim.run()
        assert len(flushed) == 1
        assert buf.flush_counts["timeout"] == 0

    def test_timer_firing_on_emptied_buffer_does_not_double_send(self):
        # The max-wait edge: a size-triggered flush empties the buffer,
        # then the orphaned timer fires at exactly max_wait with nothing
        # (or with a *newer* generation of items) behind it.  Neither
        # case may re-send.
        sim = Simulator()
        flushed = []
        buf = held_buffer(sim, flushed, batch_size=2, max_wait=1.0)

        def fill():
            buf.add(item(tid=0))
            buf.add(item(tid=1))  # size flush; the t=1.0 timer is now stale

        sim.schedule_at(0.0, fill)
        # Refill with a new generation at exactly the stale timer's
        # firing time; the stale timer then fires against a non-empty
        # buffer holding items it never guarded, and must not touch it.
        sim.schedule_at(1.0, lambda: buf.add(item(tid=2)))
        sim.run()
        assert tids(flushed) == [[0, 1], [2]]
        # The first flush was by size, the second by the *new* timer
        # (armed at t=1.0, fired at t=2.0) — never the stale one.
        assert buf.flush_counts["timeout"] == 1
        assert sim.now == pytest.approx(2.0)

    def test_timer_firing_on_empty_buffer_is_a_no_op(self):
        sim = Simulator()
        flushed = []
        buf = held_buffer(sim, flushed, batch_size=2, max_wait=1.0)
        sim.schedule_at(0.0, lambda: buf.add(item(tid=0)))
        sim.schedule_at(0.5, buf.flush)  # manual flush empties the buffer
        sim.run()  # stale timer still fires at t=1.0
        assert len(flushed) == 1
        assert sum(buf.flush_counts.values()) == 1
        assert buf.flush_counts["timeout"] == 0

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            BatchBuffer(sim, batch_size=0, on_flush=lambda items: None)
        with pytest.raises(ValueError):
            BatchBuffer(sim, batch_size=1, on_flush=lambda items: None, max_wait=0.0)


class TestBatchBufferLiveness:
    """Random add / ack / abandon interleavings on a Simulator."""

    @given(
        batch_size=st.integers(1, 6),
        max_wait=st.none() | st.floats(0.01, 2.0),
        steps=st.lists(
            st.tuples(st.floats(0.0, 5.0), st.sampled_from(["add", "add", "done"])),
            max_size=60,
        ),
    )
    def test_every_item_flushes_exactly_once(self, batch_size, max_wait, steps):
        sim = Simulator()
        flushed = []
        sent_at = []

        def on_flush(items):
            flushed.append(items)
            sent_at.append(sim.now)
            buf.in_flight += 1  # what ComputeNodeRuntime._on_dispatch does

        buf = BatchBuffer(sim, batch_size, on_flush, max_wait=max_wait)
        added = []

        def add():
            added.append(len(added))
            buf.add(item(tid=added[-1]))

        def done():
            # A response or an abandon; only requests that exist return.
            if buf.in_flight:
                buf.request_done()

        for at, op in steps:
            sim.schedule_at(at, add if op == "add" else done)
        sim.run()
        # Whatever is still held is waiting on HOLD_DEPTH live requests:
        # answer them all, as a terminating run does.
        while buf.in_flight:
            assert len(buf) == 0 or buf.in_flight >= HOLD_DEPTH
            buf.request_done()
        assert len(buf) == 0
        assert sorted(t for batch in tids(flushed) for t in batch) == added
        assert all(1 <= len(batch) <= batch_size for batch in flushed)
        assert sum(buf.flush_counts.values()) == len(flushed)


class TestResultHashMap:
    def test_reserve_deliver_take(self):
        rhm = ResultHashMap()
        h = rhm.reserve()
        assert not rhm.ready(h)
        rhm.deliver(h, "X")
        assert rhm.ready(h)
        assert rhm.take(h) == "X"
        assert len(rhm) == 0

    def test_double_delivery_rejected(self):
        rhm = ResultHashMap()
        h = rhm.reserve()
        rhm.deliver(h, 1)
        with pytest.raises(KeyError):
            rhm.deliver(h, 2)

    def test_take_before_delivery_raises(self):
        rhm = ResultHashMap()
        h = rhm.reserve()
        with pytest.raises(KeyError):
            rhm.take(h)


class TestPreMapRunner:
    def test_results_in_input_order(self):
        store = {i: i * 10 for i in range(20)}
        runner = PreMapRunner(
            pre_map=lambda x: [x],
            bulk_fetch=lambda keys: {k: store[k] for k in keys},
            map_fn=lambda x, vals: vals[x],
            window=4,
        )
        assert list(runner.run(range(10))) == [i * 10 for i in range(10)]

    def test_window_amortizes_bulk_calls(self):
        store = {i: i for i in range(100)}
        runner = PreMapRunner(
            pre_map=lambda x: [x],
            bulk_fetch=lambda keys: {k: store[k] for k in keys},
            map_fn=lambda x, vals: vals[x],
            window=25,
        )
        list(runner.run(range(100)))
        assert runner.bulk_calls == 4

    def test_duplicate_keys_fetched_once_per_window(self):
        calls = []

        def bulk(keys):
            calls.append(list(keys))
            return {k: 1 for k in keys}

        runner = PreMapRunner(
            pre_map=lambda x: ["same"],
            bulk_fetch=bulk,
            map_fn=lambda x, vals: vals["same"],
            window=10,
        )
        list(runner.run(range(10)))
        assert calls == [["same"]]

    def test_multi_key_premap(self):
        store = {"a": 1, "b": 2}
        runner = PreMapRunner(
            pre_map=lambda x: ["a", "b"],
            bulk_fetch=lambda keys: {k: store[k] for k in keys},
            map_fn=lambda x, vals: vals["a"] + vals["b"],
        )
        assert list(runner.run([0])) == [3]

    def test_empty_input(self):
        runner = PreMapRunner(
            pre_map=lambda x: [x],
            bulk_fetch=lambda keys: {},
            map_fn=lambda x, vals: x,
        )
        assert list(runner.run([])) == []

    def test_window_validation(self):
        with pytest.raises(ValueError):
            PreMapRunner(lambda x: [], lambda k: {}, lambda x, v: x, window=0)


class TestStrategies:
    def test_paper_abbreviations(self):
        for name in ["NO", "FC", "FD", "FR", "CO", "LO", "FO"]:
            config = Strategy.by_name(name)
            assert config.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            Strategy.by_name("XX")

    def test_fo_enables_everything(self):
        fo = Strategy.fo()
        assert fo.routing is RoutingPolicy.SKI_RENTAL
        assert fo.caching and fo.load_balancing and fo.batching

    def test_no_is_blocking_unbatched(self):
        no = Strategy.no()
        assert no.blocking and not no.batching and not no.caching

    def test_co_disables_load_balancing(self):
        co = Strategy.co()
        assert co.caching and not co.load_balancing

    def test_lo_disables_caching(self):
        lo = Strategy.lo()
        assert lo.load_balancing and not lo.caching
        assert lo.routing is RoutingPolicy.ALWAYS_COMPUTE

    def test_non_adaptive_fraction(self):
        na = Strategy.fo_non_adaptive(0.1)
        assert na.adaptive_fraction == 0.1

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            StrategyConfig(
                name="bad",
                routing=RoutingPolicy.ALWAYS_DATA,
                caching=True,  # caching without ski-rental
                load_balancing=False,
                batching=True,
            )
        with pytest.raises(ValueError):
            StrategyConfig(
                name="bad",
                routing=RoutingPolicy.ALWAYS_DATA,
                caching=False,
                load_balancing=False,
                batching=True,
                blocking=True,  # blocking models unbatched access
            )
        with pytest.raises(ValueError):
            StrategyConfig(
                name="bad",
                routing=RoutingPolicy.SKI_RENTAL,
                caching=True,
                load_balancing=True,
                batching=True,
                adaptive_fraction=0.0,
            )


class TestPostMapRunner:
    def test_preprocessing_happens_once_per_item(self):
        from repro.engine.prefetch import PostMapRunner

        store = {"a": 1, "b": 2}
        preprocess_calls = []

        def pre_map(text):
            preprocess_calls.append(text)
            words = text.split()
            return words, words

        runner = PostMapRunner(
            pre_map=pre_map,
            bulk_fetch=lambda keys: {k: store[k] for k in keys},
            post_map=lambda words, vals: sum(vals[w] for w in words),
            window=2,
        )
        outputs = list(runner.run(["a b", "b", "a a"]))
        assert outputs == [3, 2, 2]
        assert preprocess_calls == ["a b", "b", "a a"]

    def test_results_stay_in_input_order(self):
        from repro.engine.prefetch import PostMapRunner

        runner = PostMapRunner(
            pre_map=lambda n: ([n % 3], n * 10),
            bulk_fetch=lambda keys: {k: k for k in keys},
            post_map=lambda preprocessed, vals: preprocessed,
            window=4,
        )
        assert list(runner.run(range(9))) == [n * 10 for n in range(9)]

    def test_bulk_calls_exposed(self):
        from repro.engine.prefetch import PostMapRunner

        runner = PostMapRunner(
            pre_map=lambda n: ([0], n),
            bulk_fetch=lambda keys: {k: k for k in keys},
            post_map=lambda preprocessed, vals: preprocessed,
            window=5,
        )
        list(runner.run(range(10)))
        assert runner.bulk_calls == 2
