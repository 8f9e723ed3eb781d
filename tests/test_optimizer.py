"""Tests for Algorithm 1 — the skiRentalCaching request router."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache.tiered import TieredCache
from repro.core.cost_model import CostModel, CostParameters
from repro.core.frequency import ExactCounter, LossyCounter
from repro.core.optimizer import JoinLocationOptimizer, Route


def make_optimizer(memory_bytes=1e6, local_disk_time=0.001, bandwidth=1e8):
    cm = CostModel(node_id=0, bandwidth={1: bandwidth}, local_disk_time=local_disk_time)
    cache = TieredCache(memory_bytes=memory_bytes)
    return JoinLocationOptimizer(cm, cache, counter=ExactCounter())


def teach(opt, key="k", value_size=100_000.0, compute_time=0.002,
          service=None, disk_time=0.002):
    opt.observe_response(
        CostParameters(
            key=key,
            value_size=value_size,
            compute_time=compute_time,
            disk_time=disk_time,
            param_size=64.0,
            key_size=8.0,
            computed_size=64.0,
            node_id=1,
            cpu_service_time=service,
        )
    )


class TestFirstContact:
    def test_unknown_key_rents(self):
        opt = make_optimizer()
        decision = opt.route("new", 1)
        assert decision.route is Route.COMPUTE_REQUEST
        assert opt.stats().first_contact == 1

    def test_known_key_uses_costs(self):
        opt = make_optimizer()
        opt.route("k", 1)
        teach(opt, compute_time=0.01, service=0.0001)
        decision = opt.route("k", 1)
        assert decision.costs is not None


class TestSkiRentalRouting:
    def test_buys_after_threshold(self):
        opt = make_optimizer()
        opt.route("k", 1)
        # rent=0.01 (compute), buy ~ 0.002 (fetch): threshold < 1.
        teach(opt, compute_time=0.01, service=0.0001, value_size=10_000.0)
        decision = opt.route("k", 1)
        assert decision.route is Route.DATA_REQUEST_MEMORY

    def test_keeps_renting_below_threshold(self):
        opt = make_optimizer()
        opt.route("k", 1)
        # buy much more expensive than rent: high threshold.
        teach(opt, compute_time=0.002, service=0.0001, value_size=10_000_000.0,
              disk_time=0.0001)
        for _ in range(3):
            assert opt.route("k", 1).route is Route.COMPUTE_REQUEST

    def test_never_buys_when_rent_below_recurring(self):
        opt = make_optimizer()
        opt.route("k", 1)
        # Remote compute == local service: r <= br, always rent.
        teach(opt, compute_time=0.1, service=0.1, value_size=100.0)
        for _ in range(100):
            assert opt.route("k", 1).route is Route.COMPUTE_REQUEST

    def test_local_hits_after_fetch(self):
        opt = make_optimizer()
        opt.route("k", 1)
        teach(opt, compute_time=0.01, service=0.0001, value_size=10_000.0)
        decision = opt.route("k", 1)
        assert decision.route is Route.DATA_REQUEST_MEMORY
        opt.complete_fetch("k", "VALUE", decision.route)
        hit = opt.route("k", 1)
        assert hit.route is Route.LOCAL_MEMORY
        assert hit.value == "VALUE"

    def test_disk_route_when_memory_refuses(self):
        """A value too big for the memory tier can still be bought to
        disk if the disk-recurring threshold is crossed."""
        opt = make_optimizer(memory_bytes=1_000.0, local_disk_time=0.0005)
        opt.route("big", 1)
        teach(opt, key="big", compute_time=0.01, service=0.0001,
              value_size=50_000.0)
        decision = opt.route("big", 1)
        assert decision.route is Route.DATA_REQUEST_DISK
        opt.complete_fetch("big", "V", decision.route)
        assert opt.route("big", 1).route is Route.LOCAL_DISK

    def test_fetch_fallback_to_disk_when_reservation_lost(self):
        opt = make_optimizer()
        opt.route("k", 1)
        teach(opt, compute_time=0.01, service=0.0001, value_size=10_000.0)
        decision = opt.route("k", 1)
        opt.cache.cancel_reservation("k")
        opt.complete_fetch("k", "V", decision.route)
        assert opt.route("k", 1).route is Route.LOCAL_DISK

    def test_complete_fetch_rejects_non_fetch_routes(self):
        opt = make_optimizer()
        with pytest.raises(ValueError):
            opt.complete_fetch("k", "V", Route.COMPUTE_REQUEST)


class TestUpdates:
    def test_timestamp_bump_invalidates_and_resets(self):
        opt = make_optimizer()
        opt.route("k", 1)
        teach(opt, compute_time=0.01, service=0.0001, value_size=10_000.0)
        decision = opt.route("k", 1)
        opt.complete_fetch("k", "V", decision.route, updated_at=0.0)
        assert opt.route("k", 1).route is Route.LOCAL_MEMORY
        # A compute response reveals the row changed at t=5.
        opt.observe_response(
            CostParameters(key="k", value_size=10_000.0, compute_time=0.01,
                           disk_time=0.002, node_id=1, cpu_service_time=0.0001),
            updated_at=5.0,
        )
        # Cache gone, counter reset: next route is a first-contact rent.
        assert opt.counter.count("k") == 0
        assert opt.route("k", 1).route is Route.COMPUTE_REQUEST

    def test_same_timestamp_is_not_stale(self):
        opt = make_optimizer()
        opt.route("k", 1)
        teach(opt)
        opt.updates.observe_timestamp("k", 3.0)
        assert not opt.updates.observe_timestamp("k", 3.0)
        assert opt.updates.observe_timestamp("k", 4.0)


class TestStats:
    def test_routing_counters(self):
        opt = make_optimizer()
        opt.route("a", 1)
        teach(opt, key="a", compute_time=0.01, service=0.0001, value_size=1000.0)
        d = opt.route("a", 1)
        opt.complete_fetch("a", "V", d.route)
        opt.route("a", 1)
        stats = opt.stats()
        assert stats.compute_requests == 1
        assert stats.data_requests_memory == 1
        assert stats.local_memory == 1
        assert stats.total == 3


# ----------------------------------------------------------------------
# route_fast vs a route twin
# ----------------------------------------------------------------------
_N_KEYS = 4
_KEYS = st.integers(min_value=0, max_value=_N_KEYS - 1)
_ROUTE = st.tuples(st.just("route"), _KEYS, st.integers(1, 2), st.booleans())

#: One step, applied to both twins alike:
#: ``("route", key, data node, settle now)`` — route, and complete a data
#: route's fetch now or leave it pending;
#: ``("respond", key, value size, compute time, row timestamp)`` — fold
#: a compute response, whose timestamp may rise past or trail the last
#: one seen;
#: ``("complete", row timestamp)`` — complete the oldest pending fetch.
#: Routes are drawn three times as often as either of the others.
_STEPS = st.lists(
    st.one_of(
        _ROUTE,
        _ROUTE,
        _ROUTE,
        st.tuples(
            st.just("respond"),
            _KEYS,
            st.sampled_from([300.0, 2_000.0, 4_000.0, 8_000.0]),
            st.sampled_from([0.0005, 0.003, 0.02]),
            st.integers(0, 3),
        ),
        st.tuples(st.just("complete"), st.integers(0, 3)),
    ),
    min_size=10,
    max_size=80,
)


def _twin(fixed_threshold):
    cm = CostModel(node_id=0, bandwidth={1: 1e8, 2: 5e7}, local_disk_time=0.001)
    cache = TieredCache(memory_bytes=5_000.0, disk_bytes=20_000.0)
    # epsilon 0.05: a 20-access bucket, so pruning runs inside a case.
    return JoinLocationOptimizer(
        cm, cache, counter=LossyCounter(epsilon=0.05),
        fixed_threshold=fixed_threshold,
    )


#: Key 1 is bought to disk while key 0 fills the memory tier; key 0's
#: row then changes, which frees the tier, and key 1's next disk hit is
#: promoted.  Random steps rarely line this up.
_PROMOTION = [
    ("respond", 0, 4_000.0, 0.02, 0),
    *[("route", 0, 1, True)] * 5,
    ("respond", 1, 4_000.0, 0.02, 0),
    *[("route", 1, 1, True)] * 3,
    ("respond", 0, 4_000.0, 0.02, 1),
    *[("route", 1, 1, True)] * 2,
]


@pytest.mark.parametrize("fixed_threshold", [None, 2.0])
@given(steps=_STEPS)
@example(steps=_PROMOTION)
@settings(max_examples=100, deadline=None)
def test_property_route_fast_matches_route(fixed_threshold, steps):
    """``route_fast`` is ``route`` without the decision object: the same
    route and value, and the same counters, cache and access counts
    after every step."""
    fast, ref = _twin(fixed_threshold), _twin(fixed_threshold)
    pending = []

    def complete(key, route, stamp):
        for opt in (fast, ref):
            opt.complete_fetch(key, ("v", key), route, updated_at=float(stamp))

    for step in steps:
        if step[0] == "route":
            _, key, dst, settle = step
            route, value = fast.route_fast(key, dst)
            decision = ref.route(key, dst)
            assert (route, value) == (decision.route, decision.value)
            if route.is_data_request:
                if settle:
                    complete(key, route, 0)
                else:
                    pending.append((key, route))
        elif step[0] == "respond":
            _, key, size, compute, stamp = step
            for opt in (fast, ref):
                opt.observe_response(
                    CostParameters(
                        key=key,
                        value_size=size,
                        compute_time=compute,
                        disk_time=0.002,
                        node_id=1,
                        cpu_service_time=0.0001,
                    ),
                    updated_at=float(stamp),
                )
        elif pending:
            complete(*pending.pop(0), step[1])
        assert fast.stats() == ref.stats()
        assert fast.cache.stats() == ref.cache.stats()
        assert fast.cache.memory_keys == ref.cache.memory_keys
        assert fast.cache.disk_keys == ref.cache.disk_keys
        for key in range(_N_KEYS):
            assert fast.cache.policy.benefit(key) == ref.cache.policy.benefit(key)
        assert sorted(fast.counter.items()) == sorted(ref.counter.items())
