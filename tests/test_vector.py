"""``route_batch``: the batch routing entry point that joinbench drives.

``route_batch`` is an in-order loop over ``route_fast``.  A twin
instance driven through ``route_fast`` one pair at a time, on identical
state, must return the same routes and values element-wise, over
hypothesis-generated key columns, skews and cache contents, and every
counter and policy table must land in the same place.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import TieredCache
from repro.core.cost_model import CostModel, CostParameters
from repro.core.frequency import ExactCounter
from repro.core.optimizer import JoinLocationOptimizer, Route


@st.composite
def routing_workloads(draw):
    """Warm-up accesses plus a batch column over a small key universe."""
    n_keys = draw(st.integers(min_value=1, max_value=6))
    skewed_key = st.integers(0, n_keys - 1)
    warm = draw(st.lists(skewed_key, max_size=30))
    taught = draw(st.sets(skewed_key, max_size=n_keys))
    batch = draw(
        st.lists(
            st.tuples(skewed_key, st.integers(1, 2)),
            min_size=1,
            max_size=60,
        )
    )
    return n_keys, warm, sorted(taught), batch


def _make_twin():
    cm = CostModel(
        node_id=0, bandwidth={1: 1e8, 2: 5e7}, local_disk_time=0.001
    )
    cache = TieredCache(memory_bytes=5_000.0, disk_bytes=20_000.0)
    return JoinLocationOptimizer(cm, cache, counter=ExactCounter())


def _teach(opt, key):
    # Deterministic per-key costs: low keys buy quickly, high keys rent.
    opt.observe_response(
        CostParameters(
            key=key,
            value_size=500.0 * (key + 1),
            compute_time=0.01 / (key + 1),
            disk_time=0.002,
            param_size=64.0,
            key_size=8.0,
            computed_size=64.0,
            node_id=1,
            cpu_service_time=0.0001,
        )
    )


def _drive(opt, key, dst):
    """One scalar warm-up step: route, then settle its side effects."""
    route, _value = opt.route_fast(key, dst)
    if route is Route.COMPUTE_REQUEST:
        _teach(opt, key)
    elif route in (Route.DATA_REQUEST_MEMORY, Route.DATA_REQUEST_DISK):
        opt.complete_fetch(key, ("v", key), route)


@given(workload=routing_workloads())
@settings(max_examples=100, deadline=None)
def test_property_route_batch_matches_scalar_route_fast(workload):
    _n_keys, warm, taught, batch = workload
    batch_opt = _make_twin()
    scalar_opt = _make_twin()
    for opt in (batch_opt, scalar_opt):
        for key in taught:
            _teach(opt, key)
        for key in warm:
            _drive(opt, key, 1)

    keys = [k for k, _ in batch]
    dsts = [d for _, d in batch]
    routed = batch_opt.route_batch(keys, dsts)
    scalar = [scalar_opt.route_fast(k, d) for k, d in batch]

    assert routed.routes == [r for r, _ in scalar]
    assert routed.values == [v for _, v in scalar]

    # Counters, cache state and frequency tables move identically.
    assert batch_opt.stats() == scalar_opt.stats()
    assert batch_opt.cache.stats() == scalar_opt.cache.stats()
    assert batch_opt.cache.memory_keys == scalar_opt.cache.memory_keys
    assert batch_opt.cache.disk_keys == scalar_opt.cache.disk_keys
    assert batch_opt.counter._counts == scalar_opt.counter._counts
