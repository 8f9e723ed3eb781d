"""Property tests for the columnar kernels in ``repro.vector``.

Two layers:

1. Direct kernel differential — ``ski_rental_lanes`` against its
   scalar fold, with column lengths chosen on both sides of
   ``_NUMPY_MIN`` so the numpy path and the pure-python fallback are
   both exercised.
2. Twin-instance sweep — ``JoinLocationOptimizer.route_batch``
   against a scalar twin driven through ``route_fast`` on identical
   state, over hypothesis-generated key columns, skews and cache
   contents.  The batch result must equal the scalar replay
   element-wise, and every counter and policy table must land in the
   same place.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import TieredCache
from repro.core.cost_model import CostModel, CostParameters
from repro.core.frequency import ExactCounter
from repro.core.optimizer import JoinLocationOptimizer, Route
from repro.vector import ski_rental_lanes
from repro.vector.kernels import _NUMPY_MIN

# Column lengths straddling the numpy cutover: the scalar fallback
# (below _NUMPY_MIN) and the numpy path (at and above it).
_SIZES = st.integers(min_value=0, max_value=2 * _NUMPY_MIN)

_FINITE = st.floats(
    min_value=1e-9, max_value=1e6, allow_nan=False, allow_infinity=False
)


# ----------------------------------------------------------------------
# Direct kernel differential
# ----------------------------------------------------------------------
@given(
    rows=st.lists(
        st.tuples(_FINITE, _FINITE, _FINITE, _FINITE),
        max_size=2 * _NUMPY_MIN,
    ),
    min_weight=st.floats(min_value=1e-9, max_value=10.0),
)
@settings(max_examples=80, deadline=None)
def test_property_ski_rental_lanes_matches_scalar(rows, min_weight):
    rents = [r[0] for r in rows]
    buys = [r[1] for r in rows]
    rec_mems = [r[2] for r in rows]
    rec_disks = [r[3] for r in rows]
    weights, mem_ts, disk_ts = ski_rental_lanes(
        rents, buys, rec_mems, rec_disks, min_weight
    )
    for i, (rent, buy, rec_mem, rec_disk) in enumerate(rows):
        w = rent - rec_mem
        if not w > min_weight:
            w = max(w, min_weight)
        assert weights[i] == w
        if rent <= rec_mem:
            assert mem_ts[i] == math.inf
        else:
            assert mem_ts[i] == buy / (rent - rec_mem)
        if rent <= rec_disk:
            assert disk_ts[i] == math.inf
        else:
            assert disk_ts[i] == buy / (rent - rec_disk)


# ----------------------------------------------------------------------
# route_batch vs a scalar route_fast twin
# ----------------------------------------------------------------------
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
    lanes = batch_opt.route_batch(keys, dsts)
    scalar = [scalar_opt.route_fast(k, d) for k, d in batch]

    assert len(lanes) == len(batch)
    assert lanes.routes == [r for r, _ in scalar]
    assert lanes.values == [v for _, v in scalar]
    for route in Route:
        assert lanes.lane(route) == [
            i for i, (r, _) in enumerate(scalar) if r is route
        ]

    # Counters, cache state and frequency tables move identically.
    assert batch_opt.stats() == scalar_opt.stats()
    assert batch_opt.cache.stats() == scalar_opt.cache.stats()
    assert batch_opt.cache.memory_keys == scalar_opt.cache.memory_keys
    assert batch_opt.cache.disk_keys == scalar_opt.cache.disk_keys
    assert batch_opt.counter._counts == scalar_opt.counter._counts
