"""Additional property-based tests across subsystems."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.tiered import TieredCache
from repro.core.cost_model import CostModel, CostParameters
from repro.core.frequency import ExactCounter
from repro.core.optimizer import JoinLocationOptimizer, Route
from repro.sim.events import Simulator
from repro.sim.network import Network


# ----------------------------------------------------------------------
# Optimizer invariants over arbitrary access/update sequences
# ----------------------------------------------------------------------
@st.composite
def access_sequences(draw):
    n_keys = draw(st.integers(min_value=1, max_value=5))
    length = draw(st.integers(min_value=1, max_value=60))
    events = []
    for _ in range(length):
        key = draw(st.integers(min_value=0, max_value=n_keys - 1))
        is_update = draw(st.booleans()) and draw(st.booleans())  # ~25%
        events.append((key, is_update))
    return events


@given(events=access_sequences())
@settings(max_examples=80, deadline=None)
def test_property_optimizer_never_serves_stale_values(events):
    """After an update to a key, the optimizer never serves the value
    cached before the update: its next local hit (if any) must follow a
    fresh fetch."""
    cm = CostModel(node_id=0, bandwidth={1: 1e8}, local_disk_time=0.001)
    opt = JoinLocationOptimizer(cm, TieredCache(memory_bytes=1e6),
                                counter=ExactCounter())
    version: dict[int, int] = {}
    clock = 0.0

    for key, is_update in events:
        if is_update:
            version[key] = version.get(key, 0) + 1
            clock += 1.0
            # The data node would notify / piggyback; use notification.
            opt.updates.notify_update(key, clock)
            continue
        route, value = opt.route_fast(key, 1)
        current = version.get(key, 0)
        stamp = float(current)  # the row's own last-update time
        if route.is_local:
            # A local hit must carry the current version.
            assert value == ("v", key, current)
        elif route is Route.COMPUTE_REQUEST:
            opt.observe_response(
                CostParameters(
                    key=key, value_size=1000.0, compute_time=0.01,
                    disk_time=0.002, cpu_service_time=0.0001, node_id=1,
                ),
                updated_at=stamp,
            )
        else:
            opt.complete_fetch(key, ("v", key, current), route,
                               updated_at=stamp)


@given(events=access_sequences())
@settings(max_examples=60, deadline=None)
def test_property_counter_resets_on_every_update(events):
    cm = CostModel(node_id=0, bandwidth={1: 1e8}, local_disk_time=0.001)
    opt = JoinLocationOptimizer(cm, TieredCache(memory_bytes=1e6),
                                counter=ExactCounter())
    clock = 0.0
    # Responses carry each row's own last-update time, not the clock.
    row_updated_at: dict[int, float] = {}
    true_count_since_update: dict[int, int] = {}
    for key, is_update in events:
        if is_update:
            clock += 1.0
            row_updated_at[key] = clock
            opt.updates.notify_update(key, clock)
            true_count_since_update[key] = 0
        else:
            route, _ = opt.route_fast(key, 1)
            true_count_since_update[key] = true_count_since_update.get(key, 0) + 1
            stamp = row_updated_at.get(key, 0.0)
            if route is Route.COMPUTE_REQUEST:
                opt.observe_response(
                    CostParameters(key=key, value_size=100.0, compute_time=0.01,
                                   disk_time=0.001, cpu_service_time=0.0001,
                                   node_id=1),
                    updated_at=stamp,
                )
            elif route.is_data_request:
                opt.complete_fetch(key, "v", route, updated_at=stamp)
            assert opt.counter.count(key) == true_count_since_update[key]


# ----------------------------------------------------------------------
# Network conservation
# ----------------------------------------------------------------------
@given(
    transfers=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=3),
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        ),
        max_size=40,
    )
)
@settings(max_examples=60, deadline=None)
def test_property_network_byte_conservation(transfers):
    """bytes_moved equals the sum of scheduled sizes, and arrivals are
    never earlier than a congestion-free lower bound."""
    net = Network([1e6, 2e6, 5e5, 1e6], latency=0.001)
    total = 0.0
    for src, dst, size in transfers:
        result = net.transfer(0.0, src, dst, size)
        if src != dst:
            total += size
            floor = size / net.effective_bandwidth(src, dst) + net.latency
            assert result.arrive >= floor - 1e-9
        else:
            assert result.arrive == 0.0
    assert net.bytes_moved == pytest.approx(total)


# ----------------------------------------------------------------------
# Simulator ordering under random schedules
# ----------------------------------------------------------------------
@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=50,
    )
)
@settings(max_examples=60, deadline=None)
def test_property_simulator_runs_in_nondecreasing_time(times):
    sim = Simulator()
    observed = []
    for t in times:
        sim.schedule_at(t, lambda now=t: observed.append(sim.now))
    sim.run()
    assert observed == sorted(observed)
    assert len(observed) == len(times)
    assert sim.now == max(times)
