"""Tests for long-term region rebalancing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import skew_ratio
from repro.placement.balancer import (
    apply_rebalance,
    node_loads,
    plan_rebalance,
)
from repro.placement.service import PlacementService
from repro.store.partitioner import HashPartitioner


def make_map(n_regions=8, nodes=(0, 1)):
    return PlacementService.round_robin(HashPartitioner(n_regions), list(nodes))


class TestPlanRebalance:
    def test_balanced_load_needs_no_moves(self):
        rm = make_map()
        loads = {r: 1.0 for r in range(8)}
        assert plan_rebalance(rm, loads) == []

    def test_hot_node_sheds_regions(self):
        rm = make_map(n_regions=8, nodes=(0, 1))
        # All the load sits on node 0's regions (even region ids).
        loads = {r: (10.0 if r % 2 == 0 else 0.1) for r in range(8)}
        moves = plan_rebalance(rm, loads)
        assert moves
        assert all(m.from_node == 0 and m.to_node == 1 for m in moves)
        apply_rebalance(rm, moves)
        after = node_loads(rm, loads)
        assert skew_ratio(list(after.values())) < 1.5

    def test_single_giant_region_cannot_split(self):
        """One overwhelming region cannot be divided by migration —
        the exact case the paper's caching handles instead."""
        rm = make_map(n_regions=4, nodes=(0, 1))
        loads = {0: 100.0, 1: 1.0, 2: 1.0, 3: 1.0}
        moves = plan_rebalance(rm, loads)
        apply_rebalance(rm, moves)
        after = node_loads(rm, loads)
        # Still heavily skewed: migration cannot fix heavy hitters.
        assert skew_ratio(list(after.values())) > 1.5

    def test_max_moves_respected(self):
        rm = make_map(n_regions=12, nodes=(0, 1, 2))
        loads = {r: (5.0 if rm.node_for_region(r) == 0 else 0.0)
                 for r in range(12)}
        moves = plan_rebalance(rm, loads, max_moves=1)
        assert len(moves) <= 1

    def test_single_node_is_noop(self):
        rm = make_map(n_regions=4, nodes=(0,))
        assert plan_rebalance(rm, {0: 5.0}) == []

    def test_stale_moves_rejected(self):
        rm = make_map()
        loads = {r: (10.0 if r % 2 == 0 else 0.0) for r in range(8)}
        moves = plan_rebalance(rm, loads)
        rm.move_region(moves[0].region, 1)  # someone else moved it
        with pytest.raises(ValueError):
            apply_rebalance(rm, moves)

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            plan_rebalance(make_map(), {}, tolerance=-0.1)


@given(
    loads=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=6,
        max_size=24,
    ),
    n_nodes=st.integers(min_value=2, max_value=4),
)
@settings(max_examples=80, deadline=None)
def test_property_rebalance_never_increases_spread(loads, n_nodes):
    rm = make_map(n_regions=len(loads), nodes=range(n_nodes))
    region_loads = {r: load for r, load in enumerate(loads)}
    before = skew_ratio(list(node_loads(rm, region_loads).values()))
    moves = plan_rebalance(rm, region_loads, max_moves=20)
    apply_rebalance(rm, moves)
    after = skew_ratio(list(node_loads(rm, region_loads).values()))
    assert after <= before + 1e-9
