"""Long-term region balancing (the HBase balancer analog, Section 3.1).

"We also assume that the stored data is distributed across data nodes
in such a way that long term load is balanced.  Data storage systems
can perform data migration to deal with load imbalances across data
nodes, but since data migration is usually expensive, this would be
done for long-term load imbalances."

This module provides that planning mechanism: given observed per-region
request counts, compute a small set of region moves that evens out
per-node load.  Under the static :class:`~repro.store.partitioner.RegionMap`
it is a between-jobs background tool; under an elastic
:class:`~repro.placement.service.PlacementService` the
:class:`~repro.placement.elastic.ElasticCoordinator` calls
:func:`plan_rebalance` mid-run and executes the moves as live
copy-then-cutover migrations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotation-only: avoids a store <-> placement cycle
    from repro.store.partitioner import RegionMap


@dataclass(frozen=True)
class RegionMove:
    """One planned migration."""

    region: int
    from_node: int
    to_node: int
    load: float


def _served_regions(region_map: RegionMap) -> list[int]:
    """The region ids that currently own keys.

    A :class:`PlacementService` hides split parents and merged-away
    children behind ``visible_regions()``; the static map serves every
    region id.
    """
    visible = getattr(region_map, "visible_regions", None)
    if visible is not None:
        return list(visible())
    return list(range(region_map.n_regions))


def plan_rebalance(
    region_map: RegionMap,
    region_loads: dict[int, float],
    max_moves: int | None = None,
    tolerance: float = 0.1,
) -> list[RegionMove]:
    """Plan region moves that even out per-node load.

    Greedy: repeatedly move the lightest adequate region from the most
    loaded node to the least loaded one, while doing so still reduces
    the spread.  Stops when node loads are within ``tolerance`` of the
    mean, or after ``max_moves``.

    Returns the planned moves without applying them; call
    :func:`apply_rebalance` (or ``region_map.move_region``) to commit.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    nodes = sorted(region_map.data_nodes)
    if len(nodes) < 2:
        return []
    node_load: dict[int, float] = {n: 0.0 for n in nodes}
    node_regions: dict[int, list[int]] = {n: [] for n in nodes}
    for region in _served_regions(region_map):
        node = region_map.node_for_region(region)
        load = region_loads.get(region, 0.0)
        node_load[node] += load
        node_regions[node].append(region)

    total = sum(node_load.values())
    mean = total / len(nodes)
    moves: list[RegionMove] = []
    while max_moves is None or len(moves) < max_moves:
        heavy = max(nodes, key=lambda n: node_load[n])
        light = min(nodes, key=lambda n: node_load[n])
        spread = node_load[heavy] - node_load[light]
        if node_load[heavy] <= mean * (1 + tolerance):
            break
        # The best region to move is the one closest to half the
        # spread: it maximally narrows the gap without overshooting.
        candidates = [
            r for r in node_regions[heavy] if 0 < region_loads.get(r, 0.0) <= spread
        ]
        if not candidates:
            break
        region = min(
            candidates,
            key=lambda r: abs(region_loads.get(r, 0.0) - spread / 2),
        )
        load = region_loads.get(region, 0.0)
        moves.append(RegionMove(region, heavy, light, load))
        node_regions[heavy].remove(region)
        node_regions[light].append(region)
        node_load[heavy] -= load
        node_load[light] += load
    return moves


def apply_rebalance(region_map: RegionMap, moves: list[RegionMove]) -> None:
    """Commit planned moves to the region map."""
    for move in moves:
        if region_map.node_for_region(move.region) != move.from_node:
            raise ValueError(
                f"region {move.region} is no longer on node {move.from_node}"
            )
        region_map.move_region(move.region, move.to_node)


def node_loads(region_map: RegionMap, region_loads: dict[int, float]) -> dict[int, float]:
    """Aggregate per-region loads up to their hosting nodes."""
    loads: dict[int, float] = {n: 0.0 for n in region_map.data_nodes}
    for region in _served_regions(region_map):
        loads[region_map.node_for_region(region)] += region_loads.get(region, 0.0)
    return loads
