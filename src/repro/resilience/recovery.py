"""Recovery: region failover and compute-node soft-state checkpoints.

Two halves, both driven by the failure detector:

* :class:`RecoveryManager` — on a confirmed death, move every region
  the dead node owns to its live ring successor (the same ascending
  sorted-id successor :meth:`Transport.replica_for` falls back to, so
  routing and storage agree on who the replica is) and ask every
  transport to replay its in-flight idempotent batches at the new
  owner.  New tuples route to the new owner automatically because the
  region map *is* the router's source of truth.

* :class:`CheckpointManager` — periodically deep-copy each compute
  node's *soft* state: the Lossy Counting frequency counter, the
  smoothed cost-model estimates, and the tiered cache.  None of this
  is needed for correctness (it is all rebuildable from traffic), but
  losing it on a compute-node restart resets every ski-rental race and
  misroutes until the estimators re-converge; restoring the checkpoint
  makes routing quality survive the restart.  Restore mutates the
  existing objects **in place** (``__dict__`` swap) because live
  references — e.g. the transport's ``on_timeout`` bound method — must
  keep pointing at the same cost model.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Any

from repro.obs.tracer import NO_TRACER, Tracer
from repro.resilience.detector import FailureDetector, NodeState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.transport import Transport
    from repro.placement.service import PlacementService


class CheckpointManager:
    """Periodic snapshots of compute-node soft state."""

    def __init__(self) -> None:
        self._snapshots: dict[int, dict[str, Any]] = {}
        self.taken = 0
        self.restored = 0

    def capture(self, runtime: Any, at: float) -> None:
        """Snapshot one compute node's estimators and cache."""
        snap: dict[str, Any] = {
            "at": at,
            "cost_model": copy.deepcopy(runtime.cost_model.__dict__),
            "cache": copy.deepcopy(runtime.cache.__dict__),
        }
        if runtime.optimizer is not None:
            snap["counter"] = copy.deepcopy(runtime.optimizer.counter.__dict__)
        self._snapshots[runtime.node_id] = snap
        self.taken += 1

    def latest(self, node_id: int) -> dict[str, Any] | None:
        return self._snapshots.get(node_id)

    def restore(self, runtime: Any) -> bool:
        """Rebuild ``runtime``'s soft state from its latest checkpoint.

        Returns ``False`` when no checkpoint exists yet.  The snapshot
        itself is copied again on the way out, so one checkpoint can
        seed any number of restarts.
        """
        snap = self._snapshots.get(runtime.node_id)
        if snap is None:
            return False
        self._restore_dict(runtime.cost_model, snap["cost_model"])
        self._restore_dict(runtime.cache, snap["cache"])
        if runtime.optimizer is not None and "counter" in snap:
            self._restore_dict(runtime.optimizer.counter, snap["counter"])
        self.restored += 1
        return True

    @staticmethod
    def _restore_dict(obj: Any, saved: dict[str, Any]) -> None:
        obj.__dict__.clear()
        obj.__dict__.update(copy.deepcopy(saved))


class RecoveryManager:
    """Region failover on confirmed data-node death."""

    def __init__(
        self,
        region_map: "PlacementService",
        detector: FailureDetector,
        tracer: Tracer = NO_TRACER,
    ) -> None:
        self.region_map = region_map
        self.detector = detector
        self.tracer = tracer
        #: ``node_id -> Transport`` of every attached compute node.
        self.transports: dict[int, "Transport"] = {}
        #: ``node_id -> callback(keys)`` cancelling abandoned cache
        #: reservations when that node's in-flight fetches die with a
        #: data node and are *not* replayed (replay fulfills them at
        #: the new owner; no-replay would leak the reserved slots).
        self.reservation_cleanups: dict[int, Any] = {}
        self.failovers = 0
        self.regions_moved = 0
        self.requests_replayed = 0
        self.reservations_cancelled = 0
        #: Silence-to-failover delay per death (recovery time component).
        self.detection_delays: list[float] = []

    def successor(self, dead: int) -> int | None:
        """First live node clockwise of ``dead`` on the sorted-id ring."""
        ring = sorted(self.region_map.data_nodes | {dead})
        start = ring.index(dead)
        for step in range(1, len(ring)):
            candidate = ring[(start + step) % len(ring)]
            if candidate == dead:
                continue
            try:
                if self.detector.state(candidate) is NodeState.DEAD:
                    continue
            except KeyError:
                pass  # unmonitored nodes are presumed alive
            return candidate
        return None

    def on_dead(self, dead: int, at: float) -> None:
        """Detector callback: fail ``dead`` over to its successor."""
        new_owner = self.successor(dead)
        if new_owner is None:
            return  # nobody left to fail over to
        self.failovers += 1
        # Elastic placement first: drop in-flight migrations, expired
        # double-serve grants and hot-key replicas involving the dead
        # node, so the region moves below start from a clean slate.
        self.region_map.on_node_dead(dead)
        moved = 0
        for region in list(self.region_map.regions_on_node(dead)):
            self.region_map.move_region(region, new_owner)
            moved += 1
        self.regions_moved += moved
        replayed = 0
        for node_id, transport in self.transports.items():
            stranded = transport.pending_memory_keys(dead)
            moved_batches = transport.fail_node(dead, new_owner)
            replayed += moved_batches
            if moved_batches == 0 and stranded:
                # The batches were not replayed (side-effecting UDFs or
                # no live successor for routing) — their memory-route
                # reservations would never be fulfilled.  Release them;
                # a late fulfill degrades safely to the disk tier.
                cleanup = self.reservation_cleanups.get(node_id)
                if cleanup is not None:
                    cleanup(stranded)
                    self.reservations_cancelled += len(stranded)
        self.requests_replayed += replayed
        if self.detector.detection_delays:
            self.detection_delays.append(self.detector.detection_delays[-1])
        if self.tracer.enabled:
            self.tracer.event(
                "failover", at=at, dead=dead, new_owner=new_owner,
                regions=moved, replayed=replayed,
            )
