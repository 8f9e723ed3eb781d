"""The fault injector: arms a :class:`FaultSchedule` on a live cluster.

The injector is the single point where faults touch the system:

* crash windows are registered with the cluster, and the injector's
  delivery policy swallows any message whose sender is down at send
  time or whose receiver is down at arrival time — in-flight requests
  and responses die with the node;
* message chaos (drop / duplicate / delay) is applied per message from
  the schedule's seeded RNG via :meth:`plan`, the
  :class:`repro.sim.network.DeliveryPolicy` hook;
* straggler windows are armed on the affected data-node servers;
* update faults are scheduled against the KV store.

Nothing else in the system knows faults exist: the engine only sees
messages that never arrive, arrive twice, or arrive late — exactly the
failure surface a real deployment exposes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.faults.schedule import FaultSchedule
from repro.obs.tracer import NO_TRACER, Tracer
from repro.sim.cluster import Cluster
from repro.sim.rng import make_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.datanode import DataNodeServer
    from repro.store.kvstore import KVStore


class FaultInjector:
    """Installs one schedule's faults and counts what it inflicted."""

    def __init__(
        self,
        schedule: FaultSchedule,
        tracer: Tracer = NO_TRACER,
    ) -> None:
        self.schedule = schedule
        self.tracer = tracer
        self._rng = make_rng(schedule.seed, "fault-injector")
        self._cluster: Cluster | None = None
        self.messages_dropped = 0
        self.messages_duplicated = 0
        self.messages_delayed = 0
        self.crash_drops = 0
        self._installed = False

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(
        self,
        cluster: Cluster,
        servers: "dict[int, DataNodeServer] | None" = None,
        kvstore: "KVStore | None" = None,
        budgets: "dict[int, object] | None" = None,
    ) -> None:
        """Arm every fault in the schedule (idempotent per injector).

        ``budgets`` maps node id to that node's
        :class:`~repro.memory.budget.MemoryBudget`; memory-pressure
        faults shrink the targeted budget at their scheduled time.
        With no budget wired (memory adaptation off) the event is still
        recorded — the squeeze simply has nothing to squeeze.
        """
        if self._installed:
            raise RuntimeError("injector already installed")
        self._installed = True
        self._cluster = cluster
        for crash in self.schedule.crashes:
            cluster.schedule_downtime(crash.node_id, crash.at, crash.restart_at)
            self._record(crash.at, "crash", crash.node_id,
                         f"down for {crash.duration:.3f}s")
        for straggler in self.schedule.stragglers:
            if servers is None or straggler.node_id not in servers:
                raise ValueError(
                    f"straggler targets node {straggler.node_id} but no such "
                    "data-node server was supplied"
                )
            servers[straggler.node_id].add_slowdown(
                straggler.at, straggler.at + straggler.duration,
                straggler.slowdown,
            )
            self._record(straggler.at, "straggler", straggler.node_id,
                         f"{straggler.slowdown:.1f}x for {straggler.duration:.3f}s")
        for chaos in self.schedule.chaos:
            self._record(chaos.at, "chaos", -1,
                         f"drop={chaos.drop:.2f} dup={chaos.duplicate:.2f} "
                         f"delay={chaos.delay:.2f}")
        if self.schedule.updates:
            if kvstore is None:
                raise ValueError("update faults need the kvstore")
            for update in self.schedule.updates:
                def apply(u=update) -> None:
                    kvstore.update_value(u.key, u.value, at_time=u.at)
                    self._record(u.at, "update", -1, f"key={u.key!r}")

                cluster.sim.schedule_at(update.at, apply)
        for pressure in self.schedule.memory_pressure:
            budget = None if budgets is None else budgets.get(pressure.node_id)

            def squeeze(p=pressure, b=budget) -> None:
                freed = 0.0 if b is None else b.shrink(p.factor)
                self._record(
                    p.at, "memory-pressure", p.node_id,
                    f"factor={p.factor:.2f} freed={freed:.0f}B"
                    + ("" if b is not None else " (no budget armed)"),
                )

            cluster.sim.schedule_at(pressure.at, squeeze)
        cluster.network.fault_policy = self

    # ------------------------------------------------------------------
    # DeliveryPolicy
    # ------------------------------------------------------------------
    def plan(
        self, src: int, dst: int, send_time: float, arrive_time: float
    ) -> list[float]:
        """Decide the fate of one message (the network's fault hook)."""
        cluster = self._cluster
        assert cluster is not None, "plan() before install()"
        if cluster.node_is_down(src, send_time) or cluster.node_is_down(
            dst, arrive_time
        ):
            self.crash_drops += 1
            self._record(send_time, "crash-drop", dst, f"{src}->{dst}")
            return []
        chaos = self._active_chaos(send_time)
        if chaos is None:
            return [0.0]
        roll = float(self._rng.random())
        if roll < chaos.drop:
            self.messages_dropped += 1
            self._record(send_time, "drop", dst, f"{src}->{dst}")
            return []
        if roll < chaos.drop + chaos.duplicate:
            self.messages_duplicated += 1
            extra = float(self._rng.uniform(0.0, chaos.max_delay))
            self._record(send_time, "duplicate", dst, f"{src}->{dst}")
            return [0.0, extra]
        if roll < chaos.drop + chaos.duplicate + chaos.delay:
            self.messages_delayed += 1
            extra = float(self._rng.uniform(0.0, chaos.max_delay))
            self._record(send_time, "delay", dst, f"{src}->{dst} +{extra:.4f}s")
            return [extra]
        return [0.0]

    def _active_chaos(self, at: float):
        for chaos in self.schedule.chaos:
            if chaos.at <= at < chaos.at + chaos.duration:
                return chaos
        return None

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    @property
    def messages_faulted(self) -> int:
        """Total messages the injector interfered with."""
        return (
            self.messages_dropped
            + self.messages_duplicated
            + self.messages_delayed
            + self.crash_drops
        )

    def _record(self, time: float, kind: str, node_id: int, detail: str) -> None:
        if self.tracer.enabled:
            self.tracer.event(
                f"fault.{kind}", at=time, node=node_id, detail=detail
            )
