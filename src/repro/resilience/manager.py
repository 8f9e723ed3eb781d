"""ResilienceManager: glue between the sim clock and the components.

One manager per job ties the four components together on the simulated
event loop:

* each data node sends a heartbeat datagram every ``heartbeat_interval``
  seconds to the monitor (the lowest compute node) over a best-effort
  :class:`~repro.runtime.transport.OnewayChannel` — crash windows drop
  them on the wire, which is exactly how the detector hears about them;
* the monitor sweeps the :class:`FailureDetector` at the same cadence
  and hands newly-DEAD nodes to the :class:`RecoveryManager`;
* the :class:`CheckpointManager` snapshots every attached compute
  node's soft state every ``checkpoint_interval`` seconds.

All periodic ticks re-arm themselves **only while the job is active**
(the ``active`` predicate) — ``Simulator.run()`` drains the queue to
completion, so an unconditional self-rescheduling tick would keep the
loop alive forever.  A large tick cap backstops a genuinely stalled job
so it still terminates with the engine's "job stalled" diagnosis rather
than heartbeating into infinity.

The analytic engines (mapreduce / sparklite) never pump the event loop;
:func:`replay_heartbeats` gives them the same detector verdicts by
walking the tick schedule over the computed makespan after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.obs.tracer import NO_TRACER, Tracer
from repro.resilience.detector import FailureDetector
from repro.resilience.options import ResilienceOptions
from repro.resilience.recovery import CheckpointManager, RecoveryManager
from repro.runtime.transport import OnewayChannel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.cluster import Cluster
    from repro.placement.service import PlacementService

#: Wire size of one heartbeat datagram (node id + sequence + clock).
HEARTBEAT_BYTES = 64.0

#: Backstop on self-rescheduling ticks so a stalled job still drains.
MAX_TICKS_PER_TIMER = 100_000


class ResilienceManager:
    """Per-job lifecycle of detection, recovery and checkpointing."""

    def __init__(
        self,
        cluster: "Cluster",
        options: ResilienceOptions,
        data_nodes: Iterable[int],
        monitor_node: int,
        region_map: "PlacementService",
        tracer: Tracer = NO_TRACER,
    ) -> None:
        self.cluster = cluster
        self.options = options
        self.data_nodes = sorted(data_nodes)
        self.monitor_node = monitor_node
        self.channel = OnewayChannel(cluster)
        self.detector = FailureDetector(
            self.data_nodes,
            interval=options.heartbeat_interval,
            suspect_phi=options.suspect_phi,
            dead_phi=options.dead_phi,
        )
        self.recovery = RecoveryManager(
            region_map=region_map, detector=self.detector, tracer=tracer
        )
        self.checkpoints = CheckpointManager()
        self._runtimes: list[Any] = []
        self._active: Callable[[], bool] = lambda: False

    def attach(self, runtime: Any) -> None:
        """Register one compute-node runtime (transport + soft state)."""
        self._runtimes.append(runtime)
        self.recovery.transports[runtime.node_id] = runtime.transport
        cache = getattr(runtime, "cache", None)
        if cache is not None and hasattr(cache, "cancel_reservation"):

            def cancel_stranded(keys: list, c: Any = cache) -> None:
                for key in keys:
                    c.cancel_reservation(key)

            self.recovery.reservation_cleanups[runtime.node_id] = cancel_stranded

    # ------------------------------------------------------------------
    # Event-loop wiring
    # ------------------------------------------------------------------
    def start(self, active: Callable[[], bool]) -> None:
        """Arm the periodic ticks; ``active`` gates re-arming."""
        self._active = active
        sim = self.cluster.sim
        opts = self.options
        if opts.detection:
            for node in self.data_nodes:
                self._arm(opts.heartbeat_interval,
                          lambda n=node: self._heartbeat(n))
            self._arm(opts.heartbeat_interval, self._sweep)
        if opts.recovery and opts.checkpoint_interval > 0 and self._runtimes:
            self._arm(opts.checkpoint_interval, self._checkpoint)
        del sim  # clock access goes through the tick closures

    def _arm(self, interval: float, body: Callable[[], None]) -> None:
        ticks = [0]

        def tick() -> None:
            if not self._active() or ticks[0] >= MAX_TICKS_PER_TIMER:
                return
            ticks[0] += 1
            body()
            self.cluster.sim.schedule_after(interval, tick)

        self.cluster.sim.schedule_after(interval, tick)

    def _heartbeat(self, node: int) -> None:
        self.channel.send(
            node, self.monitor_node, HEARTBEAT_BYTES, node,
            lambda payload, at: self.detector.record_heartbeat(payload, at),
        )

    def _sweep(self) -> None:
        now = self.cluster.sim.now
        for dead in self.detector.sweep(now):
            if self.options.recovery:
                self.recovery.on_dead(dead, now)

    def _checkpoint(self) -> None:
        now = self.cluster.sim.now
        for runtime in self._runtimes:
            self.checkpoints.capture(runtime, now)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def publish(self, registry: Any) -> None:
        """Write ``resilience.*`` metrics into one registry."""
        det = self.detector
        rec = self.recovery
        registry.counter("resilience.heartbeats.sent").inc(self.channel.sends)
        registry.counter("resilience.heartbeats.received").inc(det.heartbeats)
        registry.counter("resilience.detector.suspicions").inc(det.suspicions)
        registry.counter("resilience.detector.deaths").inc(det.deaths)
        registry.counter("resilience.detector.recoveries").inc(det.recoveries)
        for delay in det.detection_delays:
            registry.histogram("resilience.detector.delay_seconds").observe(delay)
        registry.counter("resilience.failover.count").inc(rec.failovers)
        registry.counter("resilience.failover.regions_moved").inc(rec.regions_moved)
        registry.counter("resilience.failover.requests_replayed").inc(
            rec.requests_replayed
        )
        registry.counter("resilience.failover.reservations_cancelled").inc(
            rec.reservations_cancelled
        )
        registry.counter("resilience.checkpoint.count").inc(self.checkpoints.taken)
        registry.counter("resilience.checkpoint.restored").inc(
            self.checkpoints.restored
        )
        hedges_issued = hedges_won = hedges_lost = 0
        sheds = parked = peak = 0
        for runtime in self._runtimes:
            transport = runtime.transport
            hedges_issued += transport.hedges_issued
            hedges_won += transport.hedges_won
            hedges_lost += transport.hedges_lost
            admission = getattr(runtime, "admission", None)
            if admission is not None:
                sheds += admission.shed_count
                parked += admission.parked_total
                peak = max(peak, admission.peak_inflight)
        registry.counter("resilience.hedges.issued").inc(hedges_issued)
        registry.counter("resilience.hedges.won").inc(hedges_won)
        registry.counter("resilience.hedges.lost").inc(hedges_lost)
        if hedges_issued:
            registry.gauge("resilience.hedges.wasted_ratio").set(
                hedges_lost / hedges_issued
            )
        registry.counter("resilience.admission.shed").inc(sheds)
        registry.counter("resilience.admission.parked").inc(parked)
        registry.gauge("resilience.admission.peak_inflight").set(peak)


@dataclass(frozen=True)
class DetectionReplay:
    """Detector outcome of an after-the-fact heartbeat replay."""

    deaths: int
    suspicions: int
    recoveries: int
    heartbeats: int
    heartbeats_sent: int
    detection_delays: tuple[float, ...]


def replay_heartbeats(
    cluster: "Cluster",
    options: ResilienceOptions,
    nodes: Iterable[int],
    horizon: float,
    registry: Any = None,
) -> DetectionReplay:
    """Analytic detection for engines that never pump the event loop.

    The mapreduce/sparklite engines compute their schedules in closed
    form, so there is no loop for live heartbeats to ride.  This walks
    the same tick schedule over ``[interval, horizon]`` after the fact:
    a node's heartbeat is suppressed exactly while
    ``cluster.node_is_down`` says its crash window is open — the same
    wire rule the fault injector applies — so the detector reaches the
    identical verdicts the event-loop engines would.  Survival of the
    work itself is the :class:`ShuffleChannel`'s at-least-once job; a
    death verdict here counts as a failover because that is where a
    deployment would re-run the dead worker's partitions.
    """
    detector = FailureDetector(
        nodes,
        interval=options.heartbeat_interval,
        suspect_phi=options.suspect_phi,
        dead_phi=options.dead_phi,
    )
    heartbeats_sent = 0
    deaths = 0
    t = options.heartbeat_interval
    while t <= horizon:
        for node in detector.nodes():
            heartbeats_sent += 1
            if not cluster.node_is_down(node, t):
                detector.record_heartbeat(node, t)
        deaths += len(detector.sweep(t))
        t += options.heartbeat_interval
    replay = DetectionReplay(
        deaths=deaths,
        suspicions=detector.suspicions,
        recoveries=detector.recoveries,
        heartbeats=detector.heartbeats,
        heartbeats_sent=heartbeats_sent,
        detection_delays=tuple(detector.detection_delays),
    )
    if registry is not None:
        publish_replay(replay, registry)
    return replay


def publish_replay(replay: DetectionReplay, registry: Any) -> None:
    """Write one :class:`DetectionReplay` as ``resilience.*`` metrics."""
    registry.counter("resilience.heartbeats.sent").inc(replay.heartbeats_sent)
    registry.counter("resilience.heartbeats.received").inc(replay.heartbeats)
    registry.counter("resilience.detector.suspicions").inc(replay.suspicions)
    registry.counter("resilience.detector.deaths").inc(replay.deaths)
    registry.counter("resilience.detector.recoveries").inc(replay.recoveries)
    registry.counter("resilience.failover.count").inc(replay.deaths)
    for delay in replay.detection_delays:
        registry.histogram("resilience.detector.delay_seconds").observe(delay)
