"""Transport: the one place messages touch the simulated wire.

Every engine in this repository ultimately moves two kinds of traffic:

* **request/response envelopes** — a compute node ships a batch of
  ``(k, p)`` items to a data node and waits for the answering batch
  (the join engine, the streaming engine, and the indexed sparklite
  executor all speak this protocol), and
* **one-way bulk transfers** — a mapper ships its partition of shuffle
  output to a reducer and never hears back (the MapReduce engines and
  the sparklite shuffle executor).

Before the runtime kernel existed each engine carried its own copy of
the dispatch code, so only the join engine consulted
:meth:`repro.sim.network.Network.delivery_plan` — the fault-injection
seam — and only the join engine had timeouts, retries and replica
fallback.  This module is now the *single* place those live:

* :class:`Transport` — reliable request/response with idempotent
  request ids, per-attempt timeouts with bounded exponential backoff,
  same-id retries (the server replays from its idempotency cache),
  replica fallback after retry exhaustion, and retry-cost charging via
  the ``on_timeout`` hook.
* :class:`ShuffleChannel` — at-least-once one-way transfers: a dropped
  shuffle message is retransmitted after a timeout (bounded backoff),
  duplicated copies arrive at the earliest delivery, and every
  retransmission pays the wire again.

Nothing outside this module calls ``Network.delivery_plan``; a fault
schedule installed at the network therefore perturbs every engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.placement.batch import ComputeNodeStats, SizeProfile
from repro.placement.service import WrongRegion
from repro.faults.policy import FaultTolerance
from repro.obs.tracer import NO_TRACER, Span, Tracer
from repro.sim.cluster import Cluster
from repro.sim.events import EventHandle
from repro.store.messages import (
    BatchRequest,
    BatchResponse,
    RequestItem,
    RequestKind,
)
from repro.core.optimizer import Route

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.datanode import DataNodeServer


class TransportError(RuntimeError):
    """Raised when a transfer cannot make progress (e.g. endless drops)."""


def ring_successor(ring: "list[Any]", node: Any) -> Any:
    """The next member after ``node`` on a sorted ring, with wrap-around.

    The ring convention shared by every failover path in this codebase:
    a pure function of membership order, so two runs with identical
    seeds pick identical fallback targets.  Both the simulated
    :meth:`Transport.replica_for` and the cluster driver's reroute
    (:mod:`repro.cluster.driver`) route through here.  A one-member
    ring is its own successor.
    """
    if len(ring) == 1:
        return ring[0]
    index = ring.index(node)
    return ring[(index + 1) % len(ring)]


@dataclass(frozen=True, slots=True)
class TransportStats:
    """Counters of one transport's fault-handling activity."""

    requests_sent: int = 0
    timeouts: int = 0
    retries: int = 0
    fallbacks: int = 0
    duplicate_responses: int = 0
    hedges_issued: int = 0
    hedges_won: int = 0
    hedges_lost: int = 0
    failovers: int = 0
    #: Per-request end-to-end latencies (dispatch to first matched
    #: response).  The registry histogram keeps only moments, so tail
    #: percentiles must come from the raw samples kept here.
    latencies: tuple[float, ...] = field(default=(), repr=False)

    def __add__(self, other: "TransportStats") -> "TransportStats":
        return TransportStats(
            requests_sent=self.requests_sent + other.requests_sent,
            timeouts=self.timeouts + other.timeouts,
            retries=self.retries + other.retries,
            fallbacks=self.fallbacks + other.fallbacks,
            duplicate_responses=self.duplicate_responses + other.duplicate_responses,
            hedges_issued=self.hedges_issued + other.hedges_issued,
            hedges_won=self.hedges_won + other.hedges_won,
            hedges_lost=self.hedges_lost + other.hedges_lost,
            failovers=self.failovers + other.failovers,
            latencies=self.latencies + other.latencies,
        )

    def latency_percentile(self, pct: float) -> float:
        """Nearest-rank percentile of the recorded request latencies."""
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        rank = min(len(ordered) - 1, max(0, int(pct / 100.0 * len(ordered))))
        return ordered[rank]


class _Pending:
    """One in-flight request batch awaiting its response."""

    __slots__ = (
        "dst", "kind", "items", "attempt", "sent_at", "created_at",
        "timer", "hedged", "hedge_timer", "span", "attempt_span",
    )

    def __init__(
        self, dst: int, kind: RequestKind, items: list[RequestItem]
    ) -> None:
        self.dst = dst
        self.kind = kind
        self.items = items
        self.attempt = 0
        self.sent_at = 0.0
        self.created_at = 0.0
        self.timer: EventHandle | None = None
        #: Whether a speculative duplicate is in flight at the replica,
        #: and the timer that would issue one.
        self.hedged = False
        self.hedge_timer: EventHandle | None = None
        #: ``request`` span covering the whole logical batch, and the
        #: ``attempt`` span of the latest (re)transmission.
        self.span: Span | None = None
        self.attempt_span: Span | None = None


class Transport:
    """Reliable request/response channel from one compute node.

    Parameters
    ----------
    cluster:
        The simulated hardware (network + event loop).
    node_id:
        The sending node this transport belongs to.
    servers:
        Data-node servers by node id — the RPC targets.  Their sorted
        key order doubles as the replica ring for fallback.
    sizes:
        Average message sizes handed to the serving side.
    key_size, param_size:
        Wire sizes used to price request batches.
    comp_stats:
        Optional ``dst -> ComputeNodeStats | None`` provider; called at
        every (re)transmission of a compute batch so piggybacked load
        statistics are fresh on retries too.
    on_response:
        Required callback receiving every matched (or id-less)
        :class:`BatchResponse`.  Late duplicates never reach it.
    on_dispatch:
        Optional ``(dst, kind, items)`` callback fired once per logical
        request at first transmission (in-flight accounting).
    on_timeout:
        Optional ``(dst, waited_seconds)`` callback fired per timeout —
        the retry-cost charging hook (cost models subscribe here).
    on_abandon:
        Optional ``(dst, kind, items)`` callback fired when a batch
        gives up on its primary and degrades to a replica fallback.
    fault_tolerance:
        Timeout/retry/fallback knobs; ``None`` (or a disabled policy)
        sends fire-and-forget requests exactly like the
        pre-fault-tolerance engine.
    tracer:
        Span tracer (:data:`repro.obs.tracer.NO_TRACER` by default).
        When enabled, every logical batch gets a ``request`` span,
        every (re)transmission an ``attempt`` child span, and the
        timeout/retry/fallback machinery emits one event per reaction
        under the request span.
    """

    def __init__(
        self,
        cluster: Cluster,
        node_id: int,
        servers: "dict[int, DataNodeServer]",
        sizes: SizeProfile,
        *,
        key_size: float = 8.0,
        param_size: float = 64.0,
        comp_stats: Callable[[int], ComputeNodeStats | None] | None = None,
        on_response: Callable[[BatchResponse], None] | None = None,
        on_dispatch: (
            Callable[[int, RequestKind, list[RequestItem]], None] | None
        ) = None,
        on_timeout: Callable[[int, float], None] | None = None,
        on_abandon: (
            Callable[[int, RequestKind, list[RequestItem]], None] | None
        ) = None,
        fault_tolerance: FaultTolerance | None = None,
        tracer: Tracer = NO_TRACER,
    ) -> None:
        self.cluster = cluster
        self.node_id = node_id
        self.servers = servers
        self.sizes = sizes
        self.key_size = key_size
        self.param_size = param_size
        self.comp_stats = comp_stats
        self.on_response = on_response
        self.on_dispatch = on_dispatch
        self.on_timeout = on_timeout
        self.on_abandon = on_abandon
        self.fault_tolerance = fault_tolerance
        self.tracer = tracer
        self._ring = sorted(servers)
        self._pending: dict[str, _Pending] = {}
        self._rid_seq = 0
        #: Fault-handling counters (see :meth:`stats`).
        self.requests_sent = 0
        self.timeouts = 0
        self.retries = 0
        self.fallbacks = 0
        self.duplicate_responses = 0
        #: Batches refused under a newer placement epoch and re-routed
        #: (elastic placement only; see :meth:`_redirect`).  Not part of
        #: :class:`TransportStats` — the placement service's own
        #: counters are the published record.
        self.redirects = 0
        #: Optional straggler-hedging policy (duck-typed: ``observe``
        #: latencies, ``delay() -> float | None``).  ``None`` keeps the
        #: transport bit-identical to its pre-resilience behaviour.
        self.hedge_policy: Any | None = None
        #: Whether :meth:`fail_node` may replay pending batches at a new
        #: owner.  Replay is exactly-once only for idempotent requests,
        #: so callers clear this for side-effecting UDFs.
        self.replay_on_failover = True
        self.hedges_armed = 0
        self.hedges_issued = 0
        self.hedges_won = 0
        self.hedges_lost = 0
        self.failovers = 0
        self.request_latencies: list[float] = []

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(
        self,
        dst: int,
        kind: RequestKind,
        items: list[RequestItem],
        attempt: int = 0,
        span_parent: Span | None = None,
    ) -> str:
        """Transmit one new logical request batch; returns its id.

        ``attempt`` seeds the backoff clock: fallback batches inherit
        the exhausted batch's attempt count so successive replica
        generations wait longer instead of hammering replicas at the
        base timeout.  ``span_parent`` nests the batch's ``request``
        span (a batch span from the flusher, or — for fallback
        generations — the exhausted request span).
        """
        rid = f"{self.node_id}:{self._rid_seq}"
        self._rid_seq += 1
        self.requests_sent += 1
        if self.on_dispatch is not None:
            self.on_dispatch(dst, kind, items)
        entry = _Pending(dst, kind, list(items))
        entry.attempt = attempt
        entry.created_at = self.cluster.sim.now
        if self.tracer.enabled:
            entry.span = self.tracer.start(
                "request",
                parent=span_parent,
                at=self.cluster.sim.now,
                rid=rid,
                src=self.node_id,
                dst=dst,
                kind=kind.name,
                items=len(items),
            )
        self._pending[rid] = entry
        self._transmit(rid, entry, items, attempt)
        if self.hedge_policy is not None and len(self._ring) > 1:
            delay = self.hedge_policy.delay()
            if delay is not None:
                self.hedges_armed += 1
                entry.hedge_timer = self.cluster.sim.schedule_after(
                    delay, lambda: self._fire_hedge(rid)
                )
        return rid

    def pending_memory_keys(self, dst: int) -> list[Any]:
        """Keys of in-flight memory-routed fetches addressed to ``dst``.

        Each of these keys holds a cache reservation made at routing
        time.  When ``dst`` dies and the batches are *not* replayed
        (``replay_on_failover`` off), no response will ever fulfill
        those reservations — the recovery path uses this accessor to
        cancel them instead of leaking reserved memory.
        """
        keys: list[Any] = []
        for entry in self._pending.values():
            if entry.dst != dst:
                continue
            keys.extend(
                item.key for item in entry.items
                if item.route is Route.DATA_REQUEST_MEMORY
            )
        return keys

    def stats(self) -> TransportStats:
        """Snapshot of this transport's counters."""
        return TransportStats(
            requests_sent=self.requests_sent,
            timeouts=self.timeouts,
            retries=self.retries,
            fallbacks=self.fallbacks,
            duplicate_responses=self.duplicate_responses,
            hedges_issued=self.hedges_issued,
            hedges_won=self.hedges_won,
            hedges_lost=self.hedges_lost,
            failovers=self.failovers,
            latencies=tuple(self.request_latencies),
        )

    def _transmit(
        self,
        rid: str,
        entry: _Pending,
        items: list[RequestItem],
        attempt: int,
    ) -> None:
        """One (re)transmission of a registered batch."""
        sim = self.cluster.sim
        entry.sent_at = sim.now
        if self.tracer.enabled:
            entry.attempt_span = self.tracer.start(
                "attempt",
                parent=entry.span,
                at=sim.now,
                attempt=attempt,
                dst=entry.dst,
            )
        batch = self._make_batch(rid, entry.kind, items, attempt, entry.dst)
        self._put_on_wire(batch)
        ft = self.fault_tolerance
        if ft is not None and ft.enabled:
            timeout = ft.timeout_for(attempt)
            entry.timer = sim.schedule_at(
                sim.now + timeout, lambda: self._check_timeout(rid, attempt)
            )

    def _make_batch(
        self,
        rid: str,
        kind: RequestKind,
        items: list[RequestItem],
        attempt: int,
        dst: int,
    ) -> BatchRequest:
        """Build the wire envelope for one (re)transmission at ``dst``."""
        if kind is RequestKind.COMPUTE:
            stats = self.comp_stats(dst) if self.comp_stats is not None else None
            return BatchRequest(
                src=self.node_id,
                dst=dst,
                compute_items=items,
                comp_stats=stats,
                request_id=rid,
                attempt=attempt,
            )
        return BatchRequest(
            src=self.node_id, dst=dst, data_items=items,
            request_id=rid, attempt=attempt,
        )

    def _put_on_wire(self, batch: BatchRequest) -> None:
        """Book the NIC and schedule every planned delivery of ``batch``."""
        sim = self.cluster.sim
        network = self.cluster.network
        transfer = network.transfer(
            sim.now, self.node_id, batch.dst,
            batch.request_bytes(self.key_size, self.param_size),
        )
        for extra in network.delivery_plan(
            self.node_id, batch.dst, sim.now, transfer.arrive
        ):
            sim.schedule_at(
                transfer.arrive + extra, lambda: self._deliver(batch)
            )

    # ------------------------------------------------------------------
    # Serving side (request in, response back)
    # ------------------------------------------------------------------
    def _deliver(self, batch: BatchRequest) -> None:
        sim = self.cluster.sim
        server = self.servers[batch.dst]
        # A late duplicate delivery of an already-answered batch has no
        # live entry; its serve span then hangs off the trace root.
        entry = (
            self._pending.get(batch.request_id)
            if batch.request_id is not None
            else None
        )
        try:
            served = server.serve(
                sim.now, batch, self.sizes,
                parent_span=entry.span if entry is not None else None,
            )
        except WrongRegion as exc:
            # Elastic placement moved a region between dispatch and
            # delivery; the server refused before performing any effect.
            # Re-route the live batch to the current owners.  A late
            # duplicate of an already-settled batch just dies here.
            if entry is not None:
                self._redirect(batch.request_id, entry, exc)
            return
        response = served.response

        def send_response() -> None:
            network = self.cluster.network
            transfer = network.transfer(
                sim.now, batch.dst, self.node_id, response.payload_bytes
            )
            for extra in network.delivery_plan(
                batch.dst, self.node_id, sim.now, transfer.arrive
            ):
                sim.schedule_at(
                    transfer.arrive + extra,
                    lambda: self._handle_response(response),
                )

        sim.schedule_at(served.ready_at, send_response)

    def _handle_response(self, response: BatchResponse) -> None:
        if response.request_id is not None:
            entry = self._pending.pop(response.request_id, None)
            if entry is None:
                # Late original after a retry already answered, a
                # network-duplicated response, or a batch that has
                # since degraded to a replica: the token is dead.
                self.duplicate_responses += 1
                if self.tracer.enabled:
                    self.tracer.event(
                        "duplicate-response",
                        at=self.cluster.sim.now,
                        rid=response.request_id,
                        src=response.src,
                    )
                return
            if entry.timer is not None:
                entry.timer.cancel()
            if entry.hedge_timer is not None:
                entry.hedge_timer.cancel()
                entry.hedge_timer = None
            if entry.hedged:
                if response.src != entry.dst:
                    self.hedges_won += 1
                    # The subscriber's in-flight accounting charged the
                    # primary at dispatch; credit the same bucket the
                    # speculative winner, or the replica's counters go
                    # negative (Appendix C stats reject that).
                    response = response.with_src(entry.dst)
                else:
                    self.hedges_lost += 1
            latency = self.cluster.sim.now - entry.created_at
            self.request_latencies.append(latency)
            if self.hedge_policy is not None:
                self.hedge_policy.observe(latency)
                self._sweep_hedges()
            if self.tracer.enabled:
                now = self.cluster.sim.now
                if entry.attempt_span is not None:
                    self.tracer.end(entry.attempt_span, at=now)
                if entry.span is not None:
                    self.tracer.end(
                        entry.span, at=now, attempts=entry.attempt + 1
                    )
        if self.on_response is not None:
            self.on_response(response)

    def _sweep_hedges(self) -> None:
        """Arm hedge timers for pending batches the policy can now cover.

        The engines pipeline aggressively — most batches are dispatched
        before the policy has observed enough latencies to arm at send
        time — so every completed response re-evaluates the remaining
        in-flight batches.  A batch already past the current quantile
        delay hedges on the next event-loop step (zero-delay timer, so
        all issuance flows through :meth:`_fire_hedge`'s guards).
        """
        if self.hedge_policy is None or len(self._ring) <= 1:
            return
        delay = self.hedge_policy.delay()
        if delay is None:
            return
        now = self.cluster.sim.now
        for rid, entry in self._pending.items():
            if entry.hedged or entry.hedge_timer is not None:
                continue
            remaining = max(0.0, entry.created_at + delay - now)
            self.hedges_armed += 1
            entry.hedge_timer = self.cluster.sim.schedule_after(
                remaining, lambda r=rid: self._fire_hedge(r)
            )

    # ------------------------------------------------------------------
    # Timeout / retry / fallback state machine
    # ------------------------------------------------------------------
    def _check_timeout(self, rid: str, attempt: int) -> None:
        """Timer body: the batch ``rid`` got no response within bounds."""
        entry = self._pending.get(rid)
        if entry is None or entry.attempt != attempt:
            return  # answered, degraded, or already retried
        ft = self.fault_tolerance
        assert ft is not None and ft.request_timeout is not None
        self.timeouts += 1
        waited = ft.timeout_for(attempt)
        # Charge the wasted wait to the subscriber (cost models make
        # flaky nodes look expensive to the router, not free) — unless a
        # hedge is already covering this batch at the replica: the wait
        # is then speculation the hedge pays for, and charging it again
        # would double-bill the cost model for one slow request.
        if self.on_timeout is not None and not entry.hedged:
            self.on_timeout(entry.dst, waited)
        if self.tracer.enabled:
            now = self.cluster.sim.now
            self.tracer.event(
                "timeout", parent=entry.span, at=now, rid=rid, attempt=attempt
            )
            if entry.attempt_span is not None:
                self.tracer.end(entry.attempt_span, at=now, status="timeout")
                entry.attempt_span = None
        if entry.attempt < ft.max_retries or not ft.fallback_to_replica:
            entry.attempt += 1
            self.retries += 1
            if self.tracer.enabled:
                self.tracer.event(
                    "retry", parent=entry.span, at=self.cluster.sim.now,
                    rid=rid, attempt=entry.attempt,
                )
            self._transmit(rid, entry, entry.items, entry.attempt)
            return
        self._fallback(rid, entry)

    def _fallback(self, rid: str, entry: _Pending) -> None:
        """Degrade an exhausted batch to a data request at a replica.

        The primary kept timing out; give up on it, fetch the raw
        stored values from the next data node holding a replica of the
        partition, and let the caller run the UDF locally.  The
        fallback batch gets a fresh token and the full retry machinery,
        cycling onward through replicas if this one is also sick —
        with the attempt count (and hence the backoff) carried over,
        so successive generations wait longer rather than hammering
        replicas at the base timeout.
        """
        self._pending.pop(rid, None)
        if entry.timer is not None:
            entry.timer.cancel()
        if entry.hedge_timer is not None:
            entry.hedge_timer.cancel()
            entry.hedge_timer = None
        self.fallbacks += 1
        if self.on_abandon is not None:
            self.on_abandon(entry.dst, entry.kind, entry.items)
        replica = self.replica_for(entry.dst)
        if self.tracer.enabled:
            now = self.cluster.sim.now
            self.tracer.event(
                "fallback", parent=entry.span, at=now,
                rid=rid, primary=entry.dst, replica=replica,
            )
            if entry.span is not None:
                self.tracer.end(
                    entry.span, at=now, status="fallback",
                    attempts=entry.attempt + 1,
                )
        fallback_items = [
            RequestItem(
                key=item.key,
                kind=RequestKind.DATA,
                route=Route.DATA_REQUEST_DISK,
                tuple_id=item.tuple_id,
                params=item.params,
            )
            for item in entry.items
        ]
        # The replacement request nests under the exhausted one, so the
        # trace shows the whole degradation chain as one subtree.
        self.send(replica, RequestKind.DATA, fallback_items,
                  attempt=entry.attempt + 1, span_parent=entry.span)

    def _redirect(self, rid: str, entry: _Pending, exc: WrongRegion) -> None:
        """Re-route a batch refused under a newer placement epoch.

        Under elastic placement a region can migrate between dispatch
        and delivery; the data node then refuses the whole batch before
        any effect (:class:`~repro.placement.service.WrongRegion`), so
        re-sending is safe even for side-effecting UDFs.  The batch is
        regrouped by each key's *current* owner and re-sent — possibly
        to several nodes when a split scattered its keys; items whose
        owner is unchanged harmlessly re-route to the same node.  The
        replacement requests inherit the attempt count (backoff keeps
        growing if placement keeps moving under the batch) and nest
        under the refused request's span.
        """
        self._pending.pop(rid, None)
        if entry.timer is not None:
            entry.timer.cancel()
        if entry.hedge_timer is not None:
            entry.hedge_timer.cancel()
            entry.hedge_timer = None
        self.redirects += 1
        # Credit the in-flight accounting charged at dispatch; the
        # replacement sends below re-charge their own destinations.
        if self.on_abandon is not None:
            self.on_abandon(entry.dst, entry.kind, entry.items)
        if self.tracer.enabled:
            now = self.cluster.sim.now
            self.tracer.event(
                "wrong-region", parent=entry.span, at=now,
                rid=rid, dst=entry.dst, epoch=exc.epoch,
            )
            if entry.attempt_span is not None:
                self.tracer.end(entry.attempt_span, at=now, status="wrong_region")
                entry.attempt_span = None
            if entry.span is not None:
                self.tracer.end(
                    entry.span, at=now, status="wrong_region",
                    attempts=entry.attempt + 1,
                )
        region_map = self.servers[entry.dst].kvstore.region_map
        groups: "dict[int, list[RequestItem]]" = {}
        for item in entry.items:
            owner = exc.owners.get(item.key)
            if owner is None:
                owner = region_map.node_for_key(item.key)
            groups.setdefault(owner, []).append(item)
        for owner in sorted(groups):
            self.send(owner, entry.kind, groups[owner],
                      attempt=entry.attempt, span_parent=entry.span)

    def replica_for(self, dst: int) -> int:
        """The next data node holding a replica of ``dst``'s partitions.

        The store keeps one logical copy per partition on every data
        node's successor (chain replication at replication factor 2 and
        up); with a single data node the only "replica" is the primary
        itself, and the fallback degenerates to more retries.

        The ring is the *ascending sorted* server-id order with
        wrap-around — a pure function of cluster membership, so two runs
        with identical seeds pick identical fallback/hedge targets.
        """
        return ring_successor(self._ring, dst)

    # ------------------------------------------------------------------
    # Hedging and failover
    # ------------------------------------------------------------------
    def _fire_hedge(self, rid: str) -> None:
        """Hedge-timer body: duplicate a straggling batch at the replica.

        The duplicate reuses the batch's request id, so whichever copy
        answers first settles the entry and the loser dies in the
        idempotent duplicate-response path.  No ``on_dispatch`` /
        ``on_timeout`` hooks fire — the duplicate is pure speculation,
        not a new logical request, and must not be charged as a retry.
        """
        entry = self._pending.get(rid)
        if entry is None or entry.hedged:
            return
        entry.hedge_timer = None
        replica = self.replica_for(entry.dst)
        if replica == entry.dst:
            return
        entry.hedged = True
        self.hedges_issued += 1
        if self.tracer.enabled:
            self.tracer.event(
                "hedge", parent=entry.span, at=self.cluster.sim.now,
                rid=rid, primary=entry.dst, replica=replica,
            )
        self._put_on_wire(
            self._make_batch(rid, entry.kind, entry.items, entry.attempt, replica)
        )

    def fail_node(self, dead: int, new_owner: int) -> int:
        """Fail over every pending batch addressed to ``dead``.

        Called by the recovery manager once the failure detector
        confirms a death: each in-flight batch is cancelled and replayed
        verbatim (same items, same kind, same attempt count) at
        ``new_owner``, which has just inherited the dead node's regions.
        A late response from the restarted primary finds no live entry
        and dies in the duplicate-response path.

        Replay is only exactly-once for idempotent requests; when
        :attr:`replay_on_failover` is ``False`` (side-effecting UDFs)
        this is a no-op and in-flight batches keep retrying the primary,
        whose idempotency cache deduplicates once it restarts.

        Returns the number of batches replayed.
        """
        if not self.replay_on_failover or new_owner == dead:
            return 0
        doomed = [rid for rid, e in self._pending.items() if e.dst == dead]
        for rid in doomed:
            entry = self._pending.pop(rid)
            if entry.timer is not None:
                entry.timer.cancel()
            if entry.hedge_timer is not None:
                entry.hedge_timer.cancel()
                entry.hedge_timer = None
            self.failovers += 1
            if self.on_abandon is not None:
                self.on_abandon(entry.dst, entry.kind, entry.items)
            if self.tracer.enabled:
                now = self.cluster.sim.now
                self.tracer.event(
                    "failover", parent=entry.span, at=now,
                    rid=rid, dead=dead, new_owner=new_owner,
                )
                if entry.attempt_span is not None:
                    self.tracer.end(entry.attempt_span, at=now, status="failover")
                if entry.span is not None:
                    self.tracer.end(
                        entry.span, at=now, status="failover",
                        attempts=entry.attempt + 1,
                    )
            self.send(new_owner, entry.kind, entry.items,
                      attempt=entry.attempt, span_parent=entry.span)
        return len(doomed)


@dataclass(frozen=True, slots=True)
class ShuffleOutcome:
    """Result of one at-least-once shuffle transfer."""

    src: int
    dst: int
    size: float
    start: float
    arrive: float
    attempts: int = 1
    duplicates: int = 0

    @property
    def retransmits(self) -> int:
        return self.attempts - 1


class ShuffleChannel:
    """At-least-once one-way bulk transfers (the shuffle seam).

    Map-side engines push shuffle partitions at reducers and never get
    an application-level response; reliability there is the transport's
    job (TCP in Hadoop, this class here).  Each send consults
    :meth:`Network.delivery_plan`; a dropped message is retransmitted
    after ``retry_timeout * backoff_factor ** attempt`` seconds (every
    retransmission books the NIC again), duplicated copies cost nothing
    extra to the receiver beyond the wire, and a delayed copy arrives
    at the earliest delivered offset.

    The channel is deliberately synchronous (no event-loop callbacks):
    the shuffle engines compute arrival times analytically, and the
    channel returns the final arrival directly.
    """

    def __init__(
        self,
        cluster: Cluster,
        retry_timeout: float = 0.25,
        backoff_factor: float = 2.0,
        max_attempts: int = 64,
        tracer: Tracer = NO_TRACER,
        budgets: "dict[int, Any] | None" = None,
    ) -> None:
        if retry_timeout <= 0:
            raise ValueError("retry_timeout must be positive")
        if backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.cluster = cluster
        self.retry_timeout = retry_timeout
        self.backoff_factor = backoff_factor
        self.max_attempts = max_attempts
        self.tracer = tracer
        self.sends = 0
        self.retransmits = 0
        self.duplicates = 0
        self.bytes_retransmitted = 0.0
        #: Memory-adaptive execution: ``dst -> MemoryBudget``.  Each
        #: arriving partition transiently charges the receiver's budget
        #: for its receive buffer; a refusal stages the partition
        #: through the receiver's disk (spill + read-back) instead of
        #: failing the transfer.  Empty = bit-identical to unbudgeted.
        self.budgets: dict[int, Any] = budgets or {}
        self.budget_spills = 0
        self.spill_seconds = 0.0

    def transfer(
        self,
        at: float,
        src: int,
        dst: int,
        size: float,
        span_parent: Span | None = None,
    ) -> ShuffleOutcome:
        """Move ``size`` bytes ``src -> dst``, retrying dropped sends."""
        network = self.cluster.network
        self.sends += 1
        span: Span | None = None
        if self.tracer.enabled:
            span = self.tracer.start(
                "shuffle", parent=span_parent, at=at,
                src=src, dst=dst, size=size,
            )
        send_time = at
        for attempt in range(self.max_attempts):
            transfer = network.transfer(send_time, src, dst, size)
            plan = network.delivery_plan(src, dst, send_time, transfer.arrive)
            if plan:
                extra = min(plan)
                dup = len(plan) - 1
                self.duplicates += dup
                arrive = transfer.arrive + extra
                arrive = self._charge_receive(dst, size, arrive)
                if span is not None:
                    self.tracer.end(
                        span, at=arrive,
                        attempts=attempt + 1, duplicates=dup,
                    )
                return ShuffleOutcome(
                    src=src, dst=dst, size=size, start=at,
                    arrive=arrive,
                    attempts=attempt + 1, duplicates=dup,
                )
            # Dropped: the sender notices after a timeout and resends.
            self.retransmits += 1
            self.bytes_retransmitted += size
            send_time = max(send_time, transfer.arrive) + min(
                self.retry_timeout * self.backoff_factor ** attempt, 60.0
            )
            if span is not None:
                self.tracer.event(
                    "retransmit", parent=span, at=send_time,
                    attempt=attempt + 1, size=size,
                )
        if span is not None:
            self.tracer.end(span, at=send_time, status="error")
        raise TransportError(
            f"shuffle transfer {src}->{dst} dropped {self.max_attempts} "
            "times in a row; the fault schedule never lets it through"
        )

    def _charge_receive(self, dst: int, size: float, arrive: float) -> float:
        """Charge ``dst``'s memory budget for one receive buffer.

        The charge is transient — the buffer drains into the reducer as
        soon as the partition lands — so a fitting transfer releases
        immediately.  A refused transfer is staged through the
        receiver's disk: write the partition out, read it back, both
        reserved on the disk arm, and the arrival is the read-back
        finish.  Degraded, never dropped.
        """
        budget = self.budgets.get(dst)
        if budget is None:
            return arrive
        if budget.try_reserve("shuffle", size):
            budget.release("shuffle", size)
            return arrive
        node = self.cluster.node(dst)
        spec = node.spec
        io = 2.0 * (spec.disk_seek + size / spec.disk_bandwidth)
        _start, done = node.disk.acquire(arrive, io)
        self.budget_spills += 1
        self.spill_seconds += io
        return done


class OnewayChannel:
    """Best-effort one-way datagrams (heartbeats, gossip).

    No retries, no responses, no timers: each send books the wire once
    and consults :meth:`Network.delivery_plan`, so crash windows and
    chaos faults silence or duplicate datagrams exactly as they would
    any other message.  That is the point — the failure detector listens
    on this channel, and must see the same faulty wire the data path
    sees, or it would detect failures the job never experienced (and
    miss the ones it did).
    """

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self.sends = 0
        self.dropped = 0

    def send(
        self,
        src: int,
        dst: int,
        size: float,
        payload: Any,
        on_deliver: Callable[[Any, float], None],
    ) -> None:
        """Fire ``payload`` from ``src`` to ``dst`` and forget it."""
        sim = self.cluster.sim
        network = self.cluster.network
        self.sends += 1
        transfer = network.transfer(sim.now, src, dst, size)
        plan = network.delivery_plan(src, dst, sim.now, transfer.arrive)
        if not plan:
            self.dropped += 1
            return
        for extra in plan:
            arrive = transfer.arrive + extra
            sim.schedule_at(
                arrive, lambda p=payload, t=arrive: on_deliver(p, t)
            )
