"""Admission control: bounded per-data-node queues with load shedding.

Section 5's load balancer models a data node's service time as linear
in its queue length — so an unbounded queue is unbounded latency.  The
controller keeps, per destination data node, a hard bound on admitted-
but-unfinished tuples.  Overflow is *parked* (backpressure to the batch
layer: the tuple simply is not enqueued yet) in FIFO order and admitted
as completions free slots.  A parked tuple that waits past the shed
deadline is *shed*: not dropped — correctness is sacred here — but
degraded onto the cheap route (a raw data fetch, computed locally, per
Section 5's guidance to move work off the overloaded server) and
dispatched outside the bound.

Occupancy is charged at admission and released when the tuple's output
is recorded, so the bound covers the full in-flight lifetime: buffered,
on the wire, queued at the server, and computing.

Two shed causes are accounted separately: ``shed_deadline_expired``
(the parked tuple aged out) and ``shed_queue_full`` (the parked queue
itself hit :attr:`AdmissionController.park_capacity` and the new tuple
was shed on arrival, before ever parking).  ``shed_count`` remains the
sum of both, so pre-existing consumers keep working.

:class:`WeightedFairAdmission` is the multi-tenant extension
(``repro.tenancy``): the single shared parked FIFO becomes one parked
queue per tenant, drained by deficit-first weighted-fair scheduling
with per-tenant quotas, and every shed is charged to the tenant that
over-drove its share — not smeared across the mix.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.sim.events import Simulator

#: A parked tuple: [dst, tuple_id, payload, live?] (the weighted-fair
#: subclass appends a fifth slot carrying the tenant name).
_Token = list


class AdmissionController:
    """Per-data-node admission bound with FIFO parking and shedding."""

    def __init__(
        self,
        sim: Simulator,
        bound: int,
        dispatch: Callable[[int, int, Any], None],
        shed: Callable[[int, int, Any], None],
        deadline: float | None = None,
        park_capacity: int | None = None,
    ) -> None:
        if bound < 1:
            raise ValueError("bound must be >= 1")
        if park_capacity is not None and park_capacity < 0:
            raise ValueError("park_capacity must be non-negative")
        if deadline is not None and deadline < 0:
            raise ValueError("deadline must be non-negative")
        self.sim = sim
        self.bound = bound
        self.dispatch = dispatch
        self.shed = shed
        self.deadline = deadline
        #: Max *live* parked tuples per destination; an arrival finding
        #: the queue full is shed immediately (``shed_queue_full``).
        #: ``None`` parks without limit (the pre-tenancy behavior).
        self.park_capacity = park_capacity
        self._occupancy: dict[int, int] = defaultdict(int)
        self._owner: dict[int, int] = {}
        self._parked: dict[int, deque[_Token]] = defaultdict(deque)
        self.admitted = 0
        self.parked_total = 0
        self.shed_count = 0
        self.shed_deadline_expired = 0
        self.shed_queue_full = 0
        self.peak_inflight = 0

    def occupancy(self, dst: int) -> int:
        return self._occupancy[dst]

    def parked(self, dst: int) -> int:
        return sum(1 for token in self._parked[dst] if token[3])

    def submit(self, dst: int, tuple_id: int, payload: Any) -> bool:
        """Try to admit one tuple bound for ``dst``.

        Returns ``True`` if admitted (the caller dispatches it now);
        ``False`` if parked or shed — the controller will hand it back
        through the ``dispatch`` callback when a slot frees, or through
        ``shed`` if the deadline expires (or the parked queue is full)
        first.
        """
        if self._occupancy[dst] < self.bound:
            self._admit(dst, tuple_id)
            return True
        if (
            self.park_capacity is not None
            and self.parked(dst) >= self.park_capacity
        ):
            self.shed_count += 1
            self.shed_queue_full += 1
            self.shed(dst, tuple_id, payload)
            return False
        token: _Token = [dst, tuple_id, payload, True]
        self._park(token)
        return False

    def _park(self, token: _Token) -> None:
        self._parked[token[0]].append(token)
        self.parked_total += 1
        if self.deadline is not None:
            self.sim.schedule_after(
                self.deadline, lambda: self._maybe_shed(token)
            )

    def release(self, tuple_id: int) -> None:
        """The tuple finished; free its slot and admit the next parked."""
        dst = self._owner.pop(tuple_id, None)
        if dst is None:
            return  # never admitted here (local route, or shed)
        self._occupancy[dst] -= 1
        self._admit_next(dst)

    def _admit_next(self, dst: int) -> None:
        queue = self._parked[dst]
        while queue:
            token = queue.popleft()
            if not token[3]:
                continue  # already shed; lazily discarded
            token[3] = False
            self._admit(dst, token[1])
            self.dispatch(dst, token[1], token[2])
            break

    def _admit(self, dst: int, tuple_id: int) -> None:
        self._occupancy[dst] += 1
        self.peak_inflight = max(self.peak_inflight, self._occupancy[dst])
        self._owner[tuple_id] = dst
        self.admitted += 1

    def _maybe_shed(self, token: _Token) -> None:
        if not token[3]:
            return  # admitted in the meantime
        token[3] = False
        self.shed_count += 1
        self.shed_deadline_expired += 1
        # Shed work runs outside the bound on purpose: it no longer
        # burdens the overloaded server's UDF queue, only its disk.
        self.shed(token[0], token[1], token[2])


@dataclass(frozen=True)
class TenantShare:
    """One tenant's claim on the admission bound.

    ``weight`` sets the tenant's proportional share of slots when the
    bound is contended; ``quota`` is a hard in-flight ceiling per
    destination the tenant can never exceed, even when slots are idle
    (``None`` = no ceiling); ``deadline`` overrides the controller's
    default shed deadline for this tenant's parked work — typically the
    tenant's SLO deadline, past which finishing is pointless anyway.
    """

    weight: float = 1.0
    quota: int | None = None
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if self.quota is not None and self.quota < 1:
            raise ValueError("quota must be >= 1")
        if self.deadline is not None and self.deadline < 0:
            raise ValueError("deadline must be non-negative")


_DEFAULT_SHARE = TenantShare()


class WeightedFairAdmission(AdmissionController):
    """Per-tenant weighted-fair admission with quotas and charged sheds.

    The global bound per destination is unchanged, but the parked
    overflow is kept per tenant and drained deficit-first: a tenant
    running below its guaranteed share (``bound * weight / Σweight``)
    is always served before tenants above theirs; among equally
    entitled tenants the lowest virtual time (stride scheduling —
    admissions advance a tenant's clock by ``1/weight``) wins, with
    the tenant name as the deterministic tie-break.

    The scheme is work-conserving: idle slots go to any tenant with
    parked work (quota permitting), so an under-loaded mix behaves
    exactly like the global controller.  What changes under contention
    is *whose* work waits: an over-quota flash crowd parks behind the
    compliant tenants' guaranteed slots, so its requests are the ones
    that age out — deadline and queue-full sheds are charged to the
    offending tenant (``shed_by_tenant``), not smeared across the mix.
    """

    def __init__(
        self,
        sim: Simulator,
        bound: int,
        dispatch: Callable[[int, int, Any], None],
        shed: Callable[[int, int, Any], None],
        deadline: float | None = None,
        shares: Mapping[str, TenantShare] | None = None,
        tenant_of: Callable[[int], str] | None = None,
        park_capacity: int | None = None,
    ) -> None:
        super().__init__(
            sim, bound, dispatch, shed, deadline=deadline,
            park_capacity=park_capacity,
        )
        self.shares: dict[str, TenantShare] = dict(shares or {})
        self.tenant_of: Callable[[int], str] = (
            tenant_of if tenant_of is not None else (lambda _tid: "default")
        )
        #: In-flight slots per (destination, tenant).
        self._occ_tenant: dict[tuple[int, str], int] = defaultdict(int)
        #: Parked queues per destination per tenant.
        self._queues: dict[int, dict[str, deque[_Token]]] = defaultdict(dict)
        #: Stride-scheduling virtual time per tenant.
        self._vtime: dict[str, float] = defaultdict(float)
        self._tenant_owner: dict[int, str] = {}
        self.admitted_by_tenant: dict[str, int] = defaultdict(int)
        self.shed_by_tenant: dict[str, int] = defaultdict(int)

    # ------------------------------------------------------------------
    # Share bookkeeping
    # ------------------------------------------------------------------
    def _share(self, tenant: str) -> TenantShare:
        share = self.shares.get(tenant)
        if share is None:
            share = self.shares[tenant] = _DEFAULT_SHARE
        return share

    def _guarantee(self, tenant: str) -> int:
        """Slots per destination this tenant is always entitled to."""
        total = sum(share.weight for share in self.shares.values())
        weight = self._share(tenant).weight
        if total <= 0:
            return self.bound
        return max(1, int(self.bound * weight / total))

    def tenant_occupancy(self, dst: int, tenant: str) -> int:
        return self._occ_tenant[(dst, tenant)]

    def parked(self, dst: int) -> int:
        return sum(
            1
            for queue in self._queues[dst].values()
            for token in queue
            if token[3]
        )

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(self, dst: int, tuple_id: int, payload: Any) -> bool:
        tenant = self.tenant_of(tuple_id)
        share = self._share(tenant)
        occ_t = self._occ_tenant[(dst, tenant)]
        over_quota = share.quota is not None and occ_t >= share.quota
        if not over_quota and self._occupancy[dst] < self.bound:
            # Under its guarantee the tenant is entitled outright; over
            # it, spare slots are only borrowed when no other tenant is
            # waiting (work conservation without starving the parked).
            if occ_t < self._guarantee(tenant) or not self._others_parked(
                dst, tenant
            ):
                self._admit_tenant(dst, tuple_id, tenant)
                return True
        if (
            self.park_capacity is not None
            and self.parked(dst) >= self.park_capacity
        ):
            self.shed_count += 1
            self.shed_queue_full += 1
            self.shed_by_tenant[tenant] += 1
            self.shed(dst, tuple_id, payload)
            return False
        token: _Token = [dst, tuple_id, payload, True, tenant]
        queue = self._queues[dst].get(tenant)
        if queue is None:
            queue = self._queues[dst][tenant] = deque()
        queue.append(token)
        self.parked_total += 1
        deadline = share.deadline if share.deadline is not None else self.deadline
        if deadline is not None:
            self.sim.schedule_after(
                deadline, lambda: self._maybe_shed(token)
            )
        return False

    def _others_parked(self, dst: int, tenant: str) -> bool:
        for name, queue in self._queues[dst].items():
            if name == tenant:
                continue
            if any(token[3] for token in queue):
                return True
        return False

    def release(self, tuple_id: int) -> None:
        dst = self._owner.pop(tuple_id, None)
        if dst is None:
            return
        tenant = self._tenant_owner.pop(tuple_id)
        self._occupancy[dst] -= 1
        self._occ_tenant[(dst, tenant)] -= 1
        self._admit_next(dst)

    def _admit_next(self, dst: int) -> None:
        """Weighted-fair pick of the next parked tuple to admit.

        Deficit first (below-guarantee tenants beat above-guarantee
        ones), then lowest virtual time, then tenant name — a total
        order, so the drain sequence is deterministic.
        """
        queues = self._queues[dst]
        best: tuple[tuple[int, float, str], str] | None = None
        for tenant in sorted(queues):
            queue = queues[tenant]
            while queue and not queue[0][3]:
                queue.popleft()  # lazily discard shed tokens
            if not queue:
                continue
            share = self._share(tenant)
            occ_t = self._occ_tenant[(dst, tenant)]
            if share.quota is not None and occ_t >= share.quota:
                continue
            rank = (
                0 if occ_t < self._guarantee(tenant) else 1,
                self._vtime[tenant],
                tenant,
            )
            if best is None or rank < best[0]:
                best = (rank, tenant)
        if best is None:
            return
        token = queues[best[1]].popleft()
        token[3] = False
        self._admit_tenant(dst, token[1], best[1])
        self.dispatch(dst, token[1], token[2])

    def _admit_tenant(self, dst: int, tuple_id: int, tenant: str) -> None:
        self._admit(dst, tuple_id)
        self._occ_tenant[(dst, tenant)] += 1
        self._tenant_owner[tuple_id] = tenant
        self.admitted_by_tenant[tenant] += 1
        self._vtime[tenant] += 1.0 / self._share(tenant).weight

    def _maybe_shed(self, token: _Token) -> None:
        if not token[3]:
            return
        self.shed_by_tenant[token[4]] += 1
        super()._maybe_shed(token)
