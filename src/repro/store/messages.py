"""Wire protocol between compute nodes and data nodes, plus the UDF.

The paper frames the application as invocations of ``f(k, p)``: fetch
the stored value ``v`` for key ``k``, then run the side-effect-free
user function ``f'(k, p, v)``.  :class:`UDF` captures that function for
both the timing simulation (CPU seconds per row) and real execution
(an optional ``apply`` callable used in correctness tests and in the
sparklite join executor).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Hashable

from repro.core.cost_model import CostParameters
from repro.placement.batch import ComputeNodeStats
from repro.core.optimizer import Route

if TYPE_CHECKING:  # imported lazily to avoid an engine <-> store cycle
    from repro.store.table import Row


@dataclass(frozen=True, slots=True)
class UDF:
    """The user function ``f'(k, p, v)`` (Section 3.1).

    Attributes
    ----------
    result_size:
        Size ``scv`` of the computed value in bytes.
    param_size:
        Average size ``sp`` of the extra parameters in bytes.
    key_size:
        Size ``sk`` of a key in bytes.
    cost_fn:
        CPU seconds for one invocation on a row.  Defaults to the row's
        ``compute_cost`` attribute, which the workload generators set.
    apply_fn:
        Optional real implementation ``(key, params, value) -> result``
        for correctness-checked execution.
    side_effect_free:
        False pins execution to the owning data node (see below).
    """

    result_size: float = 64.0
    param_size: float = 64.0
    key_size: float = 8.0
    cost_fn: Callable[[Row], float] | None = None
    apply_fn: Callable[[Hashable, Any, Any], Any] | None = None
    #: Section 3.1 considers only side-effect-free functions, which is
    #: what makes the execution site a free choice.  Marking a UDF as
    #: side-effecting (a paper future-work case) pins every invocation
    #: to the data node that owns the row — executed exactly once, at
    #: one site — so caching and load-balancer bounces are disabled
    #: for it.
    side_effect_free: bool = True

    def cost(self, row: Row) -> float:
        """CPU seconds of one invocation on ``row``."""
        if self.cost_fn is not None:
            return self.cost_fn(row)
        return row.compute_cost

    def apply(self, key: Hashable, params: Any, value: Any) -> Any:
        """Run the real function (raises if none was supplied)."""
        if self.apply_fn is None:
            raise ValueError("this UDF has no apply_fn (timing-only UDF)")
        return self.apply_fn(key, params, value)


class RequestKind(enum.Enum):
    """Wire-level request type."""

    COMPUTE = "compute"  # ship (k, p); data node may execute the UDF
    DATA = "data"  # fetch the stored value for caching


# RequestItem, ResponseItem and CostParameters are allocated once per
# remote tuple — the three allocations of the request path.  They are
# values nobody mutates (retries, replays and hedges share them), but
# deliberately not ``frozen=True``: a frozen dataclass assigns every
# field through ``object.__setattr__``, 2-2.5x the construction cost.
@dataclass(slots=True)
class RequestItem:
    """One ``(k, p)`` request inside a batch."""

    key: Hashable
    kind: RequestKind
    route: Route
    tuple_id: int
    params: Any = None

    @property
    def is_compute(self) -> bool:
        return self.kind is RequestKind.COMPUTE


@dataclass(slots=True)
class BatchRequest:
    """A batch of requests from one compute node to one data node.

    Carries the compute node's queue statistics (Appendix C) so the
    data node can balance load without an extra round trip.
    """

    src: int
    dst: int
    compute_items: list[RequestItem] = field(default_factory=list)
    data_items: list[RequestItem] = field(default_factory=list)
    comp_stats: ComputeNodeStats | None = None
    #: Idempotency token, unique per logical request across the whole
    #: job (``"<node>:<seq>"``).  Retries re-send the same id; the data
    #: node replays its cached response for an id it has already served
    #: instead of re-executing UDFs, so duplicated or retried compute
    #: requests are never double-counted.  ``None`` (direct unit-test
    #: construction) disables the idempotency machinery.
    request_id: str | None = None
    #: Retry attempt number, 0 for the first transmission.
    attempt: int = 0

    def __len__(self) -> int:
        return len(self.compute_items) + len(self.data_items)

    def request_bytes(self, key_size: float, param_size: float) -> float:
        """Bytes on the wire for this batch."""
        compute_bytes = len(self.compute_items) * (key_size + param_size)
        data_bytes = len(self.data_items) * key_size
        return compute_bytes + data_bytes


@dataclass(slots=True)
class ResponseItem:
    """One response inside a batch response.

    ``computed`` distinguishes values the data node already ran the UDF
    on (payload of ``scv`` bytes) from raw stored values the compute
    node must process locally (payload of ``sv`` bytes).  Every
    response carries the row's cost parameters (Section 4.3: "In either
    case, it sends the parameters for cost computation back") and its
    update timestamp (Section 4.2.3).
    """

    key: Hashable
    tuple_id: int
    route: Route
    computed: bool
    value: Any
    payload_size: float
    cost_params: CostParameters
    updated_at: float
    #: For uncomputed compute requests (load-balancer bounces), the
    #: original UDF parameters echoed back so the compute node can run
    #: the function locally.
    params: Any = None


@dataclass(slots=True)
class BatchResponse:
    """A batch of responses from one data node to one compute node."""

    src: int
    dst: int
    items: list[ResponseItem] = field(default_factory=list)
    #: Echo of the request's idempotency token; the compute node drops
    #: any response whose id it has already accepted (late originals
    #: after a retry, network-duplicated responses).
    request_id: str | None = None
    #: True when this response was replayed from the data node's
    #: idempotency cache rather than served fresh.
    replayed: bool = False

    def __len__(self) -> int:
        return len(self.items)

    def with_src(self, src: int) -> "BatchResponse":
        """Shallow copy with a rewritten source node id."""
        return replace(self, src=src)

    @property
    def payload_bytes(self) -> float:
        """Total payload bytes on the wire."""
        return sum(item.payload_size for item in self.items)
