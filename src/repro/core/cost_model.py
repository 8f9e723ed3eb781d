"""Cost parameters and request cost formulas (Table 1, Section 4.3).

All costs are normalized to seconds; sizes to bytes; bandwidth to
bytes/second.  For a compute node ``i`` talking to a data node ``j``
about key ``k``:

    tCompute  = max(tDisk_j, (sk + sp + scv) / netBw_ij, tc_j)
    tFetch    = max(tDisk_j, (sk + sv) / netBw_ij)
    tRecMem   = tc_i
    tRecDisk  = max(tc_i, tDisk_i)

The maxima reflect asynchronous overlap: with many in-flight requests
the disk, network and CPU pipelines overlap, so the *bottleneck*
component dominates, not their sum.

Because model sizes and UDF costs are key specific (e.g. the entity
annotation models range from bytes to hundreds of megabytes), the model
keeps per-key smoothed overrides for ``sv`` and the UDF CPU time on top
of global smoothed averages; until a key's parameters are known the
first request must be a compute request (Section 4.3), and the data
node's response carries the measured parameters back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.core.smoothing import SmoothedValue


# Not frozen: one per response item (see repro.store.messages).
@dataclass(slots=True)
class CostParameters:
    """One observed set of cost parameters for a key at a data node.

    Sent back by the data node with every compute-request response so
    the compute node can make informed future decisions (Section 4.3).

    ``compute_time`` and ``disk_time`` are *measured* values — wall
    time per invocation / per fetch under the node's current load, the
    way a real implementation timing its calls would observe them.  On
    a congested data node they exceed the pure service times, which is
    exactly what lets ski-rental prefer buying keys served by hot
    nodes.  ``cpu_service_time`` carries the pure, load-independent UDF
    cost (what a local execution of the same key would take).
    """

    key: Hashable
    value_size: float
    compute_time: float
    disk_time: float
    param_size: float = 0.0
    key_size: float = 8.0
    computed_size: float = 0.0
    node_id: int = -1
    cpu_service_time: float | None = None
    hydration_time: float = 0.0

    @property
    def service_time(self) -> float:
        """Pure UDF cost; defaults to ``compute_time`` when unset."""
        if self.cpu_service_time is None:
            return self.compute_time
        return self.cpu_service_time


@dataclass(frozen=True, slots=True)
class RequestCosts:
    """The four decision costs for one (key, data node) pair."""

    t_compute: float
    t_fetch: float
    t_rec_mem: float
    t_rec_disk: float

    @property
    def rent(self) -> float:
        """Ski-rental rent cost: one compute request."""
        return self.t_compute

    @property
    def buy(self) -> float:
        """Ski-rental buy cost: one data request (fetch + cache)."""
        return self.t_fetch


class _KeyEstimates:
    """Per-key smoothed value size and UDF compute times, as plain floats.

    Created from the key's first observation; later observations fold
    with :meth:`SmoothedValue.observe`'s expression.  ``compute_time``
    is the measured (load-inclusive) remote cost; ``service_time`` is
    the pure per-invocation UDF cost.
    """

    __slots__ = ("value_size", "compute_time", "service_time")

    def __init__(
        self, value_size: float, compute_time: float, service_time: float
    ) -> None:
        self.value_size = value_size
        self.compute_time = compute_time
        self.service_time = service_time


class CostModel:
    """Runtime cost estimation for one compute node.

    Parameters
    ----------
    node_id:
        The compute node this model belongs to.
    bandwidth:
        ``{data_node_id: netBw_ij}`` effective bandwidths, measured at
        setup (Appendix D.4).
    local_disk_time:
        ``tDisk_i`` — average random-read time of the local disk, used
        for the disk-cache recurring cost.
    alpha:
        Exponential smoothing weight (Section 3.2).
    """

    def __init__(
        self,
        node_id: int,
        bandwidth: dict[int, float],
        local_disk_time: float,
        alpha: float = 0.3,
    ) -> None:
        if local_disk_time < 0:
            raise ValueError("local_disk_time must be non-negative")
        if any(bw <= 0 for bw in bandwidth.values()):
            raise ValueError("bandwidths must be positive")
        self.node_id = node_id
        self._bandwidth = dict(bandwidth)
        self._local_disk_time = local_disk_time
        self._alpha = alpha
        # Global smoothed averages (Table 1).
        self._key_size = SmoothedValue(alpha=alpha, initial=8.0)
        self._param_size = SmoothedValue(alpha=alpha)
        self._computed_size = SmoothedValue(alpha=alpha)
        self._local_compute = SmoothedValue(alpha=alpha)
        # Per-data-node measured disk times (tDisk_j; Table 1 keeps one
        # per node — congestion on one data node must not pollute the
        # estimates for the others).
        self._remote_disk: dict[int, SmoothedValue] = {}
        # Per-key overrides for the key-specific quantities.
        self._per_key: dict[Hashable, _KeyEstimates] = {}
        # Retry charging: wall time burned waiting on requests that
        # timed out.  Folded into the per-node remote estimates so a
        # flaky or crashed data node *looks* expensive to ski-rental,
        # and surfaced as counters for the metrics layer.
        self._timeouts_per_node: dict[int, int] = {}
        self._retry_seconds = 0.0

    # ------------------------------------------------------------------
    # Observation side: fold measured parameters into the estimates.
    # ------------------------------------------------------------------
    def observe(self, params: CostParameters) -> None:
        """Fold a data node's reported parameters into the estimates.

        Every fold is :meth:`SmoothedValue.observe`'s expression, in
        its operand order, written out in this one frame: a response
        item costs one call, not six.
        """
        a = self._alpha
        b = 1.0 - a
        sk = self._key_size  # its 8-byte prior is never None
        sk._value = a * params.key_size + b * sk._value
        sp = self._param_size
        old = sp._value
        sp._value = (params.param_size if old is None
                     else a * params.param_size + b * old)
        if params.computed_size > 0:
            scv = self._computed_size
            old = scv._value
            scv._value = (params.computed_size if old is None
                          else a * params.computed_size + b * old)
        node_disk = self._remote_disk.get(params.node_id)
        if node_disk is None:
            self._observe_disk(params.node_id, params.disk_time)
        else:  # a node's estimate is created with its first observation
            node_disk._value = a * params.disk_time + b * node_disk._value
        per_key = self._per_key.get(params.key)
        if per_key is None:
            self._per_key[params.key] = _KeyEstimates(
                params.value_size, params.compute_time, params.service_time
            )
            return
        per_key.value_size = a * params.value_size + b * per_key.value_size
        per_key.compute_time = a * params.compute_time + b * per_key.compute_time
        per_key.service_time = a * params.service_time + b * per_key.service_time

    def _observe_disk(self, data_node: int, seconds: float) -> None:
        """Fold ``seconds`` into ``tDisk_j``."""
        node_disk = self._remote_disk.get(data_node)
        if node_disk is None:
            node_disk = self._remote_disk[data_node] = SmoothedValue(alpha=self._alpha)
        node_disk.observe(seconds)

    def observe_local_compute(self, seconds: float) -> None:
        """Record a locally measured UDF execution time (``tc_i``)."""
        local, a = self._local_compute, self._alpha  # SmoothedValue.observe
        old = local._value
        local._value = seconds if old is None else a * seconds + (1.0 - a) * old

    def observe_timeout(self, data_node: int, waited: float) -> None:
        """Charge one request timeout against ``data_node``.

        ``waited`` seconds were spent with nothing to show for them, so
        they are folded into the node's measured disk time — the term
        that appears in both ``tCompute`` and ``tFetch`` — making every
        remote option against this node proportionally less attractive
        until fresh successful responses wash the penalty out.
        """
        if waited < 0:
            raise ValueError("waited must be non-negative")
        self._timeouts_per_node[data_node] = (
            self._timeouts_per_node.get(data_node, 0) + 1
        )
        self._retry_seconds += waited
        self._observe_disk(data_node, waited)

    @property
    def timeouts_charged(self) -> int:
        """Total request timeouts folded into the estimates."""
        return sum(self._timeouts_per_node.values())

    @property
    def retry_seconds_charged(self) -> float:
        """Total wall seconds burned on timed-out requests."""
        return self._retry_seconds

    def forget_key(self, key: Hashable) -> None:
        """Drop per-key estimates (e.g. after a data-store update)."""
        self._per_key.pop(key, None)

    # ------------------------------------------------------------------
    # Query side.
    # ------------------------------------------------------------------
    def knows_key(self, key: Hashable) -> bool:
        """Whether per-key parameters for ``key`` have been observed.

        Until this is true the first request for the key must go out as
        a compute request (Section 4.3).
        """
        return key in self._per_key

    def value_size(self, key: Hashable) -> float:
        """Best estimate of the stored value size ``sv`` for ``key``."""
        per_key = self._per_key.get(key)
        if per_key is None:
            raise KeyError(f"no size estimate for key {key!r}")
        return per_key.value_size

    def costs(self, key: Hashable, data_node: int) -> RequestCosts:
        """The four decision costs for ``key`` served by ``data_node``.

        Requires per-key parameters; callers should check
        :meth:`knows_key` first and issue a compute request when false.
        """
        return RequestCosts(*self.costs4(key, data_node))

    def hit_weight(self, key: Hashable, data_node: int) -> float | None:
        """``rent - tRecMem``, what a memory hit on ``key`` saves: the two
        :meth:`costs4` terms in its operand order, or ``None`` where it raises."""
        per_key = self._per_key.get(key)
        bw = self._bandwidth.get(data_node)
        if per_key is None or bw is None:
            return None
        sp = self._param_size._value
        scv = self._computed_size._value
        node_disk = self._remote_disk.get(data_node)
        t_disk = None if node_disk is None else node_disk._value
        tc_local = self._local_compute._value
        return max(
            0.0 if t_disk is None else t_disk,
            (self._key_size._value + (0.0 if sp is None else sp)
             + (0.0 if scv is None else scv)) / bw,
            per_key.compute_time,
        ) - (per_key.service_time if tc_local is None else tc_local)

    def costs4(self, key: Hashable, data_node: int) -> tuple[float, float, float, float]:
        """``(tCompute, tFetch, tRecMem, tRecDisk)`` as a plain tuple.

        The Section 4.3 formulas, read straight off the current
        estimates; :meth:`costs` wraps the same four floats, and
        :meth:`hit_weight` repeats the first minus the third.
        Raises ``KeyError`` for an unknown key or a data node without a
        bandwidth estimate.
        """
        per_key = self._per_key.get(key)
        if per_key is None:
            raise KeyError(f"no cost parameters yet for key {key!r}")
        bw = self._bandwidth.get(data_node)
        if bw is None:
            raise KeyError(f"no bandwidth estimate for node {data_node}")
        sk = self._key_size._value  # never None: its prior is 8 bytes
        sp = self._param_size._value
        if sp is None:
            sp = 0.0
        scv = self._computed_size._value
        if scv is None:
            scv = 0.0
        node_disk = self._remote_disk.get(data_node)
        t_disk = node_disk._value if node_disk is not None else None
        if t_disk is None:
            t_disk = 0.0
        # Local UDF time: prefer a locally measured value; fall back to
        # the key's *pure service* cost — an idle local CPU would take
        # about that long (falling back to the load-inflated remote
        # measurement would make r <= br and freeze buying forever).
        tc_local = self._local_compute._value
        if tc_local is None:
            tc_local = per_key.service_time
        ldt = self._local_disk_time
        return (
            max(t_disk, (sk + sp + scv) / bw, per_key.compute_time),
            max(t_disk, (sk + per_key.value_size) / bw),
            tc_local,
            tc_local if tc_local >= ldt else ldt,
        )
