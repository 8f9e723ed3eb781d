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
from repro.perf.mode import reference_mode


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
    """Per-key smoothed value size and UDF compute times.

    ``compute_time`` is the measured (load-inclusive) remote cost;
    ``service_time`` is the pure per-invocation UDF cost.
    """

    __slots__ = ("value_size", "compute_time", "service_time")

    def __init__(self, alpha: float) -> None:
        self.value_size = SmoothedValue(alpha=alpha)
        self.compute_time = SmoothedValue(alpha=alpha)
        self.service_time = SmoothedValue(alpha=alpha)


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
        # Spill charging (memory-adaptive execution): counts and bytes
        # of build-side spill/unspill traffic, surfaced as ``memory.*``
        # counters.  Zero (and untouched) when memory adaptation is off.
        self._spill_count = 0
        self._spill_bytes = 0.0
        self._spill_seconds = 0.0
        # Memoized cost formulas, keyed on smoothed-stat epochs.  Only
        # the *remote* terms (tCompute, tFetch) are memoized: they read
        # three disjoint groups of estimates — global sizes, per key,
        # and per data node — each carrying its own epoch, so an entry
        # stays valid until one of *its* groups changes.  The local
        # recurring costs are deliberately excluded: ``tc_i`` folds a
        # queueing-dependent wall time on every local execution and
        # would invalidate the memo constantly, while recomputing it is
        # two attribute reads.  Epochs only advance when an observation
        # actually moves a smoothed value, so a hit always returns the
        # exact floats the formulas would have produced.  Epochs advance
        # in both modes; in reference mode ``costs()`` evaluates the
        # formulas every time instead of consulting the memo.
        self._epoch = 0
        self._key_epoch: dict[Hashable, int] = {}
        self._node_epoch: dict[int, int] = {}
        self._memo: dict[
            tuple[Hashable, int], tuple[int, int, int, float, float]
        ] = {}
        self._memo_enabled = not reference_mode()
        # Last placement epoch observed from the region map; a change
        # (migration, split, replica grant) invalidates every memoized
        # remote cost, since a key's serving node may have moved.
        self._placement_epoch = 0

    def observe_placement_epoch(self, epoch: int) -> None:
        """Note the placement epoch; invalidate memos when it advances.

        With a static map the epoch never moves and this is a single
        integer compare; under elastic placement each mutation bumps it
        exactly once per compute node.
        """
        if epoch != self._placement_epoch:
            self._placement_epoch = epoch
            self._epoch += 1

    # ------------------------------------------------------------------
    # Observation side: fold measured parameters into the estimates.
    # ------------------------------------------------------------------
    def observe(self, params: CostParameters) -> None:
        """Fold a data node's reported parameters into the estimates.

        An epoch advances only when an observation actually moved one
        of its group's estimates — in both modes, so an entry
        :meth:`costs4` memoized expires whichever mode built the model.
        """
        sk, sp, scv = self._key_size, self._param_size, self._computed_size
        was_sk, was_sp, was_scv = sk._value, sp._value, scv._value
        sk.observe(params.key_size)
        sp.observe(params.param_size)
        if params.computed_size > 0:
            scv.observe(params.computed_size)
        if sk._value != was_sk or sp._value != was_sp or scv._value != was_scv:
            self._epoch += 1
        self._observe_disk(params.node_id, params.disk_time)
        key = params.key
        per_key = self._per_key.get(key)
        if per_key is None:
            per_key = self._per_key[key] = _KeyEstimates(self._alpha)
        sv, tc, ts = per_key.value_size, per_key.compute_time, per_key.service_time
        was_sv, was_tc, was_ts = sv._value, tc._value, ts._value
        sv.observe(params.value_size)
        tc.observe(params.compute_time)
        ts.observe(params.service_time)
        if sv._value != was_sv or tc._value != was_tc or ts._value != was_ts:
            self._key_epoch[key] = self._key_epoch.get(key, 0) + 1

    def _observe_disk(self, data_node: int, seconds: float) -> None:
        """Fold ``seconds`` into ``tDisk_j``; bump the node's epoch if it moved."""
        node_disk = self._remote_disk.get(data_node)
        if node_disk is None:
            node_disk = self._remote_disk[data_node] = SmoothedValue(alpha=self._alpha)
        before = node_disk._value
        if node_disk.observe(seconds) != before:
            self._node_epoch[data_node] = self._node_epoch.get(data_node, 0) + 1

    def observe_local_compute(self, seconds: float) -> None:
        """Record a locally measured UDF execution time (``tc_i``).

        No epoch bookkeeping: ``tc_i`` is outside the memoized remote
        terms, so this stays a plain fold in both modes.
        """
        self._local_compute.observe(seconds)

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

    def observe_spill(self, nbytes: float, seconds: float) -> None:
        """Charge one spill (or unspill) of ``nbytes`` taking ``seconds``.

        Memory-adaptive execution pushes build-side partitions through
        the modeled disk tier under budget pressure; the wall time is
        already paid on the disk arm where the spill happened, so this
        is pure bookkeeping — a running tally the metrics layer
        publishes under ``memory.*``.  Estimates are deliberately left
        untouched: the priced I/O already flows through the observed
        disk times, and double-folding would bias ski-rental.
        """
        if nbytes < 0 or seconds < 0:
            raise ValueError("spill bytes and seconds must be non-negative")
        self._spill_count += 1
        self._spill_bytes += nbytes
        self._spill_seconds += seconds

    @property
    def spills_charged(self) -> tuple[int, float, float]:
        """``(count, bytes, seconds)`` of spill traffic charged so far."""
        return self._spill_count, self._spill_bytes, self._spill_seconds

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
        self._key_epoch[key] = self._key_epoch.get(key, 0) + 1

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
        if per_key is not None and per_key.value_size.initialized:
            return per_key.value_size.value
        raise KeyError(f"no size estimate for key {key!r}")

    def bandwidth_to(self, data_node: int) -> float:
        """Effective bandwidth ``netBw_ij`` to ``data_node``."""
        try:
            return self._bandwidth[data_node]
        except KeyError:
            raise KeyError(f"no bandwidth estimate for node {data_node}") from None

    def costs(self, key: Hashable, data_node: int) -> RequestCosts:
        """The four decision costs for ``key`` served by ``data_node``.

        Requires per-key parameters; callers should check
        :meth:`knows_key` first and issue a compute request when false.
        """
        per_key = self._per_key.get(key)
        if per_key is None:
            raise KeyError(f"no cost parameters yet for key {key!r}")
        if self._memo_enabled:
            t_compute, t_fetch = self._remote_costs(key, data_node, per_key)
        else:
            t_compute, t_fetch = self._remote_formulas(data_node, per_key)
        # Local UDF time: prefer a locally measured value; fall back to
        # the key's *pure service* cost — an idle local CPU would take
        # about that long (falling back to the load-inflated remote
        # measurement would make r <= br and freeze buying forever).
        tc_local = self._local_compute.value_or(per_key.service_time.value)
        return RequestCosts(
            t_compute=t_compute,
            t_fetch=t_fetch,
            t_rec_mem=tc_local,
            t_rec_disk=max(tc_local, self._local_disk_time),
        )

    def _remote_formulas(
        self, data_node: int, per_key: _KeyEstimates
    ) -> tuple[float, float]:
        """``(tCompute, tFetch)`` from the current estimates."""
        bw = self.bandwidth_to(data_node)
        sk = self._key_size.value_or(8.0)
        sp = self._param_size.value_or(0.0)
        scv = self._computed_size.value_or(0.0)
        sv = per_key.value_size.value
        node_disk = self._remote_disk.get(data_node)
        t_disk_remote = node_disk.value_or(0.0) if node_disk is not None else 0.0
        tc_remote = per_key.compute_time.value
        t_compute = max(t_disk_remote, (sk + sp + scv) / bw, tc_remote)
        t_fetch = max(t_disk_remote, (sk + sv) / bw)
        return t_compute, t_fetch

    def _remote_costs(
        self, key: Hashable, data_node: int, per_key: _KeyEstimates
    ) -> tuple[float, float]:
        """Memoized :meth:`_remote_formulas`.

        A hit returns the floats computed under identical estimate
        values, so results are bit-equal either way.
        """
        k_ep = self._key_epoch.get(key, 0)
        n_ep = self._node_epoch.get(data_node, 0)
        memo_key = (key, data_node)
        entry = self._memo.get(memo_key)
        if (
            entry is not None
            and entry[0] == self._epoch
            and entry[1] == k_ep
            and entry[2] == n_ep
        ):
            return entry[3], entry[4]
        t_compute, t_fetch = self._remote_formulas(data_node, per_key)
        self._memo[memo_key] = (self._epoch, k_ep, n_ep, t_compute, t_fetch)
        return t_compute, t_fetch

    def costs4(self, key: Hashable, data_node: int) -> tuple[float, float, float, float]:
        """``(tCompute, tFetch, tRecMem, tRecDisk)`` as a plain tuple.

        Optimized-mode hot-path variant of :meth:`costs`: same values,
        no :class:`RequestCosts` allocation and no property dispatch
        for ``rent``/``buy`` on the caller side.  Raises ``KeyError``
        exactly when :meth:`costs` would (unknown key or bandwidth).
        """
        per_key = self._per_key.get(key)
        if per_key is None:
            raise KeyError(f"no cost parameters yet for key {key!r}")
        entry = self._memo.get((key, data_node))
        if (
            entry is not None
            and entry[0] == self._epoch
            and entry[1] == self._key_epoch.get(key, 0)
            and entry[2] == self._node_epoch.get(data_node, 0)
        ):
            t_compute = entry[3]
            t_fetch = entry[4]
        else:
            t_compute, t_fetch = self._remote_costs(key, data_node, per_key)
        tc_local = self._local_compute._value
        if tc_local is None:
            tc_local = per_key.service_time.value
        ldt = self._local_disk_time
        return (
            t_compute,
            t_fetch,
            tc_local,
            tc_local if tc_local >= ldt else ldt,
        )
