"""Compute/data-node load balancing (Section 5, Appendix C).

For every batch of ``b`` compute requests arriving from compute node
``i``, data node ``j`` decides how many, ``d``, to execute locally; the
other ``b - d`` are answered with the stored value and computed back at
the compute node.  The decision minimizes the batch completion time

    max(compCPU(d), compNet(d), dataCPU(d), dataNet(d))

where all four loads are linear functions of ``d`` built from queue
statistics piggybacked on the batch (compute-node side) and local
statistics (data-node side).  The maximum of linear functions is convex
and piecewise linear, so the paper's gradient-descent heuristic in fact
finds the global minimum; :func:`exact_min_d` provides an independent
oracle used by tests and the load-balancing ablation benchmark.

Notation follows Appendix C.  One deliberate clarification: work that
executes *at the compute node* is priced at the compute node's UDF time
``tcc`` (the appendix text prices some of those terms at ``tcd``, which
is equivalent only for homogeneous nodes; with heterogeneous nodes the
intent — time to compute at ``i`` — requires ``tcc``).

The short-term batch decision lives beside the long-term region
planner (:mod:`repro.placement.balancer`) so that every
placement-adjacent policy consults the same package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ComputeNodeStats:
    """Statistics shipped from compute node ``i`` with each batch.

    Attributes mirror Appendix C's superscript-``c`` parameters.
    """

    pending_local_computations: int  # lcc_i
    pending_data_requests: int  # ndc_i
    pending_compute_requests: int  # ncc_i
    pending_data_responses: int  # ndrc_i
    pending_at_other_data_nodes: int  # nrc_ij
    expected_computed_elsewhere: int  # rc_ij
    compute_time: float  # tcc
    net_bandwidth: float  # netBw_i

    def __post_init__(self) -> None:
        if min(
            self.pending_local_computations,
            self.pending_data_requests,
            self.pending_compute_requests,
            self.pending_data_responses,
            self.pending_at_other_data_nodes,
            self.expected_computed_elsewhere,
        ) < 0:
            raise ValueError("queue statistics must be non-negative")
        if self.compute_time < 0:
            raise ValueError("compute_time must be non-negative")
        if self.net_bandwidth <= 0:
            raise ValueError("net_bandwidth must be positive")


@dataclass(frozen=True)
class DataNodeStats:
    """Local statistics at data node ``j`` (Appendix C, superscript d)."""

    pending_data_requests: int  # ndc_j
    pending_data_responses: int  # ndrd_j
    pending_compute_requests: int  # nrd_j
    to_compute_locally: int  # rd_j
    pending_from_this_compute_node: int  # nrd_ij
    to_compute_from_this_compute_node: int  # rd_ij
    compute_time: float  # tcd
    net_bandwidth: float  # netBw_j

    def __post_init__(self) -> None:
        if min(
            self.pending_data_requests,
            self.pending_data_responses,
            self.pending_compute_requests,
            self.to_compute_locally,
            self.pending_from_this_compute_node,
            self.to_compute_from_this_compute_node,
        ) < 0:
            raise ValueError("queue statistics must be non-negative")
        if self.compute_time < 0:
            raise ValueError("compute_time must be non-negative")
        if self.net_bandwidth <= 0:
            raise ValueError("net_bandwidth must be positive")


@dataclass(frozen=True)
class SizeProfile:
    """Average message sizes (Table 1): key, params, value, computed."""

    key_size: float = 8.0  # sk
    param_size: float = 0.0  # sp
    value_size: float = 0.0  # sv
    computed_size: float = 0.0  # scv

    def __post_init__(self) -> None:
        if min(self.key_size, self.param_size, self.value_size, self.computed_size) < 0:
            raise ValueError("sizes must be non-negative")


class LoadProfile:
    """The four Appendix C load curves for one batch decision."""

    def __init__(
        self,
        batch_size: int,
        comp: ComputeNodeStats,
        data: DataNodeStats,
        sizes: SizeProfile,
    ) -> None:
        if batch_size < 0:
            raise ValueError("batch_size must be non-negative")
        self.batch_size = batch_size
        self.comp = comp
        self.data = data
        self.sizes = sizes
        # Each curve's d-independent prefix, derived once per decision.
        # The terms are summed left to right in the curve methods' own
        # order, so completion_time's floats are bit-identical to theirs.
        back_elsewhere = max(
            comp.pending_at_other_data_nodes - comp.expected_computed_elsewhere, 0
        )
        back_from_j = max(
            data.pending_from_this_compute_node
            - data.to_compute_from_this_compute_node,
            0,
        )
        back_at_j = max(data.pending_compute_requests - data.to_compute_locally, 0)
        sk, sp, sv, scv = (
            sizes.key_size, sizes.param_size, sizes.value_size, sizes.computed_size
        )
        self._comp_cpu_items = (
            comp.pending_local_computations + back_elsewhere + back_from_j
        )
        self._comp_net_load = (
            comp.pending_data_requests * (sk + sv)
            + comp.pending_compute_requests * (sk + sp)
            + comp.pending_data_responses * sv
            + back_elsewhere * sv
            + comp.expected_computed_elsewhere * scv
            + back_from_j * sv
            + data.to_compute_from_this_compute_node * scv
        )
        self._data_net_load = (
            data.pending_data_requests * (sk + sv)
            + data.pending_data_responses * sv
            + data.pending_compute_requests * (sk + sp)
            + back_at_j * sv
            + data.to_compute_locally * scv
        )

    # -- CPU ------------------------------------------------------------
    def comp_cpu(self, d: float) -> float:
        """CPU seconds of work queued at the compute node if ``d`` stay."""
        c, b = self.comp, self.batch_size
        returned_elsewhere = (
            c.pending_at_other_data_nodes - c.expected_computed_elsewhere
        )
        returned_from_j = (
            self.data.pending_from_this_compute_node
            - self.data.to_compute_from_this_compute_node
        )
        items = (
            c.pending_local_computations
            + max(returned_elsewhere, 0)
            + max(returned_from_j, 0)
            + (b - d)
        )
        return c.compute_time * items

    def data_cpu(self, d: float) -> float:
        """CPU seconds of work queued at the data node if ``d`` stay."""
        return self.data.compute_time * (self.data.to_compute_locally + d)

    # -- network ----------------------------------------------------------
    def comp_net(self, d: float) -> float:
        """Network seconds at the compute node's NIC if ``d`` stay."""
        c, s, b = self.comp, self.sizes, self.batch_size
        uncomputed_elsewhere = max(
            c.pending_at_other_data_nodes - c.expected_computed_elsewhere, 0
        )
        uncomputed_from_j = max(
            self.data.pending_from_this_compute_node
            - self.data.to_compute_from_this_compute_node,
            0,
        )
        load = (
            c.pending_data_requests * (s.key_size + s.value_size)
            + c.pending_compute_requests * (s.key_size + s.param_size)
            + c.pending_data_responses * s.value_size
            + uncomputed_elsewhere * s.value_size
            + c.expected_computed_elsewhere * s.computed_size
            + uncomputed_from_j * s.value_size
            + self.data.to_compute_from_this_compute_node * s.computed_size
            + d * s.computed_size
            + (b - d) * s.value_size
        )
        return load / c.net_bandwidth

    def data_net(self, d: float) -> float:
        """Network seconds at the data node's NIC if ``d`` stay."""
        dn, s, b = self.data, self.sizes, self.batch_size
        uncomputed = max(dn.pending_compute_requests - dn.to_compute_locally, 0)
        load = (
            dn.pending_data_requests * (s.key_size + s.value_size)
            + dn.pending_data_responses * s.value_size
            + dn.pending_compute_requests * (s.key_size + s.param_size)
            + uncomputed * s.value_size
            + dn.to_compute_locally * s.computed_size
            + d * s.computed_size
            + (b - d) * s.value_size
        )
        return load / dn.net_bandwidth

    # -- objective ----------------------------------------------------
    def completion_time(self, d: float) -> float:
        """Estimated batch completion: the max of the four loads.

        CPU, disk and network proceed concurrently, so the bottleneck
        resource determines when the batch drains (Section 5).  Equal
        — bit for bit — to the max of the four curve methods, which stay
        as the readable specification; this form reuses the prefixes.
        """
        c, dn, s = self.comp, self.data, self.sizes
        rest = self.batch_size - d
        kept_bytes = d * s.computed_size
        back_bytes = rest * s.value_size
        return max(
            c.compute_time * (self._comp_cpu_items + rest),
            (self._comp_net_load + kept_bytes + back_bytes) / c.net_bandwidth,
            dn.compute_time * (dn.to_compute_locally + d),
            (self._data_net_load + kept_bytes + back_bytes) / dn.net_bandwidth,
        )


def exact_min_d(profile: LoadProfile) -> int:
    """Global integer minimizer of the completion time.

    The objective is convex in ``d`` (max of linear functions), so
    integer ternary search finds the global minimum in O(log b).
    """
    lo, hi = 0, profile.batch_size
    while hi - lo > 2:
        m1 = lo + (hi - lo) // 3
        m2 = hi - (hi - lo) // 3
        if profile.completion_time(m1) <= profile.completion_time(m2):
            hi = m2
        else:
            lo = m1
    candidates = range(lo, hi + 1)
    return min(candidates, key=profile.completion_time)


def gradient_descent_min_d(
    profile: LoadProfile,
    rng: np.random.Generator | None = None,
    max_iterations: int = 64,
) -> int:
    """The paper's gradient-descent heuristic for choosing ``d``.

    Starts from a random point in ``[0, b]`` (midpoint when no RNG is
    supplied, for determinism) and follows the decreasing slope with a
    halving step until no move improves.  Because the objective is
    convex this converges to the global optimum; the function exists as
    a faithful rendition of the paper's method and is validated against
    :func:`exact_min_d` in tests.
    """
    b = profile.batch_size
    if b == 0:
        return 0
    if rng is not None:
        d = int(rng.integers(0, b + 1))
    else:
        d = b // 2
    step = max(1, b // 4)
    best = profile.completion_time(d)
    iterations = 0
    while step >= 1 and iterations < max_iterations:
        iterations += 1
        moved = False
        for candidate in (d - step, d + step):
            if 0 <= candidate <= b:
                cost = profile.completion_time(candidate)
                if cost < best:
                    d, best = candidate, cost
                    moved = True
                    break
        if not moved:
            step //= 2
    return d


class BatchLoadBalancer:
    """Data-node side chooser of ``d`` for each arriving batch.

    Parameters
    ----------
    enabled:
        When False (the FD / CO configurations), every request in the
        batch is computed at the data node (``d = b``).
    use_exact:
        Use the exact convex minimizer instead of gradient descent
        (ablation knob; results should agree).
    rng:
        Seeded generator for the gradient-descent starting point.
    """

    def __init__(
        self,
        enabled: bool = True,
        use_exact: bool = False,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.enabled = enabled
        self.use_exact = use_exact
        self.rng = rng
        self._decisions = 0
        self._kept_total = 0
        self._batch_total = 0

    def choose(
        self,
        batch_size: int,
        comp: ComputeNodeStats,
        data: DataNodeStats,
        sizes: SizeProfile,
    ) -> int:
        """Number of requests from this batch to compute at the data node."""
        if batch_size == 0:
            return 0
        self._decisions += 1
        self._batch_total += batch_size
        if not self.enabled:
            self._kept_total += batch_size
            return batch_size
        profile = LoadProfile(batch_size, comp, data, sizes)
        if self.use_exact:
            d = exact_min_d(profile)
        else:
            d = gradient_descent_min_d(profile, rng=self.rng)
        self._kept_total += d
        return d

    @property
    def decisions(self) -> int:
        """Number of batches decided."""
        return self._decisions

    @property
    def mean_kept_fraction(self) -> float:
        """Average fraction of batched requests kept at the data node."""
        if self._batch_total == 0:
            return 0.0
        return self._kept_total / self._batch_total
