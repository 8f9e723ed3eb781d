"""CSAW [12] and FlowJoinLB [23] reduce-side skew mitigation.

Both baselines precompute statistics over the whole input (the paper
grants them this for free — "we precompute statistics and cost
estimates ahead of time ... and do not include the time taken") and
then choose, per key, between

* **replication** — the key's stored model is copied to every reducer
  and its tuples are routed randomly (spreading a heavy hitter), or
* **placement** — all the key's tuples go to one reducer.

They differ in the signal:

* **FlowJoinLB** uses *frequency only*: keys whose tuple count exceeds
  ``threshold x (total / n_reducers)`` are heavy hitters (the
  DeWitt et al. broadcast/hash scheme with exact counts — a lower
  bound on FlowJoin's sampled histograms).  Light keys hash.
* **CSAW** uses *frequency x per-tuple UDF cost* (entity-annotation
  models differ wildly in classification cost), replicating keys whose
  total work exceeds the same fraction of total work, and assigns the
  remaining keys to reducers by greedy least-loaded bin packing of
  their work — strictly stronger than hashing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from repro.store.partitioner import stable_hash


@dataclass(frozen=True)
class KeyStatistics:
    """Precomputed per-key statistics for the baselines."""

    frequencies: dict[Hashable, int]
    costs: dict[Hashable, float] = field(default_factory=dict)

    @classmethod
    def from_stream(
        cls, keys: list[Hashable], costs: dict[Hashable, float] | None = None
    ) -> "KeyStatistics":
        """Count exact frequencies over the full input stream."""
        frequencies: dict[Hashable, int] = {}
        for key in keys:
            frequencies[key] = frequencies.get(key, 0) + 1
        return cls(frequencies=frequencies, costs=dict(costs or {}))

    def work(self, key: Hashable) -> float:
        """Total UDF work for a key: frequency x per-tuple cost."""
        return self.frequencies.get(key, 0) * self.costs.get(key, 1.0)

    @property
    def total_tuples(self) -> int:
        return sum(self.frequencies.values())

    @property
    def total_work(self) -> float:
        return sum(self.work(k) for k in self.frequencies)


class FlowJoinLBPartitioner:
    """Frequency-threshold heavy-hitter replication (lower-bound FlowJoin).

    Parameters
    ----------
    stats:
        Exact key frequencies for the whole input.
    n_reducers:
        Number of reduce partitions.
    threshold:
        A key is heavy when its frequency exceeds
        ``threshold * total / n_reducers`` — the "somewhat arbitrary
        threshold" the paper contrasts ski-rental against.
    seed:
        Seed for the random routing of replicated keys.
    """

    def __init__(
        self,
        stats: KeyStatistics,
        n_reducers: int,
        threshold: float = 0.5,
        seed: int = 0,
    ) -> None:
        if n_reducers < 1:
            raise ValueError("n_reducers must be >= 1")
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self._rng = np.random.default_rng(seed)
        cutoff = threshold * stats.total_tuples / n_reducers
        self.replicated: set[Hashable] = {
            key for key, freq in stats.frequencies.items() if freq > cutoff
        }

    def is_replicated(self, key: Hashable) -> bool:
        """Whether this key's model is copied to every reducer."""
        return key in self.replicated

    def partition(self, key: Hashable, n_reducers: int) -> int:
        if key in self.replicated:
            return int(self._rng.integers(0, n_reducers))
        return stable_hash(key) % n_reducers


class CSAWPartitioner:
    """Frequency x cost aware partitioning/replication (Gupta et al.).

    Heavy keys (total work above ``threshold * total_work /
    n_reducers``) are replicated and routed randomly.  Light keys are
    assigned whole to the least-loaded reducer in decreasing-work order
    (greedy makespan scheduling), which is the "partitioning performed
    accordingly" of Section 2.1.
    """

    def __init__(
        self,
        stats: KeyStatistics,
        n_reducers: int,
        threshold: float = 0.5,
        seed: int = 0,
    ) -> None:
        if n_reducers < 1:
            raise ValueError("n_reducers must be >= 1")
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self._rng = np.random.default_rng(seed)
        cutoff = threshold * stats.total_work / n_reducers
        self.replicated: set[Hashable] = {
            key for key in stats.frequencies if stats.work(key) > cutoff
        }
        # Greedy least-loaded placement of the remaining keys.
        loads = [0.0] * n_reducers
        self._assignment: dict[Hashable, int] = {}
        light = sorted(
            (k for k in stats.frequencies if k not in self.replicated),
            key=lambda k: -stats.work(k),
        )
        for key in light:
            target = min(range(n_reducers), key=loads.__getitem__)
            self._assignment[key] = target
            loads[target] += stats.work(key)

    def is_replicated(self, key: Hashable) -> bool:
        """Whether this key's model is copied to every reducer."""
        return key in self.replicated

    def partition(self, key: Hashable, n_reducers: int) -> int:
        if key in self.replicated:
            return int(self._rng.integers(0, n_reducers))
        assigned = self._assignment.get(key)
        if assigned is not None:
            return assigned
        # Key unseen in the statistics (e.g. streamed later): hash.
        return stable_hash(key) % n_reducers
