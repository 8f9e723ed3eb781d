"""Weighted LFU-DA benefit policy (Arlitt et al. [1], Appendix B).

LFU with Dynamic Aging assigns each item the benefit

    K_i = weight_i * F_i + L

where ``F_i`` is the item's access count, ``weight_i`` is an optional
per-item weight (the paper weights by value: we expose it so callers
can weight by per-access cost savings), and ``L`` is a global *age*
that is raised to the benefit of the last evicted item.  The aging term
prevents formerly hot items from squatting in the cache forever: new
items enter with at least the benefit of the most recent victim, so a
burst of fresh accesses can displace stale heavyweights — exactly the
"recent and frequent accesses are assigned more benefit" behaviour the
paper relies on for shifting heavy hitters in streams.
"""

from __future__ import annotations

from typing import Hashable


class LFUDAPolicy:
    """Tracks per-key LFU-DA benefits.

    Examples
    --------
    >>> policy = LFUDAPolicy()
    >>> policy.on_access("a")
    1.0
    >>> policy.on_access("a")
    2.0
    >>> policy.on_evict("a")      # raises the global age to a's benefit
    >>> policy.on_access("b")     # newcomer starts above the old victim
    3.0
    """

    def __init__(self) -> None:
        self._age = 0.0
        self._frequency: dict[Hashable, int] = {}
        self._benefit: dict[Hashable, float] = {}

    @property
    def age(self) -> float:
        """Current dynamic-aging floor ``L``."""
        return self._age

    def on_access(self, key: Hashable, weight: float = 1.0) -> float:
        """Record one access; returns the updated benefit.

        ``weight`` replaces the item's weight (it is a smoothed,
        per-item property, not accumulated per access).
        """
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight!r}")
        freq = self._frequency.get(key, 0) + 1
        self._frequency[key] = freq
        benefit = weight * freq + self._age
        self._benefit[key] = benefit
        return benefit

    def benefit(self, key: Hashable) -> float:
        """Current benefit of ``key`` (0 if never accessed)."""
        return self._benefit.get(key, 0.0)

    def on_evict(self, key: Hashable) -> None:
        """Raise the global age to the victim's benefit (LFU-DA rule).

        The victim's frequency history is dropped: if it returns it is
        treated as fresh, but thanks to the raised age it will not be
        penalized against incumbents.
        """
        benefit = self._benefit.pop(key, 0.0)
        self._frequency.pop(key, None)
        if benefit > self._age:
            self._age = benefit

    def forget(self, key: Hashable) -> None:
        """Drop a key without aging (e.g. invalidation on update)."""
        self._benefit.pop(key, None)
        self._frequency.pop(key, None)

    @property
    def tracked(self) -> int:
        """Number of keys with a recorded benefit."""
        return len(self._benefit)
