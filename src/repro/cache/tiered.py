"""Composite memory + disk cache with benefit-driven placement.

Implements the paper's ``condCacheInMemory`` in both variants:

* **Algorithm 2** (uniform item sizes): evict the single minimum-benefit
  resident if the newcomer's benefit is strictly higher.
* **Algorithm 3** (variable item sizes): gather the least-benefit
  residents whose eviction would free enough space; admit the newcomer
  only if its benefit is at least their combined benefit, and retain
  the highest-benefit members of that preliminary list that still fit.

Evicted memory residents move to the disk tier (unless already there).
The disk tier is unbounded by default, matching the paper's assumption;
a byte limit may be set, in which case the lowest benefit-to-size ratio
entries are dropped entirely to make room (Appendix B note).

Probe mode — Algorithm 1 line 14 calls ``condCacheInMemory(k, phi,
itemSize)`` *before* the value has been fetched.  Here a positive
answer performs the evictions and **reserves** the space for the key,
so concurrent in-flight fetches cannot over-commit memory; the caller
completes the reservation with :meth:`TieredCache.fulfill` when the
value arrives (or :meth:`TieredCache.cancel_reservation` if it never
does, e.g. the row was updated meanwhile).
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import Any, Hashable

from repro.cache.benefit import LFUDAPolicy


class CacheTier(enum.Enum):
    """Where a cached item currently lives."""

    MEMORY = "memory"
    DISK = "disk"


@dataclass
class _Resident:
    """A cached item (or a reservation when ``value`` is None)."""

    value: Any
    size: float
    reserved: bool = False


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss/eviction counters for one cache instance."""

    memory_hits: int
    disk_hits: int
    misses: int
    mem_to_disk_evictions: int
    disk_evictions: int
    promotions: int


class TieredCache:
    """Memory + disk composite cache (Ehcache analog).

    Parameters
    ----------
    memory_bytes:
        Capacity of the memory tier.
    disk_bytes:
        Capacity of the disk tier; ``None`` (default) means unbounded,
        which is the paper's operating assumption.
    uniform:
        Select Algorithm 2 (True) or Algorithm 3 (False) admission.
    policy:
        Benefit policy; defaults to a fresh :class:`LFUDAPolicy`.
    drop_promoted_from_disk:
        If True, promoting an item from disk to memory removes the disk
        copy (saves disk space at the cost of a future write-back).
    """

    def __init__(
        self,
        memory_bytes: float,
        disk_bytes: float | None = None,
        uniform: bool = False,
        policy: LFUDAPolicy | None = None,
        drop_promoted_from_disk: bool = False,
        budget=None,
        budget_owner: str = "cache",
    ) -> None:
        if memory_bytes < 0:
            raise ValueError("memory_bytes must be non-negative")
        if disk_bytes is not None and disk_bytes < 0:
            raise ValueError("disk_bytes must be non-negative")
        self.memory_bytes = memory_bytes
        self.disk_bytes = disk_bytes
        self.uniform = uniform
        self.policy = policy if policy is not None else LFUDAPolicy()
        self.drop_promoted_from_disk = drop_promoted_from_disk
        # Optional per-node MemoryBudget arbiter; every memory-tier
        # admission charges it and every departure releases it.  With
        # budget=None (memory adaptation off) no code path below
        # consults it, so behavior is bit-identical to the unbudgeted
        # cache.
        self._budget = budget
        self._budget_owner = budget_owner
        self._budget_spills = 0
        if budget is not None:
            budget.add_reclaimer(budget_owner, self.reclaim)
        self._memory: dict[Hashable, _Resident] = {}
        self._disk: dict[Hashable, _Resident] = {}
        self._mem_used = 0.0
        self._disk_used = 0.0
        # Lazy min-heap over memory residents: (benefit, seq, key).
        self._mem_heap: list[tuple[float, int, Hashable]] = []
        self._seq = 0
        self._memory_hits = 0
        self._disk_hits = 0
        self._misses = 0
        self._mem_to_disk = 0
        self._disk_evictions = 0
        self._promotions = 0

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, key: Hashable) -> tuple[Any, CacheTier] | None:
        """Return ``(value, tier)`` for a hit, or None on a miss.

        Reservations (in-flight fetches) do not count as hits — the
        value is not yet available locally.
        """
        resident = self._memory.get(key)
        if resident is not None and not resident.reserved:
            self._memory_hits += 1
            return resident.value, CacheTier.MEMORY
        resident = self._disk.get(key)
        if resident is not None:
            self._disk_hits += 1
            return resident.value, CacheTier.DISK
        self._misses += 1
        return None

    def tier_of(self, key: Hashable) -> CacheTier | None:
        """Current tier of ``key`` (reservations count as MEMORY)."""
        if key in self._memory:
            return CacheTier.MEMORY
        if key in self._disk:
            return CacheTier.DISK
        return None

    def __contains__(self, key: Hashable) -> bool:
        return key in self._memory or key in self._disk

    # ------------------------------------------------------------------
    # Benefit maintenance (Algorithm 1, line 1)
    # ------------------------------------------------------------------
    def update_benefit(self, key: Hashable, weight: float = 1.0) -> float:
        """Record an access to ``key`` for benefit accounting."""
        benefit = self.policy.on_access(key, weight=weight)
        if key in self._memory:
            self._push_heap(key, benefit)
        return benefit

    def access_fast(
        self, key: Hashable, weight: float
    ) -> tuple[Any, CacheTier] | None:
        """Fused :meth:`update_benefit` + :meth:`lookup` (opt mode).

        One memory-dict probe serves both the residency check of the
        benefit push and the hit test; counters, heap pushes and the
        returned tier match the two separate calls exactly.  Callers
        guarantee ``weight > 0``.
        """
        policy = self.policy
        freq = policy._frequency.get(key, 0) + 1
        policy._frequency[key] = freq
        policy._weight[key] = weight
        benefit = weight * freq + policy._age
        policy._benefit[key] = benefit
        resident = self._memory.get(key)
        if resident is not None:
            self._push_heap(key, benefit)
            if not resident.reserved:
                self._memory_hits += 1
                return resident.value, CacheTier.MEMORY
        resident = self._disk.get(key)
        if resident is not None:
            self._disk_hits += 1
            return resident.value, CacheTier.DISK
        self._misses += 1
        return None

    # ------------------------------------------------------------------
    # Admission: condCacheInMemory (Algorithms 2 and 3)
    # ------------------------------------------------------------------
    def cond_cache_in_memory(
        self, key: Hashable, value: Any | None, size: float
    ) -> bool:
        """Decide (and perform) memory caching of ``key``.

        With ``value is None`` this is the probe form: a positive
        decision reserves the space; complete it with :meth:`fulfill`.
        Returns True when the item is (or will be) memory resident.
        """
        if size < 0:
            raise ValueError("size must be non-negative")
        if size > self.memory_bytes:
            return False
        existing = self._memory.get(key)
        if existing is not None:
            if value is not None and existing.reserved:
                self.fulfill(key, value)
            return True
        if self._mem_free() >= size:
            if self._budget is not None and not self._budget_reserve(key, size):
                return False
            self._admit(key, value, size)
            return True
        if self.uniform:
            admitted = self._admit_uniform(key, size)
        else:
            admitted = self._admit_variable(key, size)
        if admitted:
            if self._budget is not None and not self._budget_reserve(key, size):
                return False
            self._admit(key, value, size)
        return admitted

    def fulfill(self, key: Hashable, value: Any) -> None:
        """Complete a reservation made by the probe form."""
        resident = self._memory.get(key)
        if resident is None or not resident.reserved:
            raise KeyError(f"no reservation for key {key!r}")
        resident.value = value
        resident.reserved = False

    def cancel_reservation(self, key: Hashable) -> None:
        """Drop a reservation (e.g. the fetch was abandoned)."""
        resident = self._memory.get(key)
        if resident is not None and resident.reserved:
            del self._memory[key]
            self._mem_used -= resident.size
            if self._budget is not None:
                self._budget.release(self._budget_owner, resident.size)

    # ------------------------------------------------------------------
    # Disk tier
    # ------------------------------------------------------------------
    def add_to_disk(self, key: Hashable, value: Any, size: float) -> bool:
        """Insert directly into the disk tier (Algorithm 1, line 19 path).

        Returns False if a bounded disk tier cannot make room even
        after evicting lower benefit-to-size entries.
        """
        if key in self._disk:
            self._disk[key].value = value
            return True
        if self.disk_bytes is not None:
            if size > self.disk_bytes:
                return False
            if not self._make_disk_room(size, newcomer=key):
                return False
        self._disk[key] = _Resident(value=value, size=size)
        self._disk_used += size
        return True

    # ------------------------------------------------------------------
    # Invalidation (Section 4.2.3)
    # ------------------------------------------------------------------
    def invalidate(self, key: Hashable) -> bool:
        """Drop ``key`` from every tier (data-store update).

        Returns True if the key was present anywhere.  The benefit
        history is forgotten *without* aging — an invalidation is not
        an eviction decision.
        """
        found = False
        resident = self._memory.pop(key, None)
        if resident is not None:
            self._mem_used -= resident.size
            if self._budget is not None:
                self._budget.release(self._budget_owner, resident.size)
            found = True
        resident = self._disk.pop(key, None)
        if resident is not None:
            self._disk_used -= resident.size
            found = True
        if found:
            self.policy.forget(key)
        return found

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def memory_used(self) -> float:
        """Bytes currently committed in the memory tier."""
        return self._mem_used

    @property
    def disk_used(self) -> float:
        """Bytes currently stored in the disk tier."""
        return self._disk_used

    @property
    def memory_keys(self) -> set[Hashable]:
        """Keys resident (or reserved) in memory."""
        return set(self._memory)

    @property
    def disk_keys(self) -> set[Hashable]:
        """Keys resident on disk."""
        return set(self._disk)

    def stats(self) -> CacheStats:
        """Counter snapshot."""
        return CacheStats(
            memory_hits=self._memory_hits,
            disk_hits=self._disk_hits,
            misses=self._misses,
            mem_to_disk_evictions=self._mem_to_disk,
            disk_evictions=self._disk_evictions,
            promotions=self._promotions,
        )

    # ------------------------------------------------------------------
    # Memory-budget arbitration (repro.memory)
    # ------------------------------------------------------------------
    def _budget_reserve(self, key: Hashable, size: float) -> bool:
        """Charge an admission to the node budget, spilling to fit.

        Called only when a budget is wired.  A refusal evicts
        min-benefit residents to the disk tier (each eviction releases
        its bytes) until the newcomer fits or nothing is left to spill.
        """
        budget = self._budget
        while not budget.try_reserve(self._budget_owner, size):
            entry = self._pop_valid_min(exclude={key})
            if entry is None:
                return False
            _benefit, victim = entry
            self._budget_spills += 1
            self._evict_to_disk(victim)
        return True

    def reclaim(self, need: float) -> float:
        """Budget-shrink reclaimer: spill residents until ``need`` freed.

        Registered with the node budget at construction; memory
        pressure (the ``memory_pressure`` fault kind) lands here.
        """
        freed = 0.0
        while freed < need:
            entry = self._pop_valid_min()
            if entry is None:
                break
            _benefit, victim = entry
            freed += self._memory[victim].size
            self._budget_spills += 1
            self._evict_to_disk(victim)
        return freed

    @property
    def budget_spills(self) -> int:
        """Memory-tier evictions forced by the budget arbiter."""
        return self._budget_spills

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _mem_free(self) -> float:
        return self.memory_bytes - self._mem_used

    def _push_heap(self, key: Hashable, benefit: float) -> None:
        heapq.heappush(self._mem_heap, (benefit, self._seq, key))
        self._seq += 1

    def _admit(self, key: Hashable, value: Any | None, size: float) -> None:
        was_on_disk = key in self._disk
        self._memory[key] = _Resident(
            value=value, size=size, reserved=value is None
        )
        self._mem_used += size
        self._push_heap(key, self.policy.benefit(key))
        if was_on_disk:
            self._promotions += 1
            if self.drop_promoted_from_disk:
                dropped = self._disk.pop(key)
                self._disk_used -= dropped.size

    def _pop_valid_min(
        self, exclude: set[Hashable] | None = None
    ) -> tuple[float, Hashable] | None:
        """Pop the memory resident with the smallest current benefit.

        The heap is lazy: entries whose recorded benefit is stale (the
        key was accessed again, evicted, or invalidated) are discarded
        or refreshed on the way out.  ``exclude`` skips keys already
        collected by the caller — duplicate heap entries for one key
        are legal (each benefit update pushes a new entry).
        """
        while self._mem_heap:
            benefit, _seq, key = heapq.heappop(self._mem_heap)
            if exclude is not None and key in exclude:
                continue
            resident = self._memory.get(key)
            if resident is None:
                continue
            current = self.policy.benefit(key)
            if current != benefit:
                self._push_heap(key, current)
                continue
            return benefit, key
        return None

    def _admit_uniform(self, key: Hashable, size: float) -> bool:
        """Algorithm 2: displace the single min-benefit resident."""
        entry = self._pop_valid_min(exclude={key})
        if entry is None:
            return False
        min_benefit, victim = entry
        if self.policy.benefit(key) > min_benefit:
            self._evict_to_disk(victim)
            return self._mem_free() >= size
        self._push_heap(victim, min_benefit)
        return False

    def _admit_variable(self, key: Hashable, size: float) -> bool:
        """Algorithm 3: displace a least-benefit set, keep what fits."""
        prelim: list[tuple[float, Hashable]] = []
        collected: set[Hashable] = {key}
        freed = self._mem_free()
        while freed < size:
            entry = self._pop_valid_min(exclude=collected)
            if entry is None:
                break
            benefit, victim = entry
            prelim.append((benefit, victim))
            collected.add(victim)
            freed += self._memory[victim].size
        if freed < size:
            for benefit, victim in prelim:
                self._push_heap(victim, benefit)
            return False
        prelim_benefit = sum(benefit for benefit, _ in prelim)
        if self.policy.benefit(key) < prelim_benefit:
            for benefit, victim in prelim:
                self._push_heap(victim, benefit)
            return False
        # Keep the highest-benefit prelim members that still fit after
        # the newcomer is placed (paper: "pick items with the most
        # benefit that can be retained").
        spare = freed - size
        keep: list[tuple[float, Hashable]] = []
        for benefit, victim in sorted(prelim, key=lambda e: -e[0]):
            victim_size = self._memory[victim].size
            if victim_size <= spare:
                keep.append((benefit, victim))
                spare -= victim_size
        kept = {victim for _, victim in keep}
        for benefit, victim in prelim:
            if victim in kept:
                self._push_heap(victim, benefit)
            else:
                self._evict_to_disk(victim)
        return True

    def _evict_to_disk(self, key: Hashable) -> None:
        resident = self._memory.pop(key)
        self._mem_used -= resident.size
        if self._budget is not None:
            self._budget.release(self._budget_owner, resident.size)
        self._mem_to_disk += 1
        self.policy.on_evict(key)
        if resident.reserved:
            # A reservation has no value to spill; just release it.
            return
        if key not in self._disk:
            if self.disk_bytes is not None and not self._make_disk_room(
                resident.size, newcomer=key
            ):
                self._disk_evictions += 1
                return
            self._disk[key] = _Resident(value=resident.value, size=resident.size)
            self._disk_used += resident.size

    def _make_disk_room(self, size: float, newcomer: Hashable) -> bool:
        """Evict low benefit-per-byte disk entries until ``size`` fits."""
        assert self.disk_bytes is not None
        if self._disk_used + size <= self.disk_bytes:
            return True
        ranked = sorted(
            self._disk.items(),
            key=lambda item: self.policy.benefit(item[0]) / max(item[1].size, 1e-12),
        )
        for key, resident in ranked:
            if self._disk_used + size <= self.disk_bytes:
                break
            if key == newcomer:
                continue
            del self._disk[key]
            self._disk_used -= resident.size
            self._disk_evictions += 1
        return self._disk_used + size <= self.disk_bytes
