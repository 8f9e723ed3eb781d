"""Tests for the two-tier cache and condCacheInMemory (Algorithms 2-3)."""

import heapq
import math
from typing import Hashable

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache.tiered import CacheTier, TieredCache


def warm(cache: TieredCache, key, accesses: int, weight: float = 1.0) -> None:
    for _ in range(accesses):
        cache.update_benefit(key, weight=weight)


class TestLookup:
    def test_miss_then_memory_hit(self):
        cache = TieredCache(memory_bytes=100.0)
        assert cache.lookup("a") is None
        warm(cache, "a", 1)
        assert cache.cond_cache_in_memory("a", "VAL", 10.0)
        assert cache.lookup("a") == ("VAL", CacheTier.MEMORY)

    def test_disk_hit(self):
        cache = TieredCache(memory_bytes=100.0)
        cache.add_to_disk("d", "DISKVAL", 50.0)
        assert cache.lookup("d") == ("DISKVAL", CacheTier.DISK)

    def test_reservation_is_not_a_hit(self):
        cache = TieredCache(memory_bytes=100.0)
        warm(cache, "a", 1)
        assert cache.cond_cache_in_memory("a", None, 10.0)  # probe/reserve
        assert cache.lookup("a") is None
        cache.fulfill("a", "NOW")
        assert cache.lookup("a") == ("NOW", CacheTier.MEMORY)

    def test_stats_counters(self):
        cache = TieredCache(memory_bytes=100.0)
        cache.lookup("a")
        warm(cache, "a", 1)
        cache.cond_cache_in_memory("a", 1, 10.0)
        cache.lookup("a")
        cache.add_to_disk("b", 2, 10.0)
        cache.lookup("b")
        stats = cache.stats()
        assert stats.misses == 1
        assert stats.memory_hits == 1
        assert stats.disk_hits == 1


class TestAdmissionVariableSize:
    def test_admit_when_free_space(self):
        cache = TieredCache(memory_bytes=100.0)
        assert cache.cond_cache_in_memory("a", 1, 60.0)
        assert cache.memory_used == 60.0

    def test_reject_item_larger_than_memory(self):
        cache = TieredCache(memory_bytes=100.0)
        assert not cache.cond_cache_in_memory("huge", 1, 200.0)

    def test_evicts_lower_benefit_set(self):
        cache = TieredCache(memory_bytes=100.0)
        warm(cache, "cold1", 1)
        warm(cache, "cold2", 1)
        cache.cond_cache_in_memory("cold1", 1, 50.0)
        cache.cond_cache_in_memory("cold2", 2, 50.0)
        warm(cache, "hot", 10)
        assert cache.cond_cache_in_memory("hot", 3, 80.0)
        assert cache.tier_of("hot") is CacheTier.MEMORY
        # The evicted residents moved to disk.
        assert cache.tier_of("cold1") is CacheTier.DISK
        assert cache.tier_of("cold2") is CacheTier.DISK

    def test_rejects_newcomer_with_less_benefit_than_victims(self):
        cache = TieredCache(memory_bytes=100.0)
        warm(cache, "hot1", 10)
        warm(cache, "hot2", 10)
        cache.cond_cache_in_memory("hot1", 1, 50.0)
        cache.cond_cache_in_memory("hot2", 2, 50.0)
        warm(cache, "cold", 1)
        assert not cache.cond_cache_in_memory("cold", 3, 80.0)
        assert cache.tier_of("hot1") is CacheTier.MEMORY
        assert cache.tier_of("hot2") is CacheTier.MEMORY

    def test_keeps_highest_benefit_prelim_members_that_fit(self):
        """Algorithm 3: of the preliminary eviction set, retain the
        most beneficial items that still leave room for the newcomer."""
        cache = TieredCache(memory_bytes=100.0)
        warm(cache, "small-high", 5)
        warm(cache, "big-low", 1)
        cache.cond_cache_in_memory("big-low", 1, 70.0)
        cache.cond_cache_in_memory("small-high", 2, 20.0)
        warm(cache, "new", 30)
        assert cache.cond_cache_in_memory("new", 3, 60.0)
        # big-low must go (frees 70); small-high (20) fits beside new (60).
        assert cache.tier_of("new") is CacheTier.MEMORY
        assert cache.tier_of("small-high") is CacheTier.MEMORY
        assert cache.tier_of("big-low") is CacheTier.DISK

    def test_existing_resident_returns_true(self):
        cache = TieredCache(memory_bytes=100.0)
        cache.cond_cache_in_memory("a", 1, 10.0)
        assert cache.cond_cache_in_memory("a", 1, 10.0)
        assert cache.memory_used == 10.0  # not double-counted


class TestAdmissionUniform:
    def test_single_victim_displacement(self):
        cache = TieredCache(memory_bytes=20.0, uniform=True)
        warm(cache, "a", 1)
        warm(cache, "b", 1)
        cache.cond_cache_in_memory("a", 1, 10.0)
        cache.cond_cache_in_memory("b", 2, 10.0)
        warm(cache, "c", 5)
        assert cache.cond_cache_in_memory("c", 3, 10.0)
        assert cache.tier_of("c") is CacheTier.MEMORY

    def test_equal_benefit_not_displaced(self):
        """Algorithm 2 requires strictly greater benefit."""
        cache = TieredCache(memory_bytes=10.0, uniform=True)
        warm(cache, "a", 2)
        cache.cond_cache_in_memory("a", 1, 10.0)
        warm(cache, "b", 2)
        assert not cache.cond_cache_in_memory("b", 2, 10.0)


class TestReservations:
    def test_fulfill_requires_reservation(self):
        cache = TieredCache(memory_bytes=100.0)
        with pytest.raises(KeyError):
            cache.fulfill("nope", 1)

    def test_cancel_releases_space(self):
        cache = TieredCache(memory_bytes=100.0)
        cache.cond_cache_in_memory("a", None, 60.0)
        assert cache.memory_used == 60.0
        cache.cancel_reservation("a")
        assert cache.memory_used == 0.0

    def test_reservations_prevent_overcommit(self):
        cache = TieredCache(memory_bytes=100.0)
        warm(cache, "a", 5)
        assert cache.cond_cache_in_memory("a", None, 60.0)
        # A lower-benefit newcomer cannot displace the reservation, so
        # committed bytes stay within capacity.
        warm(cache, "b", 1)
        assert not cache.cond_cache_in_memory("b", None, 60.0)
        assert cache.memory_used <= 100.0


class TestDiskTier:
    def test_unbounded_by_default(self):
        cache = TieredCache(memory_bytes=10.0)
        for i in range(50):
            assert cache.add_to_disk(f"k{i}", i, 1e9)
        assert cache.disk_used == 50e9

    def test_bounded_disk_evicts_low_benefit_per_byte(self):
        cache = TieredCache(memory_bytes=10.0, disk_bytes=100.0)
        warm(cache, "keepme", 10)
        cache.add_to_disk("keepme", 1, 40.0)
        warm(cache, "victim", 1)
        cache.add_to_disk("victim", 2, 60.0)
        warm(cache, "new", 5)
        assert cache.add_to_disk("new", 3, 60.0)
        assert "victim" not in cache.disk_keys
        assert "keepme" in cache.disk_keys

    def test_item_too_big_for_disk(self):
        cache = TieredCache(memory_bytes=10.0, disk_bytes=50.0)
        assert not cache.add_to_disk("big", 1, 100.0)


class TestInvalidation:
    def test_invalidate_removes_from_both_tiers(self):
        cache = TieredCache(memory_bytes=100.0)
        cache.cond_cache_in_memory("m", 1, 10.0)
        cache.add_to_disk("d", 2, 10.0)
        assert cache.invalidate("m")
        assert cache.invalidate("d")
        assert not cache.invalidate("missing")
        assert cache.lookup("m") is None
        assert cache.memory_used == 0.0
        assert cache.disk_used == 0.0


class TestPromotion:
    def test_disk_item_promotes_to_memory(self):
        cache = TieredCache(memory_bytes=100.0)
        cache.add_to_disk("d", "V", 10.0)
        warm(cache, "d", 3)
        assert cache.cond_cache_in_memory("d", "V", 10.0)
        assert cache.tier_of("d") is CacheTier.MEMORY
        assert cache.stats().promotions == 1
        # Disk copy retained by default (write-back avoided).
        assert "d" in cache.disk_keys

    def test_drop_promoted_from_disk_option(self):
        cache = TieredCache(memory_bytes=100.0, drop_promoted_from_disk=True)
        cache.add_to_disk("d", "V", 10.0)
        cache.cond_cache_in_memory("d", "V", 10.0)
        assert "d" not in cache.disk_keys


@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=8),  # key
            st.floats(min_value=1.0, max_value=40.0),  # size
            st.integers(min_value=1, max_value=5),  # accesses before admit
        ),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=60, deadline=None)
def test_property_memory_never_overcommitted(ops):
    """Whatever the access/admission pattern, committed bytes never
    exceed the configured capacity and accounting stays consistent."""
    cache = TieredCache(memory_bytes=100.0)
    sizes: dict[int, float] = {}
    for key, size, accesses in ops:
        size = sizes.setdefault(key, size)
        for _ in range(accesses):
            cache.update_benefit(key)
        cache.lookup(key)
        cache.cond_cache_in_memory(key, f"v{key}", size)
        assert cache.memory_used <= 100.0 + 1e-9
    expected = sum(sizes[k] for k in cache.memory_keys)
    assert cache.memory_used == pytest.approx(expected)


# ----------------------------------------------------------------------
# Lazy-deletion invariants.  The memory heap is lazy: entries of keys
# that left the memory tier stay behind and are skipped when popped.
# These properties pin down that a live resident always keeps an entry
# and that eviction still follows benefit under heavy churn.
# ----------------------------------------------------------------------
_OP = st.tuples(
    st.integers(min_value=0, max_value=5),  # op code
    st.integers(min_value=0, max_value=10),  # key
    st.floats(min_value=1.0, max_value=35.0),  # size
    st.floats(min_value=0.25, max_value=8.0),  # benefit weight
)


def _make_cache() -> TieredCache:
    return TieredCache(memory_bytes=100.0, disk_bytes=300.0)


def _drive(cache: TieredCache, ops, sizes):
    """Apply one op trace."""
    for op, key, size, weight in ops:
        size = sizes.setdefault(key, size)
        if op == 0:
            cache.update_benefit(key, weight=weight)
        elif op == 1:
            cache.lookup(key)
        elif op == 2:
            cache.update_benefit(key, weight=weight)
            cache.cond_cache_in_memory(key, f"v{key}", size)
        elif op == 3:
            cache.update_benefit(key, weight=weight)
            already = key in cache.memory_keys
            if cache.cond_cache_in_memory(key, None, size) and not already:
                cache.fulfill(key, f"f{key}")
        elif op == 4:
            cache.add_to_disk(key, f"d{key}", size)
        else:
            cache.invalidate(key)


@given(ops=st.lists(_OP, min_size=1, max_size=150))
@settings(max_examples=60, deadline=None)
def test_property_lazy_deletion_never_drops_live_entries(ops):
    """Internal accounting under churn: occupancy stays within
    capacity and every memory resident keeps a heap entry."""
    cache = _make_cache()
    sizes: dict[int, float] = {}
    for i in range(0, len(ops), 10):
        _drive(cache, ops[i : i + 10], sizes)
        assert cache.memory_used <= 100.0 + 1e-9
        heap_keys = {entry[2] for entry in cache._mem_heap}
        assert cache.memory_keys <= heap_keys
        expected = sum(sizes[k] for k in cache.memory_keys)
        assert cache.memory_used == pytest.approx(expected)


def test_benefit_ordering_survives_compaction_churn():
    """After heavy churn leaves the heap full of dead entries, eviction
    order still follows benefit: the highest-benefit resident is never
    the victim of a smaller newcomer."""
    cache = _make_cache()
    # Heavy churn: admit/invalidate far more keys than fit.
    for round_no in range(6):
        for key in range(60):
            cache.update_benefit(key, weight=1.0 + (key % 9))
            cache.cond_cache_in_memory(key, f"v{key}", 10.0)
            if key % 3 == 0:
                cache.invalidate(key)
    # Install a clearly-highest-benefit resident.
    cache.invalidate("vip")
    for _ in range(200):
        cache.update_benefit("vip", weight=10.0)
    assert cache.cond_cache_in_memory("vip", "VIP", 10.0)
    # A long parade of low-benefit newcomers must not displace it.
    for key in range(1000, 1040):
        cache.update_benefit(key, weight=0.5)
        cache.cond_cache_in_memory(key, f"v{key}", 10.0)
    assert cache.lookup("vip") == ("VIP", CacheTier.MEMORY)


# ----------------------------------------------------------------------
# Algorithm 3's single-victim path against the general algorithm.  The
# twin keeps the general loop verbatim; the single-victim path must
# push the same heap entries in the same order, so every heap ``seq``
# tie-break, tier and counter stays the same.
# ----------------------------------------------------------------------
class _GeneralAlgorithm3(TieredCache):
    """:class:`TieredCache` with the general Algorithm 3 loop only."""

    def _admit_variable(self, key: Hashable, size: float) -> bool:
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


_TWIN_OP = st.tuples(
    # op code; 5 gives an unseen key a size one ulp above free memory,
    # where Algorithm 3's keep test can go either way on rounding
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=9),  # key
    st.floats(min_value=1.0, max_value=60.0),  # size (first use of the key)
    st.floats(min_value=0.25, max_value=8.0),  # benefit weight
)


def _twin_step(cache: TieredCache, op: int, key: int, size: float,
               weight: float):
    """One access / admission / invalidation step; returns its answer."""
    if op == 0:
        return cache.access_fast(key, weight)
    if op == 1:
        return cache.lookup(key)
    if op in (2, 5):
        cache.update_benefit(key, weight=weight)
        return cache.cond_cache_in_memory(key, f"v{key}", size)
    if op == 3:
        cache.update_benefit(key, weight=weight)
        already = key in cache.memory_keys
        admitted = cache.cond_cache_in_memory(key, None, size)
        if admitted and not already:
            cache.fulfill(key, f"f{key}")
        return admitted
    return cache.invalidate(key)


@given(ops=st.lists(_TWIN_OP, min_size=1, max_size=120))
# Memory free is 31.0 and the newcomer one ulp larger: the lone victim
# (60 bytes) is kept, because ``91.0 - 31.000000000000004`` rounds to 60.
@example(ops=[(2, 0, 9.0, 4.0), (2, 1, 60.0, 1.0),
              (2, 2, math.nextafter(31.0, math.inf), 2.0)])
# The lone victim frees exactly the newcomer's size: it is evicted.
@example(ops=[(2, 0, 40.0, 4.0), (2, 1, 20.0, 1.0), (2, 2, 60.0, 2.0)])
# A newcomer with less benefit than the lone victim is rejected.
@example(ops=[(2, 0, 50.0, 4.0), (2, 1, 40.0, 3.0), (2, 2, 20.0, 1.0)])
@settings(max_examples=100, deadline=None)
def test_property_single_victim_path_matches_the_general_algorithm(ops):
    """Every step leaves both caches with the same heap (benefit, seq,
    key), sequence counter, tier key sets, memory use and counters."""
    fast = TieredCache(memory_bytes=100.0, disk_bytes=300.0)
    general = _GeneralAlgorithm3(memory_bytes=100.0, disk_bytes=300.0)
    sizes: dict[int, float] = {}
    for op, key, size, weight in ops:
        if op == 5:
            free = max(fast.memory_bytes - fast.memory_used, 0.0)
            size = math.nextafter(free, 100.0)
        size = sizes.setdefault(key, size)
        answer = _twin_step(fast, op, key, size, weight)
        assert answer == _twin_step(general, op, key, size, weight)
        assert fast._mem_heap == general._mem_heap
        assert fast._seq == general._seq
        assert fast.memory_keys == general.memory_keys
        assert fast.disk_keys == general.disk_keys
        assert fast.memory_used == general.memory_used
        assert fast.stats() == general.stats()


# ----------------------------------------------------------------------
# One live heap entry per resident against an eager heap.  The eager
# reference pushes on every benefit change of a resident, validates
# entries by ``seq`` and never compacts; the cache pushes only when a
# benefit falls, re-queues lagging entries when popped and compacts.
# Both must pick the same victims, so every answer, tier, counter and
# ``seq`` matches.
# ----------------------------------------------------------------------
class _EagerHeap(TieredCache):
    """:class:`TieredCache` with a push on every benefit change."""

    def update_benefit(self, key, weight=1.0):
        benefit = self.policy.on_access(key, weight=weight)
        if key in self._memory:
            self._push_heap(key, benefit)
        return benefit

    def access_fast(self, key, weight):
        self.update_benefit(key, weight=weight)
        return self.lookup(key)

    def _compact(self):
        pass

    def _pop_valid_min(self, exclude=None):
        while self._mem_heap:
            benefit, seq, key = heapq.heappop(self._mem_heap)
            if exclude is not None and key in exclude:
                continue
            resident = self._memory.get(key)
            if resident is not None and resident.seq == seq:
                return benefit, key
        return None


def _assert_one_live_entry(cache: TieredCache) -> None:
    """The heap stays bounded, and every resident's live entry is in it
    with a benefit that never exceeds the key's."""
    heap = cache._mem_heap
    assert len(heap) <= 2 * len(cache._memory) + 64
    in_heap = {id(entry) for entry in heap}
    for key, resident in cache._memory.items():
        assert id(resident.entry) in in_heap
        assert resident.entry[0] <= cache.policy.benefit(key)


_LIVE_OP = st.tuples(
    st.integers(min_value=0, max_value=8),  # op code
    st.integers(min_value=0, max_value=9),  # key
    st.floats(min_value=1.0, max_value=60.0),  # size (first use of the key)
    st.floats(min_value=0.25, max_value=8.0),  # benefit weight
)


def _live_step(cache: TieredCache, weights: dict[int, float], op: int,
               key: int, size: float, weight: float):
    """One hit / admission / reservation / weight decrease /
    invalidation / reclaim step; returns its answer.  ``weights`` is
    this cache's record of the last weight each key was given."""
    if op <= 4:
        weights[key] = weight
    if op == 0:
        return cache.access_fast(key, weight)
    if op == 1:
        cache.update_benefit(key, weight=weight)
        return cache.lookup(key)
    if op == 2:
        cache.update_benefit(key, weight=weight)
        return cache.cond_cache_in_memory(key, f"v{key}", size)
    if op in (3, 4):
        cache.update_benefit(key, weight=weight)
        already = key in cache.memory_keys
        admitted = cache.cond_cache_in_memory(key, None, size)
        if op == 3 and admitted and not already:
            cache.fulfill(key, f"f{key}")
        return admitted
    if op == 5:
        return cache.cancel_reservation(key)
    if op == 6:
        # Eight hits on one resident, its weight cut each time.
        residents = sorted(cache.memory_keys)
        if not residents:
            return None
        target = residents[key % len(residents)]
        answers = []
        for _ in range(8):
            cut = weights[target] = weights.get(target, 1.0) * weight / 8.5
            answers.append(cache.access_fast(target, cut))
        return answers
    if op == 7:
        return cache.invalidate(key)
    return cache.reclaim(size)


#: 69 hits with a falling benefit on the one high-benefit resident leave
#: the heap at exactly ``2 × 5 + 64`` entries.  Admitting key 5 (55
#: bytes) then pops keys 0-3, evicts 0 and 1, and compacts on key 2's
#: re-push while key 3, popped but not yet evicted, still points at its
#: popped entry.
_COMPACTION_IN_ALGORITHM_3 = (
    [(2, 0, 10.0, 1.0), (2, 1, 10.0, 2.0), (2, 2, 10.0, 3.0),
     (2, 3, 40.0, 4.0), (2, 4, 30.0, 100.0)]
    + [(0, 4, 30.0, (100.0 - n) / n) for n in range(2, 71)]
    + [(2, 5, 55.0, 20.0)]
)

#: 67 hits with a falling benefit on key 1 overflow ``2 × 2 + 64`` and
#: compact on the push; 66 more fill the heap to the bound again, and
#: invalidating key 0 lowers the bound under it: compact on removal.
_COMPACTION_ON_PUSH_AND_REMOVAL = (
    [(2, 0, 10.0, 1.0), (2, 1, 10.0, 200.0)]
    + [(0, 1, 10.0, (200.0 - n) / n) for n in range(2, 135)]
    + [(7, 0, 10.0, 1.0)]
)


@given(ops=st.lists(_LIVE_OP, min_size=1, max_size=150))
# A rising benefit pushes nothing: key 0's entry lags at 1.0 while its
# benefit is 2.0, so the pop re-queues it and key 1 (1.0) is rejected.
@example(ops=[(2, 0, 47.0, 1.0), (0, 0, 1.0, 1.0), (2, 1, 54.0, 1.0)])
# A weight decrease drops key 0 below key 1: key 0 is the victim.
@example(ops=[(2, 0, 40.0, 4.0), (2, 1, 40.0, 1.0), (0, 0, 40.0, 0.25),
              (2, 2, 40.0, 2.0)])
@example(ops=_COMPACTION_IN_ALGORITHM_3)
@example(ops=_COMPACTION_ON_PUSH_AND_REMOVAL)
@settings(max_examples=100, deadline=None)
def test_property_one_live_entry_matches_an_eager_heap(ops):
    """Every step leaves both caches with the same answers, tiers,
    memory use, counters, ``seq`` stamps and sequence counter, and the
    cache's heap within its bound."""
    lazy = TieredCache(memory_bytes=100.0, disk_bytes=300.0)
    eager = _EagerHeap(memory_bytes=100.0, disk_bytes=300.0)
    sizes: dict[int, float] = {}
    lazy_weights: dict[int, float] = {}
    eager_weights: dict[int, float] = {}
    for op, key, size, weight in ops:
        size = sizes.setdefault(key, size)
        answer = _live_step(lazy, lazy_weights, op, key, size, weight)
        assert answer == _live_step(eager, eager_weights, op, key, size, weight)
        assert lazy.memory_keys == eager.memory_keys
        assert lazy.disk_keys == eager.disk_keys
        assert lazy.memory_used == eager.memory_used
        assert lazy.stats() == eager.stats()
        assert lazy._seq == eager._seq
        assert {k: r.seq for k, r in lazy._memory.items()} == {
            k: r.seq for k, r in eager._memory.items()
        }
        _assert_one_live_entry(lazy)
