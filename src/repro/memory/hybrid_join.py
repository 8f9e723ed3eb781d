"""Spilling hybrid-hash local join with graceful degradation.

The build side is hash-partitioned; partitions live in memory while the
:class:`~repro.memory.budget.MemoryBudget` allows and **spill whole**
to a modeled disk tier when a reservation is refused (largest resident
partition first, the classic hybrid-hash victim rule).  Probes against
resident partitions answer immediately; probes against spilled
partitions are *deferred* and resolved later — by re-admitting the
partition when memory frees up, by **recursively repartitioning** it
under a fresh hash salt when it alone exceeds the budget, or — at the
recursion cap, or when one key's rows exceed memory by themselves — by
chunked block-nested-loop passes whose chunk floor is a single row
(reserved by overdraft), so the join *degrades* but never crashes and
never drops a tuple.

The structure is pure bookkeeping: it never touches the simulator.
Every byte moved to or from the disk tier is reported through the
``io_cost(nbytes, op)`` hook as seconds of disk service (callers price
it as ``seek + nbytes / bandwidth`` and charge the node's single disk
arm / the :class:`~repro.core.cost_model.CostModel`).
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

from repro.store.partitioner import stable_hash

#: ``io_cost(nbytes, op)`` where op is ``"spill"`` or ``"unspill"``.
IoCost = Callable[[float, str], float]


def _no_io(nbytes: float, op: str) -> float:
    return 0.0


class _Partition:
    """One build partition: fully resident XOR fully spilled."""

    __slots__ = ("rows", "bytes", "spilled_rows", "spilled_bytes",
                 "resident", "deferred", "child")

    def __init__(self) -> None:
        #: key -> [(value, size), ...] while resident.
        self.rows: dict[Hashable, list[tuple[Any, float]]] = {}
        self.bytes = 0.0
        #: [(key, value, size), ...] on the modeled disk tier.
        self.spilled_rows: list[tuple[Hashable, Any, float]] = []
        self.spilled_bytes = 0.0
        self.resident = True
        #: [(token, key), ...] probes waiting on the spilled rows.
        self.deferred: list[tuple[Any, Hashable]] = []
        #: Recursive sub-join after a repartition.
        self.child: "HybridHashJoin | None" = None

    def distinct_spilled_keys(self) -> int:
        return len({k for k, _, _ in self.spilled_rows})


class HybridHashJoin:
    """Memory-adaptive build/probe hash join charged to a budget."""

    def __init__(
        self,
        budget=None,
        n_partitions: int = 8,
        max_recursion: int = 3,
        owner: str = "join",
        salt: int = 0,
        depth: int = 0,
        io_cost: IoCost = _no_io,
    ) -> None:
        if n_partitions < 1:
            raise ValueError("n_partitions must be >= 1")
        self.budget = budget
        self.n_partitions = n_partitions
        self.max_recursion = max_recursion
        self.owner = owner
        self.salt = salt
        self.depth = depth
        self._io_cost = io_cost
        self._partitions = [_Partition() for _ in range(n_partitions)]
        self._reserved = 0.0
        self.spills = 0
        self.unspills = 0
        self.repartitions = 0
        self.spill_bytes = 0.0
        self.unspill_bytes = 0.0
        self.bnl_chunks = 0
        self.io_seconds = 0.0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _index(self, key: Hashable) -> int:
        if self.n_partitions == 1:
            return 0
        return stable_hash((self.salt, key)) % self.n_partitions

    def _io(self, nbytes: float, op: str) -> float:
        if nbytes <= 0:
            return 0.0
        seconds = self._io_cost(nbytes, op)
        self.io_seconds += seconds
        return seconds

    def _reserve(self, nbytes: float) -> bool:
        if self.budget is None:
            return True
        if self.budget.try_reserve(self.owner, nbytes):
            self._reserved += nbytes
            return True
        return False

    def _release(self, nbytes: float) -> None:
        if self.budget is not None and nbytes > 0:
            give = min(nbytes, self._reserved)
            self._reserved -= give
            self.budget.release(self.owner, give)

    def _spill_partition(self, p: _Partition) -> float:
        """Move one resident partition to the disk tier."""
        moved = p.bytes
        for key, pairs in p.rows.items():
            for value, size in pairs:
                p.spilled_rows.append((key, value, size))
        p.rows = {}
        p.spilled_bytes += moved
        p.bytes = 0.0
        p.resident = False
        self._release(moved)
        self.spills += 1
        self.spill_bytes += moved
        return self._io(moved, "spill")

    def _spill_until(self, need: float, exclude: _Partition | None = None) -> float:
        """Spill largest-first until ``need`` bytes fit (or nothing left)."""
        io = 0.0
        if self.budget is None:
            return io
        while self.budget.available() < need:
            victim: _Partition | None = None
            for p in self._partitions:
                if p is exclude or not p.resident or p.bytes <= 0:
                    continue
                if victim is None or p.bytes > victim.bytes:
                    victim = p
            if victim is None:
                break
            io += self._spill_partition(victim)
        return io

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def insert(self, key: Hashable, value: Any, size: float) -> float:
        """Add one build row; returns disk seconds incurred right now."""
        p = self._partitions[self._index(key)]
        if p.child is not None:
            return p.child.insert(key, value, size)
        io = 0.0
        if p.resident:
            ok = self._reserve(size)
            if not ok:
                io += self._spill_until(size, exclude=p)
                ok = self._reserve(size)
            if ok:
                if p.resident:
                    p.rows.setdefault(key, []).append((value, size))
                    p.bytes += size
                    return io
                # The partition was spilled out from under us while
                # making room; the row follows it to the disk tier.
                self._release(size)
        if p.resident:
            # The row cannot be admitted: demote the whole partition
            # (resident XOR spilled — a half-resident partition would
            # answer probes with false definitive misses).
            if p.bytes > 0:
                io += self._spill_partition(p)
            else:
                p.resident = False
        p.spilled_rows.append((key, value, size))
        p.spilled_bytes += size
        self.spill_bytes += size
        io += self._io(size, "spill")
        return io

    # ------------------------------------------------------------------
    # Probe
    # ------------------------------------------------------------------
    def probe(self, key: Hashable) -> tuple[str, list[Any]]:
        """Probe without side effects.

        Returns ``("hit", values)`` when the owning partition is
        resident (``values`` may be empty — a definitive miss), or
        ``("spilled", [])`` when the answer lives on the disk tier and
        needs :meth:`fetch_spilled` / :meth:`defer`.
        """
        p = self._partitions[self._index(key)]
        if p.child is not None:
            return p.child.probe(key)
        if p.resident:
            return "hit", [v for v, _ in p.rows.get(key, ())]
        return "spilled", []

    def fetch_spilled(self, key: Hashable) -> tuple[list[Any], float]:
        """Resolve one probe against a spilled partition *now*.

        Tries to re-admit the partition (spilling siblings if that
        makes room), then recursive repartitioning, then a one-pass
        scan of the spilled rows.  Returns ``(values, disk_seconds)``.
        """
        p = self._partitions[self._index(key)]
        return self._resolve_single(p, key)

    def lookup(self, key: Hashable) -> tuple[list[Any], float]:
        """Probe that must be answered immediately (point lookup)."""
        status, values = self.probe(key)
        if status == "hit":
            return values, 0.0
        return self.fetch_spilled(key)

    def _resolve_single(
        self, p: _Partition, key: Hashable
    ) -> tuple[list[Any], float]:
        if p.child is not None:
            status, values = p.child.probe(key)
            if status == "hit":
                return values, 0.0
            return p.child.fetch_spilled(key)
        if p.resident:
            return [v for v, _ in p.rows.get(key, ())], 0.0
        io = self._try_readmit(p)
        if p.resident:
            return [v for v, _ in p.rows.get(key, ())], io
        if self._can_repartition(p):
            io += self._repartition(p)
            values, more = self._resolve_single(p, key)
            return values, io + more
        # Degradation floor: one scan pass over the spilled rows.
        io += self._io(p.spilled_bytes, "unspill")
        self.bnl_chunks += 1
        return [v for k, v, _ in p.spilled_rows if k == key], io

    def _try_readmit(self, p: _Partition) -> float:
        """Bring a spilled partition back into memory if it fits."""
        if p.resident:
            return 0.0
        need = p.spilled_bytes
        ok = self._reserve(need)
        io = 0.0
        if not ok:
            io += self._spill_until(need, exclude=p)
            ok = self._reserve(need)
        if not ok:
            return io
        io += self._io(need, "unspill")
        self.unspills += 1
        self.unspill_bytes += need
        for key, value, size in p.spilled_rows:
            p.rows.setdefault(key, []).append((value, size))
        p.bytes = need
        p.spilled_rows = []
        p.spilled_bytes = 0.0
        p.resident = True
        return io

    def _can_repartition(self, p: _Partition) -> bool:
        return (
            self.depth < self.max_recursion
            and self.n_partitions > 1
            and p.distinct_spilled_keys() > 1
        )

    def _repartition(self, p: _Partition) -> float:
        """Split an oversized spilled partition under a fresh salt."""
        self.repartitions += 1
        io = self._io(p.spilled_bytes, "unspill")
        self.unspill_bytes += p.spilled_bytes
        child = HybridHashJoin(
            budget=self.budget,
            n_partitions=self.n_partitions,
            max_recursion=self.max_recursion,
            owner=self.owner,
            salt=self.salt + 1,
            depth=self.depth + 1,
            io_cost=self._io_cost,
        )
        for key, value, size in p.spilled_rows:
            io += child.insert(key, value, size)
        p.spilled_rows = []
        p.spilled_bytes = 0.0
        p.child = child
        # Probes already deferred on this partition follow the rows in.
        if p.deferred:
            deferred, p.deferred = p.deferred, []
            for token, key in deferred:
                child.defer(token, key)
        return io

    # ------------------------------------------------------------------
    # Deferred (batch) probes
    # ------------------------------------------------------------------
    def defer(self, token: Any, key: Hashable) -> None:
        """Queue a probe whose partition is spilled for the next drain."""
        p = self._partitions[self._index(key)]
        if p.child is not None:
            p.child.defer(token, key)
        else:
            p.deferred.append((token, key))

    def drain_deferred(self) -> tuple[list[tuple[Any, Hashable, list[Any]]], float]:
        """Resolve every deferred probe; never drops one.

        Returns ``(results, disk_seconds)`` where results holds one
        ``(token, key, values)`` triple per deferred probe, in partition
        order then defer order.
        """
        out: list[tuple[Any, Hashable, list[Any]]] = []
        io = 0.0
        for p in self._partitions:
            io += self._drain_partition(p, out)
        return out, io

    def _drain_partition(
        self, p: _Partition, out: list[tuple[Any, Hashable, list[Any]]]
    ) -> float:
        io = 0.0
        if p.child is not None:
            sub, sub_io = p.child.drain_deferred()
            out.extend(sub)
            return sub_io
        if not p.deferred:
            return io
        deferred, p.deferred = p.deferred, []
        io += self._try_readmit(p)
        if p.resident:
            for token, key in deferred:
                out.append((token, key, [v for v, _ in p.rows.get(key, ())]))
            return io
        if self._can_repartition(p):
            io += self._repartition(p)
            child = p.child
            assert child is not None
            for token, key in deferred:
                status, values = child.probe(key)
                if status == "hit":
                    out.append((token, key, values))
                else:
                    child.defer(token, key)
            sub, sub_io = child.drain_deferred()
            out.extend(sub)
            return io + sub_io
        # Chunked block-nested-loop bottom-out: stream the spilled rows
        # through whatever memory remains (floor: one row, by overdraft)
        # and scan every deferred probe against each chunk.
        matches: dict[int, list[Any]] = {i: [] for i in range(len(deferred))}
        rows = p.spilled_rows
        pos = 0
        budget = self.budget
        while pos < len(rows):
            chunk: dict[Hashable, list[Any]] = {}
            chunk_bytes = 0.0
            first = True
            while pos < len(rows):
                key, value, size = rows[pos]
                if first:
                    if budget is not None and not budget.try_reserve(
                        self.owner, size
                    ):
                        budget.force_reserve(self.owner, size)
                    reserved = size
                    first = False
                elif budget is not None and not budget.try_reserve(
                    self.owner, size
                ):
                    break
                else:
                    reserved += size
                chunk.setdefault(key, []).append(value)
                chunk_bytes += size
                pos += 1
            io += self._io(chunk_bytes, "unspill")
            self.unspill_bytes += chunk_bytes
            self.bnl_chunks += 1
            for i, (_token, key) in enumerate(deferred):
                found = chunk.get(key)
                if found:
                    matches[i].extend(found)
            if budget is not None:
                budget.release(self.owner, reserved)
        for i, (token, key) in enumerate(deferred):
            out.append((token, key, matches[i]))
        return io

    # ------------------------------------------------------------------
    # Lifecycle / pressure / metrics
    # ------------------------------------------------------------------
    def reclaim(self, need: float) -> float:
        """Budget-shrink reclaimer: spill residents until ``need`` freed."""
        freed = 0.0
        while freed < need:
            victim: _Partition | None = None
            for p in self._partitions:
                if p.resident and p.bytes > 0:
                    if victim is None or p.bytes > victim.bytes:
                        victim = p
            if victim is None:
                break
            freed += victim.bytes
            self._spill_partition(victim)
        for p in self._partitions:
            if p.child is not None and freed < need:
                freed += p.child.reclaim(need - freed)
        return freed

    def close(self) -> None:
        """Release every resident byte back to the budget."""
        for p in self._partitions:
            if p.child is not None:
                p.child.close()
            if p.resident and p.bytes > 0:
                self._release(p.bytes)
                p.rows = {}
                p.bytes = 0.0
        self._release(self._reserved)

    def resident_bytes(self) -> float:
        total = 0.0
        for p in self._partitions:
            total += p.bytes
            if p.child is not None:
                total += p.child.resident_bytes()
        return total

    def counters(self) -> dict[str, float]:
        totals = {
            "spills": float(self.spills),
            "unspills": float(self.unspills),
            "repartitions": float(self.repartitions),
            "spill_bytes": self.spill_bytes,
            "unspill_bytes": self.unspill_bytes,
            "bnl_chunks": float(self.bnl_chunks),
        }
        for p in self._partitions:
            if p.child is not None:
                for name, value in p.child.counters().items():
                    totals[name] = totals.get(name, 0.0) + value
        return totals


__all__ = ["HybridHashJoin"]
