"""Tenants: key distributions, request-size mixes, SLOs, and the mix.

A :class:`TenantSpec` describes one tenant of the shared store: its
arrival process (:mod:`repro.tenancy.traffic`), its Zipf skew over a
private *slice* of the shared key universe (reusing the
``repro.workloads.zipf`` samplers), a request-size mix (one logical
request fans out into 1..k join tuples), an admission weight/quota, and
an :class:`SLO` — a latency deadline plus the fraction of requests that
must meet it.

:meth:`TenantMix.trace` materializes the whole mix into one
:class:`TrafficTrace` — a merged, time-sorted sequence of per-tuple
``(arrival, tenant, key)`` plus rolling data-update events — that any
backend can replay.  Everything is seeded through
:func:`repro.sim.rng.make_rng` with per-tenant labels, so adding a
tenant never perturbs the streams of existing ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.resilience.admission import TenantShare
from repro.sim.rng import derive_seed, make_rng
from repro.tenancy.traffic import ArrivalProcess, UpdateWave
from repro.workloads.zipf import sliced_zipf_keys


@dataclass(frozen=True)
class SLO:
    """A latency service-level objective.

    ``deadline`` is the arrival-to-completion budget in seconds;
    ``target`` is the fraction of requests that must finish inside it
    (attainment).  A tenant *meets* its SLO when attainment >= target.
    """

    deadline: float
    target: float = 0.95

    def __post_init__(self) -> None:
        if self.deadline <= 0:
            raise ValueError("deadline must be positive")
        if not 0.0 < self.target <= 1.0:
            raise ValueError("target must be in (0, 1]")

    def met(self, attainment: float) -> bool:
        return attainment >= self.target


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's workload shape and service contract."""

    name: str
    arrivals: ArrivalProcess
    #: Zipf exponent inside the tenant's keyspace slice.
    skew: float = 0.8
    #: ``[key_lo, key_hi)`` slice of the shared key universe; ``None``
    #: spans the whole universe.
    keyspace: tuple[int, int] | None = None
    #: Weighted-fair admission weight (relative share under contention).
    weight: float = 1.0
    #: Hard in-flight quota per data node (``None`` = no ceiling).
    quota: int | None = None
    slo: SLO = field(default_factory=lambda: SLO(deadline=0.5))
    #: Request-size mix: ``(probability_weight, tuples_per_request)``
    #: pairs; each arrival draws a size and fans into that many join
    #: tuples at the same instant.
    size_mix: tuple[tuple[float, int], ...] = ((1.0, 1),)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if self.quota is not None and self.quota < 1:
            raise ValueError("quota must be >= 1")
        if self.skew < 0:
            raise ValueError("skew must be non-negative")
        if self.keyspace is not None:
            lo, hi = self.keyspace
            if lo < 0 or hi <= lo:
                raise ValueError("keyspace must satisfy 0 <= lo < hi")
        if not self.size_mix:
            raise ValueError("size_mix must be non-empty")
        for probability, size in self.size_mix:
            if probability <= 0 or size < 1:
                raise ValueError(
                    "size_mix entries need probability > 0 and size >= 1"
                )

    def share(self) -> TenantShare:
        """The tenant's admission share; shed deadline = SLO deadline
        (work that already missed its SLO should stop loading the hot
        server and take the cheap route instead)."""
        return TenantShare(
            weight=self.weight, quota=self.quota, deadline=self.slo.deadline
        )


@dataclass(frozen=True)
class TrafficTrace:
    """A materialized multi-tenant trace, one entry per join tuple.

    ``arrivals`` is non-decreasing; ``tenants[i]`` / ``keys[i]`` give
    tuple ``i``'s owner and join key.  ``updates`` are the rolling
    data-store rewrites, ready for ``JoinJob.run_trace(updates=)``.
    """

    arrivals: tuple[float, ...]
    tenants: tuple[str, ...]
    keys: tuple[int, ...]
    updates: tuple[tuple[float, int, str], ...]
    n_keys: int
    horizon: float
    seed: int

    def __len__(self) -> int:
        return len(self.arrivals)

    def tenant_of(self, tuple_id: int) -> str:
        """``tuple_id -> tenant`` (the fair-admission charging map)."""
        return self.tenants[tuple_id]

    def tenant_ids(self, tenant: str) -> list[int]:
        return [i for i, t in enumerate(self.tenants) if t == tenant]

    def offered_load(self) -> dict[str, int]:
        """Tuples per tenant over the horizon."""
        counts: dict[str, int] = {}
        for tenant in self.tenants:
            counts[tenant] = counts.get(tenant, 0) + 1
        return counts


@dataclass(frozen=True)
class TenantMix:
    """A set of tenants sharing one key universe (and one cluster)."""

    tenants: tuple[TenantSpec, ...]
    #: Size of the shared key universe.
    n_keys: int = 4096
    #: Rolling data-update waves applied to the shared store mid-run.
    updates: tuple[UpdateWave, ...] = ()

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError("need at least one tenant")
        if self.n_keys < 1:
            raise ValueError("n_keys must be >= 1")
        names = [spec.name for spec in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError("tenant names must be unique")
        for spec in self.tenants:
            if spec.keyspace is not None and spec.keyspace[1] > self.n_keys:
                raise ValueError(
                    f"tenant {spec.name!r} keyspace exceeds the universe"
                )

    def spec(self, name: str) -> TenantSpec:
        for candidate in self.tenants:
            if candidate.name == name:
                return candidate
        raise KeyError(name)

    def shares(self) -> dict[str, TenantShare]:
        """Per-tenant admission shares for ``WeightedFairAdmission``."""
        return {spec.name: spec.share() for spec in self.tenants}

    def slos(self) -> dict[str, SLO]:
        return {spec.name: spec.slo for spec in self.tenants}

    @classmethod
    def even_split(
        cls,
        specs: tuple[TenantSpec, ...],
        n_keys: int = 4096,
        updates: tuple[UpdateWave, ...] = (),
    ) -> "TenantMix":
        """Assign each tenant an equal contiguous keyspace slice."""
        width = n_keys // len(specs)
        if width < 1:
            raise ValueError("n_keys too small for the tenant count")
        sliced = []
        for index, spec in enumerate(specs):
            lo = index * width
            hi = n_keys if index == len(specs) - 1 else lo + width
            sliced.append(
                TenantSpec(
                    name=spec.name,
                    arrivals=spec.arrivals,
                    skew=spec.skew,
                    keyspace=(lo, hi),
                    weight=spec.weight,
                    quota=spec.quota,
                    slo=spec.slo,
                    size_mix=spec.size_mix,
                )
            )
        return cls(tenants=tuple(sliced), n_keys=n_keys, updates=updates)

    # ------------------------------------------------------------------
    # Trace generation
    # ------------------------------------------------------------------
    def trace(self, horizon: float, seed: int = 0) -> TrafficTrace:
        """Materialize the mix into one merged, time-sorted trace.

        Per tenant, three independent child streams are derived from
        ``seed`` and the tenant name — arrival times, request sizes,
        join keys — so tenants are statistically independent and the
        whole trace is bit-reproducible.  The merge orders ties by
        tenant name, keeping the result deterministic.
        """
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        entries: list[tuple[float, str, int]] = []
        for spec in sorted(self.tenants, key=lambda s: s.name):
            times = spec.arrivals.arrivals(
                horizon, make_rng(seed, f"tenancy-arrivals:{spec.name}")
            )
            sizes_rng = make_rng(seed, f"tenancy-sizes:{spec.name}")
            mix_sizes = [size for _, size in spec.size_mix]
            weights = [probability for probability, _ in spec.size_mix]
            total_weight = sum(weights)
            probabilities = [w / total_weight for w in weights]
            if len(mix_sizes) == 1:
                sizes = [mix_sizes[0]] * len(times)
            else:
                sizes = [
                    int(s)
                    for s in sizes_rng.choice(
                        mix_sizes, size=len(times), p=probabilities
                    )
                ]
            lo, hi = spec.keyspace if spec.keyspace else (0, self.n_keys)
            n_tuples = int(sum(sizes))
            keys = sliced_zipf_keys(
                n_tuples,
                key_lo=lo,
                key_hi=hi,
                skew=spec.skew,
                seed=derive_seed(seed, f"tenancy-keys:{spec.name}"),
            )
            cursor = 0
            for at, size in zip(times, sizes):
                for key in keys[cursor:cursor + size]:
                    entries.append((float(at), spec.name, int(key)))
                cursor += size
        entries.sort(key=lambda e: (e[0], e[1]))
        update_events: list[tuple[float, int, str]] = []
        for wave in self.updates:
            update_events.extend(wave.updates(self.n_keys))
        update_events.sort(key=lambda e: (e[0], e[1]))
        return TrafficTrace(
            arrivals=tuple(e[0] for e in entries),
            tenants=tuple(e[1] for e in entries),
            keys=tuple(e[2] for e in entries),
            updates=tuple(update_events),
            n_keys=self.n_keys,
            horizon=horizon,
            seed=seed,
        )


def attainment(latencies: list[float], deadline: float) -> float:
    """Fraction of requests that met ``deadline`` (1.0 when empty)."""
    if not latencies:
        return 1.0
    met = sum(1 for latency in latencies if latency <= deadline)
    return met / len(latencies)


__all__ = [
    "SLO",
    "TenantMix",
    "TenantSpec",
    "TrafficTrace",
    "attainment",
]
