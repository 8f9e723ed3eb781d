"""Per-run multi-tenancy configuration.

One frozen value gates the whole subsystem, mirroring
:class:`repro.resilience.ResilienceOptions`: with ``enabled=False``
(the default, and :meth:`TenancyOptions.off`) *nothing* is wired — no
tenant admission queues, no per-tenant accounting — and a run is
bit-identical to a pre-tenancy build.  The differential test in
``tests/test_tenancy.py`` enforces that across all three engines.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any


@dataclass(frozen=True)
class TenancyOptions:
    """Knobs for per-tenant admission, shedding and the replay adapter."""

    #: Master switch; ``False`` wires nothing at all.
    enabled: bool = False

    # -- engine-level admission -------------------------------------------
    #: ``True`` wires :class:`~repro.resilience.WeightedFairAdmission`
    #: (per-tenant queues, quotas, charged sheds); ``False`` wires the
    #: PR 4 global :class:`~repro.resilience.AdmissionController` — the
    #: baseline the tenancy benchmark compares against.
    fair: bool = True
    #: Max admitted-but-unfinished tuples per destination data node.
    #: ``None`` disables engine-level admission entirely (the harness
    #: replay adapter still applies its own fair queueing).
    queue_bound: int | None = 64
    #: Default seconds a parked tuple waits before being shed onto the
    #: cheap route; a tenant's SLO deadline (``TenantShare.deadline``)
    #: overrides this per tenant.  ``None`` = drain on completions only.
    shed_deadline: float | None = None
    #: Max *live* parked tuples per destination; arrivals past it are
    #: shed immediately (queue-full, charged to the arriving tenant).
    park_capacity: int | None = None

    # -- replay adapter (harness-level, any backend) ----------------------
    #: Service-window width in seconds for the windowed replay runner.
    window: float = 0.25
    #: Requests admitted per service window by the replay runner.
    window_capacity: int = 64

    def __post_init__(self) -> None:
        if self.queue_bound is not None and self.queue_bound < 1:
            raise ValueError("queue_bound must be >= 1")
        if self.shed_deadline is not None and self.shed_deadline < 0:
            raise ValueError("shed_deadline must be non-negative")
        if self.park_capacity is not None and self.park_capacity < 0:
            raise ValueError("park_capacity must be non-negative")
        if self.window <= 0:
            raise ValueError("window must be positive")
        if self.window_capacity < 1:
            raise ValueError("window_capacity must be >= 1")

    @classmethod
    def off(cls) -> "TenancyOptions":
        """Explicitly disabled — bit-identical to a pre-tenancy run."""
        return cls(enabled=False)

    @classmethod
    def on(cls, **overrides: Any) -> "TenancyOptions":
        """Enabled with defaults; keyword overrides for any knob."""
        return replace(cls(enabled=True), **overrides)
