"""repro.tenancy — multi-tenant open-loop traffic over the join stack.

ROADMAP item 5: drive the full system (router, placement, memory
arbiter, both backends) with many tenants at once — each with its
own seeded arrival process, Zipf key slice, request-size mix and SLO —
and prove per-tenant SLO attainment under contention.

* :mod:`~repro.tenancy.traffic` — seeded arrival processes (Poisson
  base, diurnal modulation, flash crowds) and rolling update waves.
* :mod:`~repro.tenancy.tenant` — :class:`TenantSpec` / :class:`SLO` /
  :class:`TenantMix`, and trace materialization.
* :mod:`~repro.tenancy.options` — :class:`TenancyOptions` on
  :class:`repro.api.RunConfig`; ``off()`` is bit-identical.
* :mod:`~repro.tenancy.report` — :class:`TenancyReport` (`tenancy.*`
  metrics, attainment/shed/percentile table).
* :mod:`~repro.tenancy.runner` — the Runner/Router port-adapter seam
  (:class:`SimRunner` open loop, :class:`ReplayRunner` any backend).

Everything except :class:`TenancyOptions` is imported lazily:
``repro.engine.job`` imports ``repro.tenancy.options`` (which triggers
this ``__init__``), while ``tenant``/``runner`` reach back through
``repro.workloads`` / ``repro.api`` into the engine — eager imports
here would cycle.  ``options`` itself is dependency-free.
"""

from repro.tenancy.options import TenancyOptions

__all__ = [
    "ArrivalProcess",
    "FlashCrowd",
    "ReplayRunner",
    "SLO",
    "SimRunner",
    "TenancyOptions",
    "TenancyReport",
    "TenancyResult",
    "TenantMix",
    "TenantSpec",
    "TenantStats",
    "TrafficRunner",
    "TrafficTrace",
    "UpdateWave",
    "attainment",
    "make_runner",
    "mix_workload",
]

#: Lazy exports: name -> owning submodule.
_LAZY = {
    "ArrivalProcess": "traffic",
    "FlashCrowd": "traffic",
    "UpdateWave": "traffic",
    "SLO": "tenant",
    "TenantMix": "tenant",
    "TenantSpec": "tenant",
    "TrafficTrace": "tenant",
    "attainment": "tenant",
    "TenancyReport": "report",
    "TenantStats": "report",
    "ReplayRunner": "runner",
    "SimRunner": "runner",
    "TenancyResult": "runner",
    "TrafficRunner": "runner",
    "make_runner": "runner",
    "mix_workload": "runner",
}


def __getattr__(name: str):
    submodule = _LAZY.get(name)
    if submodule is not None:
        import importlib

        module = importlib.import_module(f"repro.tenancy.{submodule}")
        return getattr(module, name)
    raise AttributeError(f"module 'repro.tenancy' has no attribute {name!r}")


def __dir__() -> list:
    return sorted(set(__all__) | set(globals()))
