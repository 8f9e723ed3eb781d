"""repro — runtime optimization of join location in parallel systems.

A complete reproduction of Chandra & Sudarshan, "Runtime Optimization
of Join Location in Parallel Data Management Systems" (2017): per-key
ski-rental routing between map-side (fetch + cache) and reduce-side
(ship the function) join execution, two-tier benefit-managed caching,
runtime cost measurement, compute/data-node load balancing, batching
and ``preMap`` prefetching — together with every substrate the paper's
evaluation needs (cluster simulator, HBase-analog store, MapReduce
engine, Muppet-style MapUpdate executor, a mini SparkSQL, workload
generators) and one experiment harness per paper figure.

The curated surface is small: :func:`repro.api.run_join` drives any
engine from one call, :mod:`repro.obs` observes it, and the core
routing-decision types parameterize it.  Everything else lives in its
subpackage (``repro.engine``, ``repro.sim``, ``repro.store``, ...).

Quick start
-----------
>>> from repro import quickstart_demo
>>> result = quickstart_demo(n_tuples=2000, skew=1.0, seed=7)
>>> result.strategy
'FO'
"""

from repro.api import (
    BatchOptions,
    ClusterRunOptions,
    ElasticOptions,
    JobSpec,
    MembershipEvent,
    MemoryOptions,
    ResilienceOptions,
    RunConfig,
    TenancyOptions,
    run_join,
)
from repro.core import (
    CostModel,
    CostParameters,
    JoinLocationOptimizer,
    Route,
    SizeProfile,
    SkiRental,
)
from repro.engine import Strategy, StrategyConfig, UDF
from repro.obs import MetricsRegistry, ObsOptions, RunReport, Tracer

__version__ = "1.1.0"

__all__ = [
    "BatchOptions",
    "ClusterRunOptions",
    "CostModel",
    "CostParameters",
    "ElasticOptions",
    "JobSpec",
    "JoinLocationOptimizer",
    "MembershipEvent",
    "MemoryOptions",
    "MetricsRegistry",
    "ObsOptions",
    "ResilienceOptions",
    "Route",
    "RunConfig",
    "RunReport",
    "SizeProfile",
    "SkiRental",
    "Strategy",
    "StrategyConfig",
    "TenancyOptions",
    "Tracer",
    "UDF",
    "quickstart_demo",
    "run_join",
]


def __dir__() -> list:
    return sorted(__all__)


def quickstart_demo(
    n_tuples: int = 2000, skew: float = 1.0, seed: int = 0
) -> RunReport:
    """Run a tiny FO join through :func:`repro.api.run_join`.

    A convenience wrapper used by the README and doctests; see
    ``examples/quickstart.py`` for the expanded version.
    """
    spec = JobSpec.synthetic(
        "data_heavy",
        n_keys=500,
        n_tuples=n_tuples,
        skew=skew,
        seed=seed,
        value_size=20_000,
    )
    return run_join(
        spec, RunConfig(engine="engine", n_compute=4, n_data=4, seed=seed)
    )
