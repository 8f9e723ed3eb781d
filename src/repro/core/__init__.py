"""The paper's primary contribution: runtime join-location optimization.

Modules
-------
ski_rental      basic and extended ski-rental decisions (Section 4)
cost_model      Table 1 parameters and the tCompute/tFetch/tRec* costs
smoothing       exponential smoothing of runtime cost measurements
frequency       Lossy Counting approximate per-key access counts
optimizer       Algorithm 1 ``skiRentalCaching`` request router
update_tracker  Section 4.2.3 update handling (invalidation + resets)

Batch load balancing (Section 5 / Appendix C) moved to
:mod:`repro.placement.batch`; the names below stay re-exported here.
"""

from repro.core.ski_rental import (
    SkiRental,
    buy_threshold,
    competitive_ratio,
)
from repro.core.cost_model import (
    CostModel,
    CostParameters,
    RequestCosts,
)
from repro.core.smoothing import SmoothedValue
from repro.core.frequency import LossyCounter, ExactCounter
from repro.core.optimizer import (
    JoinLocationOptimizer,
    Route,
    RoutingDecision,
)
from repro.placement.batch import (
    BatchLoadBalancer,
    ComputeNodeStats,
    DataNodeStats,
    LoadProfile,
    SizeProfile,
    exact_min_d,
    gradient_descent_min_d,
)
from repro.core.update_tracker import UpdateTracker
from repro.core.analysis import (
    RatioSweep,
    ratio_curve,
    sweep_competitive_ratio,
    worst_case_accesses,
)

__all__ = [
    "SkiRental",
    "buy_threshold",
    "competitive_ratio",
    "CostModel",
    "CostParameters",
    "RequestCosts",
    "SmoothedValue",
    "LossyCounter",
    "ExactCounter",
    "JoinLocationOptimizer",
    "Route",
    "RoutingDecision",
    "BatchLoadBalancer",
    "ComputeNodeStats",
    "DataNodeStats",
    "LoadProfile",
    "SizeProfile",
    "exact_min_d",
    "gradient_descent_min_d",
    "UpdateTracker",
    "RatioSweep",
    "ratio_curve",
    "sweep_competitive_ratio",
    "worst_case_accesses",
]
