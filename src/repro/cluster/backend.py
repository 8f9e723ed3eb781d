"""ClusterBackend: the :class:`Backend` seam over real processes.

Same contract as :class:`repro.runtime.backend.SimBackend` — a
:class:`JoinWorkload` in, a :class:`BackendRun` with real outputs out —
but execution happens in forked worker processes joined to the driver
over TCP (:mod:`repro.cluster.driver`).  All three engines run
unchanged because the backend seam is the engine boundary: the
differential oracle suite (``tests/test_cluster_oracle.py``) holds
this backend bit-for-bit equal to the single-node oracle and to
``SimBackend`` for every engine, healthy and under chaos.

The knobs mirror ``SimBackend`` where the concept carries over
(``n_compute``/``n_data``/``batch_size``/``seed``/``fault_schedule``/
``fault_tolerance``/``resilience``/``tracer``/``registry``);
process-only concerns live in :class:`ClusterOptions`.  ``duration``
in the returned :class:`BackendRun` is wall-clock seconds, never a
simulated makespan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.cluster.driver import ClusterDriver, ClusterRunInfo, WorkerKill
from repro.faults.policy import FaultTolerance
from repro.faults.schedule import FaultSchedule
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import NO_TRACER, Tracer
from repro.placement.options import ElasticOptions
from repro.resilience.options import ResilienceOptions
from repro.runtime.backend import ENGINES, BackendRun, JoinWorkload

#: Worker placements: ``split`` forks dedicated compute and data
#: processes (the paper's data/compute separation); ``colocated`` gives
#: every process both roles, so probes for locally-owned keys never
#: touch the wire (the classic shared-nothing layout).
PLACEMENTS = ("split", "colocated")


@dataclass(frozen=True)
class ClusterOptions:
    """Process-topology knobs that have no ``SimBackend`` counterpart."""

    #: Where each role runs (see :data:`PLACEMENTS`).
    placement: str = "split"
    #: Seconds to wait for every worker's hello at startup (and for a
    #: restarted worker's re-handshake during failover).
    startup_timeout: float = 15.0
    #: SIGKILL a worker mid-run (test hook; see :class:`WorkerKill`).
    kill: WorkerKill | None = None
    #: Directory for worker log files (a fresh tempdir when ``None``).
    log_dir: str | None = None

    def __post_init__(self) -> None:
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement {self.placement!r}; "
                f"expected one of {PLACEMENTS}"
            )
        if self.startup_timeout <= 0:
            raise ValueError("startup_timeout must be positive")


@dataclass
class ClusterBackend:
    """Execute a workload on real driver/worker processes over IPC."""

    engine: str = "engine"
    n_compute: int = 2
    n_data: int = 2
    batch_size: int = 16
    seed: int = 0
    fault_schedule: FaultSchedule | None = None
    fault_tolerance: FaultTolerance | None = None
    resilience: ResilienceOptions | None = None
    #: Opt-in elastic placement: mid-run bucket migration + hot-key
    #: replication over the driver's :class:`PlacementService`.  Every
    #: run routes through that service's frame; ``None`` (or disabled)
    #: keeps it at epoch 0, the static partition, with no rebalance.
    elastic: ElasticOptions | None = None
    #: Opt-in memory-adaptive execution: workers run budget-governed
    #: value caches and honour scheduled memory_pressure faults.
    memory: Any = None
    tracer: Tracer = NO_TRACER
    registry: MetricsRegistry | None = None
    options: ClusterOptions = field(default_factory=ClusterOptions)

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )
        if self.n_compute < 1 or self.n_data < 1:
            raise ValueError("n_compute and n_data must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")

    def run_join(self, workload: JoinWorkload) -> BackendRun:
        started = time.perf_counter()
        driver = ClusterDriver(
            workload,
            engine=self.engine,
            n_compute=self.n_compute,
            n_data=self.n_data,
            placement=self.options.placement,
            batch_size=self.batch_size,
            seed=self.seed,
            fault_schedule=self.fault_schedule,
            fault_tolerance=self.fault_tolerance,
            resilience=self.resilience,
            elastic=self.elastic,
            memory=self.memory,
            tracer=self.tracer,
            registry=self.registry,
            startup_timeout=self.options.startup_timeout,
            kill_plan=self.options.kill,
            log_dir=self.options.log_dir,
        )
        with driver:
            outputs = driver.run()
            driver.collect()
        info: ClusterRunInfo = driver.info
        return BackendRun(
            engine=self.engine,
            backend="cluster",
            outputs=outputs,
            duration=time.perf_counter() - started,
            metrics=None,
            native=info,
        )


__all__ = ["ClusterBackend", "ClusterOptions", "PLACEMENTS"]
