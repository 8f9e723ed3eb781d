"""Resilience subsystem benchmark (CI-enforced).

Three headline numbers, one deterministic pass each, written to
``out/BENCH_resilience.json`` with the full ambient-registry snapshot:

* **recovery** — kill a data node at 50% of the healthy makespan with
  detection + failover on; the job must finish with exactly the
  healthy outputs, and the makespan inflation over healthy is the
  recovery cost.
* **hedging** — an 8x straggler on one data node; hedged p99 request
  latency must be at least 20% below the retry-only baseline, and the
  wasted-hedge ratio (hedges that lost the race) is reported.
* **admission** — the same join under a queue bound of 8 with deadline
  shedding; peak in-flight per data node must respect the bound while
  the join still completes every tuple.
"""

from repro.faults.policy import FaultTolerance
from repro.faults.schedule import CrashFault, FaultSchedule, StragglerFault
from repro.obs import percentile
from repro.resilience import ResilienceOptions
from repro.runtime import JoinWorkload, SimBackend
from repro.workloads.synthetic import SyntheticWorkload

#: Hedging must cut p99 by at least this factor (acceptance bar).
HEDGE_P99_BUDGET = 0.8
QUEUE_BOUND = 8


def _workload() -> JoinWorkload:
    synthetic = SyntheticWorkload.data_heavy(
        n_keys=50, n_tuples=600, skew=0.8, seed=13
    )
    return JoinWorkload.from_synthetic(synthetic)


def _recovery(workload, healthy):
    makespan = healthy.duration
    run = SimBackend(
        engine="engine",
        seed=13,
        fault_schedule=FaultSchedule(crashes=(
            CrashFault(node_id=2, at=0.5 * makespan,
                       duration=10 * makespan + 1.0),
        )),
        fault_tolerance=FaultTolerance(
            request_timeout=makespan / 20, max_retries=64
        ),
        resilience=ResilienceOptions.on(heartbeat_interval=makespan / 40),
    ).run_join(workload)
    return {
        "healthy_makespan": makespan,
        "failed_makespan": run.duration,
        "recovery_inflation": run.duration / makespan,
        "outputs_intact": run.outputs == healthy.outputs,
        "failovers": run.metrics.transport.failovers,
    }


def _straggled(workload, resilience, makespan):
    return SimBackend(
        engine="engine",
        strategy="FD",
        seed=13,
        fault_schedule=FaultSchedule(stragglers=(
            StragglerFault(node_id=2, at=0.0, duration=100 * makespan,
                           slowdown=8.0),
        )),
        fault_tolerance=FaultTolerance(request_timeout=5.0, max_retries=8),
        resilience=resilience,
    ).run_join(workload)


def _hedging(workload, healthy):
    base = _straggled(workload, None, healthy.duration)
    hedged = _straggled(workload, ResilienceOptions.on(
        hedging=True, hedge_quantile=0.5, hedge_warmup=5, detection=False,
    ), healthy.duration)
    t = hedged.metrics.transport
    return {
        "baseline_p99": percentile(base.metrics.latencies, 99),
        "hedged_p99": percentile(hedged.metrics.latencies, 99),
        "baseline_makespan": base.duration,
        "hedged_makespan": hedged.duration,
        "hedges_issued": t.hedges_issued,
        "wasted_hedge_ratio": (
            t.hedges_lost / t.hedges_issued if t.hedges_issued else 0.0
        ),
        "outputs_intact": hedged.outputs == base.outputs,
    }


def _admission(workload, healthy):
    run = SimBackend(
        engine="engine",
        strategy="FD",
        seed=13,
        resilience=ResilienceOptions.on(
            admission=True, queue_bound=QUEUE_BOUND, shed_deadline=0.05,
            detection=False,
        ),
    ).run_join(workload)
    from repro.obs import ambient_registry

    gauges = ambient_registry().snapshot().get("gauges", {})
    return {
        "peak_inflight": gauges.get("resilience.admission.peak_inflight", 0),
        "queue_bound": QUEUE_BOUND,
        "goodput": len(run.outputs) / run.duration,
        "outputs_intact": run.outputs == healthy.outputs,
    }


def _run_all():
    workload = _workload()
    healthy = SimBackend(engine="engine", seed=13).run_join(workload)
    return {
        "recovery": _recovery(workload, healthy),
        "hedging": _hedging(workload, healthy),
        "admission": _admission(workload, healthy),
    }


def test_resilience(once):
    results = once(_run_all)

    recovery = results["recovery"]
    assert recovery["outputs_intact"]
    assert recovery["failovers"] >= 1

    hedging = results["hedging"]
    assert hedging["outputs_intact"]
    assert hedging["hedges_issued"] > 0
    assert hedging["hedged_p99"] <= HEDGE_P99_BUDGET * hedging["baseline_p99"], (
        f"hedging failed the tail-latency bar: p99 {hedging['hedged_p99']:.4f}"
        f" vs baseline {hedging['baseline_p99']:.4f}"
    )
    assert 0.0 <= hedging["wasted_hedge_ratio"] <= 1.0

    admission = results["admission"]
    assert admission["outputs_intact"]
    assert 0 < admission["peak_inflight"] <= QUEUE_BOUND, (
        f"admission bound violated: peak {admission['peak_inflight']}"
        f" > bound {QUEUE_BOUND}"
    )
