"""Fault injection, end to end: crash + message chaos + straggler.

The acceptance scenario from the fault subsystem's design: one data
node crashes mid-run, the network drops / duplicates / delays messages
throughout, and the other data node straggles at 5x service time.  The
engine rides it out with timeouts, idempotent retries and replica
fallback — and with :class:`ResilienceOptions` enabled, a heartbeat
failure detector confirms the death and fails the node's regions over
to its ring successor.  Every run's join output is compared bit-for-bit
against a single-node hash join of the same spec (the differential
oracle).

Everything goes through :func:`repro.api.run_join` — one call, any
engine, no engine internals.

Run:  PYTHONPATH=src python examples/fault_injection_demo.py
"""

from repro import JobSpec, ResilienceOptions, RunConfig, run_join
from repro.faults import (
    CrashFault,
    FaultSchedule,
    FaultTolerance,
    MessageChaos,
    StragglerFault,
)

SPEC = JobSpec.synthetic(
    "data_heavy", n_keys=300, n_tuples=2500, skew=1.0, seed=23
)

SCHEDULE = FaultSchedule(
    seed=5,
    crashes=(CrashFault(node_id=2, at=0.4, duration=0.8),),
    chaos=(
        MessageChaos(
            at=0.0, duration=3.0,
            drop=0.15, duplicate=0.1, delay=0.1, max_delay=0.03,
        ),
    ),
    stragglers=(StragglerFault(node_id=3, at=1.0, duration=1.0, slowdown=5.0),),
)


def main() -> None:
    values = {row.key: row.value for row in SPEC.table.rows()}
    oracle = {
        tuple_id: SPEC.udf.apply(key, None, values[key])
        for tuple_id, key in enumerate(SPEC.keys)
    }

    print("=== clean run ===")
    clean = run_join(SPEC, RunConfig(engine="engine", seed=11))
    assert clean.outputs == oracle
    print(f"{clean.n_tuples} tuples in {clean.makespan:.2f}s "
          "(oracle: exact match)")

    print("\n=== crash + chaos + straggler ===")
    faulty = run_join(SPEC, RunConfig(
        engine="engine",
        seed=11,
        faults=SCHEDULE,
        fault_tolerance=FaultTolerance(request_timeout=0.25, max_retries=2),
    ))
    counters = faulty.snapshot.get("counters", {})
    print(f"{faulty.n_tuples} tuples in {faulty.makespan:.2f}s "
          f"({faulty.makespan / clean.makespan:.2f}x the clean makespan)")
    for label, name in (
        ("messages faulted", "faults.messages_faulted"),
        ("timeouts", "transport.timeouts"),
        ("retries", "transport.retries"),
        ("replica fallbacks", "transport.fallbacks"),
        ("duplicate responses", "transport.duplicate_responses"),
    ):
        print(f"  {label + ':':<22s}{counters.get(name, 0):g}")
    assert faulty.outputs == oracle

    print("\n=== same faults, resilience on ===")
    resilient = run_join(SPEC, RunConfig(
        engine="engine",
        seed=11,
        faults=SCHEDULE,
        fault_tolerance=FaultTolerance(request_timeout=0.25, max_retries=2),
        resilience=ResilienceOptions.on(hedging=True, hedge_quantile=0.5),
    ))
    counters = resilient.snapshot.get("counters", {})
    print(f"{resilient.n_tuples} tuples in {resilient.makespan:.2f}s "
          f"({resilient.makespan / clean.makespan:.2f}x the clean makespan)")
    for label, name in (
        ("heartbeats received", "resilience.heartbeats.received"),
        ("deaths detected", "resilience.detector.deaths"),
        ("failovers", "resilience.failover.count"),
        ("regions moved", "resilience.failover.regions_moved"),
        ("hedges issued", "resilience.hedges.issued"),
        ("hedges won", "resilience.hedges.won"),
    ):
        print(f"  {label + ':':<22s}{counters.get(name, 0):g}")
    assert resilient.outputs == oracle

    print(f"\noracle: all {len(oracle)} outputs identical to the "
          "single-node hash join, in every run")


if __name__ == "__main__":
    main()
