"""Pinned-seed benchmark scenarios for the ``repro.perf`` harness.

Two tiers:

* **micro** — tight loops over one subsystem (request routing, the
  Lossy Counting sketch, tiered-cache churn, event cancellation).
  They isolate a single hot path so a regression points at the
  responsible module, not at "the simulator got slower".
* **macro** — full ``run_join`` executions of the Figure 8 synthetic
  workload (data-heavy, skew z = 1.5, the paper's high-skew panel)
  across the four simulated engines plus the real-process
  ``ClusterBackend`` (the ``cluster`` family; outputs-only digests, as
  worker processes make wall time nondeterministic), and one cold-key
  macro (20 000 keys, z = 0.5) where compute-request batches dominate.

Every scenario is deterministic: inputs come from pinned seeds, and
each run returns a digest of its observable results (join outputs,
cache/counter state, event order) so the harness can verify that the
optimized and reference code paths agree bit-for-bit before it trusts
any timing number.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["Scenario", "ScenarioRun", "SCENARIOS", "smoke_scenarios"]


@dataclass(frozen=True)
class ScenarioRun:
    """Observable outcome of one scenario execution.

    ``sim_time`` is the simulated makespan for macro scenarios (0.0
    for micro loops, which have no simulated clock), and ``digest``
    covers everything the scenario is allowed to observe — two runs
    in different modes must produce equal ``ScenarioRun`` values.
    """

    sim_time: float
    digest: str
    n_items: int


@dataclass(frozen=True)
class Scenario:
    """One named benchmark: a runner plus harness metadata."""

    name: str
    kind: str  # "micro" | "macro"
    description: str
    runner: Callable[[], ScenarioRun]
    #: Included in the CI ``perf-smoke`` job (smallest per family).
    smoke: bool = False
    #: Macro scenarios measured ref-vs-opt for ``speedup_vs_reference``.
    headline: bool = False
    tags: tuple[str, ...] = field(default=())


def _digest(parts: list[str]) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()


# ----------------------------------------------------------------------
# Micro scenarios
# ----------------------------------------------------------------------
def _zipf_keys(n_keys: int, n_items: int, skew: float, seed: int) -> list[int]:
    rng = random.Random(seed)
    weights = [1.0 / (i + 1) ** skew for i in range(n_keys)]
    return rng.choices(range(n_keys), weights=weights, k=n_items)


def _micro_route(n_keys: int, n_items: int) -> ScenarioRun:
    """The Algorithm 1 hot loop: route a pinned Zipf stream.

    Builds one optimizer (cost model + tiered cache + lossy counter),
    feeds it cost observations for every key, then routes ``n_items``
    requests.  In optimized mode the loop goes through ``route_fast``
    (the path the engines use); in reference mode through ``route`` —
    the digest over routes and counters must not notice.
    """
    from repro.cache.tiered import TieredCache
    from repro.core.cost_model import CostModel, CostParameters
    from repro.core.frequency import LossyCounter
    from repro.core.optimizer import JoinLocationOptimizer
    from repro.perf.mode import reference_mode

    model = CostModel(node_id=0, bandwidth={1: 100e6}, local_disk_time=0.004)
    cache = TieredCache(memory_bytes=64_000.0, disk_bytes=256_000.0)
    opt = JoinLocationOptimizer(model, cache, counter=LossyCounter(epsilon=1e-3))
    rng = random.Random(11)
    for key in range(n_keys):
        model.observe(
            CostParameters(
                key=key,
                value_size=200.0 + rng.random() * 1800.0,
                compute_time=0.001 + rng.random() * 0.004,
                disk_time=0.003,
                node_id=1,
            )
        )
    model.observe_local_compute(0.002)
    stream = _zipf_keys(n_keys, n_items, skew=1.2, seed=23)
    use_fast = not reference_mode()
    routes: list[str] = []
    for key in stream:
        if use_fast:
            route, _value = opt.route_fast(key, 1)
        else:
            route = opt.route(key, 1).route
        routes.append(route.value)
        if route.is_data_request:
            # Fetch completes immediately in this micro model.
            opt.complete_fetch(key, f"v{key}", route)
    stats = opt.stats()
    parts = routes + [
        repr(
            (
                stats.local_memory,
                stats.local_disk,
                stats.compute_requests,
                stats.data_requests_memory,
                stats.data_requests_disk,
                stats.first_contact,
            )
        ),
        repr(cache.stats()),
    ]
    return ScenarioRun(sim_time=0.0, digest=_digest(parts), n_items=n_items)


def _micro_route_batch(n_keys: int, n_items: int, width: int) -> ScenarioRun:
    """The columnar routing kernel: a pinned Zipf stream in windows.

    Same setup as ``micro_route``, but the stream is processed in
    ``width``-tuple windows: optimized mode routes each window through
    ``route_batch`` (a measured-only kernel — no engine calls it);
    reference mode loops scalar ``route`` over the same windows.
    Fetches complete at window boundaries in *both* modes, so the
    digest over routes, counters and cache state must be identical.
    """
    from repro.cache.tiered import TieredCache
    from repro.core.cost_model import CostModel, CostParameters
    from repro.core.frequency import LossyCounter
    from repro.core.optimizer import JoinLocationOptimizer
    from repro.perf.mode import reference_mode

    model = CostModel(node_id=0, bandwidth={1: 100e6}, local_disk_time=0.004)
    cache = TieredCache(memory_bytes=64_000.0, disk_bytes=256_000.0)
    opt = JoinLocationOptimizer(model, cache, counter=LossyCounter(epsilon=1e-3))
    rng = random.Random(11)
    for key in range(n_keys):
        model.observe(
            CostParameters(
                key=key,
                value_size=200.0 + rng.random() * 1800.0,
                compute_time=0.001 + rng.random() * 0.004,
                disk_time=0.003,
                node_id=1,
            )
        )
    model.observe_local_compute(0.002)
    stream = _zipf_keys(n_keys, n_items, skew=1.2, seed=23)
    use_batch = not reference_mode()
    routes: list[str] = []
    for at in range(0, n_items, width):
        window = stream[at : at + width]
        if use_batch:
            lanes = opt.route_batch(window, [1] * len(window))
            decided = list(zip(window, lanes.routes))
        else:
            decided = [(key, opt.route(key, 1).route) for key in window]
        for key, route in decided:
            routes.append(route.value)
            if route.is_data_request:
                opt.complete_fetch(key, f"v{key}", route)
    stats = opt.stats()
    parts = routes + [
        repr(
            (
                stats.local_memory,
                stats.local_disk,
                stats.compute_requests,
                stats.data_requests_memory,
                stats.data_requests_disk,
                stats.first_contact,
            )
        ),
        repr(cache.stats()),
    ]
    return ScenarioRun(sim_time=0.0, digest=_digest(parts), n_items=n_items)


def _micro_lossy_counter(n_keys: int, n_items: int) -> ScenarioRun:
    """Lossy Counting over a bursty-then-Zipf pinned stream."""
    from repro.core.frequency import LossyCounter

    counter = LossyCounter(epsilon=1e-3)
    rng = random.Random(5)
    # Bursty prefix: each of the first 50 keys arrives in one burst.
    for key in range(min(50, n_keys)):
        for _ in range(rng.randint(1, 40)):
            counter.add(key)
    for key in _zipf_keys(n_keys, n_items, skew=1.3, seed=29):
        counter.add(key)
    frequent = counter.frequent_keys(support=0.001)
    parts = [
        repr((counter.total, counter.tracked)),
        repr(sorted((k, counter.count(k)) for k in frequent)),
    ]
    return ScenarioRun(sim_time=0.0, digest=_digest(parts), n_items=n_items)


def _micro_cache_churn(n_keys: int, n_items: int) -> ScenarioRun:
    """Tiered-cache churn: admissions, promotions, invalidations.

    Exercises the LFU-DA heap's lazy deletion with a pinned access
    trace whose working set overflows the memory tier, so entries
    constantly move memory -> disk -> evicted and the heap fills with
    entries of keys that are no longer memory resident.
    """
    from repro.cache.tiered import TieredCache

    cache = TieredCache(memory_bytes=20_000.0, disk_bytes=60_000.0)
    rng = random.Random(17)
    sizes = {key: 100.0 + rng.random() * 900.0 for key in range(n_keys)}
    trace = _zipf_keys(n_keys, n_items, skew=0.9, seed=31)
    events: list[str] = []
    for i, key in enumerate(trace):
        cache.update_benefit(key, weight=1.0 + (key % 7))
        hit = cache.lookup(key)
        if hit is None:
            if cache.cond_cache_in_memory(key, None, sizes[key]):
                cache.fulfill(key, f"v{key}")
                events.append(f"m{key}")
            else:
                cache.add_to_disk(key, f"v{key}", sizes[key])
                events.append(f"d{key}")
        elif hit[1].name == "DISK":
            cache.cond_cache_in_memory(key, hit[0], sizes[key])
        if i % 97 == 0:
            cache.invalidate(key)
            events.append(f"x{key}")
    parts = events + [repr(cache.stats()), repr(sorted(cache.memory_keys))]
    return ScenarioRun(sim_time=0.0, digest=_digest(parts), n_items=n_items)


def _micro_event_cancel(n_events: int) -> ScenarioRun:
    """Schedule ``n_events``, cancel 90%, run the survivors.

    The regression target for the event queue's lazy-deletion
    accounting: heavy cancellation must stay O(log n) amortized
    instead of degrading into linear scans or unbounded queue growth.
    """
    from repro.sim.events import Simulator

    sim = Simulator()
    rng = random.Random(43)
    fired: list[int] = []
    handles = []
    for i in range(n_events):
        t = rng.random() * 100.0
        handles.append(sim.schedule_at(t, lambda i=i: fired.append(i)))
    cancel = rng.sample(range(n_events), (n_events * 9) // 10)
    for i in cancel:
        handles[i].cancel()
    sim.run()
    parts = [repr(len(fired)), repr(fired[:64]), repr(round(sim.now, 9))]
    return ScenarioRun(sim_time=sim.now, digest=_digest(parts), n_items=n_events)


# ----------------------------------------------------------------------
# Macro scenarios — Figure 8 synthetic workload through run_join
# ----------------------------------------------------------------------
def _macro_run_join(
    engine: str,
    n_keys: int,
    n_tuples: int,
    skew: float,
    seed: int,
) -> ScenarioRun:
    from repro.api import JobSpec, RunConfig, run_join

    spec = JobSpec.synthetic(
        kind="data_heavy", n_keys=n_keys, n_tuples=n_tuples, skew=skew, seed=seed
    )
    report = run_join(spec, RunConfig(engine=engine))
    parts = sorted(map(repr, report.outputs.items()))
    # The simulated makespan is part of the contract.
    parts.append(repr(round(report.makespan, 12)))
    return ScenarioRun(
        sim_time=report.makespan, digest=_digest(parts), n_items=n_tuples
    )


def _macro(engine: str, *, smoke: bool, headline: bool = False) -> Scenario:
    if headline:
        n_keys, n_tuples, skew, tag = 400, 8000, 1.5, "fig8"
    else:
        n_keys, n_tuples, skew, tag = 200, 2000, 1.5, "fig8"
    name = f"macro_fig8_{engine}" + ("_full" if headline else "")
    return Scenario(
        name=name,
        kind="macro",
        description=(
            f"Figure 8 data-heavy synthetic (z={skew}) on engine="
            f"{engine}, SimBackend, {n_tuples} tuples"
        ),
        runner=lambda: _macro_run_join(
            engine, n_keys=n_keys, n_tuples=n_tuples, skew=skew, seed=7
        ),
        smoke=smoke,
        headline=headline,
        tags=(tag, engine),
    )


def _macro_cold(*, smoke: bool) -> Scenario:
    """Large key universe, low skew: most tuples are first contacts,
    so compute-request batches (and the Appendix C statistics riding
    on them) dominate.  Any per-batch work that grows with the number
    of keys seen shows here and in no ``fig8`` macro (<= 400 keys)."""
    n_keys, n_tuples = (5_000, 2_000) if smoke else (20_000, 8_000)
    return Scenario(
        name="macro_cold_keys" + ("_smoke" if smoke else ""),
        kind="macro",
        description=(
            f"Cold keys: data-heavy synthetic, {n_keys} keys (z=0.5), "
            f"engine on SimBackend, {n_tuples} tuples"
        ),
        runner=lambda: _macro_run_join(
            "engine", n_keys=n_keys, n_tuples=n_tuples, skew=0.5, seed=7
        ),
        smoke=smoke,
        tags=("cold", "engine"),
    )


def _macro_skew_migration() -> ScenarioRun:
    """The elastic-placement macro: a z=1.5 hot spot the coordinator
    actively splits, migrates and replicates away mid-run.

    The reference/optimized modes observe the frequency sketches at
    different instants (``route`` vs ``route_fast``), which can shift
    *when* the coordinator acts and therefore the makespan — so the
    digest covers the join outputs only, which must be identical no
    matter what the placement policy did.
    """
    from repro.api import JobSpec, RunConfig, run_join
    from repro.placement import ElasticOptions

    n_tuples = 4000
    spec = JobSpec.synthetic(
        kind="data_heavy", n_keys=400, n_tuples=n_tuples, skew=1.5, seed=21
    )
    report = run_join(
        spec,
        RunConfig(
            engine="engine",
            n_compute=4,
            n_data=4,
            seed=21,
            memory_cache_bytes=2e5,
            elastic=ElasticOptions.on(
                check_interval=0.05,
                min_observations=16,
                split_factor=1.5,
                hot_key_fraction=0.05,
            ),
        ),
    )
    parts = sorted(map(repr, report.outputs.items()))
    return ScenarioRun(
        sim_time=report.makespan, digest=_digest(parts), n_items=n_tuples
    )


# ----------------------------------------------------------------------
# Cluster scenarios — real driver/worker processes over IPC
# ----------------------------------------------------------------------
def _macro_cluster(
    engine: str,
    *,
    n_tuples: int,
    placement: str = "split",
    chaos: bool = False,
) -> ScenarioRun:
    from repro.cluster import ClusterBackend, ClusterOptions
    from repro.faults.schedule import FaultSchedule, MessageChaos
    from repro.runtime import JoinWorkload
    from repro.workloads.synthetic import SyntheticWorkload

    schedule = None
    if chaos:
        schedule = FaultSchedule(
            seed=11,
            chaos=(
                MessageChaos(
                    at=0.0, duration=60.0, drop=0.1, duplicate=0.05,
                    delay=0.05,
                ),
            ),
        )
    workload = JoinWorkload.from_synthetic(
        SyntheticWorkload.data_heavy(
            n_keys=80, n_tuples=n_tuples, skew=1.5, seed=7
        )
    )
    run = ClusterBackend(
        engine=engine,
        n_compute=2,
        n_data=2,
        seed=7,
        fault_schedule=schedule,
        options=ClusterOptions(placement=placement),
    ).run_join(workload)
    # Wall-clock backend: worker processes make timings nondeterministic,
    # so the digest covers the join outputs only — which must still be
    # bit-identical between reference and optimized modes.
    parts = sorted(map(repr, run.outputs.items()))
    return ScenarioRun(sim_time=0.0, digest=_digest(parts), n_items=n_tuples)


def _cluster(
    engine: str,
    *,
    n_tuples: int = 600,
    placement: str = "split",
    chaos: bool = False,
) -> Scenario:
    suffix = "_colocated" if placement == "colocated" else ""
    suffix += "_chaos" if chaos else ""
    detail = []
    if placement == "colocated":
        detail.append("colocated placement")
    if chaos:
        detail.append("seeded message chaos")
    return Scenario(
        name=f"macro_cluster_{engine}{suffix}",
        kind="macro",
        description=(
            f"Figure 8 data-heavy synthetic (z=1.5) on ClusterBackend "
            f"(real worker processes over IPC), engine={engine}, "
            f"{n_tuples} tuples"
            + (" — " + ", ".join(detail) if detail else "")
        ),
        runner=lambda: _macro_cluster(
            engine, n_tuples=n_tuples, placement=placement, chaos=chaos
        ),
        # Never in the perf-smoke matrix: forking a 4-process fleet per
        # measurement round is too heavy for the ref-vs-opt timing gate;
        # the CI cluster-smoke job covers these paths instead.
        smoke=False,
        tags=("fig8", "cluster", engine),
    )


SCENARIOS: tuple[Scenario, ...] = (
    Scenario(
        name="micro_route",
        kind="micro",
        description="Algorithm 1 routing loop, 20k Zipf requests",
        runner=lambda: _micro_route(n_keys=300, n_items=20_000),
        smoke=True,
        tags=("optimizer",),
    ),
    Scenario(
        name="micro_route_batch",
        kind="micro",
        description=(
            "Columnar routing kernel (route_batch), 20k Zipf requests "
            "in 256-tuple windows"
        ),
        runner=lambda: _micro_route_batch(
            n_keys=300, n_items=20_000, width=256
        ),
        smoke=True,
        tags=("optimizer", "vector"),
    ),
    Scenario(
        name="micro_lossy_counter",
        kind="micro",
        description="Lossy Counting sketch, bursty + Zipf stream",
        runner=lambda: _micro_lossy_counter(n_keys=2_000, n_items=40_000),
        tags=("frequency",),
    ),
    Scenario(
        name="micro_cache_churn",
        kind="micro",
        description="Tiered-cache churn with overflow + invalidations",
        runner=lambda: _micro_cache_churn(n_keys=400, n_items=20_000),
        tags=("cache",),
    ),
    Scenario(
        name="micro_event_cancel",
        kind="micro",
        description="10k scheduled events, 90% cancelled",
        runner=lambda: _micro_event_cancel(n_events=10_000),
        tags=("sim",),
    ),
    # One smoke-scale macro per engine (the CI perf-smoke matrix) ...
    _macro("engine", smoke=True),
    _macro("streaming", smoke=True),
    _macro("mapreduce", smoke=True),
    _macro("sparklite", smoke=True),
    # ... the ClusterBackend family (real processes; outputs-only digest,
    # exercised by the CI cluster-smoke job rather than the perf gate) ...
    _cluster("engine"),
    _cluster("mapreduce"),
    _cluster("engine", placement="colocated"),
    _cluster("engine", chaos=True),
    # ... the elastic-placement macro (outputs-only digest; the CI
    # elastic-smoke job runs it, not the perf-smoke timing gate) ...
    Scenario(
        name="macro_skew_migration",
        kind="macro",
        description=(
            "Zipf z=1.5 hot spot with elastic placement on (region "
            "splits, live migration, hot-key replicas), engine on "
            "SimBackend, 4000 tuples — outputs-only digest"
        ),
        runner=_macro_skew_migration,
        tags=("skew", "placement", "engine"),
    ),
    # ... the large-key-universe macro (per-batch statistics must not
    # cost O(keys seen); smoke variant in the CI perf-smoke gate) ...
    _macro_cold(smoke=True),
    _macro_cold(smoke=False),
    # ... and the headline scenario the speedup gate runs ref-vs-opt.
    _macro("engine", smoke=False, headline=True),
)


def smoke_scenarios() -> tuple[Scenario, ...]:
    """The subset the CI ``perf-smoke`` job runs."""
    return tuple(s for s in SCENARIOS if s.smoke)
