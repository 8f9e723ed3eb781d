"""The seven joinbench workloads: what each one feeds the program.

Every workload is built from ``--seed`` alone; the program under test
receives only the resulting ``JobSpec`` / ``RunConfig`` (sim) or
``JoinWorkload`` / driver arguments (cluster).  ``--scale`` shrinks
tuple counts only — never key counts, cache sizes or skew — so a
scaled run keeps each workload's key universe and tier ratios but not
its measured route mix.

All workloads run 2 compute + 2 data nodes, batch 16, strategy FO, on
the data-heavy (DH) synthetic profile.  The load model is a closed
loop: ``run_join`` feeds the whole stream through a per-node pipeline
window, and the cluster driver keeps ``N_COMPUTE`` = 2 dispatch
threads, each sending its next batch when the previous one returned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable

N_COMPUTE = 2
N_DATA = 2
BATCH_SIZE = 16
#: No workload is scaled below this many tuples (``cluster_chaos`` is
#: exactly this long, so ``--scale`` never shortens it: its cost is
#: retry timeouts, not tuples).
MIN_TUPLES = 200
#: ``cluster_chaos``: wire faults are single-message windows at seeded
#: served-message indices below this bound, so every worker reaches
#: them and the fault *count* does not depend on the seed's luck.
CHAOS_POSITIONS = 5


@dataclass(frozen=True)
class WorkloadDef:
    name: str
    why: str
    backend: str  # "sim" | "cluster"
    engine: str
    n_keys: int
    skew: float
    n_tuples: int
    memory_cache_bytes: float = 100e6
    #: sim_update: writes per read, and the simulated-seconds window
    #: (at scale 1) over which the writes are spread.
    update_ratio: float = 0.0
    update_window_s: float = 0.0
    chaos: bool = False
    #: Timed rounds of a full set, after one discarded warm-up round.
    reps: int = 5
    #: False: the set runs this workload's rounds after all the others.
    #: ``cluster_chaos`` sleeps for seconds, the CPU clocks down, and
    #: whichever child ran next started 20% slower.
    interleave: bool = True
    #: Listed in ``BENCHMARK.json``, whose harness runs each workload
    #: 22 times inside a fixed hour — four workloads of 30 s fit — and
    #: refuses a metric that two runs of one commit disagree on.  The
    #: rest run in a full set (``run.py`` without ``--workload``) only.
    harness: bool = True


WORKLOADS: tuple[WorkloadDef, ...] = (
    WorkloadDef(
        name="sim_hot",
        why="working set fits the memory tier (~98% local hits): routing "
            "(optimizer, cache, cost model, frequency) does the work",
        backend="sim", engine="engine",
        n_keys=400, skew=1.5, n_tuples=240_000,
    ),
    WorkloadDef(
        name="sim_churn",
        why="working set 20x the memory tier: tiered-cache demotion and "
            "disk-tier hits dominate; the larger-than-cache workload",
        backend="sim", engine="engine",
        n_keys=2000, skew=0.8, n_tuples=60_000, memory_cache_bytes=15e6,
    ),
    WorkloadDef(
        name="sim_rent",
        why="cold keys (~70% compute requests): batch, transport, data-node "
            "serve and response merge do the work, routing does not",
        backend="sim", engine="engine",
        n_keys=20_000, skew=0.5, n_tuples=30_000,
    ),
    WorkloadDef(
        name="sim_update",
        why="sim_hot's stream with 1 write per 5 reads: same cache and "
            "optimizer on the invalidate/refetch path",
        backend="sim", engine="engine",
        n_keys=400, skew=1.5, n_tuples=200_000,
        update_ratio=0.2, update_window_s=3.0,
    ),
    WorkloadDef(
        name="sim_shuffle",
        why="mapreduce engine bypasses optimizer, cache and request path: "
            "the control where routing/serving changes predict no change",
        backend="sim", engine="mapreduce",
        n_keys=2000, skew=1.0, n_tuples=600_000,
        # The map phase calls nothing of the benchmark's, so two thirds
        # of the region are one slice (``child.SLICES``): ten seeds
        # spread 12% in a noisy hour where the sliced workloads held 2-8%.
        harness=False,
    ),
    WorkloadDef(
        name="cluster_steady",
        why="real worker processes over TCP loopback: codec, stop-and-wait "
            "RPC, worker serve and driver merge; the simulator does nothing",
        backend="cluster", engine="engine",
        n_keys=20_000, skew=0.8, n_tuples=300_000,
        # Five processes ping-ponging on two shared cores: whole
        # repetitions are slow for a minute at a time (+35%), there is
        # no slicing them from outside, and no reference join runs
        # beside the workers.  The fastest of nine repetitions spread
        # 11% here and more on the harness's host.
        harness=False,
    ),
    WorkloadDef(
        name="cluster_chaos",
        why="dropped, duplicated and delayed responses at seeded positions: "
            "the transport's failure path, all of it real-second timeouts",
        backend="cluster", engine="engine",
        n_keys=80, skew=1.5, n_tuples=MIN_TUPLES, chaos=True,
        reps=3, interleave=False,
        harness=False,  # sleeps: no cost relative to a hash join
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def join_udf(key: Hashable, param: Any, value: Any) -> str:
    """The benchmark's UDF; ``oracle.py`` applies the same function."""
    return f"{key}|{param}|{value}"


def marking_udf(mark: Callable[[], None], every: int):
    """``join_udf`` that also calls ``mark()`` once per ``every`` calls.

    The UDF is the one piece of the benchmark the program calls back
    while it runs, once per tuple, so its call count is a progress
    clock: ``child.py`` reads the wall and CPU clocks in ``mark`` and
    so cuts the timed region into slices of equal work.
    """
    left = every

    def udf(key: Hashable, param: Any, value: Any) -> str:
        nonlocal left
        left -= 1
        if not left:
            left = every
            mark()
        return f"{key}|{param}|{value}"

    return udf


@dataclass
class Inputs:
    """One workload instance, generated from (definition, seed, scale)."""

    definition: WorkloadDef
    seed: int
    n_tuples: int
    #: ``repro.api.JobSpec`` handed to the program.
    spec: Any
    #: ``repro.api.RunConfig`` (sim) — ``None`` on cluster workloads.
    config: Any = None
    #: ``FaultSchedule`` or ``None``.
    faults: Any = None
    #: The oracle's own copy of the stored relation and probe stream,
    #: taken before the run can mutate the table.
    stored: dict[Hashable, Any] = field(default_factory=dict)
    keys: tuple[Hashable, ...] = ()
    #: ``(key, new_value)`` in application order (sim_update only).
    updates: tuple[tuple[Hashable, Any], ...] = ()


def scaled_tuples(definition: WorkloadDef, scale: float) -> int:
    return max(MIN_TUPLES, int(definition.n_tuples * scale))


def build(
    name: str, seed: int, scale: float = 1.0,
    udf: Callable[[Hashable, Any, Any], Any] = join_udf,
) -> Inputs:
    """Generate the inputs of workload ``name`` from ``seed``.

    ``udf`` must return what ``join_udf`` returns (the oracle applies
    ``join_udf``); ``marking_udf`` is the only other one in use.
    """
    from repro.api import BatchOptions, JobSpec, RunConfig
    from repro.runtime.backend import JoinWorkload
    from repro.workloads.synthetic import SyntheticWorkload

    definition = BY_NAME[name]
    n_tuples = scaled_tuples(definition, scale)
    synthetic = SyntheticWorkload.data_heavy(
        n_keys=definition.n_keys, n_tuples=n_tuples,
        skew=definition.skew, seed=seed,
    )
    spec = JobSpec.from_workload(
        JoinWorkload.from_synthetic(synthetic, apply_fn=udf),
        strategy="FO",
    )
    inputs = Inputs(
        definition=definition, seed=seed, n_tuples=n_tuples, spec=spec,
        stored={row.key: row.value for row in spec.table.rows()},
        keys=spec.keys,
    )
    if definition.update_ratio:
        inputs.faults, inputs.updates = _update_schedule(
            definition, seed, n_tuples
        )
    if definition.chaos:
        inputs.faults = _chaos_schedule(seed)
    if definition.backend == "sim":
        inputs.config = RunConfig(
            engine=definition.engine, backend="sim",
            n_compute=N_COMPUTE, n_data=N_DATA, seed=seed,
            batching=BatchOptions(batch_size=BATCH_SIZE),
            faults=inputs.faults,
            memory_cache_bytes=definition.memory_cache_bytes,
        )
    return inputs


def _update_schedule(definition: WorkloadDef, seed: int, n_tuples: int):
    """Zipf-keyed writes spread evenly over the run's first seconds."""
    from repro.faults.schedule import FaultSchedule, UpdateFault
    from repro.workloads.zipf import ZipfKeySequence

    n_updates = int(n_tuples * definition.update_ratio)
    window = definition.update_window_s * n_tuples / definition.n_tuples
    # A different stream than the probe keys' (which use ``seed``).
    keys = ZipfKeySequence(
        definition.n_keys, definition.skew, seed=seed + 1_000_003
    ).draw(n_updates)
    rng = random.Random(seed)
    times = sorted(rng.uniform(0.0, window) for _ in range(n_updates))
    faults = tuple(
        UpdateFault(at=at, key=int(key), value=f"value-{int(key)}-u{i}")
        for i, (at, key) in enumerate(zip(times, keys))
    )
    applied = tuple((u.key, u.value) for u in faults)
    return FaultSchedule(seed=seed, updates=faults), applied


def _chaos_schedule(seed: int):
    """Two drops, one duplicate, one delay per worker, seeded positions.

    ``WireFaults`` turns a chaos window ``[at, at+duration)`` into the
    served-message indices ``[at*200, (at+duration)*200)`` of *every*
    worker; a one-message window with probability 1 is therefore one
    certain fault per worker.  Probabilistic chaos (drop=.1) over 13
    batches would put 0 to 3 four-second driver timeouts in a run
    depending on the seed; fixed counts keep seeds comparable.
    """
    from repro.faults.schedule import FaultSchedule, MessageChaos
    from repro.faults.wire import MESSAGES_PER_SECOND as rate

    positions = random.Random(seed).sample(range(1, CHAOS_POSITIONS), 4)
    kinds = ({"drop": 1.0}, {"drop": 1.0}, {"duplicate": 1.0}, {"delay": 1.0})
    chaos = tuple(
        # +0.25 keeps int() of both window edges off float rounding.
        MessageChaos(at=(at + 0.25) / rate, duration=1.0 / rate, **kind)
        for at, kind in zip(positions, kinds)
    )
    return FaultSchedule(seed=seed, chaos=chaos)
