"""Pipelined multi-join execution (Section 6).

The input stream may join with several stored relations, left-deep:
each join's result feeds the next join.  The paper pipelines one
``<preMap, map>`` pair per join; ski-rental and load balancing run
independently per join, while node load is naturally combined because
all stages share the same simulated CPUs, disks and NICs.

:class:`MultiJoinJob` models this: each input tuple carries one join
key per stage; completing stage ``s`` immediately submits the tuple to
the next stage it has a key for on the same compute node — no shuffle,
no staging of intermediate results (the compute nodes hold no state,
Section 5).  The chain is the first plan of
:mod:`repro.memory.replan`, which may re-order it at stage boundaries.
Each stage is an ordinary join: :mod:`repro.engine.job` builds its
data side and collects the run's result; only the feeding lives here.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Sequence

from repro.core.frequency import LossyCounter
from repro.placement.batch import SizeProfile
from repro.engine.compute_node import ComputeNodeRuntime
from repro.engine.job import (
    JobResult, build_data_side, collect_result, memory_budgets,
)
from repro.engine.requests import UDF
from repro.engine.strategies import StrategyConfig
from repro.faults.policy import FaultTolerance
from repro.memory.options import MemoryOptions
from repro.memory.replan import (
    Plan,
    ReplanDecision,
    StageEstimate,
    StageObservation,
    checkpoint,
    left_deep,
    plan_repr,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import NO_TRACER, Tracer
from repro.sim.cluster import Cluster
from repro.sim.rng import derive_seed
from repro.store.table import Table


@dataclass(frozen=True)
class JoinStageSpec:
    """One join stage: a stored relation plus its per-tuple UDF."""

    name: str
    table: Table
    udf: UDF
    sizes: SizeProfile


class MultiJoinJob:
    """Left-deep pipelined multi-join over the simulated cluster.

    Each stage is traced under the run's one ``job`` span and collected
    like a plain join; the per-node memory budgets span all stages.

    Parameters
    ----------
    cluster, compute_nodes, data_nodes:
        Hardware and the node split.
    stages:
        Ordered join stages; tuple ``i``'s key for stage ``s`` is
        ``keys[i][s]``.  A key of ``None`` skips that stage: a tuple
        dropped by one join's predicate carries ``None`` from there on.
    strategy:
        Routing strategy shared by all stages.
    """

    def __init__(
        self,
        cluster: Cluster,
        compute_nodes: Sequence[int],
        data_nodes: Sequence[int],
        stages: Sequence[JoinStageSpec],
        strategy: StrategyConfig,
        batch_size: int = 64,
        max_wait: float | None = 0.01,
        memory_cache_bytes: float = 100e6,
        pipeline_window: int = 256,
        regions_per_node: int = 4,
        block_cache_bytes: float = 0.0,
        fault_tolerance: FaultTolerance | None = None,
        seed: int = 0,
        memory: MemoryOptions | None = None,
        stage_estimates: Sequence[StageEstimate] | None = None,
        tracer: Tracer = NO_TRACER,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if not stages:
            raise ValueError("need at least one join stage")
        self.cluster = cluster
        self.compute_nodes = list(compute_nodes)
        self.data_nodes = list(data_nodes)
        self.stages = list(stages)
        self.strategy = strategy
        self.batch_size = batch_size
        self.max_wait = max_wait
        self.memory_cache_bytes = memory_cache_bytes
        self.pipeline_window = pipeline_window
        self.fault_tolerance = fault_tolerance
        self.seed = seed
        self.memory = memory
        self.stage_estimates = list(stage_estimates) if stage_estimates else None
        self.tracer = tracer
        self.registry = registry
        self.replan_decisions: list[ReplanDecision] = []
        self.replans = 0
        # One arbiter per node, *shared* across stages: the whole point
        # of a unified budget is that stage 2's build side feels stage
        # 0's pressure on the same machine.
        self.budgets = memory_budgets(
            memory, memory_cache_bytes,
            set(self.compute_nodes) | set(self.data_nodes),
        )
        # Stage s's (kvstore, data-node servers).
        self._data_sides = [
            build_data_side(
                cluster, self.data_nodes, stage.table, stage.udf, strategy,
                regions_per_node=regions_per_node,
                block_cache_bytes=block_cache_bytes, budgets=self.budgets,
                memory=memory, tracer=tracer, seed=seed, stage=s,
            )
            for s, stage in enumerate(self.stages)
        ]

    def run(self, stage_keys: Sequence[Sequence[Hashable | None]]) -> JobResult:
        """Run all tuples through the pipeline; returns batch metrics.

        ``stage_keys[i][s]`` is tuple ``i``'s join key at stage ``s``
        (``None``: skip the stage); a tuple with no key left completes.

        Each tuple follows the *current* plan, which starts left-deep:
        it is submitted to every stage of the first plan node it still
        owes, and advances to the next node only once all of them
        complete (plan nodes with several member stages run those joins
        in parallel — bushy execution, sound because every stage's key
        is precomputed on the input tuple).  With ``memory.replan`` on,
        each stage runs one checkpoint once it has enough completions:
        observed latencies and key fractions replace the submit-time
        estimates, the remaining chain is re-planned, and the switch
        (or the decision not to) is recorded as a tracer ``obs`` event
        and in :attr:`replan_decisions`.  With it off no checkpoint
        fires and the plan stays left-deep.
        """
        memory = self.memory
        replan = memory is not None and memory.enabled and memory.replan
        n_tuples = len(stage_keys)
        n_stages = len(self.stages)
        n_compute = len(self.compute_nodes)
        window = self.pipeline_window
        sim = self.cluster.sim
        completions = 0
        last_finish = 0.0
        entered = 0
        total_udfs = 0

        estimates = list(self.stage_estimates or [])[:n_stages]
        estimates += [StageEstimate()] * (n_stages - len(estimates))
        observations = [StageObservation() for _ in range(n_stages)]
        plan = left_deep(n_stages)
        nodes = _with_masks(plan)
        # A checked stage never checkpoints again; with re-planning
        # off every stage starts checked.
        checked = [not replan] * n_stages
        # Bit s of owed[i]: tuple i still owes stage s.  inflight[i]:
        # member stages of its current plan node not yet complete.
        owed = [0] * n_tuples
        inflight = [0] * n_tuples
        # Per compute node (by index, tuple i lives on node i % n):
        # [next tuple id, outstanding, input finished, feeding].
        feed_state = [[j, 0, False, False] for j in range(n_compute)]
        job_span = self.tracer.start(
            "job", at=sim.now, engine="multi_join",
            strategy=self.strategy.name, n_tuples=n_tuples, n_stages=n_stages,
        )

        def maybe_checkpoint(stage: int) -> None:
            nonlocal plan, nodes
            assert memory is not None
            if observations[stage].completed < memory.replan_min_observations:
                return
            checked[stage] = True
            decision = checkpoint(
                stage,
                plan,
                estimates,
                observations,
                entered,
                memory.replan_min_observations,
                memory.bushy_fraction,
                memory.replan_improvement,
            )
            self.replan_decisions.append(decision)
            if self.tracer.enabled:
                self.tracer.event(
                    "memory.replan",
                    parent=job_span,
                    at=sim.now,
                    stage=stage,
                    switched=decision.switched,
                    old_plan=plan_repr(decision.old_plan),
                    new_plan=plan_repr(decision.new_plan),
                    old_cost=decision.old_cost,
                    new_cost=decision.new_cost,
                )
            if decision.switched:
                plan = decision.new_plan
                nodes = _with_masks(plan)
                self.replans += 1

        def dispatch(tuple_id: int, at: float) -> None:
            nonlocal completions, last_finish
            mask = owed[tuple_id]
            if not mask:
                completions += 1
                last_finish = max(last_finish, at)
                feed_state[tuple_id % n_compute][1] -= 1
                feed(tuple_id % n_compute)
                return
            for node_mask, members in nodes:
                if node_mask & mask:
                    break
            keys = stage_keys[tuple_id]
            stage_runtimes = runtimes[tuple_id % n_compute]
            inflight[tuple_id] = (node_mask & mask).bit_count()
            for s in members:
                if mask >> s & 1:
                    if replan:
                        observations[s].on_submit(tuple_id, at)
                    stage_runtimes[s].submit(tuple_id, keys[s])

        def make_on_complete(stage: int):
            clear = ~(1 << stage)

            def on_complete(tuple_id: int, finish: float) -> None:
                if replan:
                    observations[stage].on_complete(tuple_id, finish)
                owed[tuple_id] &= clear
                inflight[tuple_id] -= 1
                if not checked[stage]:
                    maybe_checkpoint(stage)
                if inflight[tuple_id] <= 0:
                    dispatch(tuple_id, finish)

            return on_complete

        def feed(j: int) -> None:
            # Bounded window at the pipeline entrance only; inner stages
            # drain as fast as their resources allow.  A tuple that
            # owes nothing completes inside ``dispatch``, which calls
            # back here: the guard lets the outer loop go on instead.
            nonlocal entered, total_udfs
            state = feed_state[j]
            if state[3]:
                return
            state[3] = True
            while state[0] < n_tuples and state[1] < window:
                tuple_id = state[0]
                state[0] += n_compute
                state[1] += 1
                entered += 1
                keys = stage_keys[tuple_id]
                mask = 0
                for s in range(n_stages):
                    if keys[s] is not None:
                        mask |= 1 << s
                owed[tuple_id] = mask
                total_udfs += mask.bit_count()
                dispatch(tuple_id, sim.now)
            if state[0] >= n_tuples and not state[2]:
                state[2] = True
                for runtime in runtimes[j]:
                    runtime.finish_input()
            state[3] = False

        # runtimes[j][s]: stage s's runtime on compute node j, expecting
        # node j's tuples that have a key at stage s (FO-NA freezes
        # after a fraction of them).
        runtimes: list[list[ComputeNodeRuntime]] = [[] for _ in range(n_compute)]
        for s, stage in enumerate(self.stages):
            kvstore, servers = self._data_sides[s]
            for j, cn in enumerate(self.compute_nodes):
                runtimes[j].append(
                    ComputeNodeRuntime(
                        cluster=self.cluster,
                        node_id=cn,
                        kvstore=kvstore,
                        servers=servers,
                        udf=stage.udf,
                        config=self.strategy,
                        sizes=stage.sizes,
                        on_complete=make_on_complete(s),
                        memory_cache_bytes=self.memory_cache_bytes / n_stages,
                        batch_size=self.batch_size,
                        max_wait=self.max_wait,
                        expected_inputs=sum(
                            stage_keys[i][s] is not None
                            for i in range(j, n_tuples, n_compute)
                        ),
                        counter=LossyCounter(1e-4),
                        fault_tolerance=self.fault_tolerance,
                        tracer=self.tracer,
                        obs_parent=job_span,
                        seed=derive_seed(self.seed, f"cn:{s}:{cn}"),
                        budget=self.budgets.get(cn),
                    )
                )
        for j in range(n_compute):
            feed(j)
        sim.run()

        if completions != n_tuples:
            raise RuntimeError(
                f"pipeline stalled: {completions}/{n_tuples} tuples completed"
            )
        self.tracer.end(job_span, at=last_finish)
        return collect_result(
            self.cluster, self.strategy, n_tuples, last_finish,
            [rt for node in runtimes for rt in node],
            [sv for _, servers in self._data_sides for sv in servers.values()],
            self.budgets.values(),
            udfs=total_udfs,
            registry=self.registry,
            # Every tuple finished on the node it was fed to.
            completed=dict(Counter(
                self.compute_nodes[i % n_compute] for i in range(n_tuples)
            )),
            counters={
                "replans": float(self.replans),
                "replan_checkpoints": float(len(self.replan_decisions)),
            },
        )


def _with_masks(plan: Plan) -> list[tuple[int, tuple[int, ...]]]:
    """Each plan node as ``(bit mask of its stages, its stages)``."""
    return [(sum(1 << s for s in node), node) for node in plan]
