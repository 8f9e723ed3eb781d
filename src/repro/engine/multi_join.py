"""Pipelined multi-join execution (Section 6).

The input stream may join with several stored relations, left-deep:
each join's result feeds the next join.  The paper pipelines one
``<preMap, map>`` pair per join; ski-rental and load balancing run
independently per join, while node load is naturally combined because
all stages share the same simulated CPUs, disks and NICs.

:class:`MultiJoinJob` models this: each input tuple carries one join
key per stage; completing stage ``s`` immediately submits the tuple to
stage ``s + 1`` on the same compute node — no shuffle, no staging of
intermediate results (the compute nodes hold no state, Section 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from repro.core.frequency import LossyCounter
from repro.placement.batch import BatchLoadBalancer, SizeProfile
from repro.engine.compute_node import ComputeNodeRuntime
from repro.engine.job import JobResult
from repro.engine.requests import UDF
from repro.engine.strategies import StrategyConfig
from repro.faults.policy import FaultTolerance
from repro.memory.budget import MemoryBudget, publish_memory_counters
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
from repro.obs.registry import MetricsRegistry, ambient_registry
from repro.obs.tracer import NO_TRACER, Tracer
from repro.sim.cluster import Cluster
from repro.sim.rng import derive_seed
from repro.store.datanode import DataNodeServer
from repro.store.kvstore import KVStore
from repro.store.partitioner import HashPartitioner, RegionMap
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

    Parameters
    ----------
    cluster, compute_nodes, data_nodes:
        Hardware and the node split.
    stages:
        Ordered join stages; tuple ``i``'s key for stage ``s`` is
        ``keys[i][s]``.  A key of ``None`` means the tuple does not
        survive that join (selectivity) and leaves the pipeline.
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
        self.regions_per_node = regions_per_node
        self.block_cache_bytes = block_cache_bytes
        self.fault_tolerance = fault_tolerance
        self.seed = seed
        self.memory = memory
        self.stage_estimates = list(stage_estimates) if stage_estimates else None
        self.tracer = tracer
        self.registry = registry
        self.budgets: dict[int, MemoryBudget] = {}
        self.replan_decisions: list[ReplanDecision] = []
        self.replans = 0
        self._stage_servers: list[dict[int, DataNodeServer]] = []
        self._stage_stores: list[KVStore] = []
        for s, stage in enumerate(self.stages):
            partitioner = HashPartitioner(
                n_regions=regions_per_node * len(self.data_nodes)
            )
            region_map = RegionMap.round_robin(partitioner, self.data_nodes)
            kvstore = KVStore(stage.table, region_map)
            servers = {
                dn: DataNodeServer(
                    cluster=cluster,
                    node_id=dn,
                    kvstore=kvstore,
                    udf=stage.udf,
                    balancer=BatchLoadBalancer(
                        enabled=strategy.load_balancing,
                        rng=np.random.default_rng(
                            derive_seed(seed, f"lb:{s}:{dn}")
                        ),
                    ),
                    block_cache_bytes=block_cache_bytes,
                )
                for dn in self.data_nodes
            }
            self._stage_stores.append(kvstore)
            self._stage_servers.append(servers)
        if memory is not None and memory.enabled:
            # One arbiter per node, *shared* across stages: the whole
            # point of a unified budget is that stage 2's build side
            # feels stage 0's pressure on the same machine.
            limit = memory.budget_bytes
            if limit is None:
                limit = memory_cache_bytes
            for node in set(self.compute_nodes) | set(self.data_nodes):
                self.budgets[node] = MemoryBudget(limit, node_id=node)
            for s, servers in enumerate(self._stage_servers):
                for dn, server in servers.items():
                    server.arm_memory(
                        self.budgets[dn], memory, owner=f"build-{s}-{dn}"
                    )

    def run(self, stage_keys: Sequence[Sequence[Hashable | None]]) -> JobResult:
        """Run all tuples through the pipeline; returns batch metrics.

        ``stage_keys[i][s]`` is tuple ``i``'s join key at stage ``s``
        (``None`` = dropped by that join's predicate).
        """
        if self.memory is not None and self.memory.enabled and self.memory.replan:
            return self._run_adaptive(stage_keys)
        n_tuples = len(stage_keys)
        n_stages = len(self.stages)
        completions = 0
        last_finish = 0.0
        # runtimes[s][cn]
        runtimes: list[dict[int, ComputeNodeRuntime]] = [dict() for _ in self.stages]
        # Window control at the pipeline entrance only; inner stages
        # drain as fast as their resources allow.
        per_node_input: dict[int, list[int]] = {cn: [] for cn in self.compute_nodes}
        for tuple_id in range(n_tuples):
            target = self.compute_nodes[tuple_id % len(self.compute_nodes)]
            per_node_input[target].append(tuple_id)
        home_node = {
            tuple_id: self.compute_nodes[tuple_id % len(self.compute_nodes)]
            for tuple_id in range(n_tuples)
        }

        def advance(tuple_id: int, stage: int, finish: float) -> None:
            nonlocal completions, last_finish
            next_stage = stage + 1
            while next_stage < n_stages and stage_keys[tuple_id][next_stage] is None:
                next_stage += 1
            if next_stage >= n_stages:
                completions += 1
                last_finish = max(last_finish, finish)
                return
            cn = home_node[tuple_id]
            runtimes[next_stage][cn].submit(
                tuple_id, stage_keys[tuple_id][next_stage]
            )

        def make_on_complete(stage: int):
            def on_complete(tuple_id: int, finish: float) -> None:
                advance(tuple_id, stage, finish)

            return on_complete

        for s, stage in enumerate(self.stages):
            for cn in self.compute_nodes:
                runtimes[s][cn] = ComputeNodeRuntime(
                    cluster=self.cluster,
                    node_id=cn,
                    kvstore=self._stage_stores[s],
                    servers=self._stage_servers[s],
                    udf=stage.udf,
                    config=self.strategy,
                    sizes=stage.sizes,
                    on_complete=make_on_complete(s),
                    memory_cache_bytes=self.memory_cache_bytes / max(n_stages, 1),
                    batch_size=self.batch_size,
                    max_wait=self.max_wait,
                    counter=LossyCounter(1e-4),
                    fault_tolerance=self.fault_tolerance,
                    seed=derive_seed(self.seed, f"cn:{s}:{cn}"),
                    budget=self.budgets.get(cn),
                )

        # Entrance feeding with a bounded window per compute node;
        # entrance completions are tracked at the *pipeline exit*.
        exit_counts: dict[int, int] = {cn: 0 for cn in self.compute_nodes}
        feeders: dict[int, _EntranceFeeder] = {}

        original_advance = advance

        def advance_and_feed(tuple_id: int, stage: int, finish: float) -> None:
            pre = completions
            original_advance(tuple_id, stage, finish)
            if completions > pre:
                cn = home_node[tuple_id]
                exit_counts[cn] += 1
                feeders[cn].on_completion()

        # Rebind stage callbacks to the feeding-aware variant.
        for s in range(n_stages):
            for cn in self.compute_nodes:
                runtimes[s][cn].on_complete = (
                    lambda tuple_id, finish, _s=s: advance_and_feed(
                        tuple_id, _s, finish
                    )
                )

        for cn in self.compute_nodes:
            feeders[cn] = _EntranceFeeder(
                entrance=runtimes[0][cn],
                tuple_ids=per_node_input[cn],
                first_keys=[stage_keys[t][0] for t in per_node_input[cn]],
                window=self.pipeline_window,
                all_stage_runtimes=[runtimes[s][cn] for s in range(n_stages)],
            )
        for feeder in feeders.values():
            feeder.prime()
        self.cluster.sim.run()

        if completions != n_tuples:
            raise RuntimeError(
                f"pipeline stalled: {completions}/{n_tuples} tuples completed"
            )
        udfs_data = sum(
            server.udfs_executed
            for servers in self._stage_servers
            for server in servers.values()
        )
        total_udfs = sum(
            1
            for tuple_id in range(n_tuples)
            for s in range(n_stages)
            if stage_keys[tuple_id][s] is not None
        )
        self._publish_memory_counters(runtimes)
        return JobResult(
            strategy=self.strategy.name,
            n_tuples=n_tuples,
            makespan=last_finish,
            bytes_moved=self.cluster.network.bytes_moved,
            udfs_at_data_nodes=udfs_data,
            udfs_at_compute_nodes=total_udfs - udfs_data,
            cache_memory_hits=sum(
                runtimes[s][cn].cache.stats().memory_hits
                for s in range(n_stages)
                for cn in self.compute_nodes
            ),
            cache_disk_hits=sum(
                runtimes[s][cn].cache.stats().disk_hits
                for s in range(n_stages)
                for cn in self.compute_nodes
            ),
            compute_requests=0,
            data_requests=0,
            lb_kept_fraction=0.0,
            events=self.cluster.sim.events_processed,
        )

    # ------------------------------------------------------------------
    # Memory-adaptive execution
    # ------------------------------------------------------------------
    def _publish_memory_counters(
        self, runtimes: list[dict[int, ComputeNodeRuntime]]
    ) -> None:
        if not self.budgets:
            return
        sources = [budget.counters() for budget in self.budgets.values()]
        for servers in self._stage_servers:
            for server in servers.values():
                counts = server.memory_counters()
                if counts:
                    sources.append(counts)
        all_runtimes = [rt for stage in runtimes for rt in stage.values()]
        cache_spills = sum(rt.cache.budget_spills for rt in all_runtimes)
        if cache_spills:
            sources.append({"cache_spills": float(cache_spills)})
        for rt in all_runtimes:
            count, nbytes, seconds = rt.cost_model.spills_charged
            if count:
                sources.append(
                    {
                        "spills": float(count),
                        "spill_bytes": nbytes,
                        "spill_seconds": seconds,
                    }
                )
        if self.replan_decisions:
            sources.append(
                {
                    "replans": float(self.replans),
                    "replan_checkpoints": float(len(self.replan_decisions)),
                }
            )
        publish_memory_counters(ambient_registry(), *sources)
        if self.registry is not None:
            publish_memory_counters(self.registry, *sources)

    def _run_adaptive(
        self, stage_keys: Sequence[Sequence[Hashable | None]]
    ) -> JobResult:
        """Plan-driven pipeline with stage-boundary re-optimization.

        Instead of the hard-coded left-deep chain, each tuple follows
        the *current* plan: a tuple is submitted to every stage of the
        first plan node it still owes, and advances to the next node
        only once all of them complete (plan nodes with several member
        stages run those joins in parallel — bushy execution, sound
        because every stage's key is precomputed on the input tuple).
        Each stage runs one checkpoint once it has enough completions:
        observed latencies and key fractions replace the submit-time
        estimates, the remaining chain is re-planned, and the switch
        (or the decision not to) is recorded as a tracer ``obs`` event
        and in :attr:`replan_decisions`.
        """
        memory = self.memory
        assert memory is not None
        n_tuples = len(stage_keys)
        n_stages = len(self.stages)
        sim = self.cluster.sim
        completions = 0
        last_finish = 0.0
        runtimes: list[dict[int, ComputeNodeRuntime]] = [dict() for _ in self.stages]
        per_node_input: dict[int, list[int]] = {cn: [] for cn in self.compute_nodes}
        for tuple_id in range(n_tuples):
            target = self.compute_nodes[tuple_id % len(self.compute_nodes)]
            per_node_input[target].append(tuple_id)
        home_node = {
            tuple_id: self.compute_nodes[tuple_id % len(self.compute_nodes)]
            for tuple_id in range(n_tuples)
        }

        estimates = list(self.stage_estimates or [])[:n_stages]
        while len(estimates) < n_stages:
            estimates.append(StageEstimate())
        observations = [StageObservation() for _ in range(n_stages)]
        plan_holder: list[Plan] = [left_deep(n_stages)]
        entered_holder = [0]
        checked = [False] * n_stages
        done: list[set[int]] = [set() for _ in range(n_tuples)]
        inflight = [0] * n_tuples
        # Per-node feeder state: [next index, outstanding, finished, feeding]
        feed_state: dict[int, list] = {
            cn: [0, 0, False, False] for cn in self.compute_nodes
        }

        def maybe_checkpoint(stage: int) -> None:
            if checked[stage]:
                return
            if observations[stage].completed < memory.replan_min_observations:
                return
            checked[stage] = True
            decision = checkpoint(
                stage,
                plan_holder[0],
                estimates,
                observations,
                entered_holder[0],
                memory.replan_min_observations,
                memory.bushy_fraction,
                memory.replan_improvement,
            )
            self.replan_decisions.append(decision)
            if self.tracer.enabled:
                self.tracer.event(
                    "memory.replan",
                    at=sim.now,
                    stage=stage,
                    switched=decision.switched,
                    old_plan=plan_repr(decision.old_plan),
                    new_plan=plan_repr(decision.new_plan),
                    old_cost=decision.old_cost,
                    new_cost=decision.new_cost,
                )
            if decision.switched:
                plan_holder[0] = decision.new_plan
                self.replans += 1

        def dispatch(tuple_id: int, at: float) -> None:
            nonlocal completions, last_finish
            keys = stage_keys[tuple_id]
            remaining = {
                s
                for s in range(n_stages)
                if keys[s] is not None and s not in done[tuple_id]
            }
            if not remaining:
                completions += 1
                last_finish = max(last_finish, at)
                state = feed_state[home_node[tuple_id]]
                state[1] -= 1
                feed(home_node[tuple_id])
                return
            members: list[int] | None = None
            for node in plan_holder[0]:
                hit = [s for s in node if s in remaining]
                if hit:
                    members = hit
                    break
            if members is None:
                members = [min(remaining)]
            inflight[tuple_id] = len(members)
            cn = home_node[tuple_id]
            for s in members:
                observations[s].on_submit(tuple_id, at)
                runtimes[s][cn].submit(tuple_id, keys[s])

        def make_on_complete(stage: int):
            def on_complete(tuple_id: int, finish: float) -> None:
                observations[stage].on_complete(tuple_id, finish)
                done[tuple_id].add(stage)
                inflight[tuple_id] -= 1
                maybe_checkpoint(stage)
                if inflight[tuple_id] <= 0:
                    dispatch(tuple_id, finish)

            return on_complete

        def feed(cn: int) -> None:
            state = feed_state[cn]
            if state[3]:
                return
            state[3] = True
            try:
                ids = per_node_input[cn]
                while state[0] < len(ids) and state[1] < self.pipeline_window:
                    tuple_id = ids[state[0]]
                    state[0] += 1
                    state[1] += 1
                    entered_holder[0] += 1
                    dispatch(tuple_id, sim.now)
                if state[0] >= len(ids) and not state[2]:
                    state[2] = True
                    for s in range(n_stages):
                        runtimes[s][cn].finish_input()
            finally:
                state[3] = False

        for s, stage in enumerate(self.stages):
            for cn in self.compute_nodes:
                runtimes[s][cn] = ComputeNodeRuntime(
                    cluster=self.cluster,
                    node_id=cn,
                    kvstore=self._stage_stores[s],
                    servers=self._stage_servers[s],
                    udf=stage.udf,
                    config=self.strategy,
                    sizes=stage.sizes,
                    on_complete=make_on_complete(s),
                    memory_cache_bytes=self.memory_cache_bytes / max(n_stages, 1),
                    batch_size=self.batch_size,
                    max_wait=self.max_wait,
                    counter=LossyCounter(1e-4),
                    fault_tolerance=self.fault_tolerance,
                    seed=derive_seed(self.seed, f"cn:{s}:{cn}"),
                    budget=self.budgets.get(cn),
                )

        for cn in self.compute_nodes:
            feed(cn)
        sim.run()

        if completions != n_tuples:
            raise RuntimeError(
                f"pipeline stalled: {completions}/{n_tuples} tuples completed"
            )
        udfs_data = sum(
            server.udfs_executed
            for servers in self._stage_servers
            for server in servers.values()
        )
        total_udfs = sum(
            1
            for tuple_id in range(n_tuples)
            for s in range(n_stages)
            if stage_keys[tuple_id][s] is not None
        )
        self._publish_memory_counters(runtimes)
        return JobResult(
            strategy=self.strategy.name,
            n_tuples=n_tuples,
            makespan=last_finish,
            bytes_moved=self.cluster.network.bytes_moved,
            udfs_at_data_nodes=udfs_data,
            udfs_at_compute_nodes=total_udfs - udfs_data,
            cache_memory_hits=sum(
                rt.cache.stats().memory_hits
                for stage in runtimes
                for rt in stage.values()
            ),
            cache_disk_hits=sum(
                rt.cache.stats().disk_hits
                for stage in runtimes
                for rt in stage.values()
            ),
            compute_requests=0,
            data_requests=0,
            lb_kept_fraction=0.0,
            events=self.cluster.sim.events_processed,
        )


class _EntranceFeeder:
    """Bounded-window feeder at the first pipeline stage."""

    def __init__(
        self,
        entrance: ComputeNodeRuntime,
        tuple_ids: list[int],
        first_keys: list[Hashable],
        window: int,
        all_stage_runtimes: list[ComputeNodeRuntime],
    ) -> None:
        self.entrance = entrance
        self.tuple_ids = tuple_ids
        self.first_keys = first_keys
        self.window = window
        self.all_stage_runtimes = all_stage_runtimes
        self._next = 0
        self._outstanding = 0
        self._finished = False

    def prime(self) -> None:
        self._feed()

    def on_completion(self) -> None:
        self._outstanding -= 1
        self._feed()

    def _feed(self) -> None:
        while self._next < len(self.tuple_ids) and self._outstanding < self.window:
            tuple_id = self.tuple_ids[self._next]
            key = self.first_keys[self._next]
            self._next += 1
            self._outstanding += 1
            self.entrance.submit(tuple_id, key)
        if self._next >= len(self.tuple_ids) and not self._finished:
            self._finished = True
            for runtime in self.all_stage_runtimes:
                runtime.finish_input()
