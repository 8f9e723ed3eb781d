"""Simulated "our framework" execution of star queries (Figure 7).

The paper's Spark integration reads ``store_sales`` directly (it lives
in HDFS on the compute nodes) and computes each dimension join as
pipelined indexed lookups into the parallel data store holding the
dimensions — routed per key by ski-rental, balanced, batched.  No
shuffle: the fact stream stays on its compute node from scan to
aggregation.  Dimensions are small and heavily re-referenced, so after
a brief warm-up nearly every lookup is a local cache hit — this is why
the framework beats shuffle joins on star queries.

The per-stage survival of each fact row (does its dimension partner
pass the predicate?) is computed from the real data, so cardinalities
match the real executor exactly; the UDF at each stage is the
predicate evaluation + tuple concatenation (a ~microsecond probe).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.placement.batch import SizeProfile
from repro.engine.job import JobResult
from repro.engine.multi_join import JoinStageSpec, MultiJoinJob
from repro.engine.strategies import Strategy, StrategyConfig
from repro.faults.policy import FaultTolerance
from repro.sim.cluster import Cluster
from repro.sparklite.operators import select
from repro.sparklite.planner import order_joins
from repro.sparklite.query import StarQuery
from repro.store.messages import UDF
from repro.store.table import Row, Table


@dataclass(frozen=True)
class IndexedCosts:
    """Cost constants of the indexed execution path."""

    fact_row_bytes: float = 64.0
    dim_row_bytes: float = 48.0
    probe_cpu: float = 1.0e-6
    scan_cpu: float = 0.5e-6
    agg_cpu: float = 1.0e-6
    #: One-time job scheduling cost (a single Spark stage launches the
    #: whole pipelined plan).
    job_overhead: float = 0.05
    #: HBase block cache per data node; dimensions are small and hot,
    #: so they are memory-resident on the server side.
    block_cache_bytes: float = 256e6


@dataclass(frozen=True)
class IndexedQueryResult:
    """Timing and provenance of one indexed-framework query run."""

    query: str
    makespan: float
    job: JobResult
    stage_cardinalities: list[int]


class IndexedExecutor:
    """Our-framework executor over the simulated cluster.

    Parameters
    ----------
    cluster:
        Simulated hardware (compute + data node split, as in the
        paper's 10 Spark + 10 HBase setup).
    compute_nodes, data_nodes:
        Node-id partitions.
    strategy:
        Routing strategy for the dimension joins (FO by default).
    """

    def __init__(
        self,
        cluster: Cluster,
        compute_nodes: list[int],
        data_nodes: list[int],
        strategy: StrategyConfig | None = None,
        costs: IndexedCosts | None = None,
        batch_size: int = 128,
        max_wait: float = 0.005,
        pipeline_window: int = 1024,
        fault_tolerance: FaultTolerance | None = None,
        seed: int = 0,
    ) -> None:
        self.cluster = cluster
        self.compute_nodes = compute_nodes
        self.data_nodes = data_nodes
        self.strategy = strategy if strategy is not None else Strategy.fo()
        self.costs = costs if costs is not None else IndexedCosts()
        self.batch_size = batch_size
        self.max_wait = max_wait
        self.pipeline_window = pipeline_window
        # Passed straight down to the kernel transports of every
        # pipeline stage (repro.runtime.Transport).
        self.fault_tolerance = fault_tolerance
        self.seed = seed

    def run(self, query: StarQuery, join_order: list[int] | None = None) -> IndexedQueryResult:
        """Execute ``query``; returns timing consistent with real results."""
        costs = self.costs
        order = join_order if join_order is not None else order_joins(query)
        fact = (
            select(query.fact, query.fact_predicate)
            if query.fact_predicate
            else query.fact
        )

        # ------------------------------------------------------------
        # Build one stored table per dimension (full dimension: the
        # predicate is evaluated by the join UDF, which is how the
        # framework pushes selections into f').
        # ------------------------------------------------------------
        stages: list[JoinStageSpec] = []
        for index in order:
            join = query.joins[index]
            table = Table(join.dimension.name)
            key_idx = join.dimension.schema.index(join.dim_key)
            for row in join.dimension:
                table.put(
                    Row(
                        key=row[key_idx],
                        value=row,
                        size=costs.dim_row_bytes,
                        compute_cost=costs.probe_cpu,
                    )
                )
            sizes = SizeProfile(
                key_size=8.0,
                param_size=costs.fact_row_bytes,
                value_size=costs.dim_row_bytes,
                computed_size=costs.fact_row_bytes + costs.dim_row_bytes,
            )
            udf = UDF(
                result_size=costs.fact_row_bytes + costs.dim_row_bytes,
                param_size=costs.fact_row_bytes,
                key_size=8.0,
            )
            stages.append(JoinStageSpec(join.dimension.name, table, udf, sizes))

        # ------------------------------------------------------------
        # Per-tuple stage keys with true survival: a fact row leaves
        # the pipeline at the first dimension whose matched row fails
        # the predicate.
        # ------------------------------------------------------------
        survivors_per_stage = [0] * len(order)
        stage_keys: list[list[Hashable | None]] = []
        dim_pass: list[dict[Hashable, bool]] = []
        for index in order:
            join = query.joins[index]
            key_idx = join.dimension.schema.index(join.dim_key)
            passes = {
                row[key_idx]: (
                    join.predicate.evaluate(join.dimension, row)
                    if join.predicate
                    else True
                )
                for row in join.dimension
            }
            dim_pass.append(passes)
        final_rows = 0
        for fact_row in fact:
            keys: list[Hashable | None] = []
            alive = True
            for stage_pos, index in enumerate(order):
                if not alive:
                    keys.append(None)
                    continue
                join = query.joins[index]
                fk = fact.row_value(fact_row, join.fact_key)
                keys.append(fk)
                survivors_per_stage[stage_pos] += 1
                if not dim_pass[stage_pos].get(fk, False):
                    alive = False
            if alive:
                final_rows += 1
            stage_keys.append(keys)

        # ------------------------------------------------------------
        # Charge the fact scan on the compute nodes' disks, then run
        # the pipelined multi-join (scan overlaps the pipeline).
        # ------------------------------------------------------------
        n_compute = len(self.compute_nodes)
        scan_bytes = len(query.fact) * costs.fact_row_bytes / n_compute
        scan_cpu = len(query.fact) * costs.scan_cpu / n_compute
        for cn in self.compute_nodes:
            node = self.cluster.node(cn)
            node.disk.acquire(0.0, scan_bytes / node.spec.disk_bandwidth)
            node.cpu.acquire(0.0, scan_cpu)

        job = MultiJoinJob(
            cluster=self.cluster,
            compute_nodes=self.compute_nodes,
            data_nodes=self.data_nodes,
            stages=stages,
            strategy=self.strategy,
            batch_size=self.batch_size,
            max_wait=self.max_wait,
            pipeline_window=self.pipeline_window,
            block_cache_bytes=costs.block_cache_bytes,
            fault_tolerance=self.fault_tolerance,
            seed=self.seed,
        )
        result = job.run(stage_keys)

        # Final local aggregation: partial aggregates at compute nodes
        # plus one tiny merge (no shuffle of the fact stream).
        agg_finish = result.makespan + costs.job_overhead
        for cn in self.compute_nodes:
            node = self.cluster.node(cn)
            _s, done = node.cpu.acquire(
                result.makespan, final_rows / max(n_compute, 1) * costs.agg_cpu
            )
            agg_finish = max(agg_finish, done)

        return IndexedQueryResult(
            query=query.name,
            makespan=agg_finish,
            job=result,
            stage_cardinalities=survivors_per_stage,
        )
