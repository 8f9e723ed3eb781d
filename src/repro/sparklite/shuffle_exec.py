"""Simulated SparkSQL execution: shuffle hash joins for every join.

SparkSQL (without our framework) computes each star join by shuffling
*both* sides on the join key: every stage re-partitions the surviving
fact stream across the cluster, paying serialization CPU, shuffle-file
disk writes/reads and all-to-all network transfer — then builds and
probes hash tables.  The fact stream therefore crosses the wire once
per join, which is the cost the paper's framework avoids.

Stage boundaries are barriers (Spark's shuffle semantics).  True
per-stage cardinalities come from the real operator pipeline, so the
timing model never diverges from actual query semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.tracer import NO_TRACER, Span, Tracer
from repro.runtime.transport import ShuffleChannel
from repro.sim.cluster import Cluster
from repro.sparklite.operators import hash_join, select
from repro.sparklite.planner import order_joins
from repro.sparklite.query import StarQuery
from repro.sparklite.relation import Relation


@dataclass(frozen=True)
class SparkCosts:
    """Per-row CPU and width constants of the shuffle executor."""

    fact_row_bytes: float = 64.0
    dim_row_bytes: float = 48.0
    serialize_cpu: float = 1.5e-6
    deserialize_cpu: float = 1.5e-6
    build_cpu: float = 1.0e-6
    probe_cpu: float = 1.0e-6
    scan_cpu: float = 0.5e-6
    agg_cpu: float = 1.0e-6
    #: Fixed per-stage cost: task scheduling, shuffle-service setup.
    stage_overhead: float = 0.05


@dataclass(frozen=True)
class ShuffleQueryResult:
    """Timing and provenance of one simulated SparkSQL query."""

    query: str
    makespan: float
    stage_times: list[float]
    stage_cardinalities: list[int]
    bytes_shuffled: float
    result: Relation
    shuffle_retransmits: int = 0
    shuffle_duplicates: int = 0


class ShuffleExecutor:
    """SparkSQL-style executor over the simulated cluster."""

    def __init__(
        self,
        cluster: Cluster,
        costs: SparkCosts | None = None,
        shuffle: ShuffleChannel | None = None,
        tracer: Tracer = NO_TRACER,
    ) -> None:
        self.cluster = cluster
        self.costs = costs if costs is not None else SparkCosts()
        self.tracer = tracer
        # All-to-all traffic goes through the runtime kernel's
        # at-least-once channel: installed fault schedules
        # (`Network.delivery_plan`) now perturb Spark-style stages too.
        self.shuffle = shuffle if shuffle is not None else ShuffleChannel(cluster)

    def run(
        self,
        query: StarQuery,
        join_order: list[int] | None = None,
        span_parent: Span | None = None,
    ) -> ShuffleQueryResult:
        """Execute ``query``; returns timing plus the real result.

        ``span_parent`` nests the per-stage spans under the caller's
        job span.
        """
        cluster = self.cluster
        n = len(cluster)
        costs = self.costs
        order = join_order if join_order is not None else order_joins(query)

        stage_times: list[float] = []
        stage_cards: list[int] = []
        bytes_shuffled = 0.0

        # ------------------------------------------------------------
        # Stage 0: scan + filter the fact table from HDFS.
        # ------------------------------------------------------------
        current = (
            select(query.fact, query.fact_predicate)
            if query.fact_predicate
            else query.fact
        )
        scan_rows_per_node = len(query.fact) / n
        scan_bytes_per_node = scan_rows_per_node * costs.fact_row_bytes
        clock = costs.stage_overhead
        finish = clock
        for node in cluster.nodes:
            _ds, disk_done = node.disk.acquire(
                clock, scan_bytes_per_node / node.spec.disk_bandwidth
            )
            _cs, cpu_done = node.cpu.acquire(
                clock, scan_rows_per_node * costs.scan_cpu
            )
            finish = max(finish, disk_done, cpu_done)
        if self.tracer.enabled:
            span = self.tracer.start(
                "stage", parent=span_parent, at=clock,
                kind="scan", rows=len(current),
            )
            self.tracer.end(span, at=finish)
        stage_times.append(finish - clock)
        stage_cards.append(len(current))
        clock = finish

        # ------------------------------------------------------------
        # One shuffle-join stage per dimension, in planner order.
        # ------------------------------------------------------------
        for index in order:
            join = query.joins[index]
            dim = join.filtered_dimension()
            rows_in = len(current)
            stage_start = clock + costs.stage_overhead
            finish = stage_start
            stage_span: Span | None = None
            if self.tracer.enabled:
                stage_span = self.tracer.start(
                    "stage", parent=span_parent, at=stage_start,
                    kind="shuffle-join", join=index, rows_in=rows_in,
                )
            fact_bytes_per_node = rows_in / n * costs.fact_row_bytes
            dim_bytes_per_node = len(dim) / n * costs.dim_row_bytes
            out_fraction = (n - 1) / n  # data leaving each node
            for node in cluster.nodes:
                # Shuffle write (map side): serialize + spill to disk.
                ser_cpu = (rows_in / n) * costs.serialize_cpu
                _c1, ser_done = node.cpu.acquire(stage_start, ser_cpu)
                _d1, spill_done = node.disk.acquire(
                    stage_start, fact_bytes_per_node / node.spec.disk_bandwidth
                )
                ready = max(ser_done, spill_done)
                # All-to-all transfer of this node's outbound share.
                out_bytes = (fact_bytes_per_node + dim_bytes_per_node) * out_fraction
                arrive = self.shuffle.transfer(
                    ready, node.node_id, (node.node_id + 1) % n, out_bytes,
                    span_parent=stage_span,
                )
                bytes_shuffled += out_bytes
                # Shuffle read (reduce side): deserialize, build, probe.
                de_cpu = (rows_in / n) * costs.deserialize_cpu
                build_cpu = (len(dim) / n) * costs.build_cpu
                probe_cpu = (rows_in / n) * costs.probe_cpu
                _c2, cpu_done = node.cpu.acquire(
                    arrive, de_cpu + build_cpu + probe_cpu
                )
                finish = max(finish, cpu_done)
            current = hash_join(current, dim, join.fact_key, join.dim_key)
            if stage_span is not None:
                self.tracer.end(stage_span, at=finish, rows_out=len(current))
            stage_times.append(finish - stage_start)
            stage_cards.append(len(current))
            clock = finish

        # ------------------------------------------------------------
        # Final aggregation (one more small shuffle).
        # ------------------------------------------------------------
        from repro.sparklite.operators import group_aggregate

        result = group_aggregate(current, list(query.group_by), list(query.aggregates))
        agg_start = clock + costs.stage_overhead
        finish = agg_start
        agg_span: Span | None = None
        if self.tracer.enabled:
            agg_span = self.tracer.start(
                "stage", parent=span_parent, at=agg_start,
                kind="aggregate", rows_in=len(current),
            )
        for node in cluster.nodes:
            agg_cpu = (len(current) / n) * costs.agg_cpu
            _c, cpu_done = node.cpu.acquire(agg_start, agg_cpu)
            out_bytes = (len(result) / n) * costs.fact_row_bytes
            arrive = self.shuffle.transfer(
                cpu_done, node.node_id, (node.node_id + 1) % n, out_bytes,
                span_parent=agg_span,
            )
            bytes_shuffled += out_bytes
            finish = max(finish, arrive)
        if agg_span is not None:
            self.tracer.end(agg_span, at=finish, rows_out=len(result))
        stage_times.append(finish - agg_start)
        stage_cards.append(len(result))

        return ShuffleQueryResult(
            query=query.name,
            makespan=finish,
            stage_times=stage_times,
            stage_cardinalities=stage_cards,
            bytes_shuffled=bytes_shuffled,
            result=result,
            shuffle_retransmits=self.shuffle.retransmits,
            shuffle_duplicates=self.shuffle.duplicates,
        )
