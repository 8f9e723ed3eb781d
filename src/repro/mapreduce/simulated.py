"""Generic simulated MapReduce execution over the cluster model.

:class:`SimulatedMapReduce` runs any :class:`~repro.mapreduce.api.MapReduceSpec`
*logically* (producing the real outputs, via the same dataflow as
:class:`~repro.mapreduce.local.LocalMapReduce`) while charging its
phases to the simulated cluster:

* map: per-record CPU at the mapper's node,
* shuffle: per (mapper node, reducer) transfer of the emitted bytes,
  behind Hadoop's sort barrier,
* reduce: per-group setup cost (e.g. loading a stored model) plus
  per-record CPU at the reducer's node.

Costs are supplied as callables so any job — word count, annotation,
CloudBurst — can be timed without engine changes.
:func:`reduce_side_join` builds the entity-annotation job of Section
2.1, the Figure 5 baselines: each spot is mapped to its token, pairs
are shuffled to the reducer the partitioner (hash / CSAW / FlowJoinLB)
picks, and a reducer loads each token's stored model from local disk
once per key group, then pays its classification CPU per pair.
Stragglers emerge naturally from skewed partitions: a reducer that
receives a heavy-hitter token (or expensive models) finishes late,
which is the effect CSAW and FlowJoinLB mitigate.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable

from repro.mapreduce.api import MapReduceSpec, Partitioner
from repro.obs.tracer import NO_TRACER, Span, Tracer
from repro.runtime.transport import ShuffleChannel
from repro.sim.cluster import Cluster


@dataclass(frozen=True)
class MapReduceCosts:
    """Cost callables for one simulated run (all default to cheap)."""

    map_cpu: Callable[[Any, Any], float] = lambda key, value: 1e-5
    record_bytes: Callable[[Hashable, Any], float] = lambda key, value: 64.0
    reduce_setup: Callable[[Hashable], tuple[float, float]] = lambda key: (0.0, 0.0)
    """Per key group at a reducer: ``(disk_bytes, cpu_seconds)``."""
    reduce_cpu: Callable[[Hashable, Any], float] = lambda key, value: 1e-5


#: Map CPU seconds to extract one spot from a document.
MAP_CPU_PER_SPOT = 0.0002
#: Shuffled bytes per ``(token, context)`` pair.
CONTEXT_BYTES = 512.0


def reduce_side_join(
    model_sizes: dict[Hashable, float],
    model_costs: dict[Hashable, float],
    model_hydration: dict[Hashable, float] | None = None,
    partitioner: Partitioner | None = None,
) -> tuple[MapReduceSpec, MapReduceCosts]:
    """The reduce-side annotation join over ``(doc_id, spots)`` inputs.

    ``model_sizes`` / ``model_costs`` are each token's stored model
    bytes and per-spot classification seconds; ``model_hydration`` is
    the CPU to deserialize a model once per key group.  The reduce
    outputs ``(token, spot count)``.  A partitioner that replicates a
    key (CSAW / FlowJoinLB) makes every reducer it reaches load it.
    """
    hydration = model_hydration or {}
    spec = MapReduceSpec(
        map_fn=lambda _doc, spots: [(spot, None) for spot in spots],
        reduce_fn=lambda key, counts: [(key, sum(counts))],
        partitioner=partitioner,
        combiner=lambda _key, values: [len(values)],
    )
    costs = MapReduceCosts(
        map_cpu=lambda _doc, spots: MAP_CPU_PER_SPOT * len(spots),
        record_bytes=lambda _key, _value: CONTEXT_BYTES,
        reduce_setup=lambda key: (
            model_sizes.get(key, 0.0), hydration.get(key, 0.0)
        ),
        reduce_cpu=lambda key, count: count * model_costs.get(key, 0.0),
    )
    return spec, costs


@dataclass(frozen=True)
class SimulatedMapReduceResult:
    """Real outputs plus the timing of the simulated execution."""

    outputs: list[Any]
    makespan: float
    map_finish: float
    shuffle_finish: float
    bytes_shuffled: float
    reducer_finish_times: list[float] = field(repr=False, default_factory=list)
    shuffle_retransmits: int = 0
    shuffle_duplicates: int = 0

    @property
    def straggler_ratio(self) -> float:
        """Slowest reducer over the mean — the skew signature."""
        busy = [t for t in self.reducer_finish_times if t > 0]
        if not busy:
            return 1.0
        return max(busy) / (sum(busy) / len(busy))


class SimulatedMapReduce:
    """Execute a MapReduce spec with real outputs and simulated timing."""

    def __init__(
        self,
        cluster: Cluster,
        costs: MapReduceCosts | None = None,
        reducers_per_node: int = 1,
        shuffle: ShuffleChannel | None = None,
        tracer: Tracer = NO_TRACER,
    ) -> None:
        if reducers_per_node < 1:
            raise ValueError("reducers_per_node must be >= 1")
        self.cluster = cluster
        self.costs = costs if costs is not None else MapReduceCosts()
        self.n_reducers = reducers_per_node * len(cluster)
        self.tracer = tracer
        # Shuffle traffic goes through the runtime kernel's
        # at-least-once channel, so an installed fault schedule
        # (`Network.delivery_plan`) perturbs this engine too.
        self.shuffle = shuffle if shuffle is not None else ShuffleChannel(cluster)

    def run(
        self,
        spec: MapReduceSpec,
        inputs: Iterable[tuple[Any, Any]],
        span_parent: Span | None = None,
    ) -> SimulatedMapReduceResult:
        """Run the job; returns outputs and timing.

        ``span_parent`` nests the per-phase spans (map / shuffle /
        reduce) under the caller's job span.
        """
        cluster = self.cluster
        costs = self.costs
        n_nodes = len(cluster)

        # ------------------------------------------------------------
        # Map phase: records round-robin across nodes.
        # ------------------------------------------------------------
        map_finish_per_node = [0.0] * n_nodes
        emitted: dict[tuple[int, int], list[tuple[Hashable, Any]]] = defaultdict(list)
        for index, (key, value) in enumerate(inputs):
            node = index % n_nodes
            _s, finish = cluster.node(node).cpu.acquire(
                0.0, costs.map_cpu(key, value)
            )
            map_finish_per_node[node] = max(map_finish_per_node[node], finish)
            for out_key, out_value in spec.map_fn(key, value):
                reducer = spec.route(out_key, self.n_reducers)
                emitted[(node, reducer)].append((out_key, out_value))
        map_finish = max(map_finish_per_node, default=0.0)
        if self.tracer.enabled:
            phase = self.tracer.start(
                "map_phase", parent=span_parent, at=0.0, nodes=n_nodes
            )
            self.tracer.end(phase, at=map_finish)

        # ------------------------------------------------------------
        # Shuffle with the sort barrier.
        # ------------------------------------------------------------
        shuffle_span: Span | None = None
        if self.tracer.enabled:
            shuffle_span = self.tracer.start(
                "shuffle_phase", parent=span_parent, at=map_finish
            )
        arrival = [map_finish] * self.n_reducers
        bytes_shuffled = 0.0
        for (map_node, reducer), records in sorted(
            emitted.items(), key=lambda kv: kv[0]
        ):
            reduce_node = reducer % n_nodes
            size = sum(costs.record_bytes(k, v) for k, v in records)
            arrive = self.shuffle.transfer(
                map_finish_per_node[map_node], map_node, reduce_node, size,
                span_parent=shuffle_span,
            )
            if map_node != reduce_node:
                bytes_shuffled += size
            arrival[reducer] = max(arrival[reducer], arrive)
        shuffle_finish = max(arrival, default=map_finish)
        if shuffle_span is not None:
            self.tracer.end(
                shuffle_span, at=shuffle_finish, bytes=bytes_shuffled
            )

        # ------------------------------------------------------------
        # Reduce: group, charge setup + per-record CPU, produce output.
        # ------------------------------------------------------------
        groups: dict[int, dict[Hashable, list[Any]]] = defaultdict(
            lambda: defaultdict(list)
        )
        for (_map_node, reducer), records in emitted.items():
            for key, value in records:
                groups[reducer][key].append(value)

        outputs: list[Any] = []
        reducer_finish = [0.0] * self.n_reducers
        for reducer in range(self.n_reducers):
            partition = groups.get(reducer)
            if not partition:
                continue
            node = cluster.node(reducer % n_nodes)
            start = arrival[reducer]
            finish = start
            # First-arrival order: the disk -> CPU makespan depends on it.
            for key, values in partition.items():
                if spec.combiner is not None:
                    values = spec.combiner(key, values)
                disk_bytes, setup_cpu = costs.reduce_setup(key)
                _d, disk_done = node.disk.acquire(
                    start, node.spec.disk_time(disk_bytes) if disk_bytes else 0.0
                )
                cpu_time = setup_cpu + sum(
                    costs.reduce_cpu(key, v) for v in values
                )
                _c, cpu_done = node.cpu.acquire(disk_done, cpu_time)
                finish = max(finish, cpu_done)
                outputs.extend(spec.reduce_fn(key, values))
            reducer_finish[reducer] = finish

        makespan = max([map_finish, shuffle_finish] + reducer_finish)
        if self.tracer.enabled:
            phase = self.tracer.start(
                "reduce_phase", parent=span_parent, at=shuffle_finish,
                reducers=self.n_reducers,
            )
            self.tracer.end(phase, at=makespan)
        return SimulatedMapReduceResult(
            outputs=outputs,
            makespan=makespan,
            map_finish=map_finish,
            shuffle_finish=shuffle_finish,
            bytes_shuffled=bytes_shuffled,
            reducer_finish_times=reducer_finish,
            shuffle_retransmits=self.shuffle.retransmits,
            shuffle_duplicates=self.shuffle.duplicates,
        )
