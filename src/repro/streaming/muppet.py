"""MapUpdate stream processing (Muppet analog).

Two layers:

* :class:`MuppetLocal` executes real MapUpdate applications in-process
  — ``map`` fans each event out into keyed records, ``update`` folds
  records into per-key *slates* (Muppet's persistent per-key state).
  An optional ``pre_map`` hook mirrors the paper's prefetching
  extension (Appendix D.2): it runs ahead of ``map`` on a window of
  events and issues batched lookups through a user-supplied fetcher.

* :class:`MuppetJoinSimulation` is the throughput benchmark used by
  Figures 6 and 11: a stream of join keys saturation-fed through the
  simulated cluster under one of the NO/FC/FD/FR/FO strategies, with
  throughput = tuples processed per simulated second.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Sequence

from repro.engine.job import JoinJob, RateRunResult, StreamResult
from repro.engine.prefetch import PreMapRunner
from repro.engine.strategies import Strategy, StrategyConfig
from repro.placement.batch import SizeProfile
from repro.faults.policy import FaultTolerance
from repro.faults.schedule import FaultSchedule
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import NO_TRACER, Tracer
from repro.sim.cluster import Cluster, NodeSpec
from repro.store.messages import UDF
from repro.store.table import Table


class MuppetLocal:
    """Real in-process MapUpdate execution.

    Parameters
    ----------
    map_fn:
        ``event -> iterable of (key, record)``.
    update_fn:
        ``(key, record, slate) -> new_slate`` — slate is ``None`` on
        the key's first record.
    pre_map:
        Optional ``event -> iterable of lookup keys`` prefetch hook;
        requires ``bulk_fetch``.
    bulk_fetch:
        ``(keys) -> {key: value}`` batched lookup used by ``pre_map``;
        fetched values are passed to ``map_fn`` as a second argument.
    window:
        Prefetch look-ahead in events.

    Examples
    --------
    >>> app = MuppetLocal(
    ...     map_fn=lambda e: [(e % 2, e)],
    ...     update_fn=lambda k, v, slate: (slate or 0) + v,
    ... )
    >>> app.run([1, 2, 3, 4])
    {1: 4, 0: 6}
    """

    def __init__(
        self,
        map_fn: Callable[..., Iterable[tuple[Hashable, Any]]],
        update_fn: Callable[[Hashable, Any, Any], Any],
        pre_map: Callable[[Any], Iterable[Hashable]] | None = None,
        bulk_fetch: Callable[[list[Hashable]], dict[Hashable, Any]] | None = None,
        window: int = 64,
    ) -> None:
        if pre_map is not None and bulk_fetch is None:
            raise ValueError("pre_map requires a bulk_fetch implementation")
        self.map_fn = map_fn
        self.update_fn = update_fn
        self.pre_map = pre_map
        self.bulk_fetch = bulk_fetch
        self.window = window
        self.slates: dict[Hashable, Any] = {}
        self._events = 0

    @property
    def events_processed(self) -> int:
        """Events consumed so far."""
        return self._events

    def run(self, events: Iterable[Any]) -> dict[Hashable, Any]:
        """Process a stream of events; returns the final slates."""
        if self.pre_map is None:
            for event in events:
                self._apply(self.map_fn(event))
        else:
            assert self.bulk_fetch is not None
            runner = PreMapRunner(
                pre_map=self.pre_map,
                bulk_fetch=self.bulk_fetch,
                map_fn=lambda event, values: list(self.map_fn(event, values)),
                window=self.window,
            )
            for records in runner.run(events):
                self._apply(records)
        return self.slates

    def _apply(self, records: Iterable[tuple[Hashable, Any]]) -> None:
        self._events += 1
        for key, record in records:
            self.slates[key] = self.update_fn(key, record, self.slates.get(key))


@dataclass
class MuppetJoinSimulation:
    """Streaming join throughput benchmark (Figures 6 and 11).

    The stream engine's nodes are the compute nodes; the data store
    (HBase in the paper) occupies the data nodes.  Throughput is
    measured under saturation feeding — the paper's "number of input
    tuples processed per unit time".
    """

    table: Table
    udf: UDF
    sizes: SizeProfile
    n_compute_nodes: int = 10
    n_data_nodes: int = 10
    node_spec: NodeSpec | None = None
    memory_cache_bytes: float = 100e6
    batch_size: int = 64
    max_wait: float | None = 0.02
    block_cache_bytes: float = 0.0
    #: Fault seam passthrough: the stream engine rides the same
    #: runtime kernel (repro.runtime.Transport) as the batch engine,
    #: so schedules and tolerance policies plug in identically.
    fault_schedule: FaultSchedule | None = None
    fault_tolerance: FaultTolerance | None = None
    #: Resilience options passthrough (repro.resilience); opt-in.
    resilience: Any = None
    #: Elastic placement passthrough (repro.placement); opt-in.
    elastic: Any = None
    #: Memory-adaptive execution passthrough (repro.memory); opt-in.
    memory: Any = None
    #: Span tracer and metrics registry passed through to the
    #: underlying JoinJob.
    tracer: Tracer = NO_TRACER
    registry: MetricsRegistry | None = None
    seed: int = 0
    #: The most recent underlying :class:`JoinJob` (real UDF outputs
    #: are reachable via ``last_job.collected_outputs()``).
    last_job: JoinJob | None = None

    def _build_job(self, strategy: StrategyConfig | str) -> JoinJob:
        config = (
            Strategy.by_name(strategy) if isinstance(strategy, str) else strategy
        )
        n_nodes = self.n_compute_nodes + self.n_data_nodes
        spec = self.node_spec if self.node_spec is not None else NodeSpec()
        cluster = Cluster.homogeneous(n_nodes, spec)
        job = JoinJob(
            cluster=cluster,
            compute_nodes=list(range(self.n_compute_nodes)),
            data_nodes=list(range(self.n_compute_nodes, n_nodes)),
            table=self.table,
            udf=self.udf,
            strategy=config,
            sizes=self.sizes,
            batch_size=self.batch_size,
            max_wait=self.max_wait,
            memory_cache_bytes=self.memory_cache_bytes,
            block_cache_bytes=self.block_cache_bytes,
            fault_schedule=self.fault_schedule,
            fault_tolerance=self.fault_tolerance,
            tracer=self.tracer,
            registry=self.registry,
            resilience=self.resilience,
            elastic=self.elastic,
            memory=self.memory,
            seed=self.seed,
        )
        self.last_job = job
        return job

    def run(
        self, strategy: StrategyConfig | str, stream: Sequence[Hashable]
    ) -> StreamResult:
        """Run the stream under ``strategy``; returns throughput."""
        return self._build_job(strategy).run_streaming(list(stream))

    def run_at_rate(
        self,
        strategy: StrategyConfig | str,
        stream: Sequence[Hashable],
        arrivals_per_second: float,
    ) -> RateRunResult:
        """Feed the stream at a fixed arrival rate and measure latency.

        The latency side of Section 7.2's max-wait trade-off: tuples
        arrive on a schedule instead of under saturation, and each
        tuple's arrival-to-completion latency is recorded.
        """
        return self._build_job(strategy).run_at_rate(
            list(stream), arrivals_per_second
        )
