"""The cluster driver: handshake, dispatch, failover, collection.

One :class:`ClusterDriver` owns one run: it forks the workers
(:class:`~repro.cluster.supervisor.WorkerSupervisor`), collects their
``hello`` frames, hands every worker the full peer map (``welcome`` —
the BNDL fully-interconnected topology), then drives the join as an
engine-specific sequence of RPCs and merges the workers' spans and
counters back into the caller's tracer/registry.

Engine plans (all produce the same ``tuple_id -> result`` mapping,
which is what the cross-process oracle suite checks):

* ``engine``    — probe batches round-robin over compute workers;
  the worker fetches values from the owning data workers over the
  mesh and applies the UDF locally (compute-side join).
* ``streaming`` — the same request/response shape but dispatched in
  windows with a barrier per wave (MUPPET-style synchronized epochs);
  rejects per-tuple params, like the simulated streaming engine.
* ``mapreduce`` — map at compute workers, shuffle the grouped pairs
  to the owning data workers, reduce (UDF) there.
* ``sparklite`` — probe shuffle: ship each probe to the data worker
  owning its key; the UDF runs data-side.

Failure handling mirrors the simulated kernel, against real corpses:
a scheduled :class:`CrashFault` death is always restarted (the
schedule's ``restart_at`` semantics), an *unscheduled* death (SIGKILL,
a bug) is restarted only when :class:`ResilienceOptions` enables
detection + recovery — otherwise the worker is written off and its
work reroutes to the ring successor, or the run fails once no
candidate is left.  Batches are re-dispatched only when their RPC
never completed, and the workers' idempotent replay caches make the
retry path exactly-once for side-effecting UDFs.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.cluster.codec import ConnectionClosed, MessageStream, listener
from repro.cluster.rpc import PeerUnavailable, RpcClient, RpcError
from repro.cluster.supervisor import WorkerHandle, WorkerSupervisor
from repro.cluster.worker import WorkerSpec
from repro.faults.policy import FaultTolerance
from repro.faults.schedule import FaultSchedule
from repro.obs.merge import merge_counters, merge_trace_records
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import NO_TRACER, Span, Tracer
from repro.placement.balancer import plan_rebalance
from repro.placement.options import ElasticOptions
from repro.placement.service import PlacementService
from repro.resilience.options import ResilienceOptions
from repro.runtime.transport import TransportError, ring_successor
from repro.store.partitioner import HashPartitioner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.backend import JoinWorkload

#: Driver->worker call policy: worker-side ops nest peer retries, so
#: driver attempts wait longer than the peer-level defaults.
DRIVER_TOLERANCE = FaultTolerance(
    request_timeout=1.0, max_retries=8, backoff_factor=1.5, max_backoff=4.0
)


@dataclass(frozen=True)
class WorkerKill:
    """Test hook: SIGKILL ``worker_id`` mid-run, at a batch fraction.

    With a kill plan armed the driver dispatches batches sequentially
    and fires the signal at a quiescent point (every dispatched batch
    acknowledged), so the exactly-once assertion is well-defined: the
    corpse holds no half-applied batch.
    """

    worker_id: str
    after_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.after_fraction <= 1.0:
            raise ValueError("after_fraction must be in [0, 1]")


@dataclass
class ClusterRunInfo:
    """Engine-native result of a cluster run (``BackendRun.native``)."""

    engine: str
    n_workers: int
    n_batches: int = 0
    dispatch_retries: int = 0
    restarts: int = 0
    scheduled_restarts: int = 0
    unscheduled_deaths: int = 0
    kills: int = 0
    wire_faults: int = 0
    worker_counters: dict[str, float] = field(default_factory=dict)
    worker_pids: dict[str, int] = field(default_factory=dict)

    @property
    def perturbed(self) -> bool:
        """Whether anything at all went wrong (and was survived)."""
        return bool(
            self.dispatch_retries or self.restarts or self.kills
            or self.wire_faults
        )


class ClusterDriver:
    """Drives one :class:`JoinWorkload` across real worker processes."""

    def __init__(
        self,
        workload: "JoinWorkload",
        *,
        engine: str = "engine",
        n_compute: int = 2,
        n_data: int = 2,
        placement: str = "split",
        batch_size: int = 16,
        seed: int = 0,
        fault_schedule: FaultSchedule | None = None,
        fault_tolerance: FaultTolerance | None = None,
        resilience: ResilienceOptions | None = None,
        elastic: ElasticOptions | None = None,
        memory: Any = None,
        tracer: Tracer = NO_TRACER,
        registry: MetricsRegistry | None = None,
        startup_timeout: float = 15.0,
        kill_plan: WorkerKill | None = None,
        log_dir: str | None = None,
    ) -> None:
        if n_compute < 1 or n_data < 1:
            raise ValueError("need at least one compute and one data worker")
        if placement not in ("split", "colocated"):
            raise ValueError(
                f"unknown placement {placement!r}; "
                "expected 'split' or 'colocated'"
            )
        self.workload = workload
        self.engine = engine
        self.n_compute = n_compute
        self.n_data = n_data
        self.placement = placement
        self.batch_size = max(batch_size, 1)
        self.seed = seed
        self.fault_schedule = fault_schedule
        self.tolerance = (
            fault_tolerance
            if fault_tolerance is not None and fault_tolerance.enabled
            else DRIVER_TOLERANCE
        )
        self.resilience = resilience
        self.elastic = elastic if elastic is not None else ElasticOptions.off()
        self.memory = (
            memory
            if memory is not None and getattr(memory, "enabled", False)
            else None
        )
        #: The epoch-stamped bucket->worker map, the cluster's only
        #: routing state — the same :class:`PlacementService` the
        #: simulated engines use, with region ids as buckets and node
        #: ids as ``data_ids`` indices.  Built in :meth:`_specs` once
        #: the ring is known; without elasticity it stays at epoch 0
        #: unless a write-off moves a dead worker's buckets.
        self.placement_service: PlacementService
        self.tracer = tracer
        self.registry = registry
        self.startup_timeout = startup_timeout
        self.kill_plan = kill_plan
        self.supervisor = WorkerSupervisor(log_dir=log_dir)
        self.info = ClusterRunInfo(engine=engine, n_workers=0)
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._stop_accepting = threading.Event()
        #: Set before any worker is forked; the hello barrier must not
        #: trip on a prefix of the fleet while spawning is in flight.
        self._expected_workers = 0
        self._clients: dict[str, RpcClient] = {}
        self._lock = threading.Lock()
        self._hello_barrier = threading.Event()
        self._failed: set[str] = set()
        #: Set under the lock when a write-off changed the placement;
        #: the new epoch is broadcast after the lock is released.
        self._placement_dirty = False
        self._job_span: Span | None = None
        self._started = 0.0
        #: Worker ids by role, in ring order.
        self.compute_ids: list[str] = []
        self.data_ids: list[str] = []

    # ------------------------------------------------------------------
    # Topology + startup
    # ------------------------------------------------------------------
    def _specs(self, driver_address: tuple[str, int]) -> list[WorkerSpec]:
        """Lay out the fleet: worker ids by role, the epoch-0 placement
        and one spec per worker (``node_id`` is the layout position)."""
        if self.placement == "colocated":
            n = max(self.n_compute, self.n_data)
            layout = [(f"w{i}", ("compute", "data")) for i in range(n)]
        else:
            layout = [(f"c{i}", ("compute",)) for i in range(self.n_compute)]
            layout += [(f"d{j}", ("data",)) for j in range(self.n_data)]
        self.compute_ids = [w for w, roles in layout if "compute" in roles]
        self.data_ids = [w for w, roles in layout if "data" in roles]
        # Bucket b starts on data worker b % n: exactly the static
        # ``owner_index`` partition, since (h % (k*n)) % n == h % n —
        # a static placement is an epoch with no moves.
        n_data = len(self.data_ids)
        n_buckets = n_data * self.elastic.buckets_per_node
        self.placement_service = PlacementService(
            HashPartitioner(n_regions=n_buckets),
            [b % n_data for b in range(n_buckets)],
        )
        return [
            WorkerSpec(
                worker_id=worker_id,
                node_id=node_id,
                roles=roles,
                driver_address=driver_address,
                seed=self.seed,
                log_path="",  # set by the supervisor
                schedule=self.fault_schedule,
                memory=self.memory,
            )
            for node_id, (worker_id, roles) in enumerate(layout)
        ]

    def start(self) -> None:
        """Fork the workers and complete the cluster-wide handshake."""
        self._started = time.perf_counter()
        self._listener = listener()
        address = self._listener.getsockname()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True,
            name="repro-cluster-driver-accept",
        )
        self._accept_thread.start()
        specs = self._specs(address)
        self.info.n_workers = len(specs)
        self._expected_workers = len(specs)
        if self.tracer.enabled:
            self._job_span = self.tracer.start(
                "job", at=0.0, engine=self.engine, backend="cluster",
                workers=len(specs),
            )
        for spec in specs:
            self.supervisor.spawn(spec, self.workload)
        if not self._hello_barrier.wait(timeout=self.startup_timeout):
            missing = [
                h.worker_id
                for h in self.supervisor.handles.values()
                if not h.ready.is_set()
            ]
            raise TransportError(
                f"cluster startup timed out; no hello from {missing}\n"
                + self.supervisor.describe()
            )
        for handle in self.supervisor.handles.values():
            self.info.worker_pids[handle.worker_id] = handle.pid or -1

    def _accept_loop(self) -> None:
        """Accept hello frames for the whole run (restarts included)."""
        assert self._listener is not None
        self._listener.settimeout(0.2)
        pending: list[tuple[MessageStream, dict[str, Any]]] = []
        while not self._stop_accepting.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                self._flush_pending(pending)
                continue
            except OSError:
                break
            stream = MessageStream(conn)
            try:
                hello = stream.recv(timeout=5.0)
            except (ConnectionClosed, TimeoutError):
                stream.close()
                continue
            if not isinstance(hello, dict) or hello.get("type") != "hello":
                stream.close()
                continue
            handle = self.supervisor.handles.get(str(hello["worker_id"]))
            if handle is None:
                stream.close()
                continue
            handle.address = tuple(hello["address"])
            if handle.spec.listen_address is None:
                handle.spec.listen_address = handle.address
            if self._all_addressed():
                self._hello_barrier.set()
            if self._hello_barrier.is_set():
                self._flush_pending(pending)
                self._welcome(stream, handle)
            else:
                pending.append((stream, hello))

    def _flush_pending(
        self, pending: list[tuple[MessageStream, dict[str, Any]]]
    ) -> None:
        if not self._hello_barrier.is_set() or not pending:
            return
        for stream, hello in pending:
            handle = self.supervisor.handles[str(hello["worker_id"])]
            self._welcome(stream, handle)
        pending.clear()

    def _all_addressed(self) -> bool:
        handles = self.supervisor.handles.values()
        return (
            self._expected_workers > 0
            and len(handles) == self._expected_workers
            and all(h.address is not None for h in handles)
        )

    def _welcome_frame(self) -> dict[str, Any]:
        """The peer map, the data ring and the current placement epoch."""
        return {
            "type": "welcome",
            "peers": {
                h.worker_id: h.address
                for h in self.supervisor.handles.values()
                if h.address is not None
            },
            "data_ring": list(self.data_ids),
            "placement": self._placement_frame(),
        }

    def _welcome(self, stream: MessageStream, handle: WorkerHandle) -> None:
        try:
            stream.send(self._welcome_frame())
        except ConnectionClosed:
            return
        finally:
            stream.close()
        handle.ready.set()

    # ------------------------------------------------------------------
    # RPC plumbing
    # ------------------------------------------------------------------
    def _client(self, worker_id: str) -> RpcClient:
        with self._lock:
            client = self._clients.get(worker_id)
            if client is None:
                handle = self.supervisor.handles[worker_id]
                assert handle.address is not None
                client = RpcClient(
                    worker_id, handle.address, tolerance=self.tolerance
                )
                self._clients[worker_id] = client
            return client

    def _await_ready(self, worker_id: str, timeout: float | None = None) -> None:
        handle = self.supervisor.handles[worker_id]
        if not handle.ready.wait(timeout or self.startup_timeout):
            raise TransportError(
                f"worker {worker_id} never became ready\n"
                + self.supervisor.describe()
            )

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def _scheduled_crash(self, worker_id: str) -> bool:
        if self.fault_schedule is None:
            return False
        node_id = self.supervisor.handles[worker_id].spec.node_id
        return any(
            crash.node_id == node_id for crash in self.fault_schedule.crashes
        )

    def _recovery_enabled(self) -> bool:
        r = self.resilience
        return bool(r is not None and r.enabled and r.detection and r.recovery)

    def _on_worker_down(self, worker_id: str) -> bool:
        """Handle one dead worker; returns True if it was restarted.

        Serialized under the driver lock so concurrent dispatchers
        observing the same corpse trigger exactly one restart.
        """
        try:
            return self._handle_worker_down(worker_id)
        finally:
            # Broadcast outside the driver lock — _client re-acquires it.
            if self._placement_dirty:
                self._placement_dirty = False
                self._broadcast_placement()

    def _handle_worker_down(self, worker_id: str) -> bool:
        with self._lock:
            handle = self.supervisor.handles[worker_id]
            if handle.alive():
                return True  # already restarted by another dispatcher
            if worker_id in self._failed:
                return False
            scheduled = (
                self._scheduled_crash(worker_id) and handle.spec.crash_armed
            )
            if not scheduled and not self._recovery_enabled():
                self._failed.add(worker_id)
                handle.ready.clear()
                # Written off: route its buckets to the ring successor
                # through the placement service.
                if self._reassign_dead_buckets(worker_id):
                    self._placement_dirty = True
                if self.tracer.enabled:
                    self.tracer.event(
                        "cluster.worker-lost", parent=self._job_span,
                        at=self._now(), worker=worker_id,
                        exitcode=handle.exitcode,
                    )
                return False
            handle.ready.clear()
            exitcode = handle.exitcode
            self.supervisor.restart(
                handle, self.workload, scheduled=scheduled
            )
            self.info.restarts += 1
            if scheduled:
                self.info.scheduled_restarts += 1
            else:
                self.info.unscheduled_deaths += 1
            if self.registry is not None:
                self.registry.counter("cluster.restarts").inc()
                if not scheduled:
                    self.registry.counter("resilience.cluster.deaths").inc()
            if self.tracer.enabled:
                self.tracer.event(
                    "cluster.worker-restart", parent=self._job_span,
                    at=self._now(), worker=worker_id,
                    scheduled=scheduled, exitcode=exitcode,
                )
        self._await_ready(worker_id)
        return True

    def _now(self) -> float:
        return time.perf_counter() - self._started

    # ------------------------------------------------------------------
    # Elastic placement (bucket migration + hot-key replication)
    # ------------------------------------------------------------------
    def _placement_frame(self) -> dict[str, Any]:
        """The wire form of the current placement epoch."""
        service = self.placement_service
        buckets = [
            self.data_ids[service.node_for_region(b)]
            for b in range(service.partitioner.n_regions)
        ]
        replicas = [
            (key, [self.data_ids[n] for n in nodes])
            for key, nodes in sorted(
                service.replica_map().items(), key=lambda kv: repr(kv[0])
            )
        ]
        return {
            "epoch": service.generation,
            "n_buckets": len(buckets),
            "buckets": buckets,
            "replicas": replicas,
        }

    def _broadcast_placement(self) -> None:
        """Push the current frame to every live worker (newer-epoch wins)."""
        frame = self._placement_frame()
        for worker_id, handle in self.supervisor.handles.items():
            if worker_id in self._failed or not handle.alive():
                continue
            try:
                self._client(worker_id).call("placement_update", placement=frame)
            except (PeerUnavailable, RpcError, ConnectionClosed):
                continue  # a restarted worker learns the frame in welcome

    def _rebalance(self) -> None:
        """One mid-run placement round: observe, replicate, migrate.

        Pulls per-bucket serve counts from every live data worker, then
        (1) grants hot-key replicas for keys dominating the stream and
        (2) moves the planner's chosen buckets from heavy to light
        workers — each move a real worker->worker ``region_push`` RPC
        through the peer mesh — and finally broadcasts the new epoch.
        """
        service = self.placement_service
        opts = self.elastic
        bucket_loads: dict[int, float] = {}
        key_counts: dict[Any, float] = {}
        for worker_id in self.data_ids:
            if worker_id in self._failed:
                continue
            try:
                observed = self._client(worker_id).call("bucket_loads")
            except (PeerUnavailable, RpcError, ConnectionClosed):
                continue
            for bucket, count in observed["buckets"].items():
                bucket = int(bucket)
                bucket_loads[bucket] = bucket_loads.get(bucket, 0.0) + count
            for key, count in observed["keys"]:
                key_counts[key] = key_counts.get(key, 0.0) + count
        total = sum(bucket_loads.values())
        if total < opts.min_observations:
            return
        self._replicate_hot_keys(key_counts, total, bucket_loads)
        moves = plan_rebalance(
            service,
            bucket_loads,
            max_moves=opts.migration_max_moves,
            tolerance=opts.migration_tolerance,
        )
        for move in moves:
            src = self.data_ids[move.from_node]
            dst = self.data_ids[move.to_node]
            try:
                pushed = self._client(src).call(
                    "region_push", bucket=move.region, target=dst,
                    timeout_scale=4.0,
                )
            except (PeerUnavailable, RpcError, ConnectionClosed):
                continue  # copy failed: ownership must not move
            service.move_region(move.region, move.to_node)
            service.counters["migrations"] += 1
            if self.tracer.enabled:
                self.tracer.event(
                    "placement.migrate", parent=self._job_span,
                    at=self._now(), bucket=move.region, src=src, dst=dst,
                    rows=pushed.get("moved", 0), epoch=service.generation,
                )
        if service.generation > 0:
            self._broadcast_placement()

    def _replicate_hot_keys(
        self,
        key_counts: dict[Any, float],
        total: float,
        bucket_loads: dict[int, float],
    ) -> None:
        service = self.placement_service
        opts = self.elastic
        if opts.max_replicas == 0:
            return
        threshold = opts.hot_key_fraction * total
        node_load: dict[int, float] = {
            n: 0.0 for n in range(len(self.data_ids))
        }
        for bucket, load in bucket_loads.items():
            node_load[service.node_for_region(bucket)] += load
        for key, count in sorted(
            key_counts.items(), key=lambda kv: (-kv[1], repr(kv[0]))
        ):
            if count < threshold:
                continue
            existing = service.replicas_of(key)
            if len(existing) >= opts.max_replicas:
                continue
            owner = service.node_for_key(key)
            taken = {owner, *existing}
            candidates = [
                n for n in sorted(node_load)
                if n not in taken and self.data_ids[n] not in self._failed
            ]
            if not candidates:
                continue
            target = min(candidates, key=lambda n: (node_load[n], n))
            try:
                self._client(self.data_ids[owner]).call(
                    "region_push", keys=[key], target=self.data_ids[target],
                )
            except (PeerUnavailable, RpcError, ConnectionClosed):
                continue
            service.replicate_key(key, target)
            node_load[target] += count / (len(existing) + 2)
            if self.tracer.enabled:
                self.tracer.event(
                    "placement.replicate", parent=self._job_span,
                    at=self._now(), key=repr(key),
                    node=self.data_ids[target], epoch=service.generation,
                )

    def _reassign_dead_buckets(self, worker_id: str) -> bool:
        """Move a written-off data worker's buckets to its ring successor.

        Returns True when the placement changed (caller broadcasts the
        new epoch *outside* the driver lock).  Keys whose only copy was
        the corpse's base partition stay lost — the successor's lazy
        fetch from the dead static owner fails and the run raises — but
        buckets previously migrated or replicated elsewhere keep serving.
        """
        service = self.placement_service
        if worker_id not in self.data_ids:
            return False
        dead = self.data_ids.index(worker_id)
        live = [
            n for n, wid in enumerate(self.data_ids)
            if wid != worker_id and wid not in self._failed
        ]
        if not live:
            return False
        service.on_node_dead(dead)
        successor = next((n for n in live if n > dead), live[0])
        for region in list(service.regions_on_node(dead)):
            service.move_region(region, successor)
        return True

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def run(self) -> dict[int, Any]:
        """Execute the workload; returns ``tuple_id -> result``."""
        workload = self.workload
        if self.engine == "streaming" and workload.params is not None:
            raise ValueError(
                "the streaming engine feeds bare key streams; "
                "per-tuple params are not expressible"
            )
        op = {
            "engine": "run_batch",
            "streaming": "run_batch",
            "mapreduce": "map_batch",
            "sparklite": "probe_batch",
        }[self.engine]
        batches = self._batches()
        self.info.n_batches = len(batches)
        outputs: dict[int, Any] = {}
        runner = (
            self._run_waves if self.engine == "streaming" else self._run_pooled
        )
        if self.kill_plan is not None:
            self._run_sequential_with_kill(op, batches, outputs)
        elif self.elastic.enabled and len(batches) > 1:
            # Elastic: dispatch a leading fraction to gather real load
            # observations, run one rebalance round (replication +
            # bucket migration + epoch broadcast), then finish.
            cut = min(
                len(batches) - 1,
                max(1, int(len(batches) * self.elastic.migrate_after_fraction)),
            )
            runner(op, batches[:cut], outputs)
            self._rebalance()
            runner(op, batches[cut:], outputs)
        else:
            runner(op, batches, outputs)
        return outputs

    def _batches(self) -> list[dict[str, Any]]:
        keys = self.workload.keys
        params = self.workload.params
        out: list[dict[str, Any]] = []
        for at in range(0, len(keys), self.batch_size):
            tids = list(range(at, min(at + self.batch_size, len(keys))))
            batch: dict[str, Any] = {
                "tids": tids,
                "keys": [keys[t] for t in tids],
            }
            if params is not None:
                batch["params"] = [params[t] for t in tids]
            out.append(batch)
        return out

    def _run_pooled(
        self, op: str, batches: list[dict[str, Any]], outputs: dict[int, Any]
    ) -> None:
        if not batches:
            return
        with ThreadPoolExecutor(
            max_workers=max(len(self.compute_ids), 1),
            thread_name_prefix="repro-cluster-dispatch",
        ) as pool:
            futures = [
                pool.submit(self._dispatch, op, batch, index)
                for index, batch in enumerate(batches)
            ]
            for future in futures:
                outputs.update(future.result())

    def _run_waves(
        self, op: str, batches: list[dict[str, Any]], outputs: dict[int, Any]
    ) -> None:
        """Streaming: synchronized windows, one wave per worker set."""
        wave = max(len(self.compute_ids), 1)
        for start in range(0, len(batches), wave):
            self._run_pooled(op, batches[start:start + wave], outputs)

    def _run_sequential_with_kill(
        self, op: str, batches: list[dict[str, Any]], outputs: dict[int, Any]
    ) -> None:
        plan = self.kill_plan
        assert plan is not None
        kill_after = int(len(batches) * plan.after_fraction)
        killed = False
        for index, batch in enumerate(batches):
            if not killed and index >= kill_after:
                self._fire_kill(plan)
                killed = True
            outputs.update(self._dispatch(op, batch, index))
        if not killed:  # every batch dispatched before the threshold
            self._fire_kill(plan)

    def _fire_kill(self, plan: WorkerKill) -> None:
        handle = self.supervisor.handles.get(plan.worker_id)
        if handle is None or not handle.alive():
            return
        pid = self.supervisor.kill(plan.worker_id, signal.SIGKILL)
        # SIGKILL is asynchronous; wait for the corpse so the next
        # dispatch observes a dead peer, not a half-closed socket.
        if handle.process is not None:
            handle.process.join(timeout=5.0)
        self.info.kills += 1
        if self.tracer.enabled:
            self.tracer.event(
                "cluster.worker-killed", parent=self._job_span,
                at=self._now(), worker=plan.worker_id, pid=pid,
            )

    def _dispatch(
        self, op: str, batch: dict[str, Any], index: int
    ) -> dict[int, Any]:
        """Run one batch to completion, surviving worker deaths.

        The target starts at round-robin position ``index`` and walks
        the compute ring on unrecoverable failures.  Worker-side replay
        caches make re-sent request ids idempotent; a batch is only
        re-dispatched when its RPC never completed.
        """
        target = self.compute_ids[index % len(self.compute_ids)]
        budget = (len(self.compute_ids) + 1) * 4
        for _attempt in range(budget):
            if target in self._failed or not self._try_ready(target):
                target = self._next_target(target)
                continue
            client = self._client(target)
            try:
                return client.call(op, timeout_scale=4.0, **batch)
            except PeerUnavailable:
                self.info.dispatch_retries += 1
                if not self._on_worker_down(target):
                    target = self._next_target(target)
            except RpcError as exc:
                if exc.kind != "peer_unavailable":
                    raise
                peer = str(exc.error.get("peer"))
                self.info.dispatch_retries += 1
                if not self._on_worker_down(peer):
                    raise TransportError(
                        f"data worker {peer} died and recovery is disabled"
                    ) from exc
        raise TransportError(
            f"batch {index} undeliverable after {budget} attempts\n"
            + self.supervisor.describe()
        )

    def _try_ready(self, worker_id: str) -> bool:
        try:
            self._await_ready(worker_id, timeout=self.startup_timeout)
            return True
        except TransportError:
            return False

    def _next_target(self, target: str) -> str:
        live = [c for c in self.compute_ids if c not in self._failed]
        if not live:
            raise TransportError(
                "no live compute worker left\n" + self.supervisor.describe()
            )
        if target not in live:
            return live[0]
        return ring_successor(live, target)

    # ------------------------------------------------------------------
    # Collection + teardown
    # ------------------------------------------------------------------
    def collect(self) -> None:
        """Merge every live worker's spans and counters into the run.

        A worker that died and was never restarted takes its spans with
        it — real processes offer no post-mortem flight recorder; the
        driver-side events (worker-lost, worker-killed) are the record
        of the gap.
        """
        for worker_id, handle in self.supervisor.handles.items():
            if worker_id in self._failed or not handle.alive():
                continue
            try:
                snapshot = self._client(worker_id).call("snapshot")
            except (PeerUnavailable, RpcError, ConnectionClosed):
                continue
            for name, value in snapshot.get("counters", {}).items():
                self.info.worker_counters[name] = (
                    self.info.worker_counters.get(name, 0.0) + value
                )
            if self.tracer.enabled:
                merge_trace_records(
                    self.tracer, snapshot.get("trace", ()),
                    parent=self._job_span,
                    attrs={"worker": worker_id},
                )
        self.info.wire_faults = int(
            self.info.worker_counters.get("wire.dropped", 0)
            + self.info.worker_counters.get("wire.duplicated", 0)
            + self.info.worker_counters.get("wire.delayed", 0)
        )
        if self.registry is not None:
            merge_counters(
                self.registry, self.info.worker_counters, prefix="cluster."
            )
            if self.elastic.enabled:
                self.placement_service.publish(self.registry)
            for client in self._clients.values():
                for name, value in client.stats().items():
                    if value:
                        self.registry.counter(f"cluster.rpc.{name}").inc(value)
        if self.tracer.enabled and self._job_span is not None:
            self.tracer.end(self._job_span, at=self._now())

    def close(self) -> None:
        """Graceful shutdown: ask nicely, then let the supervisor reap."""
        for worker_id, handle in self.supervisor.handles.items():
            if not handle.alive():
                continue
            try:
                self._client(worker_id).call("shutdown")
            except (PeerUnavailable, RpcError, ConnectionClosed, OSError):
                pass
        self._stop_accepting.set()
        if self._listener is not None:
            self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        for client in self._clients.values():
            client.close()
        self._clients.clear()
        self.supervisor.shutdown()

    def __enter__(self) -> "ClusterDriver":
        self.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


__all__ = [
    "ClusterDriver",
    "ClusterRunInfo",
    "DRIVER_TOLERANCE",
    "WorkerKill",
]
