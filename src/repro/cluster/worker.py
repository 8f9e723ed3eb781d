"""The cluster worker process: data node, compute node, or both.

A worker is forked from the driver (:mod:`repro.cluster.supervisor`),
so it inherits the :class:`~repro.runtime.backend.JoinWorkload` —
including un-picklable UDF closures — through process memory, exactly
once, at spawn.  Everything *after* the fork crosses a real socket:

* it opens its own listening socket and announces the address to the
  driver in a ``hello`` frame (BNDL's fully interconnected topology:
  the driver hands every worker the full peer map in ``welcome``, and
  compute workers then dial data workers directly — the data plane
  never routes through the driver);
* it routes every key through the driver's placement frame, the one
  routing protocol: key -> bucket -> data worker, hot-key replicas
  fanning reads in; ``welcome`` carries the current epoch (epoch 0 is
  the static partition) and ``placement_update`` newer ones;
* as a data worker it loads its base partition at welcome (the keys it
  statically owns, :func:`owner_index`) and lazily fetches any other
  row routed to it from that row's static owner;
* it serves RPCs (:func:`repro.cluster.rpc.serve_connection`) with an
  idempotent replay cache, one thread per connection;
* it applies its slice of the fault schedule
  (:class:`repro.faults.wire.WireFaults`): seeded response drops /
  duplicates / delays, and — for a scheduled :class:`CrashFault` — a
  hard ``os._exit`` mid-run, producing an actually dead process for
  the failover machinery to detect;
* it records spans and counters in a worker-local tracer/registry and
  ships them back in the ``snapshot`` RPC for the driver to merge
  (:mod:`repro.obs.merge`).

Ops by role — compute: ``run_batch`` (fetch values from owning data
workers, apply the UDF locally — the engine plan),
``map_batch`` (map + shuffle pairs to reducers — the mapreduce plan),
``probe_batch`` (ship probes to the owning data worker — the
sparklite plan); data: ``get_values``, ``reduce_batch``,
``join_probe`` (UDF at the data node).  Role-free: ``ping``,
``echo_count``, ``sleep``, ``snapshot``, ``shutdown``.
"""

from __future__ import annotations

import os
import socket
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Hashable

from repro.cluster.codec import MessageStream, listener
from repro.cluster.rpc import (
    DEFAULT_TOLERANCE,
    PeerUnavailable,
    RpcClient,
    RpcError,
    serve_connection,
)
from repro.faults.policy import FaultTolerance
from repro.faults.schedule import FaultSchedule
from repro.faults.wire import WireFaults
from repro.obs.exporters import trace_records
from repro.obs.tracer import Tracer
from repro.store.partitioner import stable_hash

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.backend import JoinWorkload

#: Exit code of a *scheduled* crash (CrashFault), distinguishing it in
#: supervisor logs from SIGKILL (-9) and clean exits (0).
CRASH_EXIT_CODE = 23

#: Ops the wire-fault filter applies to.  Control-plane ops (hello/
#: snapshot/shutdown/ping) stay reliable so chaos cannot wedge cleanup.
FAULTABLE_OPS = frozenset(
    {"get_values", "run_batch", "map_batch", "probe_batch",
     "reduce_batch", "join_probe", "echo_count",
     # Elastic placement data plane: bucket copies cross the same wire
     # as values, so chaos perturbs them too (the replay caches and the
     # static-owner fallback keep them exactly-once / lossless).
     "region_push", "region_install"}
)


@dataclass
class WorkerSpec:
    """Everything a worker needs, fixed at fork time.

    Mutable on purpose: the supervisor updates ``listen_address`` (so a
    restarted worker re-binds the port its peers already know) and
    clears ``crash_armed`` (a scheduled crash fires once).
    """

    worker_id: str
    #: SimBackend-compatible node number (compute: 0..C-1, data: C..C+D-1)
    #: — fault schedules name workers with the same ids on both backends.
    node_id: int
    roles: tuple[str, ...]
    driver_address: tuple[str, int]
    seed: int
    log_path: str
    listen_address: tuple[str, int] | None = None
    schedule: FaultSchedule | None = None
    #: Whether the scheduled CrashFault (if any) is still pending.
    crash_armed: bool = True
    generation: int = 0
    peer_tolerance: FaultTolerance = field(default=DEFAULT_TOLERANCE)
    #: Memory-adaptive execution (repro.memory): when enabled the
    #: worker's value cache is charged against a real MemoryBudget and
    #: scheduled memory_pressure faults shrink it mid-run.
    memory: Any = None


def owner_index(key: Hashable, n_partitions: int) -> int:
    """Which data partition statically owns ``key`` (epoch 0's owner)."""
    return stable_hash(key) % n_partitions


def partition_values(
    workload: "JoinWorkload", data_ring: list[str], worker_id: str
) -> dict[Hashable, Any]:
    """The base partition of ``worker_id``: the stored rows whose static
    owner, ``data_ring[owner_index(key, len(data_ring))]``, it is."""
    index, n = data_ring.index(worker_id), len(data_ring)
    return {
        key: value
        for key, value in workload.stored_values().items()
        if owner_index(key, n) == index
    }


class _Worker:
    """Runtime state of one worker process."""

    def __init__(self, spec: WorkerSpec, workload: "JoinWorkload") -> None:
        self.spec = spec
        self.workload = workload
        self.udf = workload.udf
        self.stop = threading.Event()
        self.tracer = Tracer()
        self.counters: dict[str, float] = {}
        self._counter_lock = threading.Lock()
        self.replay_cache: dict[str, dict[str, Any]] = {}
        self.cache_lock = threading.Lock()
        self.started = time.perf_counter()
        self.echo_count = 0
        #: Peer map worker_id -> address, from the welcome frame.
        self.peers: dict[str, tuple[str, int]] = {}
        #: Data-role worker ids in partition order, from the welcome
        #: frame: the static owners :meth:`_ensure_values` fetches from.
        self.data_ring: list[str] = []
        self._peer_clients: dict[str, RpcClient] = {}
        self._peer_lock = threading.Lock()
        #: Compute-side value cache (the rent/buy "buy" analogue): keys
        #: fetched once per worker lifetime; correctness never depends
        #: on it because the stored relation is immutable during a run.
        self.value_cache: dict[Hashable, Any] = {}
        self._value_lock = threading.Lock()
        #: Memory-adaptive execution: budget arbiter governing the
        #: value cache (None = unbounded, the legacy behaviour).
        self.budget: Any = None
        self._value_size = workload.sizes.value_size
        memory = spec.memory
        if memory is not None and getattr(memory, "enabled", False):
            from repro.memory.budget import MemoryBudget

            limit = memory.budget_bytes
            if limit is None:
                limit = 100e6
            self.budget = MemoryBudget(limit, node_id=spec.node_id)
            self.budget.add_reclaimer("value-cache", self._reclaim_value_cache)
        #: Stored rows this worker serves (data role): its base
        #: partition, loaded at welcome, plus installed and lazily
        #: fetched copies.
        self.values: dict[Hashable, Any] = {}
        #: Placement frame from the driver (welcome or a newer-epoch
        #: ``placement_update`` broadcast): ``{"epoch", "n_buckets",
        #: "buckets" (bucket -> worker_id), "replicas"}``.  The welcome
        #: replaces this pre-handshake stub before any RPC is served.
        self.placement: dict[str, Any] = {"epoch": -1}
        self._replica_map: dict[Hashable, list[str]] = {}
        self._placement_lock = threading.Lock()
        #: Per-bucket / per-key serve counts (data role): the load
        #: observations the driver's rebalance round pulls.
        self.bucket_counts: dict[int, float] = {}
        self.key_counts: dict[Hashable, float] = {}
        schedule = spec.schedule
        if schedule is not None and not spec.crash_armed:
            schedule = replace(schedule, crashes=())
        self.wire = WireFaults.from_schedule(schedule, spec.node_id)
        self._log_file = open(spec.log_path, "a", buffering=1)

    # ------------------------------------------------------------------
    def log(self, message: str) -> None:
        offset = time.perf_counter() - self.started
        self._log_file.write(
            f"[{self.spec.worker_id} g{self.spec.generation} "
            f"+{offset:.3f}s] {message}\n"
        )

    def bump(self, name: str, amount: float = 1.0) -> None:
        with self._counter_lock:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    def now(self) -> float:
        return time.perf_counter() - self.started

    # ------------------------------------------------------------------
    # Peer RPC (compute -> data mesh)
    # ------------------------------------------------------------------
    def peer_client(self, worker_id: str) -> RpcClient:
        with self._peer_lock:
            client = self._peer_clients.get(worker_id)
            if client is None:
                client = RpcClient(
                    worker_id, self.peers[worker_id],
                    tolerance=self.spec.peer_tolerance,
                )
                self._peer_clients[worker_id] = client
            return client

    def data_worker_for(self, key: Hashable) -> str:
        """The data worker serving a read of ``key`` this epoch."""
        placement = self.placement
        owner = placement["buckets"][stable_hash(key) % placement["n_buckets"]]
        extra = self._replica_map.get(key)
        if extra:
            # Hot-key read fan-in: deterministic per reader, so the
            # value cache stays exact and two runs route alike.
            serving = [owner] + [w for w in extra if w != owner]
            return serving[self.spec.node_id % len(serving)]
        return owner

    def apply_placement(self, frame: dict[str, Any]) -> int:
        """Adopt a placement frame if its epoch is newer; returns ours."""
        with self._placement_lock:
            if frame["epoch"] > self.placement["epoch"]:
                self.placement = frame
                self._replica_map = {
                    key: list(workers) for key, workers in frame["replicas"]
                }
            return self.placement["epoch"]

    def welcome(self, frame: dict[str, Any]) -> None:
        """Adopt the driver's welcome: peers, data ring, placement epoch
        and, for a data worker, its base partition."""
        self.peers = dict(frame["peers"])
        self.data_ring = list(frame["data_ring"])
        self.apply_placement(frame["placement"])
        if "data" in self.spec.roles:
            self.values = partition_values(
                self.workload, self.data_ring, self.spec.worker_id
            )

    def call_peer(self, worker_id: str, op: str, **payload: Any) -> Any:
        self.bump("peer.requests")
        try:
            return self.peer_client(worker_id).call(op, **payload)
        except PeerUnavailable as exc:
            # Surface the dead peer to the driver as a structured error
            # so it can heal (restart + let the retry find it) instead
            # of guessing from a generic failure string.
            raise RpcError(op, {
                "kind": "peer_unavailable",
                "peer": worker_id,
                "detail": str(exc),
            }) from exc

    # ------------------------------------------------------------------
    # Join fragments
    # ------------------------------------------------------------------
    def fetch_values(self, keys: list[Hashable]) -> dict[Hashable, Any]:
        """Resolve ``keys`` to stored values via the data-worker mesh."""
        resolved: dict[Hashable, Any] = {}
        missing: dict[str, list[Hashable]] = {}
        with self._value_lock:
            for key in keys:
                if key in self.value_cache:
                    resolved[key] = self.value_cache[key]
                elif key in self.values:  # colocated: own partition
                    resolved[key] = self.values[key]
                else:
                    missing.setdefault(self.data_worker_for(key), []).append(key)
        for worker_id, wanted in missing.items():
            fetched = self.call_peer(
                worker_id, "get_values", keys=sorted(set(wanted), key=repr)
            )
            with self._value_lock:
                self._admit_fetched(fetched)
            resolved.update(fetched)
        return resolved

    def _admit_fetched(self, fetched: dict[Hashable, Any]) -> None:
        """Cache fetched values, budget-governed when memory is armed.

        With no budget this is a plain ``update`` (legacy).  With one,
        each admission must reserve the row's bytes; refusals first
        evict older entries (releasing their reservation), and a budget
        too small for even one row degrades to serving uncached —
        correctness never depends on the cache.
        """
        if self.budget is None:
            self.value_cache.update(fetched)
            return
        size = self._value_size
        for key, value in fetched.items():
            if key in self.value_cache:
                continue
            admitted = self.budget.try_reserve("value-cache", size)
            while not admitted and self.value_cache:
                victim = next(iter(self.value_cache))
                del self.value_cache[victim]
                self.budget.release("value-cache", size)
                self.bump("memory.cache_evictions")
                admitted = self.budget.try_reserve("value-cache", size)
            if admitted:
                self.value_cache[key] = value
            else:
                self.bump("memory.cache_refusals")

    def _reclaim_value_cache(self, need: float) -> float:
        """Shrink-event reclaimer: drop cached values until sated."""
        freed = 0.0
        with self._value_lock:
            while freed < need and self.value_cache:
                victim = next(iter(self.value_cache))
                del self.value_cache[victim]
                self.budget.release("value-cache", self._value_size)
                freed += self._value_size
                self.bump("memory.cache_evictions")
        return freed

    def _count_serves(self, keys: list[Hashable]) -> None:
        """Record per-bucket / per-key load (the rebalance observations)."""
        # Per-worker serve volume: the skew benchmark reads these back
        # as ``cluster.served.<worker>`` to compare the hottest node's
        # share with elasticity off vs on.
        self.bump(f"served.{self.spec.worker_id}", float(len(keys)))
        n_buckets = self.placement["n_buckets"]
        with self._placement_lock:
            for key in keys:
                bucket = stable_hash(key) % n_buckets
                self.bucket_counts[bucket] = self.bucket_counts.get(bucket, 0.0) + 1.0
                self.key_counts[key] = self.key_counts.get(key, 0.0) + 1.0

    def _ensure_values(self, keys: list[Hashable]) -> None:
        """Fetch rows this worker serves but does not hold yet.

        The placement can route a key here (migrated bucket, hot-key
        replica, a written-off worker's bucket) before — or without — a
        ``region_install`` having landed.  The static owner always
        retains its base partition (copies never delete), so a lazy
        fetch from it is both safe and terminating: a worker *is* its
        own static owner for its base partition, and that case never
        misses.
        """
        missing: dict[str, list[Hashable]] = {}
        ring = self.data_ring
        for key in keys:
            if key in self.values:
                continue
            static_owner = ring[owner_index(key, len(ring))]
            if static_owner == self.spec.worker_id:
                continue  # genuinely unknown key; let the KeyError surface
            missing.setdefault(static_owner, []).append(key)
        for worker_id, wanted in missing.items():
            fetched = self.call_peer(
                worker_id, "get_values", keys=sorted(set(wanted), key=repr)
            )
            with self._value_lock:
                self.values.update(fetched)
            self.bump("placement.lazy_fetches", len(fetched))

    def apply_udf(
        self,
        tids: list[int],
        keys: list[Hashable],
        params: list[Any] | None,
        values: dict[Hashable, Any],
    ) -> dict[int, Any]:
        udf = self.udf
        outputs: dict[int, Any] = {}
        for at, tid in enumerate(tids):
            key = keys[at]
            p = params[at] if params is not None else None
            outputs[tid] = udf.apply(key, p, values[key])
        self.bump("udf.applied", len(tids))
        return outputs

    # ------------------------------------------------------------------
    # RPC handler
    # ------------------------------------------------------------------
    def handle(self, op: str, request: dict[str, Any]) -> Any:
        if op in FAULTABLE_OPS and self.wire is not None:
            if self.spec.crash_armed and self.wire.crash_pending():
                self.log(f"scheduled crash before op {op!r} "
                         f"(seq {self.wire.crash_seq})")
                self._log_file.flush()
                os._exit(CRASH_EXIT_CODE)
            factor = self.wire.pressure_pending()
            if factor is not None:
                if self.budget is not None:
                    freed = self.budget.shrink(factor)
                    self.bump("memory.pressure_applied")
                    self.log(
                        f"memory pressure x{factor}: budget now "
                        f"{self.budget.limit:.0f}B, reclaimed {freed:.0f}B"
                    )
                else:
                    self.log(f"memory pressure x{factor}: no budget armed")
        span = self.tracer.start(
            "worker.serve", at=self.now(),
            op=op, worker=self.spec.worker_id,
        )
        try:
            value = self._dispatch_op(op, request)
            self.tracer.end(span, at=self.now())
            self.bump(f"serve.{op}")
            return value
        except Exception:
            self.tracer.end(span, at=self.now(), status="error")
            self.bump(f"serve_error.{op}")
            raise

    def _dispatch_op(self, op: str, request: dict[str, Any]) -> Any:
        if op == "ping":
            return {"worker_id": self.spec.worker_id, "pid": os.getpid(),
                    "generation": self.spec.generation}
        if op == "echo_count":
            self.echo_count += 1
            return self.echo_count
        if op == "sleep":
            time.sleep(float(request["seconds"]))
            return None
        if op == "get_values":
            self._require_role("data", op)
            keys = request["keys"]
            self._count_serves(keys)
            self._ensure_values(keys)
            self.bump("values.served", len(keys))
            return {key: self.values[key] for key in keys}
        if op == "run_batch":
            self._require_role("compute", op)
            tids, keys = request["tids"], request["keys"]
            params = request.get("params")
            values = self.fetch_values(keys)
            return self.apply_udf(tids, keys, params, values)
        if op == "map_batch":
            self._require_role("compute", op)
            return self._map_batch(request)
        if op == "probe_batch":
            self._require_role("compute", op)
            return self._probe_batch(request)
        if op == "reduce_batch":
            self._require_role("data", op)
            return self._reduce_batch(request)
        if op == "join_probe":
            self._require_role("data", op)
            tids, keys = request["tids"], request["keys"]
            params = request.get("params")
            self._count_serves(keys)
            self._ensure_values(keys)
            return self.apply_udf(tids, keys, params, self.values)
        if op == "bucket_loads":
            self._require_role("data", op)
            return self._bucket_loads()
        if op == "region_push":
            self._require_role("data", op)
            return self._region_push(request)
        if op == "region_install":
            self._require_role("data", op)
            rows = request["rows"]
            with self._value_lock:
                self.values.update(dict(rows))
            self.bump("placement.installed", len(rows))
            return {"installed": len(rows)}
        if op == "placement_update":
            epoch = self.apply_placement(request["placement"])
            return {"worker_id": self.spec.worker_id, "epoch": epoch}
        if op == "snapshot":
            return self.snapshot()
        if op == "shutdown":
            self.stop.set()
            return {"worker_id": self.spec.worker_id}
        raise RpcError(op, {"kind": "unknown_op", "op": op})

    def _require_role(self, role: str, op: str) -> None:
        if role not in self.spec.roles:
            raise RpcError(op, {
                "kind": "wrong_role",
                "needs": role,
                "has": list(self.spec.roles),
            })

    # -- the mapreduce plan: map here, shuffle pairs to reducers --------
    def _map_batch(self, request: dict[str, Any]) -> dict[int, Any]:
        tids, keys = request["tids"], request["keys"]
        params = request.get("params")
        by_reducer: dict[str, dict[Hashable, list[tuple[int, Any]]]] = {}
        for at, tid in enumerate(tids):
            key = keys[at]
            p = params[at] if params is not None else None
            groups = by_reducer.setdefault(self.data_worker_for(key), {})
            groups.setdefault(key, []).append((tid, p))
        outputs: dict[int, Any] = {}
        for worker_id in sorted(by_reducer):
            reduced = self.call_peer(
                worker_id, "reduce_batch",
                groups=list(by_reducer[worker_id].items()),
            )
            outputs.update(reduced)
        self.bump("shuffle.partitions", len(by_reducer))
        return outputs

    def _reduce_batch(self, request: dict[str, Any]) -> dict[int, Any]:
        outputs: dict[int, Any] = {}
        udf = self.udf
        n = 0
        group_keys = [key for key, _pairs in request["groups"]]
        self._count_serves(group_keys)
        self._ensure_values(group_keys)
        for key, pairs in request["groups"]:
            stored = self.values[key]
            for tid, p in pairs:
                outputs[tid] = udf.apply(key, p, stored)
                n += 1
        self.bump("udf.applied", n)
        return outputs

    # -- the sparklite plan: ship probes to the owning data worker ------
    def _probe_batch(self, request: dict[str, Any]) -> dict[int, Any]:
        tids, keys = request["tids"], request["keys"]
        params = request.get("params")
        by_owner: dict[str, list[int]] = {}
        for at in range(len(tids)):
            by_owner.setdefault(self.data_worker_for(keys[at]), []).append(at)
        outputs: dict[int, Any] = {}
        for worker_id in sorted(by_owner):
            ats = by_owner[worker_id]
            reduced = self.call_peer(
                worker_id, "join_probe",
                tids=[tids[a] for a in ats],
                keys=[keys[a] for a in ats],
                params=[params[a] for a in ats] if params is not None else None,
            )
            outputs.update(reduced)
        self.bump("shuffle.partitions", len(by_owner))
        return outputs

    # -- elastic placement: load observation + live bucket copies -------
    def _bucket_loads(self) -> dict[str, Any]:
        """The serve counts the driver's rebalance round aggregates."""
        with self._placement_lock:
            buckets = dict(self.bucket_counts)
            hot = sorted(
                self.key_counts.items(), key=lambda kv: (-kv[1], repr(kv[0]))
            )[:16]
        return {"buckets": buckets, "keys": hot}

    def _region_push(self, request: dict[str, Any]) -> dict[str, Any]:
        """Copy a bucket (or named keys) to another data worker.

        The real-RPC leg of a live migration: the driver asks the
        current holder, and the rows travel worker->worker through the
        peer mesh (never through the driver).  Pushing copies — it never
        deletes — so the source keeps serving through the cutover and
        the static owner remains the fallback of last resort.
        """
        target = str(request["target"])
        keys = request.get("keys")
        with self._value_lock:
            if keys is None:
                bucket = int(request["bucket"])
                n_buckets = self.placement["n_buckets"]
                rows = [
                    (key, value)
                    for key, value in self.values.items()
                    if stable_hash(key) % n_buckets == bucket
                ]
            else:
                rows = [
                    (key, self.values[key]) for key in keys if key in self.values
                ]
        self.call_peer(target, "region_install", rows=rows)
        self.bump("placement.pushed", len(rows))
        return {"moved": len(rows)}

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Spans + counters + RPC/wire stats, for the driver to merge."""
        with self._counter_lock:
            counters = dict(self.counters)
        with self._peer_lock:
            for client in self._peer_clients.values():
                for name, value in client.stats().items():
                    counters[f"rpc.{name}"] = (
                        counters.get(f"rpc.{name}", 0) + value
                    )
        if self.wire is not None:
            for name, value in self.wire.counters().items():
                counters[f"wire.{name}"] = value
        if self.budget is not None:
            for name, value in self.budget.counters().items():
                if value:
                    counters[f"memory.{name}"] = value
        return {
            "worker_id": self.spec.worker_id,
            "generation": self.spec.generation,
            "pid": os.getpid(),
            "trace": trace_records(self.tracer),
            "counters": counters,
        }

    def wire_filter(self, op: str) -> tuple[str, float]:
        if self.wire is None or op not in FAULTABLE_OPS:
            return "ok", 0.0
        return self.wire.decide()

    def close(self) -> None:
        with self._peer_lock:
            for client in self._peer_clients.values():
                client.close()
        self._log_file.close()


def worker_main(spec: WorkerSpec, workload: "JoinWorkload") -> None:
    """Process entry point: handshake, serve until shutdown, exit."""
    worker = _Worker(spec, workload)
    exit_code = 0
    try:
        _run_worker(worker)
    except Exception:
        worker.log("worker crashed:\n" + traceback.format_exc())
        exit_code = 1
    finally:
        worker.log(f"exiting with code {exit_code}")
        worker.close()
    sys.exit(exit_code)


def _run_worker(worker: _Worker) -> None:
    spec = worker.spec
    host, port = spec.listen_address or ("127.0.0.1", 0)
    server = listener(host, port)
    address = server.getsockname()
    worker.log(f"listening on {address} (roles={spec.roles})")

    # Handshake: announce ourselves, learn the full peer map.
    from repro.cluster.codec import connect as dial

    with dial(spec.driver_address, timeout=10.0) as control:
        control.send({
            "type": "hello",
            "worker_id": spec.worker_id,
            "pid": os.getpid(),
            "roles": list(spec.roles),
            "address": address,
            "generation": spec.generation,
        })
        welcome = control.recv(timeout=30.0)
        if not isinstance(welcome, dict) or welcome.get("type") != "welcome":
            raise RuntimeError(f"expected welcome frame, got {welcome!r}")
        worker.welcome(welcome)
    worker.log(
        f"welcomed; {len(worker.peers)} workers, "
        f"{len(worker.values)} base rows, epoch {worker.placement['epoch']}"
    )

    server.settimeout(0.2)
    threads: list[threading.Thread] = []
    try:
        while not worker.stop.is_set():
            try:
                conn, _addr = server.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            stream = MessageStream(conn)
            thread = threading.Thread(
                target=serve_connection,
                args=(stream, worker.handle),
                kwargs={
                    "replay_cache": worker.replay_cache,
                    "cache_lock": worker.cache_lock,
                    "wire_filter": worker.wire_filter,
                },
                daemon=True,
            )
            thread.start()
            threads.append(thread)
    finally:
        server.close()
        for thread in threads:
            thread.join(timeout=0.5)


__all__ = [
    "CRASH_EXIT_CODE",
    "FAULTABLE_OPS",
    "WorkerSpec",
    "owner_index",
    "partition_values",
    "worker_main",
]
