"""Request/response RPC over the cluster codec.

The cluster speaks exactly one application protocol: a request frame
``{"rid", "op", **payload}`` answered by a response frame ``{"rid",
"ok", "value" | "error"}``.  This module is both halves:

* :class:`RpcClient` — the calling side.  Reuses the runtime kernel's
  retry discipline (:meth:`repro.faults.policy.FaultTolerance
  .timeout_for`: per-attempt timeouts with bounded exponential
  backoff) and its idempotency contract: a retry re-sends the *same*
  request id, and the serving side replays its cached response if only
  the response was lost — so a retried side-effecting operation
  executes once.
* :func:`serve_connection` — the serving side's per-connection loop,
  with the replay cache and the wire-fault filter (seeded drops /
  duplicates / delays of responses, the real-transport analogue of
  :class:`repro.faults.schedule.MessageChaos`).

Stale responses (a delayed original overtaken by its retry, or a
deliberately duplicated response) are discarded by request id, the
same dead-token rule :class:`repro.runtime.transport.Transport`
applies on the simulated wire.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable

from repro.cluster.codec import ConnectionClosed, MessageStream, connect
from repro.faults.policy import FaultTolerance

#: Default call policy: generous timeout, plenty of retries — cluster
#: tests run on loopback where a lost response means injected faults,
#: not congestion.
DEFAULT_TOLERANCE = FaultTolerance(
    request_timeout=0.25, max_retries=12, backoff_factor=1.5, max_backoff=2.0
)


class RpcError(RuntimeError):
    """The peer answered with an application-level error."""

    def __init__(self, op: str, error: dict[str, Any]) -> None:
        super().__init__(f"rpc {op!r} failed: {error}")
        self.op = op
        self.error = error

    @property
    def kind(self) -> str:
        return str(self.error.get("kind", "error"))


class PeerUnavailable(ConnectionError):
    """The peer is dead or unreachable after exhausting every retry."""

    def __init__(self, peer: str, detail: str) -> None:
        super().__init__(f"peer {peer!r} unavailable: {detail}")
        self.peer = peer


class RpcClient:
    """One reliable request/response channel to one worker.

    A client holds a single connection and serializes calls with a
    lock (concurrency across *workers* comes from one client per
    worker).  On a timed-out call it re-sends the same request id; on
    a broken connection it redials once per attempt — a restarted
    worker re-binds its advertised address, so redial-after-death is
    exactly the failover path.
    """

    def __init__(
        self,
        peer: str,
        address: tuple[str, int],
        tolerance: FaultTolerance = DEFAULT_TOLERANCE,
        connect_timeout: float = 2.0,
    ) -> None:
        if not tolerance.enabled:
            raise ValueError("RpcClient needs an enabled FaultTolerance")
        self.peer = peer
        self.address = address
        self.tolerance = tolerance
        self.connect_timeout = connect_timeout
        self._stream: MessageStream | None = None
        self._lock = threading.Lock()
        # Request ids must be unique across every process that ever
        # talks to a given worker: the serving side keys its replay
        # cache on them.  ``id(self)`` is NOT unique here — workers are
        # forked from one parent, so two processes can allocate their
        # clients at the same address — hence the random token.
        self._rid_prefix = os.urandom(8).hex()
        self._rid_seq = 0
        #: Counters named like the simulated transport's
        #: (``repro.obs.usage.TRANSPORT_COUNTERS``); :meth:`stats`
        #: merges them into ``cluster.rpc.*``.
        self.requests_sent = 0
        self.timeouts = 0
        self.retries = 0
        self.reconnects = 0
        self.stale_responses = 0

    # ------------------------------------------------------------------
    def call(self, op: str, timeout_scale: float = 1.0, **payload: Any) -> Any:
        """Invoke ``op`` on the peer; returns the response value.

        Raises :class:`RpcError` for application errors,
        :class:`PeerUnavailable` once the retry budget is exhausted.
        """
        with self._lock:
            return self._call_locked(op, timeout_scale, payload)

    def _call_locked(
        self, op: str, timeout_scale: float, payload: dict[str, Any]
    ) -> Any:
        self._rid_seq += 1
        rid = f"{self._rid_prefix}:{self._rid_seq}"
        request = {"rid": rid, "op": op, **payload}
        ft = self.tolerance
        last_error = "no attempt made"
        self.requests_sent += 1
        for attempt in range(ft.max_retries + 1):
            if attempt:
                self.retries += 1
            deadline = time.monotonic() + ft.timeout_for(attempt) * timeout_scale
            try:
                stream = self._ensure_stream()
                stream.send(request)
                response = self._await_response(stream, rid, deadline)
            except TimeoutError:
                self.timeouts += 1
                last_error = f"timeout on attempt {attempt}"
                continue
            except OSError as exc:
                # ConnectionClosed (EOF mid-frame), ECONNREFUSED (dead
                # peer not yet re-bound by its restart), ECONNRESET —
                # all the same story: drop the stream, back off so a
                # supervisor restart has time to re-bind, redial.
                last_error = f"{type(exc).__name__}: {exc}"
                self._drop_stream()
                time.sleep(min(0.05 * (attempt + 1), 0.5))
                continue
            if not response.get("ok", False):
                raise RpcError(op, response.get("error", {}))
            return response.get("value")
        raise PeerUnavailable(self.peer, f"{op!r}: {last_error}")

    def _await_response(
        self, stream: MessageStream, rid: str, deadline: float
    ) -> dict[str, Any]:
        """Wait for the frame matching ``rid``, discarding stale ones."""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"rid {rid} unanswered")
            message = stream.recv(timeout=remaining)
            if isinstance(message, dict) and message.get("rid") == rid:
                return message
            # A late response to an earlier attempt or a wire-duplicated
            # frame: dead token, same rule as Transport._handle_response.
            self.stale_responses += 1

    def _ensure_stream(self) -> MessageStream:
        if self._stream is None:
            self._stream = connect(self.address, timeout=self.connect_timeout)
            self.reconnects += 1
        return self._stream

    def _drop_stream(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def close(self) -> None:
        with self._lock:
            self._drop_stream()

    def stats(self) -> dict[str, int]:
        """Counter snapshot (merged under ``cluster.rpc.*``)."""
        return {
            "requests_sent": self.requests_sent,
            "timeouts": self.timeouts,
            "retries": self.retries,
            "reconnects": max(self.reconnects - 1, 0),
            "stale_responses": self.stale_responses,
        }


# ----------------------------------------------------------------------
# Serving side
# ----------------------------------------------------------------------
def serve_connection(
    stream: MessageStream,
    handler: Callable[[str, dict[str, Any]], Any],
    *,
    replay_cache: dict[str, dict[str, Any]],
    cache_lock: threading.Lock,
    wire_filter: Callable[[str], tuple[str, float]] | None = None,
    on_served: Callable[[str], None] | None = None,
) -> None:
    """Answer requests on one connection until EOF or shutdown.

    ``handler(op, payload)`` produces the response value (or raises —
    the exception travels back as a structured error).  The replay
    cache makes redelivered request ids idempotent: the cached response
    is re-sent and the handler does **not** run again.  ``wire_filter``
    (see :class:`repro.faults.wire.WireFaults`) may order the response
    dropped, duplicated, or delayed — after the handler ran, which is
    exactly the lost-response window the idempotency machinery exists
    for.  Returns when the peer disconnects or after answering a
    ``shutdown`` op.
    """
    while True:
        try:
            request = stream.recv()
        except (ConnectionClosed, TimeoutError):
            return
        if not isinstance(request, dict) or "op" not in request:
            continue
        rid = str(request.get("rid"))
        op = str(request["op"])
        with cache_lock:
            cached = replay_cache.get(rid)
        if cached is not None:
            response = cached
        else:
            try:
                value = handler(op, request)
                response = {"rid": rid, "ok": True, "value": value}
            except RpcError as exc:
                response = {"rid": rid, "ok": False, "error": exc.error}
            except Exception as exc:  # noqa: BLE001 - ship it to the caller
                response = {
                    "rid": rid,
                    "ok": False,
                    "error": {"kind": type(exc).__name__, "detail": str(exc)},
                }
            with cache_lock:
                replay_cache[rid] = response
        action, delay = ("ok", 0.0)
        if wire_filter is not None and cached is None:
            action, delay = wire_filter(op)
        if delay > 0:
            time.sleep(delay)
        try:
            if action != "drop":
                stream.send(response)
                if action == "duplicate":
                    stream.send(response)
        except ConnectionClosed:
            return
        if on_served is not None:
            on_served(op)
        if op == "shutdown":
            return


__all__ = [
    "DEFAULT_TOLERANCE",
    "PeerUnavailable",
    "RpcClient",
    "RpcError",
    "serve_connection",
]
