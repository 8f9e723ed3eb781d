"""A data node keeps a response only while its request can still arrive.

Every served batch is cached by request id so that a retried or
network-duplicated copy is answered without redoing the work.  The
transport knows each id's whole future: it counts the copies it put on
the wire, and once an id is settled (answered, abandoned, failed over)
and no copy is left to deliver, it tells every server the id went to to
forget it.  A replay needs a copy still to be delivered, so releasing
changes nothing a run computes, counts or publishes.
"""

import pytest

from repro.faults.policy import FaultTolerance
from repro.faults.schedule import CrashFault, FaultSchedule, StragglerFault
from repro.obs import MetricsRegistry
from repro.resilience.options import ResilienceOptions
from repro.runtime import SimBackend
from repro.runtime.transport import Transport
from repro.store.datanode import DataNodeServer
from tests.test_runtime_kernel import (  # noqa: F401
    CHAOS,
    TOLERANCE,
    record_instances,
    workload,
)

STRAGGLER = FaultSchedule(stragglers=(
    StragglerFault(node_id=2, at=0.0, duration=100.0, slowdown=8.0),
))
CRASH = FaultSchedule(crashes=(
    CrashFault(node_id=2, at=0.05, duration=100.0),
))

#: ``name -> SimBackend`` keyword arguments.
RUNS = {
    "engine/healthy": {"engine": "engine"},
    "engine/chaos": {"engine": "engine", "fault_schedule": CHAOS,
                     "fault_tolerance": TOLERANCE},
    "engine/hedged": {
        "engine": "engine", "strategy": "FD", "fault_schedule": STRAGGLER,
        "fault_tolerance": FaultTolerance(request_timeout=5.0, max_retries=8),
        "resilience": ResilienceOptions.on(
            hedging=True, hedge_quantile=0.5, hedge_warmup=2, detection=False,
        ),
    },
    "engine/failover": {
        "engine": "engine", "fault_schedule": CRASH,
        "fault_tolerance": FaultTolerance(request_timeout=0.01, max_retries=64),
        "resilience": ResilienceOptions.on(heartbeat_interval=0.005),
    },
}


def _live(transport):
    """Ids of ``transport`` that are unsettled or still on the wire."""
    on_wire = {rid for rid, copies in transport._wire.items()
               if any(copies.values())}
    return set(transport._pending) | on_wire


def _run(workload, kwargs, check=None, keep=False):  # noqa: F811
    """One run; ``check(server, transports)`` is called at every serve,
    and ``keep`` makes ``release`` forget nothing.  Returns the run, its
    registry snapshot, its servers and its transports."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        built = {cls: record_instances(monkeypatch, cls)
                 for cls in (DataNodeServer, Transport)}
        if check is not None:
            serve = DataNodeServer.serve

            def checked_serve(self, *args, **kwargs):
                check(self, built[Transport])
                return serve(self, *args, **kwargs)

            monkeypatch.setattr(DataNodeServer, "serve", checked_serve)
        if keep:
            monkeypatch.setattr(DataNodeServer, "release", lambda self, rid: None)
        registry = MetricsRegistry()
        run = SimBackend(seed=5, registry=registry, **kwargs).run_join(workload)
    return run, registry.snapshot(), built[DataNodeServer], built[Transport]


def _nothing_dead_is_cached(server, transports):
    """The cache holds no id that is settled with no copy left to land."""
    live = set()
    for transport in transports:
        if server in transport.servers.values():
            live |= _live(transport)
    dead = set(server._response_cache) - live
    assert not dead, f"node {server.node_id} still caches {sorted(dead)}"


@pytest.mark.parametrize("name", sorted(RUNS))
def test_release_keeps_the_run_and_empties_every_cache(name, workload):  # noqa: F811
    run, snapshot, servers, transports = _run(
        workload, RUNS[name], check=_nothing_dead_is_cached
    )
    assert servers and transports
    for server in servers:
        assert server._response_cache == {}
    for transport in transports:
        assert transport._wire == {} and transport._pending == {}

    # The same run with a release that forgets nothing.
    kept, kept_snapshot, kept_servers, _ = _run(workload, RUNS[name], keep=True)
    assert any(server._response_cache for server in kept_servers)
    assert run.outputs == kept.outputs
    assert run.duration == kept.duration
    assert snapshot == kept_snapshot
    replays = [server.duplicate_requests for server in servers]
    assert replays == [server.duplicate_requests for server in kept_servers]
    if name.endswith("chaos"):
        # Duplicated and retried copies reached a server that had
        # already answered them: the replay path ran, and still did.
        assert sum(replays) > 0
    if name == "engine/hedged":
        assert sum(t.hedges_issued for t in transports) > 0
    if name == "engine/failover":
        assert sum(t.failovers for t in transports) > 0
