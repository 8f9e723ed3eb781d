"""Golden pin of the kernel's published metrics, per engine.

The whole per-run :meth:`MetricsRegistry.snapshot` of each simulated
engine on the differential suite's workload, healthy and under its
message-chaos schedule, equals ``kernel_snapshots.json`` to the float:
counters, ``usage.*`` gauges and histograms.  A change to how the
kernel collects or publishes its counters must leave every entry as it
is; a change that moves a simulated number shows up here.
"""

import json
from pathlib import Path

import pytest

from repro.obs import MetricsRegistry
from repro.runtime import ENGINES, SimBackend
from tests.test_runtime_kernel import CHAOS, TOLERANCE, workload  # noqa: F401

#: ``engine/mode -> MetricsRegistry.snapshot()``.
GOLDEN = json.loads((Path(__file__).parent / "kernel_snapshots.json").read_text())


@pytest.mark.parametrize("mode", ["healthy", "chaos"])
@pytest.mark.parametrize("engine", ENGINES)
def test_registry_snapshot_golden_pin(engine, mode, workload):  # noqa: F811
    faults = (
        {"fault_schedule": CHAOS, "fault_tolerance": TOLERANCE}
        if mode == "chaos" else {}
    )
    registry = MetricsRegistry()
    SimBackend(engine=engine, seed=5, registry=registry, **faults).run_join(
        workload
    )
    assert registry.snapshot() == GOLDEN[f"{engine}/{mode}"]
