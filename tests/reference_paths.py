"""The reference side of the differential tests.

Two hot paths run a fast twin unconditionally, and each twin must
behave exactly like the plainer code it replaces:

* ``ComputeNodeRuntime._submit_fast``, the fused submit a runtime binds
  when its configuration allows it (ski-rental routing, non-blocking,
  no Figure-9 freeze, side-effect-free UDF).  Its reference is the
  ``submit`` -> ``_route_and_dispatch`` -> ``route`` chain, which every
  other configuration runs in production.
* ``Simulator._note_cancel``'s tombstone compaction.  Its reference is
  the lazy queue: a cancelled entry stays in the heap until the run
  loop pops and skips it.

:func:`use_reference_paths` puts components constructed after the call
on the reference side, so a test can compare one run on both sides.
It counts the calls of the reference ``submit``: a reference-side test
asserts the count is non-zero, so it cannot silently become a duplicate
of the fast side.
"""

from __future__ import annotations

from typing import Any, Hashable

import pytest

from repro.engine.compute_node import ComputeNodeRuntime
from repro.sim.events import Simulator


class ReferenceRuns:
    """What ran on the reference side (see :func:`use_reference_paths`)."""

    def __init__(self) -> None:
        #: Calls of the reference ``ComputeNodeRuntime.submit``.
        self.submits = 0


def _never_compact(self: Simulator) -> None:
    """The lazy queue: tombstones wait until the run loop pops them."""


def use_reference_paths(monkeypatch: pytest.MonkeyPatch) -> ReferenceRuns:
    """Route new components through the reference paths until undone."""
    runs = ReferenceRuns()
    reference = ComputeNodeRuntime.submit

    def submit(
        self: ComputeNodeRuntime, tuple_id: int, key: Hashable,
        params: Any = None,
    ) -> None:
        runs.submits += 1
        reference(self, tuple_id, key, params)

    monkeypatch.setattr(ComputeNodeRuntime, "submit", submit)
    monkeypatch.setattr(ComputeNodeRuntime, "_submit_fast", submit)
    monkeypatch.setattr(Simulator, "_note_cancel", _never_compact)
    return runs
