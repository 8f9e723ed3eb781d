"""Reference-mode switch for the hot-path optimizations.

Three forks read this switch, each with a row of measurements in
DESIGN.md §11: the fused ``_submit_fast`` submit path
(``engine/compute_node.py``; both submit paths share one
``_execute_local``), the feeder's fused completion
callback (``engine/job.py``) and the event queue's tombstone compaction
(``sim/events.py``).  Each keeps the exact pre-optimization algorithm
alive behind it — the reference implementation and one optimized
implementation, nothing else; everything not listed (data-node serving,
response merging, the cache's lazy heap, the cost model, the UDF loops
of the shuffle engines and the cluster workers) has one implementation,
which both modes run.  With
``REPRO_PERF_REFERENCE=1`` in the environment, newly constructed
components take the reference code paths verbatim, which is what the
differential equivalence suite (``tests/test_perf_equivalence.py``)
compares against: both paths must produce byte-identical join outputs,
simulated costs, and span trees.  The same suite's golden pin holds
the digests and makespans of pinned runs in either mode.

The flag is read at *component construction time* (one ``os.environ``
lookup per simulator / runtime / job, never per event), so tests
can flip it per-run without reloading modules.  This module must stay
dependency-free: the core packages import it, and anything heavier
would create an import cycle.
"""

from __future__ import annotations

import os

#: Environment variable selecting the pre-optimization reference path.
REFERENCE_ENV = "REPRO_PERF_REFERENCE"

_TRUTHY = ("1", "true", "yes", "on")


def reference_mode() -> bool:
    """Whether new components should take the pre-optimization paths."""
    return os.environ.get(REFERENCE_ENV, "").strip().lower() in _TRUTHY
