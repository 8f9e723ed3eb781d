"""Reference-mode switch for the hot-path optimizations (repro.perf).

Five forks read this switch, each with a row of measurements in
DESIGN.md §11: whether ``CostModel.costs`` consults the cost memo
(``core/cost_model.py``), the fused ``_submit_fast`` /
``_execute_local_mem`` submit path (``engine/compute_node.py``), the
feeder's fused completion callback (``engine/job.py``), the
``_serve_batch_fast`` serving loop (``store/datanode.py``) and the event
queue's tombstone compaction (``sim/events.py``).  Each keeps the exact
pre-optimization algorithm alive behind it — the reference
implementation and one optimized implementation, nothing else;
everything not listed (response merging, the cache's lazy heap, the
cost model's ``observe``, the UDF loops of the shuffle engines and the
cluster workers) has one implementation, which both modes run.  With
``REPRO_PERF_REFERENCE=1`` in the environment, newly constructed
components take the reference code paths verbatim, which is what the
differential equivalence suite (``tests/test_perf_equivalence.py``)
and the harness's verification stage compare against: both paths must
produce byte-identical join outputs, simulated costs, and span trees.

The flag is read at *component construction time* (one ``os.environ``
lookup per simulator / cost model / runtime, never per event), so tests
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
