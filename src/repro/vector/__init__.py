"""repro.vector — columnar array-at-a-time kernels.

What is left after the engine's request path went back to one item
format (DESIGN.md §14):

* :func:`disk_service_times` — elementwise ``(seek + size/bw) * slow``
  over aligned seek/size columns (spill/unspill pricing of the
  memory-adaptive build sides).
* :func:`apply_udf_batch` — one UDF application sweep over aligned
  key/param/value columns (mapreduce, sparklite, LocalBackend and the
  cluster workers).
* :func:`ski_rental_lanes` and :class:`~repro.vector.lanes.RouteLanes`
  — the threshold arithmetic and result type of
  :meth:`repro.core.optimizer.JoinLocationOptimizer.route_batch`, a
  kernel no engine calls; it is kept because the repo's benchmark
  measures it (``core.optimizer.route_batch_us_per_key``).

Every kernel is numpy-when-available with a pure-python columnar
fallback, and every consumer is gated behind the
``REPRO_PERF_REFERENCE=1`` differential discipline: reference mode
keeps the scalar per-tuple algorithms verbatim, and the equivalence
suite asserts bit-identical outputs, makespans, metrics and span trees
between the two.
"""

from repro.vector.kernels import (
    HAVE_NUMPY,
    apply_udf_batch,
    disk_service_times,
    ski_rental_lanes,
)
from repro.vector.lanes import RouteLanes

__all__ = [
    "HAVE_NUMPY",
    "RouteLanes",
    "apply_udf_batch",
    "disk_service_times",
    "ski_rental_lanes",
]
