"""repro.vector — what is left of the columnar kernels.

Exactly :func:`ski_rental_lanes` and :class:`~repro.vector.lanes.RouteLanes`:
the threshold arithmetic and result type of
:meth:`repro.core.optimizer.JoinLocationOptimizer.route_batch`, a
kernel no engine calls.  The pair is kept only because the repo's
benchmark measures it (``core.optimizer.route_batch_us_per_key``) and
goes with that metric (ROADMAP item 2(i)).

``ski_rental_lanes`` is numpy-when-available with a pure-python
columnar fallback, bit-identical to the scalar router either way.
"""

from repro.vector.kernels import HAVE_NUMPY, ski_rental_lanes
from repro.vector.lanes import RouteLanes

__all__ = [
    "HAVE_NUMPY",
    "RouteLanes",
    "ski_rental_lanes",
]
