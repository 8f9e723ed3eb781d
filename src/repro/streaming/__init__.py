"""Muppet-style stream processing analog (Sections 7.1, 9.1.2, 9.3).

Muppet processes "fast data" with MapUpdate: ``map`` turns each event
into keyed records, ``update`` folds each record into a per-key slate.
This package provides :class:`MuppetLocal`, a real, in-process
MapUpdate executor with the ``preMap`` prefetch hook of Appendix D.2
(correctness path, used in tests and examples).  Muppet's join
throughput (Figures 6 and 11) is measured on the ``engine`` runner:
a :class:`~repro.engine.job.JoinJob` saturation-fed with the stream.
"""

from repro.streaming.muppet import MuppetLocal

__all__ = ["MuppetLocal"]
