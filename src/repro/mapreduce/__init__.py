"""Hadoop MapReduce analog and reduce-side skew-mitigation baselines.

Figure 5 compares the paper's framework against reduce-side joins run
as MapReduce jobs: naive Hadoop (hash partitioning), CSAW [12]
(frequency x cost aware partitioning/replication) and FlowJoinLB [23]
(heavy-hitter replication from exact statistics — a lower bound on
FlowJoin, which samples).  This package provides:

* :class:`LocalMapReduce` — a real, in-memory map/shuffle/reduce
  executor used for correctness tests and examples,
* :class:`SimulatedMapReduce` — the same dataflow executed against the
  cluster simulator with per-record costs (stragglers emerge naturally
  from skewed partitions),
* :func:`reduce_side_join` — the annotation job's spec and costs;
  run on :class:`SimulatedMapReduce` it produces the makespans of the
  Figure 5 bars,
* :mod:`repro.mapreduce.skew_partitioners` — the CSAW and FlowJoinLB
  partitioners.
"""

from repro.mapreduce.api import MapReduceSpec, Partitioner, hash_partition
from repro.mapreduce.local import LocalMapReduce
from repro.mapreduce.simulated import (
    MapReduceCosts,
    SimulatedMapReduce,
    SimulatedMapReduceResult,
    reduce_side_join,
)
from repro.mapreduce.skew_partitioners import (
    CSAWPartitioner,
    FlowJoinLBPartitioner,
    KeyStatistics,
)

__all__ = [
    "MapReduceSpec",
    "Partitioner",
    "hash_partition",
    "LocalMapReduce",
    "MapReduceCosts",
    "SimulatedMapReduce",
    "SimulatedMapReduceResult",
    "reduce_side_join",
    "CSAWPartitioner",
    "FlowJoinLBPartitioner",
    "KeyStatistics",
]
