"""Entity annotation: the paper's running example, end to end.

Annotating documents means joining each entity mention ("spot") with a
stored classification model and running the classifier — the join key
stream is heavily skewed (hot tokens), model sizes span four orders of
magnitude, and classification cost varies per model.  This example:

1. builds the synthetic ClueWeb-style corpus and model store,
2. runs the classic reduce-side joins (naive Hadoop hash partitioning,
   then the CSAW skew-aware partitioner) on the MapReduce analog,
3. runs the paper's framework (FO) on a split compute/data cluster
   through :func:`repro.api.run_join`,
4. prints the comparison plus where the framework cached and executed.

Run:  PYTHONPATH=src python examples/entity_annotation.py
"""

from dataclasses import replace

from repro import JobSpec, RunConfig, run_join
from repro.mapreduce import (
    CSAWPartitioner,
    KeyStatistics,
    SimulatedMapReduce,
    reduce_side_join,
)
from repro.sim import Cluster
from repro.workloads.annotation import AnnotationWorkload


def main() -> None:
    workload = AnnotationWorkload(n_tokens=1200, n_docs=300, seed=5)
    spots = workload.spot_stream()
    print(
        f"Corpus: {len(workload.documents)} documents, {workload.n_spots} spots; "
        f"model store: {workload.n_tokens} models, "
        f"{workload.total_model_bytes / 1e6:.0f} MB total"
    )

    # ------------------------------------------------------------------
    # Reduce-side baselines (all 8 nodes).
    # ------------------------------------------------------------------
    def reduce_side(partitioner=None):
        spec, costs = reduce_side_join(
            workload.model_sizes,
            workload.model_costs,
            workload.model_hydration,
            partitioner,
        )
        return SimulatedMapReduce(Cluster.homogeneous(8), costs=costs).run(
            spec, enumerate(workload.documents)
        )

    naive = reduce_side()
    print(f"\nNaive Hadoop reduce-side:   {naive.makespan:7.2f}s "
          f"(straggler ratio {naive.straggler_ratio:.1f})")

    stats = KeyStatistics.from_stream(spots, costs=workload.model_costs)
    csaw = reduce_side(CSAWPartitioner(stats, 8, seed=5))
    print(f"CSAW (needs statistics):    {csaw.makespan:7.2f}s "
          f"(straggler ratio {csaw.straggler_ratio:.1f}, "
          f"{len(stats.frequencies)} keys profiled up front)")

    # ------------------------------------------------------------------
    # The paper's framework: per-key runtime decisions, no statistics.
    # ------------------------------------------------------------------
    spec = JobSpec(
        table=workload.build_table(),
        udf=replace(
            workload.udf,
            apply_fn=lambda k, p, v: f"classified:{k}",
        ),
        keys=tuple(spots),
        sizes=workload.sizes,
        strategy="FO",
    )
    report = run_join(spec, RunConfig(
        engine="engine", n_compute=4, n_data=4, seed=5,
        memory_cache_bytes=100e6,
    ))
    result = report.result.native
    print(f"Framework (FO, no stats):   {result.makespan:7.2f}s")
    print(
        f"\n  cache: {result.cache_memory_hits} memory hits, "
        f"{result.cache_disk_hits} disk hits over {result.n_tuples} spots"
    )
    print(
        f"  UDF placement: {result.udfs_at_compute_nodes} at compute nodes, "
        f"{result.udfs_at_data_nodes} at data nodes "
        f"(load balancer kept {result.lb_kept_fraction:.0%} of batched work remote)"
    )
    print(
        f"\nFO vs naive Hadoop: {naive.makespan / result.makespan:.1f}x faster; "
        f"vs CSAW: {csaw.makespan / result.makespan:.1f}x faster"
    )


if __name__ == "__main__":
    main()
