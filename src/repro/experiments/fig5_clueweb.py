"""Figure 5 — entity annotation on Hadoop: total time per technique.

Eight bars, as in the paper:

* **Hadoop** — naive reduce-side join, hash partitioning, 20 nodes.
* **CSAW** — frequency x cost partitioning/replication [12], 20 nodes.
* **FlowJoinLB** — exact-statistics heavy-hitter replication [23],
  20 nodes.
* **NO / FC / FD / FR / FO** — the framework's strategies on the
  10 compute + 10 data node split (same total hardware).

CSAW and FlowJoinLB receive their statistics for free (the paper
precomputes them and excludes the time); our techniques use none.

Expected shape: Hadoop far worst (straggler reducers); FD poor (data
node skew); FO fastest — less than half the time of CSAW, FlowJoinLB
and FC (the paper's sentence "FO takes less than half the time of
CSAW, FlowJoinLB and FC takes 25% more time than FO" is ambiguous; we
match the first reading and record the measured FC/FO ratio in
EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.job import JoinJob
from repro.engine.strategies import Strategy
from repro.mapreduce.simulated import SimulatedMapReduce, reduce_side_join
from repro.mapreduce.skew_partitioners import (
    CSAWPartitioner,
    FlowJoinLBPartitioner,
    KeyStatistics,
)
from repro.metrics.report import ExperimentTable
from repro.sim.cluster import Cluster, NodeSpec
from repro.workloads.annotation import AnnotationWorkload

#: The Figure 5 bar order.
TECHNIQUES = ("Hadoop", "CSAW", "FlowJoinLB", "NO", "FC", "FD", "FR", "FO")


@dataclass(frozen=True)
class Fig5Scale:
    """Workload volume for one run of the experiment."""

    n_tokens: int
    n_docs: int
    n_compute: int
    n_data: int

    @property
    def n_nodes(self) -> int:
        return self.n_compute + self.n_data


SCALES = {
    "smoke": Fig5Scale(n_tokens=600, n_docs=200, n_compute=3, n_data=3),
    "default": Fig5Scale(n_tokens=1500, n_docs=600, n_compute=5, n_data=5),
    "paper": Fig5Scale(n_tokens=3000, n_docs=1200, n_compute=10, n_data=10),
}


def _reduce_side_minutes(
    workload: AnnotationWorkload, scale: Fig5Scale, technique: str, seed: int
) -> float:
    """Run one reduce-side baseline on all nodes; returns minutes."""
    cluster = Cluster.homogeneous(scale.n_nodes, NodeSpec())
    spots = workload.spot_stream()
    if technique == "Hadoop":
        partitioner = None
    else:
        stats = KeyStatistics.from_stream(spots, costs=workload.model_costs)
        if technique == "CSAW":
            partitioner = CSAWPartitioner(stats, scale.n_nodes, seed=seed)
        elif technique == "FlowJoinLB":
            partitioner = FlowJoinLBPartitioner(stats, scale.n_nodes, seed=seed)
        else:
            raise ValueError(f"unknown reduce-side technique {technique!r}")
    spec, costs = reduce_side_join(
        workload.model_sizes,
        workload.model_costs,
        workload.model_hydration,
        partitioner,
    )
    result = SimulatedMapReduce(cluster, costs=costs).run(
        spec, enumerate(workload.documents)
    )
    return result.makespan / 60.0


def _framework_minutes(
    workload: AnnotationWorkload, scale: Fig5Scale, strategy: str, seed: int
) -> float:
    """Run one framework strategy on the split cluster; returns minutes."""
    cluster = Cluster.homogeneous(scale.n_nodes, NodeSpec())
    job = JoinJob(
        cluster=cluster,
        compute_nodes=list(range(scale.n_compute)),
        data_nodes=list(range(scale.n_compute, scale.n_nodes)),
        table=workload.build_table(),
        udf=workload.udf,
        strategy=Strategy.by_name(strategy),
        sizes=workload.sizes,
        memory_cache_bytes=100e6,
        # The scaled model store fits in the data nodes' block caches
        # (the paper's 28.7 GB over 10 x 16 GB nodes was also mostly
        # memory resident); only the big synthetic stores miss.
        block_cache_bytes=1e9,
        seed=seed,
    )
    return job.run(workload.spot_stream()).makespan / 60.0


def run(scale: str = "default", seed: int = 7) -> ExperimentTable:
    """The Figure 5 bars at the requested scale."""
    try:
        preset = SCALES[scale]
    except KeyError:
        raise ValueError(
            f"unknown scale {scale!r}; expected one of {sorted(SCALES)}"
        ) from None
    workload = AnnotationWorkload(
        n_tokens=preset.n_tokens, n_docs=preset.n_docs, seed=seed
    )
    table = ExperimentTable(
        title=f"Figure 5 - ClueWeb entity annotation, total time ({scale})",
        columns=["technique", "minutes", "normalized_vs_FO"],
        notes=(
            f"{workload.n_spots} spots over {preset.n_tokens} models "
            f"({workload.total_model_bytes / 1e6:.0f} MB stored); "
            "reduce-side baselines use all nodes, framework strategies "
            "use the compute/data split."
        ),
    )
    minutes: dict[str, float] = {}
    for technique in TECHNIQUES:
        if technique in ("Hadoop", "CSAW", "FlowJoinLB"):
            minutes[technique] = _reduce_side_minutes(
                workload, preset, technique, seed
            )
        else:
            minutes[technique] = _framework_minutes(
                workload, preset, technique, seed
            )
    fo = minutes["FO"]
    for technique in TECHNIQUES:
        table.add_row([technique, minutes[technique], minutes[technique] / fo])
    return table


def main() -> None:  # pragma: no cover - CLI entry
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
