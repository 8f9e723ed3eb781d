"""Figure 6 — Twitter entity annotation on Muppet: tweets/second.

A bursty tweet stream (hot entities drift over time) is annotated
against a model store; NO, FC, FD, FR and FO run on the stream engine
analog with HBase-analog data nodes.  The metric is annotated tweets
per second, as the paper plots.

Expected shape: FD worst (skew concentrates on the data node holding
the trending entity); FC > NO (batching/prefetch); FO best — roughly
2x NO and ~20% over FR.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.job import JoinJob
from repro.engine.strategies import STREAMING_STRATEGIES, Strategy
from repro.metrics.report import ExperimentTable
from repro.sim.cluster import Cluster
from repro.workloads.tweets import tweet_annotation_workload


@dataclass(frozen=True)
class Fig6Scale:
    """Stream volume for one run."""

    n_entities: int
    n_mentions: int
    n_compute: int
    n_data: int


SCALES = {
    "smoke": Fig6Scale(n_entities=1500, n_mentions=8000, n_compute=3, n_data=3),
    "default": Fig6Scale(n_entities=4000, n_mentions=12000, n_compute=5, n_data=5),
    "paper": Fig6Scale(n_entities=8000, n_mentions=30000, n_compute=10, n_data=10),
}


def run(scale: str = "default", seed: int = 7) -> ExperimentTable:
    """The Figure 6 bars at the requested scale."""
    try:
        preset = SCALES[scale]
    except KeyError:
        raise ValueError(
            f"unknown scale {scale!r}; expected one of {sorted(SCALES)}"
        ) from None
    models, stream = tweet_annotation_workload(
        n_entities=preset.n_entities, n_mentions=preset.n_mentions, seed=seed
    )
    table = ExperimentTable(
        title=f"Figure 6 - Twitter annotation throughput on Muppet ({scale})",
        columns=["strategy", "tweets_per_second", "normalized_vs_NO"],
        notes=(
            f"{preset.n_mentions} entity mentions, hot entities drift "
            "every few thousand tweets."
        ),
    )
    n_nodes = preset.n_compute + preset.n_data
    throughputs: dict[str, float] = {}
    for strategy in STREAMING_STRATEGIES:
        job = JoinJob(
            cluster=Cluster.homogeneous(n_nodes),
            compute_nodes=list(range(preset.n_compute)),
            data_nodes=list(range(preset.n_compute, n_nodes)),
            table=models.build_table(),
            udf=models.udf,
            strategy=Strategy.by_name(strategy),
            sizes=models.sizes,
            # Muppet's batch timer: a partial batch waits at most 20 ms.
            max_wait=0.02,
            # The tweet model store is small enough to live in the
            # HBase block cache, so data nodes serve hot rows from
            # memory (the paper's data-node skew is CPU skew here).
            block_cache_bytes=1e9,
            seed=seed,
        )
        throughputs[strategy] = job.run(stream.mentions).throughput
    base = throughputs["NO"]
    for strategy in STREAMING_STRATEGIES:
        table.add_row([strategy, throughputs[strategy], throughputs[strategy] / base])
    return table


def main() -> None:  # pragma: no cover - CLI entry
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
