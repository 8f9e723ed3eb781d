"""Streaming entity annotation on the Muppet analog.

Two parts:

1. **Real execution** — a MapUpdate application counts entity mentions
   over a bursty tweet stream, using the ``preMap`` prefetch extension
   to batch model lookups (Appendix D.2's API, running on real data).
2. **Throughput simulation** — the same stream drives the simulated
   cluster under NO / FC / FD / FR / FO, reproducing the Figure 6
   comparison: trending entities shift over time, so precomputed
   statistics would go stale, but ski-rental re-learns them online.

Run:  python examples/streaming_tweets.py
"""

from collections import Counter

from repro.engine.job import JoinJob
from repro.engine.strategies import Strategy
from repro.metrics.report import ExperimentTable
from repro.sim.cluster import Cluster
from repro.streaming.muppet import MuppetLocal
from repro.workloads.tweets import tweet_annotation_workload


def main() -> None:
    models, stream = tweet_annotation_workload(
        n_entities=1500, n_mentions=8000, seed=21
    )
    print(
        f"Stream: {len(stream.mentions)} entity mentions over "
        f"{stream.n_entities} entities; trending entity changes every "
        f"{stream.burst_every} mentions"
    )
    print(f"Trending sequence: {stream.trending_entities()}")

    # ------------------------------------------------------------------
    # Real MapUpdate execution with preMap prefetching.
    # ------------------------------------------------------------------
    model_store = {t: f"model-{t}" for t in range(models.n_tokens)}
    fetches = Counter()

    def bulk_fetch(keys):
        fetches["calls"] += 1
        fetches["keys"] += len(keys)
        return {k: model_store[k] for k in keys}

    app = MuppetLocal(
        map_fn=lambda entity, values: [(entity, values[entity])],
        update_fn=lambda entity, _model, slate: (slate or 0) + 1,
        pre_map=lambda entity: [entity],
        bulk_fetch=bulk_fetch,
        window=128,
    )
    slates = app.run(stream.mentions)
    top = Counter(slates).most_common(3)
    print(
        f"\nMapUpdate processed {app.events_processed} events with "
        f"{fetches['calls']} batched lookups ({fetches['keys']} keys); "
        f"top entities: {top}"
    )

    # ------------------------------------------------------------------
    # Throughput under each streaming strategy (Figure 6 shape).
    # ------------------------------------------------------------------
    table = ExperimentTable(
        "tweets/second by strategy", ["strategy", "throughput", "vs NO"]
    )
    throughputs = {}
    for strategy in ("NO", "FC", "FD", "FR", "FO"):
        # Three stream nodes (compute) and three HBase-analog data nodes.
        job = JoinJob(
            cluster=Cluster.homogeneous(6),
            compute_nodes=[0, 1, 2],
            data_nodes=[3, 4, 5],
            table=models.build_table(),
            udf=models.udf,
            strategy=Strategy.by_name(strategy),
            sizes=models.sizes,
            max_wait=0.02,
            seed=21,
        )
        throughputs[strategy] = job.run(stream.mentions).throughput
    for strategy, throughput in throughputs.items():
        table.add_row([strategy, throughput, throughput / throughputs["NO"]])
    print()
    print(table.render())


if __name__ == "__main__":
    main()
