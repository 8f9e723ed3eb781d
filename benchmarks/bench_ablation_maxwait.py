"""Ablation: the batch timeout's latency/throughput trade (Section 7.2).

"In order to keep the latency low, our framework allows applications
to specify a maximum wait time."  Batching is ack-clocked
(``engine/batching.py``): a partial batch is held only while its data
node owes answers, and ``max_wait`` bounds that hold.  So the knob
bites where requests queue — the sweep runs at 250 arrivals/s, about
80 % of this cluster's capacity — and there throughput stays flat
while latency grows with the bound.  Far below capacity (120/s)
nothing is ever held and every setting reads the same 104 ms.
"""

from repro.engine.job import JoinJob
from repro.engine.strategies import Strategy
from repro.sim.cluster import Cluster
from repro.workloads.synthetic import SyntheticWorkload


def run_with_max_wait(max_wait):
    workload = SyntheticWorkload.compute_heavy(
        n_keys=400, n_tuples=2000, skew=1.0, seed=37
    )
    cluster = Cluster.homogeneous(4)
    job = JoinJob(
        cluster=cluster,
        compute_nodes=[0, 1],
        data_nodes=[2, 3],
        table=workload.build_table(),
        udf=workload.udf,
        strategy=Strategy.fo(),
        sizes=workload.sizes,
        max_wait=max_wait,
        seed=37,
    )
    return job.run_at_rate(workload.keys(), arrivals_per_second=250)


def test_ablation_maxwait(once):
    def sweep():
        return {mw: run_with_max_wait(mw) for mw in (0.002, 0.02, 0.2)}

    results = once(sweep)
    print()
    for max_wait, result in results.items():
        print(
            f"  max_wait={max_wait:>6g}s: mean={result.mean_latency * 1000:7.1f}ms "
            f"p95={result.latency_percentile(95) * 1000:7.1f}ms "
            f"throughput={result.throughput:6.0f}/s"
        )
    assert results[0.2].mean_latency > results[0.002].mean_latency
