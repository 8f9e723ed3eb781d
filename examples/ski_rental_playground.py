"""The core primitives, standalone — no simulator required.

Demonstrates the paper's building blocks on their own:

* extended ski-rental: thresholds, the 2 - br/r guarantee, and an
  empirical check across adversarial access counts,
* Lossy Counting: tracking heavy hitters in bounded space,
* the two-tier LFU-DA cache: admissions, evictions, aging,
* the per-key optimizer making live rent/buy decisions as costs and
  access counts evolve.

Run:  python examples/ski_rental_playground.py
"""

from repro import (
    CostModel,
    CostParameters,
    JoinLocationOptimizer,
    Route,
    SkiRental,
)
from repro.cache import TieredCache
from repro.core import LossyCounter, buy_threshold, competitive_ratio


def demo_ski_rental() -> None:
    print("=== Extended ski-rental (Section 4) ===")
    rent, buy, recurring = 1.0, 10.0, 0.4
    threshold = buy_threshold(rent, buy, recurring)
    bound = competitive_ratio(rent, buy, recurring)
    print(f"rent={rent}, buy={buy}, recurring-after-buy={recurring}")
    print(f"  -> buy at access {threshold:.1f}; worst-case ratio {bound:.2f}")
    worst = 0.0
    for accesses in range(0, 200):
        outcome = SkiRental.simulate(accesses, rent, buy, recurring)
        worst = max(worst, outcome.ratio)
    print(f"  empirical worst ratio over 200 adversarial lengths: {worst:.3f}")
    assert worst <= bound + 1e-9


def demo_lossy_counting() -> None:
    print("\n=== Lossy Counting (Section 4.3) ===")
    counter = LossyCounter(epsilon=0.01)
    for i in range(20000):
        counter.add("hot-a" if i % 3 == 0 else ("hot-b" if i % 7 == 0 else f"cold-{i}"))
    print(f"  stream of {counter.total} keys, summary holds {counter.tracked} entries")
    print(f"  frequent (support 5%): {sorted(map(str, counter.frequent_keys(0.05)))}")


def demo_cache() -> None:
    print("\n=== Two-tier LFU-DA cache (Appendix B) ===")
    cache = TieredCache(memory_bytes=100.0)
    for _ in range(5):
        cache.update_benefit("hot")
    cache.cond_cache_in_memory("hot", "HOT-MODEL", 60.0)
    cache.update_benefit("warm")
    cache.cond_cache_in_memory("warm", "WARM-MODEL", 40.0)
    # A high-benefit newcomer displaces the weakest resident to disk.
    for _ in range(10):
        cache.update_benefit("rising")
    admitted = cache.cond_cache_in_memory("rising", "RISING-MODEL", 50.0)
    print(f"  'rising' admitted to memory: {admitted}")
    print(f"  memory: {sorted(map(str, cache.memory_keys))}")
    print(f"  disk:   {sorted(map(str, cache.disk_keys))}")


def demo_optimizer() -> None:
    print("\n=== Per-key routing (Algorithm 1) ===")
    cost_model = CostModel(node_id=0, bandwidth={1: 125e6}, local_disk_time=0.001)
    optimizer = JoinLocationOptimizer(cost_model, TieredCache(memory_bytes=1e6))
    routes = []
    for access in range(6):
        route, _value = optimizer.route_fast("token", data_node=1)
        routes.append(route.value)
        if route is Route.COMPUTE_REQUEST:
            # The data node replies with measured costs.
            optimizer.observe_response(CostParameters(
                key="token", value_size=200_000.0, compute_time=0.02,
                disk_time=0.002, cpu_service_time=0.004, node_id=1,
            ))
        elif route.is_data_request:
            optimizer.complete_fetch("token", "MODEL-BYTES", route)
    print("  access-by-access routing:", routes)
    assert routes[0] == "compute-request"  # first contact always rents
    assert routes[-1] == "local-memory"  # ends up cached


if __name__ == "__main__":
    demo_ski_rental()
    demo_lossy_counting()
    demo_cache()
    demo_optimizer()
