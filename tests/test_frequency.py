"""Tests for exact and Lossy Counting frequency summaries."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frequency import ExactCounter, LossyCounter


class TestExactCounter:
    def test_counts_are_exact(self):
        c = ExactCounter()
        for _ in range(3):
            c.add("a")
        c.add("b")
        assert c.count("a") == 3
        assert c.count("b") == 1
        assert c.count("missing") == 0
        assert c.total == 4
        assert c.tracked == 2

    def test_reset_forgets_key(self):
        c = ExactCounter()
        c.add("a")
        c.reset("a")
        assert c.count("a") == 0

    def test_add_returns_new_count(self):
        c = ExactCounter()
        assert c.add("x") == 1
        assert c.add("x") == 2

    def test_items_iterates_pairs(self):
        c = ExactCounter()
        c.add("a")
        c.add("a")
        assert dict(c.items()) == {"a": 2}


class TestLossyCounter:
    def test_validation(self):
        with pytest.raises(ValueError):
            LossyCounter(epsilon=0.0)
        with pytest.raises(ValueError):
            LossyCounter(epsilon=1.0)

    def test_bucket_width(self):
        assert LossyCounter(epsilon=0.1).bucket_width == 10
        assert LossyCounter(epsilon=0.003).bucket_width == 334

    def test_hot_key_never_lost(self):
        lc = LossyCounter(epsilon=0.1)
        for i in range(200):
            lc.add("hot")
            lc.add(f"cold-{i}")
        assert lc.count("hot") > 0

    def test_rare_keys_pruned(self):
        lc = LossyCounter(epsilon=0.1)
        for i in range(500):
            lc.add(f"unique-{i}")
        # With all-distinct keys the summary keeps O(1/eps) entries.
        assert lc.tracked < 500

    def test_count_never_overestimates(self):
        lc = LossyCounter(epsilon=0.05)
        truth: dict[str, int] = {}
        stream = (["a"] * 50) + (["b"] * 20) + [f"x{i}" for i in range(100)]
        for key in stream:
            lc.add(key)
            truth[key] = truth.get(key, 0) + 1
        for key, true_count in truth.items():
            assert lc.count(key) <= true_count

    def test_reset_forgets_key(self):
        lc = LossyCounter(epsilon=0.1)
        lc.add("a")
        lc.reset("a")
        assert lc.count("a") == 0

    def test_frequent_keys_output_rule(self):
        lc = LossyCounter(epsilon=0.01)
        for _ in range(500):
            lc.add("heavy")
        for i in range(500):
            lc.add(f"light-{i}")
        frequent = lc.frequent_keys(support=0.2)
        assert "heavy" in frequent
        assert all(not str(k).startswith("light") for k in frequent)

    def test_frequent_keys_validates_support(self):
        with pytest.raises(ValueError):
            LossyCounter(0.1).frequent_keys(support=0.0)


@given(
    stream=st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=600),
    epsilon=st.sampled_from([0.02, 0.05, 0.1]),
)
@settings(max_examples=80, deadline=None)
def test_property_lossy_counting_error_bound(stream, epsilon):
    """For every key: f - eps*N <= estimate <= f (Manku-Motwani)."""
    lc = LossyCounter(epsilon=epsilon)
    truth: dict[int, int] = {}
    for key in stream:
        lc.add(key)
        truth[key] = truth.get(key, 0) + 1
    n = len(stream)
    for key, f in truth.items():
        estimate = lc.count(key)
        assert estimate <= f
        assert estimate >= f - epsilon * n


@given(
    stream=st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=800)
)
@settings(max_examples=40, deadline=None)
def test_property_summary_stays_compact(stream):
    """The summary never retains more entries than the theory bound."""
    import math

    epsilon = 0.05
    lc = LossyCounter(epsilon=epsilon)
    for key in stream:
        lc.add(key)
    n = len(stream)
    if epsilon * n > 1:
        bound = (1 / epsilon) * (math.log(epsilon * n) + 1) + 1 / epsilon
        assert lc.tracked <= bound


# ----------------------------------------------------------------------
# Structured-stream properties: the Manku-Motwani
# guarantees must hold on the stream shapes the router actually sees —
# Zipf-skewed steady state and bursty arrival fronts — not just on
# uniform random lists.
# ----------------------------------------------------------------------
def _zipf_stream(n_keys: int, n_items: int, skew: float, seed: int) -> list[int]:
    import random

    rng = random.Random(seed)
    weights = [1.0 / (i + 1) ** skew for i in range(n_keys)]
    return rng.choices(range(n_keys), weights=weights, k=n_items)


def _bursty_stream(n_keys: int, seed: int) -> list[int]:
    """Each key arrives as one contiguous burst of random length."""
    import random

    rng = random.Random(seed)
    stream: list[int] = []
    for key in range(n_keys):
        stream.extend([key] * rng.randint(1, 50))
    rng.shuffle(stream)
    return stream


@given(
    skew=st.sampled_from([0.5, 1.0, 1.5]),
    seed=st.integers(min_value=0, max_value=2**16),
    epsilon=st.sampled_from([0.01, 0.05]),
)
@settings(max_examples=25, deadline=None)
def test_property_error_bound_on_zipf_stream(skew, seed, epsilon):
    """estimate in [f - eps*N, f] for every key of a Zipf stream."""
    stream = _zipf_stream(n_keys=200, n_items=3000, skew=skew, seed=seed)
    lc = LossyCounter(epsilon=epsilon)
    truth: dict[int, int] = {}
    for key in stream:
        lc.add(key)
        truth[key] = truth.get(key, 0) + 1
    n = len(stream)
    for key, f in truth.items():
        estimate = lc.count(key)
        assert estimate <= f
        assert estimate >= f - epsilon * n


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    epsilon=st.sampled_from([0.01, 0.05]),
    support=st.sampled_from([0.02, 0.1]),
)
@settings(max_examples=25, deadline=None)
def test_property_no_false_negatives_on_bursty_stream(seed, epsilon, support):
    """Every key with true frequency >= support*N is reported.

    Bursty arrivals are the adversarial case for Lossy Counting's
    bucket pruning: a key's whole mass lands inside few buckets, so
    its delta headroom is maximal.  The no-false-negative guarantee
    (true count >= s*N implies membership in ``frequent_keys(s)``)
    requires support > epsilon and must survive it.
    """
    if support <= epsilon:
        return
    stream = _bursty_stream(n_keys=120, seed=seed)
    lc = LossyCounter(epsilon=epsilon)
    truth: dict[int, int] = {}
    for key in stream:
        lc.add(key)
        truth[key] = truth.get(key, 0) + 1
    n = len(stream)
    frequent = set(lc.frequent_keys(support))
    for key, f in truth.items():
        if f >= support * n:
            assert key in frequent, (key, f, support * n)


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=20, deadline=None)
def test_property_no_false_negatives_on_zipf_stream(seed):
    """Same no-false-negative rule on the skewed steady state."""
    epsilon, support = 0.01, 0.05
    stream = _zipf_stream(n_keys=300, n_items=4000, skew=1.3, seed=seed)
    lc = LossyCounter(epsilon=epsilon)
    truth: dict[int, int] = {}
    for key in stream:
        lc.add(key)
        truth[key] = truth.get(key, 0) + 1
    n = len(stream)
    frequent = set(lc.frequent_keys(support))
    for key, f in truth.items():
        if f >= support * n:
            assert key in frequent, (key, f, support * n)
