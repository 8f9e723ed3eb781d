"""Tests for the Appendix C load model and the choice of d."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.placement.batch import (
    BatchLoadBalancer,
    ComputeNodeStats,
    DataNodeStats,
    LoadProfile,
    SizeProfile,
    exact_min_d,
    gradient_descent_min_d,
)


def comp_stats(**overrides):
    defaults = dict(
        pending_local_computations=10,
        pending_data_requests=5,
        pending_compute_requests=5,
        pending_data_responses=3,
        pending_at_other_data_nodes=8,
        expected_computed_elsewhere=4,
        compute_time=0.01,
        net_bandwidth=1e8,
    )
    defaults.update(overrides)
    return ComputeNodeStats(**defaults)


def data_stats(**overrides):
    defaults = dict(
        pending_data_requests=4,
        pending_data_responses=2,
        pending_compute_requests=20,
        to_compute_locally=12,
        pending_from_this_compute_node=6,
        to_compute_from_this_compute_node=3,
        compute_time=0.01,
        net_bandwidth=1e8,
    )
    defaults.update(overrides)
    return DataNodeStats(**defaults)


def profile(b=100, **kwargs):
    sizes = kwargs.pop("sizes", SizeProfile(value_size=1e5, computed_size=100.0))
    return LoadProfile(
        b, kwargs.pop("comp", comp_stats()), kwargs.pop("data", data_stats()), sizes
    )


class TestLoadCurves:
    def test_comp_cpu_decreases_with_d(self):
        p = profile()
        assert p.comp_cpu(0) > p.comp_cpu(100)

    def test_data_cpu_increases_with_d(self):
        p = profile()
        assert p.data_cpu(100) > p.data_cpu(0)

    def test_data_cpu_formula(self):
        p = profile()
        # tcd * (rd_j + d) = 0.01 * (12 + 10)
        assert p.data_cpu(10) == pytest.approx(0.22)

    def test_network_decreases_with_d_when_values_are_large(self):
        # sv >> scv: keeping computations at the data node ships the
        # small computed result instead of the big value.
        p = profile()
        assert p.comp_net(100) < p.comp_net(0)
        assert p.data_net(100) < p.data_net(0)

    def test_completion_is_max_of_four(self):
        p = profile()
        d = 40
        expected = max(p.comp_cpu(d), p.comp_net(d), p.data_cpu(d), p.data_net(d))
        assert p.completion_time(d) == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            comp_stats(pending_local_computations=-1)
        with pytest.raises(ValueError):
            data_stats(net_bandwidth=0.0)
        with pytest.raises(ValueError):
            SizeProfile(key_size=-1.0)
        with pytest.raises(ValueError):
            LoadProfile(-1, comp_stats(), data_stats(), SizeProfile())


class TestMinimizers:
    def test_exact_finds_global_minimum(self):
        p = profile(b=50)
        best = exact_min_d(p)
        brute = min(range(51), key=p.completion_time)
        assert p.completion_time(best) == pytest.approx(p.completion_time(brute))

    def test_gradient_descent_matches_exact(self):
        p = profile(b=80)
        gd = gradient_descent_min_d(p)
        ex = exact_min_d(p)
        assert p.completion_time(gd) == pytest.approx(
            p.completion_time(ex), rel=1e-9
        )

    def test_gradient_descent_random_start(self):
        p = profile(b=80)
        rng = np.random.default_rng(0)
        gd = gradient_descent_min_d(p, rng=rng)
        assert p.completion_time(gd) == pytest.approx(
            p.completion_time(exact_min_d(p)), rel=1e-9
        )

    def test_zero_batch(self):
        p = profile(b=0)
        assert gradient_descent_min_d(p) == 0
        assert exact_min_d(p) == 0

    def test_cpu_bound_compute_node_pushes_work_to_data_node(self):
        """When the compute node is drowning in CPU work and the data
        node is idle, the optimum keeps (almost) everything remote."""
        p = LoadProfile(
            100,
            comp_stats(pending_local_computations=10_000, compute_time=0.1),
            data_stats(pending_compute_requests=0, to_compute_locally=0),
            SizeProfile(value_size=100.0, computed_size=100.0),
        )
        assert exact_min_d(p) == 100

    def test_overloaded_data_node_bounces_work_back(self):
        p = LoadProfile(
            100,
            comp_stats(pending_local_computations=0),
            data_stats(to_compute_locally=10_000, compute_time=0.1),
            SizeProfile(value_size=100.0, computed_size=100.0),
        )
        assert exact_min_d(p) == 0


class TestBatchLoadBalancer:
    def test_disabled_keeps_everything(self):
        lb = BatchLoadBalancer(enabled=False)
        d = lb.choose(64, comp_stats(), data_stats(), SizeProfile())
        assert d == 64

    def test_enabled_balances(self):
        lb = BatchLoadBalancer(enabled=True)
        d = lb.choose(
            100,
            comp_stats(pending_local_computations=0),
            data_stats(to_compute_locally=10_000, compute_time=0.1),
            SizeProfile(value_size=100.0, computed_size=100.0),
        )
        assert d == 0

    def test_exact_flag(self):
        lb = BatchLoadBalancer(enabled=True, use_exact=True)
        d = lb.choose(50, comp_stats(), data_stats(), SizeProfile())
        assert 0 <= d <= 50

    def test_zero_batch(self):
        lb = BatchLoadBalancer()
        assert lb.choose(0, comp_stats(), data_stats(), SizeProfile()) == 0

    def test_kept_fraction_tracking(self):
        lb = BatchLoadBalancer(enabled=False)
        lb.choose(10, comp_stats(), data_stats(), SizeProfile())
        assert lb.decisions == 1
        assert lb.mean_kept_fraction == 1.0


@given(
    b=st.integers(min_value=1, max_value=200),
    lcc=st.integers(min_value=0, max_value=5000),
    rdj=st.integers(min_value=0, max_value=5000),
    tcc=st.floats(min_value=0.001, max_value=0.2),
    tcd=st.floats(min_value=0.001, max_value=0.2),
    sv=st.floats(min_value=10.0, max_value=1e6),
    scv=st.floats(min_value=10.0, max_value=1e4),
)
@settings(max_examples=150, deadline=None)
def test_property_gradient_descent_is_globally_optimal(
    b, lcc, rdj, tcc, tcd, sv, scv
):
    """The objective is convex, so the paper's gradient descent must
    land on the global optimum found by brute force."""
    p = LoadProfile(
        b,
        comp_stats(pending_local_computations=lcc, compute_time=tcc),
        data_stats(to_compute_locally=rdj, compute_time=tcd,
                   pending_compute_requests=rdj),
        SizeProfile(value_size=sv, computed_size=scv),
    )
    gd = gradient_descent_min_d(p)
    brute = min(range(b + 1), key=p.completion_time)
    assert p.completion_time(gd) == pytest.approx(
        p.completion_time(brute), rel=1e-9, abs=1e-12
    )


# ----------------------------------------------------------------------
# completion_time's prefix form against the four curve methods
# ----------------------------------------------------------------------
_count = st.integers(min_value=0, max_value=10_000)
_seconds = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
_bandwidth = st.floats(min_value=1.0, max_value=1e10, allow_nan=False)
_size = st.floats(min_value=0.0, max_value=1e7, allow_nan=False)

_comp_stats = st.builds(
    ComputeNodeStats, _count, _count, _count, _count, _count, _count,
    _seconds, _bandwidth,
)
_data_stats = st.builds(
    DataNodeStats, _count, _count, _count, _count, _count, _count,
    _seconds, _bandwidth,
)
_size_profiles = st.builds(SizeProfile, _size, _size, _size, _size)


@given(
    b=st.integers(min_value=0, max_value=64),
    comp=_comp_stats,
    data=_data_stats,
    sizes=_size_profiles,
)
@settings(max_examples=200, deadline=None)
def test_property_completion_time_is_bitwise_max_of_the_four_curves(
    b, comp, data, sizes
):
    """The prefix form is an optimization, not an approximation: ``==``
    on every integer d, so the balancer's decisions cannot move."""
    p = LoadProfile(b, comp, data, sizes)
    for d in range(b + 1):
        assert p.completion_time(d) == max(
            p.comp_cpu(d), p.comp_net(d), p.data_cpu(d), p.data_net(d)
        )


def _pinned_profiles():
    """50 profiles drawn from a fixed seed (inputs of the golden table)."""
    rng = np.random.default_rng(2017)
    profiles = []
    for _ in range(50):
        counts = [int(c) for c in rng.integers(0, 400, size=12)]
        tcc, tcd = (float(t) for t in rng.uniform(1e-4, 5e-2, size=2))
        bw_c, bw_d = (float(w) for w in rng.uniform(1e7, 1e9, size=2))
        sv = float(rng.uniform(1e2, 2e5))
        scv = float(rng.uniform(8.0, 1e4))
        profiles.append(
            LoadProfile(
                int(rng.integers(1, 257)),
                ComputeNodeStats(*counts[:6], tcc, bw_c),
                DataNodeStats(*counts[6:], tcd, bw_d),
                SizeProfile(8.0, float(rng.uniform(0.0, 64.0)), sv, scv),
            )
        )
    return profiles


# d chosen by each minimizer on the commit before completion_time was
# rewritten (gradient descent seeded with the profile's index).
_GOLDEN_GRADIENT_D = (
    161, 204, 68, 183, 20, 68, 0, 0, 240, 0, 231, 138, 32, 196, 0, 6, 234,
    195, 0, 253, 0, 53, 0, 131, 0, 142, 0, 11, 241, 0, 77, 144, 60, 0, 102,
    181, 132, 53, 0, 94, 124, 232, 188, 0, 0, 41, 22, 15, 5, 4,
)
_GOLDEN_EXACT_D = _GOLDEN_GRADIENT_D  # convex objective: both found the same d


def test_minimizers_choose_the_same_d_as_before_the_prefix_form():
    profiles = _pinned_profiles()
    gradient = tuple(
        gradient_descent_min_d(p, rng=np.random.default_rng(i))
        for i, p in enumerate(profiles)
    )
    exact = tuple(exact_min_d(p) for p in profiles)
    assert gradient == _GOLDEN_GRADIENT_D
    assert exact == _GOLDEN_EXACT_D
