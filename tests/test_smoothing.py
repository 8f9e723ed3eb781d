"""Tests for exponential smoothing (Section 3.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.smoothing import SmoothedValue


class TestSmoothedValue:
    def test_first_observation_becomes_estimate(self):
        s = SmoothedValue(alpha=0.3)
        assert s.observe(10.0) == 10.0
        assert s.value == 10.0

    def test_update_formula(self):
        s = SmoothedValue(alpha=0.25)
        s.observe(100.0)
        # 0.25 * 0 + 0.75 * 100 = 75
        assert s.observe(0.0) == pytest.approx(75.0)

    def test_initial_prior(self):
        s = SmoothedValue(alpha=0.5, initial=4.0)
        assert s.initialized
        assert s.value == 4.0
        assert s.observe(8.0) == pytest.approx(6.0)

    def test_value_before_observation_raises(self):
        with pytest.raises(ValueError):
            SmoothedValue().value

    def test_value_or_default(self):
        s = SmoothedValue()
        assert s.value_or(42.0) == 42.0
        s.observe(1.0)
        assert s.value_or(42.0) == 1.0

    def test_alpha_validation(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                SmoothedValue(alpha=bad)

    def test_alpha_one_tracks_exactly(self):
        s = SmoothedValue(alpha=1.0)
        s.observe(1.0)
        s.observe(9.0)
        assert s.value == 9.0


@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=50,
    ),
    alpha=st.floats(min_value=0.01, max_value=1.0),
)
@settings(max_examples=100, deadline=None)
def test_property_estimate_stays_within_observed_range(values, alpha):
    """The smoothed value is a convex combination of observations."""
    s = SmoothedValue(alpha=alpha)
    for v in values:
        s.observe(v)
    assert min(values) - 1e-9 <= s.value <= max(values) + 1e-9


@given(spike=st.floats(min_value=100.0, max_value=1e5))
@settings(max_examples=30, deadline=None)
def test_property_spike_damping(spike):
    """A single spike moves the estimate by at most alpha of its height."""
    s = SmoothedValue(alpha=0.2, initial=1.0)
    s.observe(spike)
    assert s.value == pytest.approx(1.0 + 0.2 * (spike - 1.0))
