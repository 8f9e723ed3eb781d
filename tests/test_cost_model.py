"""Tests for Table 1 cost parameters and the Section 4.3 cost formulas."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost_model import CostModel, CostParameters
from repro.perf.mode import REFERENCE_ENV


def params(key="k", node=1, **overrides):
    defaults = dict(
        key=key,
        value_size=100_000.0,
        compute_time=0.01,
        disk_time=0.002,
        param_size=64.0,
        key_size=8.0,
        computed_size=128.0,
        node_id=node,
    )
    defaults.update(overrides)
    return CostParameters(**defaults)


def model(**kwargs):
    defaults = dict(node_id=0, bandwidth={1: 1e8, 2: 5e7}, local_disk_time=0.001)
    defaults.update(kwargs)
    return CostModel(**defaults)


class TestCostParameters:
    def test_service_time_defaults_to_compute_time(self):
        p = params(compute_time=0.5)
        assert p.service_time == 0.5

    def test_explicit_service_time(self):
        p = params(compute_time=0.5, cpu_service_time=0.1)
        assert p.service_time == 0.1


class TestObservation:
    def test_first_contact_rule(self):
        cm = model()
        assert not cm.knows_key("k")
        with pytest.raises(KeyError):
            cm.costs("k", 1)
        cm.observe(params())
        assert cm.knows_key("k")

    def test_value_size_tracked_per_key(self):
        cm = model()
        cm.observe(params(key="big", value_size=1e6))
        cm.observe(params(key="small", value_size=10.0))
        assert cm.value_size("big") == pytest.approx(1e6)
        assert cm.value_size("small") == pytest.approx(10.0)

    def test_value_size_unknown_key_raises(self):
        with pytest.raises(KeyError):
            model().value_size("nope")

    def test_forget_key(self):
        cm = model()
        cm.observe(params())
        cm.forget_key("k")
        assert not cm.knows_key("k")

    @pytest.mark.parametrize("reference", ["0", "1"])
    def test_costs4_follows_costs_after_an_estimate_moves(
        self, reference, monkeypatch
    ):
        # The optimized accessor must not serve a cost computed before
        # the last observation, whichever mode built the model.
        monkeypatch.setenv(REFERENCE_ENV, reference)
        cm = model()
        cm.observe(params())
        first = cm.costs4("k", 1)
        cm.observe(params(value_size=5e6, compute_time=0.5, disk_time=0.2))
        c = cm.costs("k", 1)
        assert cm.costs4("k", 1) == (c.rent, c.buy, c.t_rec_mem, c.t_rec_disk)
        assert cm.costs4("k", 1) != first


# Few distinct values, so repeats leave an estimate where it was (no
# epoch bump) as often as they move it.
_KEYS = st.sampled_from(["a", "b", "c"])
_NODES = st.sampled_from([1, 2])
_SECONDS = st.sampled_from([0.0, 0.002, 0.01, 0.5])
_STEP = st.one_of(
    st.tuples(
        st.just("observe"), _KEYS, _NODES, st.sampled_from([10.0, 1e5, 5e6]),
        _SECONDS, _SECONDS, st.sampled_from([0.0, 128.0, 4096.0]),
    ),
    st.tuples(st.just("observe_timeout"), _NODES, _SECONDS),
    st.tuples(st.just("forget_key"), _KEYS),
    st.tuples(st.just("observe_placement_epoch"), st.integers(0, 3)),
    st.tuples(st.just("observe_local_compute"), _SECONDS),
)


def _estimates_and_epochs(cm: CostModel):
    def smoothed(s):
        return s._value, s.observations

    return (
        [smoothed(s) for s in (cm._key_size, cm._param_size,
                               cm._computed_size, cm._local_compute)],
        {node: smoothed(s) for node, s in cm._remote_disk.items()},
        {
            key: [smoothed(s) for s in (pk.value_size, pk.compute_time,
                                        pk.service_time)]
            for key, pk in cm._per_key.items()
        },
        (cm._epoch, cm._key_epoch, cm._node_epoch, cm._placement_epoch),
    )


@given(steps=st.lists(_STEP, min_size=1, max_size=40))
@settings(max_examples=80, deadline=None)
def test_property_modes_hold_equal_estimates_and_epochs(steps):
    """A default-mode and a reference-mode model fed one sequence agree
    on every estimate and every epoch, and in both ``costs4`` is
    ``costs`` after every step."""
    models = []
    with pytest.MonkeyPatch.context() as mp:
        for reference in ("0", "1"):
            mp.setenv(REFERENCE_ENV, reference)
            models.append(model())
    default, reference = models
    assert default._memo_enabled and not reference._memo_enabled
    for name, *args in steps:
        for cm in models:
            if name == "observe":
                key, node, value_size, compute_time, disk_time, computed = args
                cm.observe(params(
                    key=key, node=node, value_size=value_size,
                    compute_time=compute_time, disk_time=disk_time,
                    computed_size=computed,
                ))
            else:
                getattr(cm, name)(*args)
        assert _estimates_and_epochs(default) == _estimates_and_epochs(reference)
        for key in default._per_key:
            for node in (1, 2):
                c = reference.costs(key, node)
                assert default.costs(key, node) == c
                for cm in models:
                    assert cm.costs4(key, node) == (
                        c.t_compute, c.t_fetch, c.t_rec_mem, c.t_rec_disk
                    )


class TestCostFormulas:
    def test_t_compute_is_max_of_components(self):
        cm = model()
        # CPU-dominated: tc = 0.1 >> disk and network terms.
        cm.observe(params(compute_time=0.1))
        costs = cm.costs("k", 1)
        assert costs.t_compute == pytest.approx(0.1)

    def test_t_compute_network_dominated(self):
        cm = model(bandwidth={1: 1000.0})  # 1 KB/s: network dominates
        cm.observe(params(compute_time=1e-6, computed_size=128.0))
        costs = cm.costs("k", 1)
        # (sk + sp + scv) / bw = (8 + 64 + 128) / 1000
        assert costs.t_compute == pytest.approx(0.2)

    def test_t_fetch_network_term(self):
        cm = model()
        cm.observe(params(value_size=1e6, disk_time=1e-5))
        costs = cm.costs("k", 1)
        # (sk + sv) / bw = (8 + 1e6) / 1e8 ~ 0.01
        assert costs.t_fetch == pytest.approx((8.0 + 1e6) / 1e8)

    def test_t_fetch_disk_dominated(self):
        cm = model()
        cm.observe(params(value_size=1.0, disk_time=0.5))
        assert cm.costs("k", 1).t_fetch == pytest.approx(0.5)

    def test_recurring_costs(self):
        cm = model(local_disk_time=0.02)
        cm.observe(params(compute_time=0.05, cpu_service_time=0.01))
        cm.observe_local_compute(0.03)
        costs = cm.costs("k", 1)
        assert costs.t_rec_mem == pytest.approx(0.03)
        assert costs.t_rec_disk == pytest.approx(0.03)  # max(0.03, 0.02)

    def test_rec_disk_disk_dominated(self):
        cm = model(local_disk_time=0.5)
        cm.observe(params(compute_time=0.01))
        costs = cm.costs("k", 1)
        assert costs.t_rec_disk == pytest.approx(0.5)

    def test_local_fallback_is_service_time_not_measured(self):
        """Before any local execution, tRecMem must be the pure service
        cost — using the load-inflated remote measurement would freeze
        the ski-rental at 'never buy' forever."""
        cm = model()
        cm.observe(params(compute_time=0.9, cpu_service_time=0.1))
        costs = cm.costs("k", 1)
        assert costs.t_rec_mem == pytest.approx(0.1)
        assert costs.rent == pytest.approx(0.9)

    def test_rent_and_buy_aliases(self):
        cm = model()
        cm.observe(params())
        costs = cm.costs("k", 1)
        assert costs.rent == costs.t_compute
        assert costs.buy == costs.t_fetch


class TestPerNodeDisk:
    def test_disk_estimates_do_not_leak_across_nodes(self):
        cm = model()
        cm.observe(params(key="a", node=1, disk_time=0.5))
        cm.observe(params(key="b", node=2, disk_time=0.001, value_size=1.0))
        # Key "b" served by node 2 must not inherit node 1's congestion.
        costs_b = cm.costs("b", 2)
        assert costs_b.t_fetch < 0.1


class TestBandwidth:
    def test_bandwidth_lookup(self):
        cm = model()
        assert cm.bandwidth_to(1) == 1e8
        with pytest.raises(KeyError):
            cm.bandwidth_to(99)

    def test_validation(self):
        with pytest.raises(ValueError):
            CostModel(0, {1: -5.0}, 0.001)
        with pytest.raises(ValueError):
            CostModel(0, {1: 1.0}, -0.001)


class TestCostMonotonicity:
    """Sanity: costs move the right way as inputs grow."""

    def test_fetch_cost_grows_with_value_size(self):
        cm_small, cm_big = model(), model()
        cm_small.observe(params(value_size=1_000.0, disk_time=1e-5))
        cm_big.observe(params(value_size=10_000_000.0, disk_time=1e-5))
        assert cm_big.costs("k", 1).t_fetch > cm_small.costs("k", 1).t_fetch

    def test_compute_cost_grows_with_measured_time(self):
        cm_fast, cm_slow = model(), model()
        cm_fast.observe(params(compute_time=0.001))
        cm_slow.observe(params(compute_time=0.5))
        assert cm_slow.costs("k", 1).t_compute > cm_fast.costs("k", 1).t_compute

    def test_slower_link_raises_both_wire_costs(self):
        fast = CostModel(0, {1: 1e9}, 0.0001)
        slow = CostModel(0, {1: 1e5}, 0.0001)
        for cm in (fast, slow):
            cm.observe(params(value_size=100_000.0, compute_time=1e-6,
                              disk_time=1e-6, computed_size=1_000.0))
        assert slow.costs("k", 1).t_fetch > fast.costs("k", 1).t_fetch
        assert slow.costs("k", 1).t_compute > fast.costs("k", 1).t_compute

    def test_smoothing_converges_to_new_regime(self):
        cm = model()
        cm.observe(params(compute_time=0.001))
        for _ in range(50):
            cm.observe(params(compute_time=0.1))
        assert cm.costs("k", 1).t_compute == pytest.approx(0.1, rel=0.05)
