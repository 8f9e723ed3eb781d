"""Tests for Table 1 cost parameters and the Section 4.3 cost formulas."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost_model import CostModel, CostParameters
from repro.core.smoothing import SmoothedValue


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

    # The ways an estimate behind costs4 can move: the key's own
    # estimates, or only the data node's disk time (a timeout).
    _MOVES = (
        lambda cm: cm.observe(params(value_size=5e6, compute_time=0.5, disk_time=0.2)),
        lambda cm: cm.observe_timeout(1, 0.5),
    )

    @pytest.mark.parametrize("move", range(len(_MOVES)))
    def test_costs4_follows_costs_after_an_estimate_moves(self, move):
        # The accessor must not serve a cost computed before the last
        # observation.
        cm = model()
        cm.observe(params())
        first = cm.costs4("k", 1)
        self._MOVES[move](cm)
        c = cm.costs("k", 1)
        assert cm.costs4("k", 1) == (c.rent, c.buy, c.t_rec_mem, c.t_rec_disk)
        assert cm.costs4("k", 1) != first


class _Oracle:
    """The Section 4.3 formulas over the test's own ``SmoothedValue``s.

    Fed the same steps as a :class:`CostModel`, independently of how the
    model stores its estimates.
    """

    def __init__(self, bandwidth, local_disk_time, alpha=0.3):
        self.bandwidth = bandwidth
        self.local_disk_time = local_disk_time
        self.alpha = alpha
        self.sk = SmoothedValue(alpha, initial=8.0)
        self.sp = SmoothedValue(alpha)
        self.scv = SmoothedValue(alpha)
        self.tc_local = SmoothedValue(alpha)
        self.disk = {}
        self.per_key = {}

    def observe(self, p):
        self.sk.observe(p.key_size)
        self.sp.observe(p.param_size)
        if p.computed_size > 0:
            self.scv.observe(p.computed_size)
        self._disk(p.node_id).observe(p.disk_time)
        sv, tc, ts = self.per_key.setdefault(
            p.key, tuple(SmoothedValue(self.alpha) for _ in range(3))
        )
        sv.observe(p.value_size)
        tc.observe(p.compute_time)
        ts.observe(p.service_time)

    def _disk(self, node):
        return self.disk.setdefault(node, SmoothedValue(self.alpha))

    def observe_timeout(self, node, waited):
        self._disk(node).observe(waited)

    def observe_local_compute(self, seconds):
        self.tc_local.observe(seconds)

    def forget_key(self, key):
        self.per_key.pop(key, None)

    def costs4(self, key, node):
        sv, tc, ts = self.per_key[key]
        bw = self.bandwidth[node]
        disk = self.disk[node].value if node in self.disk else 0.0
        sk, sp, scv = self.sk.value, self.sp.value_or(0.0), self.scv.value_or(0.0)
        local = self.tc_local.value_or(ts.value)
        return (
            max(disk, (sk + sp + scv) / bw, tc.value),
            max(disk, (sk + sv.value) / bw),
            local,
            max(local, self.local_disk_time),
        )


def _apply(target, step):
    name, *args = step
    if name == "observe":
        target.observe(params(**args[0]))
    else:
        getattr(target, name)(*args)


# Few distinct values, so repeats leave an estimate where it was as
# often as they move it.
_KEYS = st.sampled_from(["a", "b", "c"])
_NODES = st.sampled_from([1, 2])
_SECONDS = st.sampled_from([0.0, 0.002, 0.01, 0.5])
_STEP = st.one_of(
    st.tuples(st.just("observe"), st.fixed_dictionaries(dict(
        key=_KEYS, node=_NODES, value_size=st.sampled_from([10.0, 1e5, 5e6]),
        compute_time=_SECONDS, disk_time=_SECONDS,
        computed_size=st.sampled_from([0.0, 128.0, 4096.0]),
        cpu_service_time=st.sampled_from([None, 0.002, 0.01]),
    ))),
    st.tuples(st.just("observe_timeout"), _NODES, _SECONDS),
    st.tuples(st.just("forget_key"), _KEYS),
    st.tuples(st.just("observe_local_compute"), _SECONDS),
)


@given(steps=st.lists(_STEP, min_size=1, max_size=40))
@settings(max_examples=80, deadline=None)
def test_property_costs4_is_costs_and_the_formulas(steps):
    """After every step ``costs4`` equals the fields of ``costs`` and
    the formulas evaluated over independently smoothed estimates, and
    ``hit_weight`` is its ``rent - tRecMem`` to the bit, or ``None``
    exactly where it raises (node 3 has no bandwidth estimate)."""
    cm = model()
    oracle = _Oracle({1: 1e8, 2: 5e7}, 0.001)
    for step in steps:
        _apply(cm, step)
        _apply(oracle, step)
        for key in ("a", "b", "c"):
            assert cm.knows_key(key) == (key in oracle.per_key)
            if cm.knows_key(key):
                assert cm.value_size(key) == oracle.per_key[key][0].value
            for node in (1, 2, 3):
                weight = cm.hit_weight(key, node)
                if not cm.knows_key(key) or node == 3:
                    with pytest.raises(KeyError):
                        cm.costs4(key, node)
                    assert weight is None
                    continue
                c = cm.costs(key, node)
                c4 = cm.costs4(key, node)
                assert c4 == (c.t_compute, c.t_fetch, c.t_rec_mem, c.t_rec_disk)
                assert c4 == oracle.costs4(key, node)
                assert weight.hex() == (c4[0] - c4[2]).hex()


def _obs(key, node, value_size, compute_time, disk_time, computed_size, **kw):
    return ("observe", dict(
        key=key, node=node, value_size=value_size, compute_time=compute_time,
        disk_time=disk_time, computed_size=computed_size, **kw,
    ))


class TestCostGoldenPin:
    """One fixed sequence through every estimate, pinned to the float.

    The cost model has one implementation, which both modes run, so the
    differential suite cannot see it drift; this case can.  Every term
    of every maximum wins at least once, ``tRecMem`` is read both from
    the service-time fallback and from local measurements, keys are
    forgotten and re-learnt, and the global sizes are chosen so that
    summing ``sk + sp + scv`` in another order moves a pinned float.
    """

    STEPS = [
        _obs("a", 1, 100_000.0, 0.01, 0.002, 128.0),
        _obs("b", 2, 4096.0, 0.03, 0.004, 0.0, cpu_service_time=0.005),
        _obs("a", 1, 200_000.0, 0.012, 0.003, 256.0, param_size=48.0),
        ("observe_timeout", 1, 0.03),
        _obs("c", 1, 5e6, 0.2, 0.001, 4096.0, cpu_service_time=0.05,
             key_size=20.0),
        _obs("b", 2, 4000.0, 0.025, 0.0035, 64.0),
        _obs("a", 2, 150_000.0, 0.011, 0.002, 0.0),
        _obs("c", 1, 4.8e6, 0.22, 0.0012, 4000.0, cpu_service_time=0.06),
        ("forget_key", "b"),
        _obs("b", 1, 10.0, 0.001, 0.0001, 8.0),
        ("observe_timeout", 2, 0.02),
        _obs("a", 1, 100_000.0, 0.009, 0.0025, 128.0, cpu_service_time=0.008),
        _obs("c", 2, 5.1e6, 0.19, 0.0009, 2e6, param_size=128.0),
        _obs("b", 1, 12.0, 0.0012, 0.00011, 0.0),
        _obs("a", 3, 100_000.0, 0.01, 0.7, 128.0),
        _obs("c", 1, 5e6, 0.21, 0.001, 4096.0, key_size=12.0),
        _obs("b", 2, 11.0, 0.0011, 0.0002, 16.0, cpu_service_time=0.0009),
        _obs("a", 1, 110_000.0, 0.0105, 0.0021, 130.0),
    ]
    MID = {
        ("a", 1): (0.010249959999999997, 0.0020902020229999997,
                   0.010102959999999998, 0.010102959999999998),
        ("a", 2): (0.010249959999999997, 0.004319185,
                   0.010102959999999998, 0.010102959999999998),
        ("b", 1): (0.0020902020229999997, 0.0020902020229999997,
                   0.0010119999999999999, 0.002),
        ("b", 2): (0.004319185, 0.004319185,
                   0.0010119999999999999, 0.002),
        ("c", 1): (0.20384, 0.04991608659183763,
                   0.12886999999999998, 0.12886999999999998),
        ("c", 2): (0.20384, 0.09983217318367527,
                   0.12886999999999998, 0.12886999999999998),
    }
    MORE_STEPS = [
        ("observe_local_compute", 0.015),
        _obs("c", 1, 4.9e6, 0.205, 0.0011, 4090.0),
        ("observe_timeout", 1, 0.0),
        _obs("b", 1, 9.0, 0.0013, 0.0001, 8.0),
        ("observe_local_compute", 0.0004),
        _obs("a", 2, 120_000.0, 0.0099, 0.0019, 0.0, cpu_service_time=0.007),
        _obs("d", 1, 64.0, 0.5, 0.01, 32.0),
        ("forget_key", "a"),
        _obs("a", 1, 90_000.0, 0.02, 0.0022, 120.0, param_size=48.0),
        _obs("c", 2, 5.2e6, 0.18, 0.0008, 3e6, param_size=56.0),
        ("observe_timeout", 2, 0.05),
        _obs("b", 2, 13.0, 0.0014, 0.0003, 24.0),
        ("observe_local_compute", 0.0006),
        _obs("a", 1, 95_000.0, 0.018, 0.0021, 124.0),
        _obs("d", 2, 70.0, 0.45, 0.012, 0.0),
        ("forget_key", "d"),
        _obs("c", 1, 5.05e6, 0.215, 0.00105, 4095.0, cpu_service_time=0.055),
    ]
    END = {
        ("a", 1): (0.019399999999999997, 0.002326564294462748,
                   0.007613999999999998, 0.007613999999999998),
        ("a", 2): (0.019399999999999997, 0.01195810242295,
                   0.007613999999999998, 0.007613999999999998),
        ("b", 1): (0.0031849234396281747, 0.002326564294462748,
                   0.007613999999999998, 0.007613999999999998),
        ("b", 2): (0.01195810242295, 0.01195810242295,
                   0.007613999999999998, 0.007613999999999998),
        ("c", 1): (0.20235211999999997, 0.050394268186203094,
                   0.007613999999999998, 0.007613999999999998),
        ("c", 2): (0.20235211999999997, 0.10078853637240619,
                   0.007613999999999998, 0.007613999999999998),
    }
    END_SIZES = {"a": 91500.0, "b": 11.042799999999998, "c": 5039418.8}

    @staticmethod
    def _costs4(cm):
        costs = {(k, n): cm.costs4(k, n) for k in "abc" for n in (1, 2)}
        for (k, n), c4 in costs.items():
            assert cm.hit_weight(k, n) == c4[0] - c4[2]
        return costs

    def test_costs4_floats_are_pinned(self):
        cm = model(local_disk_time=0.002)
        for step in self.STEPS:
            _apply(cm, step)
        assert self._costs4(cm) == self.MID
        for step in self.MORE_STEPS:
            _apply(cm, step)
        assert self._costs4(cm) == self.END
        assert {k: cm.value_size(k) for k in "abc"} == self.END_SIZES
        assert not cm.knows_key("d")
        with pytest.raises(KeyError):
            cm.costs4("a", 3)


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
        # A node without a bandwidth estimate has no costs and no weight.
        cm = model()
        cm.observe(params())
        assert cm.costs4("k", 1)[1] == max(0.002, (8.0 + 100_000.0) / 1e8)
        assert cm.hit_weight("k", 1) is not None
        with pytest.raises(KeyError):
            cm.costs4("k", 99)
        assert cm.hit_weight("k", 99) is None

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
