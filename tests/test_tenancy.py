"""Multi-tenant traffic harness (ISSUE 10): generators, fairness, SLOs.

Four layers of coverage:

* hypothesis properties over the generators — arrival processes are
  bit-deterministic under a fixed seed, generated counts match the
  configured intensity within Poisson concentration bounds, and every
  tenant's key stream stays inside its keyspace slice;
* differential tests that ``TenancyOptions.off()`` is bit-identical to
  a run without the subsystem, on every engine, and that the
  ``run_at_rate -> run_trace`` refactor preserved the event schedule;
* fairness — symmetric tenants shed symmetrically, quotas bind, sheds
  are charged to the offending tenant, and the flash-crowd regression:
  an aggressor far past its quota must not push a within-quota
  tenant's p99 past its SLO (and side-effecting work still executes
  exactly once even when shed);
* the Runner/Router seam — the same tenant mix drives the open-loop
  ``SimRunner`` and the windowed ``ReplayRunner`` on the sim and
  cluster backends unchanged.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import JobSpec, RunConfig, run_join
from repro.engine.job import JoinJob, MembershipEvent
from repro.engine.strategies import Strategy
from repro.faults.policy import FaultTolerance
from repro.faults.schedule import FaultSchedule, StragglerFault
from repro.memory.options import MemoryOptions
from repro.obs.registry import MetricsRegistry
from repro.placement.batch import SizeProfile
from repro.placement.options import ElasticOptions
from repro.resilience.admission import TenantShare, WeightedFairAdmission
from repro.resilience.options import ResilienceOptions
from repro.runtime import ENGINES
from repro.runtime.backend import JoinWorkload
from repro.sim.cluster import Cluster
from repro.sim.events import Simulator
from repro.sim.rng import make_rng
from repro.store.messages import UDF
from repro.store.table import Row, Table
from repro.tenancy import (
    SLO,
    ArrivalProcess,
    FlashCrowd,
    ReplayRunner,
    SimRunner,
    TenancyOptions,
    TenancyReport,
    TenantMix,
    TenantSpec,
    UpdateWave,
    make_runner,
    mix_workload,
)
from repro.workloads.zipf import sliced_zipf_keys
from tests.oracle import assert_oracle_equal, single_node_hash_join


# ----------------------------------------------------------------------
# Generators: determinism, concentration, keyspace slices
# ----------------------------------------------------------------------
class TestArrivalProcess:
    @given(
        rate=st.floats(min_value=1.0, max_value=150.0),
        amplitude=st.floats(min_value=0.0, max_value=0.9),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=25)
    def test_deterministic_under_fixed_seed(self, rate, amplitude, seed):
        process = ArrivalProcess(
            rate=rate, diurnal_amplitude=amplitude, diurnal_period=7.0
        )
        first = process.arrivals(10.0, make_rng(seed, "arrivals"))
        second = process.arrivals(10.0, make_rng(seed, "arrivals"))
        assert np.array_equal(first, second)

    @given(
        rate=st.floats(min_value=5.0, max_value=150.0),
        amplitude=st.floats(min_value=0.0, max_value=0.9),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=25)
    def test_counts_concentrate_around_configured_rate(
        self, rate, amplitude, seed
    ):
        process = ArrivalProcess(
            rate=rate, diurnal_amplitude=amplitude, diurnal_period=9.0
        )
        horizon = 20.0
        times = process.arrivals(horizon, make_rng(seed, "count"))
        expected = process.expected_count(horizon)
        # Poisson count: sd = sqrt(mean); six sigma plus slack keeps
        # the false-failure probability negligible even at 25 examples.
        assert abs(len(times) - expected) <= 6.0 * expected**0.5 + 10.0

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25)
    def test_arrivals_sorted_and_inside_horizon(self, seed):
        process = ArrivalProcess(rate=50.0, diurnal_amplitude=0.5)
        times = process.arrivals(5.0, make_rng(seed, "sorted"))
        assert (times[:-1] <= times[1:]).all()
        assert (times >= 0.0).all() and (times < 5.0).all()

    def test_flash_crowd_adds_mass(self):
        base = ArrivalProcess(rate=20.0)
        crowd = ArrivalProcess(
            rate=20.0,
            flash_crowds=(FlashCrowd(start=2.0, duration=4.0, multiplier=8.0),),
        )
        assert crowd.expected_count(10.0) > base.expected_count(10.0) * 3
        n_base = len(base.arrivals(10.0, make_rng(3, "mass")))
        n_crowd = len(crowd.arrivals(10.0, make_rng(3, "mass")))
        assert n_crowd > n_base * 2

    def test_diurnal_intensity_stays_in_band(self):
        process = ArrivalProcess(rate=100.0, diurnal_amplitude=0.4)
        rates = [process.rate_at(t / 10.0) for t in range(0, 1200)]
        assert min(rates) >= 100.0 * 0.6 - 1e-9
        assert max(rates) <= 100.0 * 1.4 + 1e-9
        assert max(rates) <= process.peak_rate() + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            ArrivalProcess(rate=0.0)
        with pytest.raises(ValueError):
            ArrivalProcess(rate=1.0, diurnal_amplitude=1.0)
        with pytest.raises(ValueError):
            FlashCrowd(start=-1.0, duration=1.0, multiplier=2.0)
        with pytest.raises(ValueError):
            ArrivalProcess(rate=1.0).arrivals(0.0, make_rng(0, "bad"))


class TestUpdateWave:
    def test_rolls_through_the_keyspace(self):
        wave = UpdateWave(start=1.0, interval=2.0, waves=5, fraction=0.2)
        updates = wave.updates(100)
        assert len(updates) == 5 * 20
        assert {key for _, key, _ in updates} == set(range(100))
        times = [at for at, _, _ in updates]
        assert times == sorted(times)
        assert all(value == f"v{key}@w{int((at - 1.0) / 2.0)}"
                   for at, key, value in updates)

    def test_validation(self):
        with pytest.raises(ValueError):
            UpdateWave(start=0.0, interval=0.0, waves=1)
        with pytest.raises(ValueError):
            UpdateWave(start=0.0, interval=1.0, waves=1, fraction=0.0)


class TestTenantKeyStreams:
    @given(
        lo=st.integers(min_value=0, max_value=5000),
        width=st.integers(min_value=1, max_value=2048),
        skew=st.floats(min_value=0.0, max_value=2.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30)
    def test_sliced_keys_stay_inside_the_slice(self, lo, width, skew, seed):
        keys = sliced_zipf_keys(
            500, key_lo=lo, key_hi=lo + width, skew=skew, seed=seed
        )
        assert len(keys) == 500
        assert (keys >= lo).all() and (keys < lo + width).all()

    def test_trace_keys_stay_inside_each_tenants_slice(self):
        mix = TenantMix(
            tenants=(
                TenantSpec("a", ArrivalProcess(rate=50.0),
                           keyspace=(0, 100), skew=1.2),
                TenantSpec("b", ArrivalProcess(rate=50.0),
                           keyspace=(100, 256), skew=0.3),
            ),
            n_keys=256,
        )
        trace = mix.trace(horizon=4.0, seed=3)
        for tenant, (lo, hi) in (("a", (0, 100)), ("b", (100, 256))):
            keys = [trace.keys[i] for i in trace.tenant_ids(tenant)]
            assert keys, f"tenant {tenant} generated no traffic"
            assert all(lo <= key < hi for key in keys)

    def test_trace_is_deterministic(self):
        mix = TenantMix(
            tenants=(
                TenantSpec("a", ArrivalProcess(rate=40.0), keyspace=(0, 64)),
                TenantSpec("b", ArrivalProcess(rate=40.0), keyspace=(64, 128)),
            ),
            n_keys=128,
        )
        assert mix.trace(6.0, seed=5) == mix.trace(6.0, seed=5)
        assert mix.trace(6.0, seed=5) != mix.trace(6.0, seed=6)

    def test_adding_a_tenant_never_perturbs_existing_streams(self):
        # Streams are derived from (seed, tenant name), so growing the
        # mix must leave every existing tenant's trace bit-identical.
        a = TenantSpec("a", ArrivalProcess(rate=40.0), keyspace=(0, 64))
        b = TenantSpec("b", ArrivalProcess(rate=40.0), keyspace=(64, 128))
        c = TenantSpec("c", ArrivalProcess(rate=90.0), keyspace=(128, 256))
        small = TenantMix(tenants=(a, b), n_keys=256).trace(5.0, seed=9)
        grown = TenantMix(tenants=(a, b, c), n_keys=256).trace(5.0, seed=9)
        for tenant in ("a", "b"):
            small_ids = small.tenant_ids(tenant)
            grown_ids = grown.tenant_ids(tenant)
            assert (
                [small.arrivals[i] for i in small_ids]
                == [grown.arrivals[i] for i in grown_ids]
            )
            assert (
                [small.keys[i] for i in small_ids]
                == [grown.keys[i] for i in grown_ids]
            )

    def test_size_mix_fans_out_requests(self):
        spec = TenantSpec(
            "fan", ArrivalProcess(rate=30.0), keyspace=(0, 64),
            size_mix=((0.5, 1), (0.5, 4)),
        )
        trace = TenantMix(tenants=(spec,), n_keys=64).trace(5.0, seed=2)
        rng = make_rng(2, "tenancy-arrivals:fan")
        n_requests = len(spec.arrivals.arrivals(5.0, rng))
        # Fan-out means strictly more tuples than logical requests, and
        # co-arriving tuples share one timestamp.
        assert len(trace) > n_requests
        assert len(set(trace.arrivals)) == n_requests


# ----------------------------------------------------------------------
# Options + report plumbing
# ----------------------------------------------------------------------
class TestTenancyOptions:
    def test_off_is_default(self):
        assert not TenancyOptions().enabled
        assert not TenancyOptions.off().enabled
        assert TenancyOptions.on().enabled
        assert TenancyOptions.on(queue_bound=8).queue_bound == 8
        assert TenancyOptions() == TenancyOptions.off()

    def test_validation(self):
        with pytest.raises(ValueError):
            TenancyOptions(queue_bound=0)
        with pytest.raises(ValueError):
            TenancyOptions(shed_deadline=-1.0)
        with pytest.raises(ValueError):
            TenancyOptions(window=0.0)
        with pytest.raises(ValueError):
            TenancyOptions(window_capacity=0)


class TestTenancyReport:
    def build(self):
        return TenancyReport.build(
            latencies_by_tenant={
                "a": [0.1, 0.2, 0.9], "b": [0.05] * 10,
            },
            shed_by_tenant={"a": 1},
            slos={"a": SLO(deadline=0.5, target=0.9),
                  "b": SLO(deadline=0.5)},
            duration=2.0,
        )

    def test_per_tenant_stats(self):
        report = self.build()
        a = report.stats("a")
        assert a.offered == a.completed == 3
        assert a.shed == 1 and a.shed_rate == pytest.approx(1 / 3)
        assert a.attainment == pytest.approx(2 / 3)
        assert a.slo_met is False
        assert report.stats("b").slo_met is True
        assert report.worst_attainment == pytest.approx(2 / 3)
        assert report.aggregate_throughput == pytest.approx(13 / 2.0)

    def test_publish_emits_tenancy_metrics(self):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        self.build().publish(registry)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["tenancy.a.offered"] == 3
        assert snapshot["counters"]["tenancy.a.shed"] == 1
        assert snapshot["gauges"]["tenancy.b.attainment"] == 1.0
        assert snapshot["gauges"]["tenancy.worst_attainment"] == (
            pytest.approx(2 / 3)
        )

    def test_render_and_payload(self):
        import json

        report = self.build()
        text = report.render()
        assert "MISS" in text and "ok" in text
        payload = json.loads(json.dumps(report.payload()))
        assert payload["tenants"]["a"]["shed"] == 1


# ----------------------------------------------------------------------
# Differential: off() is bit-identical on every engine
# ----------------------------------------------------------------------
class TestOffIsIdentical:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_off_through_the_facade(self, engine):
        spec = JobSpec.synthetic(n_keys=20, n_tuples=80, seed=7)
        plain = run_join(spec, RunConfig(engine=engine, seed=7))
        off = run_join(spec, RunConfig(
            engine=engine, seed=7, tenancy=TenancyOptions.off()
        ))
        assert off.outputs == plain.outputs
        assert off.makespan == plain.makespan

    def test_run_at_rate_still_matches_run_trace(self):
        # run_at_rate was refactored to delegate to run_trace; evenly
        # spaced arrivals must reproduce it bit-for-bit.
        def make_job():
            from repro.workloads.synthetic import SyntheticWorkload

            workload = SyntheticWorkload.data_heavy(
                n_keys=30, n_tuples=0, skew=0.0, seed=5, value_size=4000
            )
            return JoinJob(
                cluster=Cluster.homogeneous(4),
                compute_nodes=[0, 1], data_nodes=[2, 3],
                table=workload.build_table(), udf=workload.udf,
                strategy=Strategy.by_name("FO"), sizes=workload.sizes,
                seed=5,
            )

        keys = [i % 30 for i in range(200)]
        at_rate = make_job().run_at_rate(keys, arrivals_per_second=400.0)
        trace = make_job().run_trace(
            keys, [i / 400.0 for i in range(200)], arrival_rate=400.0
        )
        assert at_rate.latencies == trace.latencies
        assert at_rate.duration == trace.duration


# ----------------------------------------------------------------------
# Weighted-fair admission: deterministic fairness properties
# ----------------------------------------------------------------------
class TestWeightedFairAdmission:
    def make(self, bound=4, shares=None, tenant_of=None, park_capacity=None):
        sim = Simulator()
        dispatched, shed = [], []
        ctl = WeightedFairAdmission(
            sim=sim, bound=bound,
            dispatch=lambda dst, tid, payload: dispatched.append(tid),
            shed=lambda dst, tid, payload: shed.append(tid),
            shares=shares, tenant_of=tenant_of,
            park_capacity=park_capacity,
        )
        return sim, ctl, dispatched, shed

    def test_equal_tenants_drain_equally(self):
        sim, ctl, dispatched, shed = self.make(
            bound=4, tenant_of=lambda tid: "a" if tid % 2 == 0 else "b"
        )
        inflight = [tid for tid in range(40) if ctl.submit(9, tid, None)]
        assert len(inflight) == 4
        served = list(inflight)
        while served:
            ctl.release(served.pop(0))
            if dispatched:
                served.append(dispatched.pop(0))
        assert ctl.admitted_by_tenant["a"] == 20
        assert ctl.admitted_by_tenant["b"] == 20
        assert not shed

    def test_weights_bias_the_drain(self):
        shares = {
            "heavy": TenantShare(weight=3.0),
            "light": TenantShare(weight=1.0),
        }
        # bound=8 gives guarantees of 6 vs 2 slots; under sustained
        # contention the in-flight mix (and so the drain rate) must
        # settle near the 3:1 weights.
        sim, ctl, dispatched, shed = self.make(
            bound=8, shares=shares,
            tenant_of=lambda tid: "heavy" if tid % 2 == 0 else "light",
        )
        inflight = [tid for tid in range(160) if ctl.submit(9, tid, None)]
        served = list(inflight)
        for _ in range(80):
            ctl.release(served.pop(0))
            if dispatched:
                served.append(dispatched.pop(0))
        heavy = ctl.admitted_by_tenant["heavy"]
        light = ctl.admitted_by_tenant["light"]
        assert heavy >= 2 * light

    def test_quota_is_a_hard_ceiling(self):
        shares = {"capped": TenantShare(quota=2)}
        sim, ctl, dispatched, shed = self.make(
            bound=8, shares=shares, tenant_of=lambda tid: "capped"
        )
        admitted = [tid for tid in range(10) if ctl.submit(9, tid, None)]
        assert len(admitted) == 2  # bound has room; the quota does not
        peak = ctl.tenant_occupancy(9, "capped")
        served = list(admitted)
        while served:
            ctl.release(served.pop(0))
            peak = max(peak, ctl.tenant_occupancy(9, "capped"))
            if dispatched:
                served.append(dispatched.pop(0))
        assert peak == 2
        assert ctl.admitted_by_tenant["capped"] == 10

    def test_work_conservation_without_contention(self):
        # A lone tenant takes the whole bound, whatever its weight.
        shares = {"solo": TenantShare(weight=0.25)}
        sim, ctl, dispatched, shed = self.make(
            bound=6, shares=shares, tenant_of=lambda tid: "solo"
        )
        admitted = [tid for tid in range(12) if ctl.submit(9, tid, None)]
        assert len(admitted) == 6

    def test_sheds_charged_to_the_offender(self):
        shares = {
            "calm": TenantShare(deadline=0.05),
            "flood": TenantShare(deadline=0.05),
        }
        sim, ctl, dispatched, shed = self.make(
            bound=4, shares=shares,
            tenant_of=lambda tid: "calm" if tid < 2 else "flood",
        )
        for tid in range(32):
            ctl.submit(9, tid, None)
        sim.run()
        assert ctl.shed_by_tenant["flood"] == ctl.shed_count > 0
        assert ctl.shed_by_tenant.get("calm", 0) == 0
        assert ctl.shed_deadline_expired == ctl.shed_count

    def test_queue_full_sheds_charged_on_arrival(self):
        sim, ctl, dispatched, shed = self.make(
            bound=1, park_capacity=2, tenant_of=lambda tid: "t"
        )
        for tid in range(6):
            ctl.submit(9, tid, None)
        assert ctl.shed_queue_full == 3
        assert ctl.shed_by_tenant["t"] == 3
        assert ctl.shed_count == 3

    @given(
        n_a=st.integers(min_value=0, max_value=30),
        n_b=st.integers(min_value=0, max_value=30),
        bound=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=30)
    def test_conservation_property(self, n_a, n_b, bound):
        # Every submitted tuple is exactly one of: admitted now,
        # parked, or shed — and a full drain serves everything parked.
        sim, ctl, dispatched, shed = self.make(
            bound=bound, park_capacity=5,
            tenant_of=lambda tid: "a" if tid % 2 == 0 else "b",
        )
        total = n_a + n_b
        order = [2 * i for i in range(n_a)] + [2 * i + 1 for i in range(n_b)]
        admitted = [tid for tid in order if ctl.submit(9, tid, None)]
        assert ctl.admitted == len(admitted)
        assert ctl.parked(9) + ctl.shed_count == total - len(admitted)
        served = list(admitted)
        while served:
            ctl.release(served.pop(0))
            if dispatched:
                served.append(dispatched.pop(0))
        assert ctl.admitted + ctl.shed_count == total
        assert ctl.parked(9) == 0


# ----------------------------------------------------------------------
# Contended scenario: flash crowd vs within-quota tenants
# ----------------------------------------------------------------------
def contended_mix():
    """Three tenants, one flash crowd driving ~20x its base rate."""
    crowd = FlashCrowd(start=2.0, duration=4.0, multiplier=20.0)
    specs = (
        TenantSpec(
            "burst", ArrivalProcess(rate=30.0, flash_crowds=(crowd,)),
            skew=0.0, quota=4, slo=SLO(deadline=0.5),
        ),
        TenantSpec(
            "steady-a", ArrivalProcess(rate=30.0),
            skew=0.0, quota=4, slo=SLO(deadline=0.5),
        ),
        TenantSpec(
            "steady-b",
            ArrivalProcess(rate=30.0, diurnal_amplitude=0.3,
                           diurnal_period=5.0),
            skew=0.0, quota=4, slo=SLO(deadline=0.5),
        ),
    )
    return TenantMix.even_split(specs, n_keys=8192)


def run_contended(fair, mix, trace, seed=11):
    config = RunConfig(
        engine="engine", backend="sim", n_compute=2, n_data=2, seed=seed,
        tenancy=TenancyOptions.on(fair=fair, queue_bound=8),
    )
    workload = mix_workload(
        mix, value_size=20_000.0, compute_cost=0.05, seed=seed
    )
    return SimRunner(config=config, workload=workload).run(mix, trace)


@pytest.fixture(scope="module")
def contended():
    mix = contended_mix()
    trace = mix.trace(horizon=10.0, seed=11)
    return mix, trace, run_contended(True, mix, trace), run_contended(
        False, mix, trace
    )


class TestFlashCrowdRegression:
    """An aggressor far past its quota must not break compliant SLOs."""

    def test_within_quota_tenants_keep_their_slo(self, contended):
        mix, trace, fair, _unfair = self.unpack(contended)
        for tenant in ("steady-a", "steady-b"):
            stats = fair.report.stats(tenant)
            assert stats.p99 <= mix.spec(tenant).slo.deadline
            assert stats.slo_met is True
            assert stats.shed == 0

    def test_sheds_charged_to_the_flash_crowd(self, contended):
        _mix, _trace, fair, _unfair = self.unpack(contended)
        assert fair.total_shed > 0
        assert fair.shed_by_tenant.get("burst", 0) == fair.total_shed

    def test_nothing_is_dropped(self, contended):
        _mix, trace, fair, unfair = self.unpack(contended)
        offered = trace.offered_load()
        for result in (fair, unfair):
            for tenant, count in offered.items():
                assert result.report.stats(tenant).completed == count

    def test_fairness_beats_the_global_baseline(self, contended):
        # The PR 4 global controller smears the flash crowd's queueing
        # over everyone; weighted-fair admission must lift the worst
        # *within-quota* tenant's attainment without losing throughput.
        _mix, _trace, fair, unfair = self.unpack(contended)
        steady = ("steady-a", "steady-b")
        fair_worst = min(fair.report.stats(t).attainment for t in steady)
        unfair_worst = min(unfair.report.stats(t).attainment for t in steady)
        assert fair_worst > unfair_worst
        assert fair_worst >= 0.95
        assert fair.report.aggregate_throughput >= (
            0.9 * unfair.report.aggregate_throughput
        )

    def test_outputs_match_the_oracle(self, contended):
        # SimRunner's job carries from_synthetic's apply_fn, so the
        # open-loop adapter returns real outputs like the replay one.
        mix, trace, fair, unfair = self.unpack(contended)
        workload = JoinWorkload.from_synthetic(mix_workload(
            mix, value_size=20_000.0, compute_cost=0.05, seed=11
        ))
        expected = single_node_hash_join(
            trace.keys, workload.udf, workload.stored_values()
        )
        for result in (fair, unfair):
            assert_oracle_equal(result.outputs, expected)

    @staticmethod
    def unpack(contended):
        return contended


class TestFairnessSymmetry:
    def test_equal_tenants_shed_equally(self):
        # Equal quotas, equal offered overload: the shed *rates* must
        # agree within a small tolerance (the arrivals differ by seed).
        specs = (
            TenantSpec("alpha", ArrivalProcess(rate=300.0), skew=0.0,
                       quota=4, slo=SLO(deadline=0.3)),
            TenantSpec("beta", ArrivalProcess(rate=300.0), skew=0.0,
                       quota=4, slo=SLO(deadline=0.3)),
        )
        mix = TenantMix.even_split(specs, n_keys=4096)
        trace = mix.trace(horizon=4.0, seed=7)
        config = RunConfig(
            engine="engine", backend="sim", n_compute=2, n_data=2, seed=7,
            tenancy=TenancyOptions.on(fair=True, queue_bound=8),
        )
        workload = mix_workload(
            mix, value_size=20_000.0, compute_cost=0.05, seed=7
        )
        result = SimRunner(config=config, workload=workload).run(mix, trace)
        offered = trace.offered_load()
        rates = {
            tenant: result.shed_by_tenant.get(tenant, 0) / offered[tenant]
            for tenant in ("alpha", "beta")
        }
        assert min(rates.values()) > 0.1, "scenario must actually overload"
        assert abs(rates["alpha"] - rates["beta"]) < 0.1


class TestShedExactlyOnce:
    def test_side_effecting_work_survives_shedding(self):
        # Shed side-effecting requests keep their kind and owner; under
        # heavy overload with deadline sheds, every tuple's UDF still
        # runs exactly once.
        table = Table("ledger")
        for key in range(40):
            table.put(Row(key=key, value=0, size=200.0, compute_cost=0.05))
        invocations = []
        udf = UDF(
            result_size=32.0, param_size=32.0, key_size=8.0,
            apply_fn=lambda key, params, value: invocations.append(key) or key,
            side_effect_free=False,
        )
        sizes = SizeProfile(key_size=8.0, param_size=32.0, value_size=200.0,
                            computed_size=32.0)
        job = JoinJob(
            cluster=Cluster.homogeneous(4),
            compute_nodes=[0, 1], data_nodes=[2, 3],
            table=table, udf=udf, strategy=Strategy.by_name("FO"),
            sizes=sizes, seed=17,
            tenancy=TenancyOptions.on(
                fair=True, queue_bound=4, shed_deadline=0.05
            ),
            tenant_of=lambda tid: "a" if tid % 2 == 0 else "b",
        )
        n = 400
        result = job.run_trace(
            [i % 40 for i in range(n)], [i * 0.002 for i in range(n)]
        )
        assert len(invocations) == n
        assert len(job.collected_outputs()) == n
        total_shed = sum(
            runtime.admission.shed_count
            for runtime in job.runtimes.values()
            if runtime.admission is not None
        )
        assert total_shed > 0, "scenario must actually shed"
        assert len(result.latencies) == n


# ----------------------------------------------------------------------
# Runner/Router seam: one mix, two backends
# ----------------------------------------------------------------------
def small_mix():
    specs = (
        TenantSpec("a", ArrivalProcess(rate=40.0), quota=4,
                   slo=SLO(deadline=1.0)),
        TenantSpec("b", ArrivalProcess(rate=40.0), quota=4,
                   slo=SLO(deadline=1.0)),
    )
    return TenantMix.even_split(specs, n_keys=256)


def assert_serves_everything(result, trace):
    offered = trace.offered_load()
    for tenant, count in offered.items():
        assert result.report.stats(tenant).completed == count
    assert result.report.total_completed == len(trace)


class TestRunnerSeam:
    def test_router_picks_the_adapter(self):
        sim_engine = RunConfig(engine="engine", backend="sim")
        assert isinstance(make_runner(sim_engine), SimRunner)
        # Forcing the replay adapter is constructing it.
        assert ReplayRunner(config=sim_engine).config is sim_engine
        assert isinstance(
            make_runner(RunConfig(engine="mapreduce", backend="sim")),
            ReplayRunner,
        )
        # Builds without forking: processes start only in run_join.
        cluster_engine = RunConfig(engine="engine", backend="cluster")
        assert isinstance(make_runner(cluster_engine), ReplayRunner)
        with pytest.raises(ValueError):
            SimRunner(config=cluster_engine)

    def test_sim_runner_serves_the_whole_trace(self):
        mix = small_mix()
        trace = mix.trace(horizon=2.0, seed=5)
        config = RunConfig(
            engine="engine", backend="sim", n_compute=2, n_data=2, seed=5,
            tenancy=TenancyOptions.on(queue_bound=16),
        )
        result = make_runner(config).run(mix, trace)
        assert isinstance(result.report, TenancyReport)
        assert result.backend == "sim" and result.fair
        assert_serves_everything(result, trace)

    @pytest.mark.parametrize("engine", ("engine", "mapreduce"))
    def test_replay_runner_outputs_match_the_oracle(self, engine):
        mix = small_mix()
        trace = mix.trace(horizon=1.5, seed=5)
        config = RunConfig(
            engine=engine, backend="sim", n_compute=2, n_data=2, seed=5,
            tenancy=TenancyOptions.on(window=0.5, window_capacity=128),
        )
        result = ReplayRunner(config=config).run(mix, trace)
        assert_serves_everything(result, trace)
        assert set(result.outputs) == set(range(len(trace)))
        for index, output in result.outputs.items():
            key = trace.keys[index]
            assert output == f"{key}|None|value-{key}"

    def test_replay_runner_rejects_membership(self):
        config = RunConfig(
            engine="engine", backend="sim", n_compute=2, n_data=2, seed=5,
            membership=(MembershipEvent(5.0, "remove", 1),),
        )
        with pytest.raises(ValueError, match="membership"):
            ReplayRunner(config=config)
        with pytest.raises(ValueError, match="membership"):
            make_runner(dataclasses.replace(config, backend="cluster"))

    def test_replay_runner_unfair_mode_is_global_fifo(self):
        mix = small_mix()
        trace = mix.trace(horizon=1.0, seed=5)
        config = RunConfig(
            engine="engine", backend="sim", n_compute=2, n_data=2, seed=5,
            tenancy=TenancyOptions.on(
                fair=False, window=0.5, window_capacity=128
            ),
        )
        result = ReplayRunner(config=config).run(mix, trace)
        assert not result.fair
        assert_serves_everything(result, trace)

    def test_sim_runner_applies_update_waves(self):
        specs = (
            TenantSpec("a", ArrivalProcess(rate=60.0), quota=4,
                       slo=SLO(deadline=1.0)),
        )
        mix = TenantMix(
            tenants=(specs[0],), n_keys=64,
            updates=(UpdateWave(start=0.5, interval=0.5, waves=2,
                                fraction=1.0),),
        )
        trace = mix.trace(horizon=2.0, seed=3)
        assert len(trace.updates) == 128
        config = RunConfig(
            engine="engine", backend="sim", n_compute=2, n_data=2, seed=3,
            tenancy=TenancyOptions.on(queue_bound=16),
        )
        result = SimRunner(config=config).run(mix, trace)
        assert_serves_everything(result, trace)

    @pytest.mark.cluster(timeout=180)
    def test_replay_runner_on_the_cluster_backend(self):
        specs = (
            TenantSpec("a", ArrivalProcess(rate=20.0), quota=4,
                       slo=SLO(deadline=5.0)),
            TenantSpec("b", ArrivalProcess(rate=20.0), quota=4,
                       slo=SLO(deadline=5.0)),
        )
        mix = TenantMix.even_split(specs, n_keys=128)
        trace = mix.trace(horizon=1.0, seed=5)
        config = RunConfig(
            engine="engine", backend="cluster", n_compute=2, n_data=2,
            seed=5,
            tenancy=TenancyOptions.on(window=1.0, window_capacity=256),
        )
        result = make_runner(config).run(mix, trace)
        assert result.backend == "cluster"
        assert_serves_everything(result, trace)
        for index, output in result.outputs.items():
            key = trace.keys[index]
            assert output == f"{key}|None|value-{key}"


# ----------------------------------------------------------------------
# SimRunner drops no option group (it builds its job like run_join)
# ----------------------------------------------------------------------
class TestSimRunnerHonoursEveryGroup:
    """Each ``RunConfig`` group armed on a ``SimRunner`` changes the
    ``TenancyResult`` or the run's registry snapshot, or raises."""

    ARMED = {
        "faults": dict(
            faults=FaultSchedule(stragglers=(
                StragglerFault(node_id=2, at=0.2, duration=1.0, slowdown=8.0),
            )),
            fault_tolerance=FaultTolerance(),
        ),
        "resilience": dict(resilience=ResilienceOptions.on()),
        "elastic": dict(elastic=ElasticOptions.on()),
        "memory": dict(memory=MemoryOptions.on(budget_bytes=2e5)),
        "memory_cache_bytes": dict(memory_cache_bytes=2e4),
    }

    @staticmethod
    def run(config, mix, trace):
        registry = MetricsRegistry()
        result = SimRunner(config=config, registry=registry).run(mix, trace)
        observed = (
            result.latencies_by_tenant, result.shed_by_tenant, result.outputs
        )
        return observed, registry.snapshot()

    @pytest.fixture(scope="class")
    def scenario(self):
        specs = tuple(
            TenantSpec(name, ArrivalProcess(rate=150.0), quota=4,
                       slo=SLO(deadline=0.5))
            for name in ("a", "b")
        )
        mix = TenantMix.even_split(specs, n_keys=256)
        trace = mix.trace(horizon=2.0, seed=5)
        config = RunConfig(
            engine="engine", backend="sim", n_compute=2, n_data=2, seed=5,
            tenancy=TenancyOptions.on(queue_bound=16),
        )
        return mix, trace, config, self.run(config, mix, trace)

    @pytest.mark.parametrize("group", sorted(ARMED))
    def test_group_changes_the_run(self, scenario, group):
        mix, trace, config, (plain, plain_snapshot) = scenario
        armed = dataclasses.replace(config, **self.ARMED[group])
        observed, snapshot = self.run(armed, mix, trace)
        assert observed != plain or snapshot != plain_snapshot

    def test_membership_is_rejected(self, scenario):
        mix, trace, config, _ = scenario
        armed = dataclasses.replace(
            config, membership=(MembershipEvent(0.5, "remove", 1),)
        )
        with pytest.raises(ValueError, match="membership"):
            SimRunner(config=armed).run(mix, trace)

    def test_obs_writes_the_trace(self, scenario, tmp_path):
        mix, trace, config, _ = scenario
        path = tmp_path / "tenancy.jsonl"
        armed = config.with_obs(tracing=True, trace_path=path)
        SimRunner(config=armed).run(mix, trace)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert any(
            r["type"] == "span" and r["name"] == "job" for r in records
        )
