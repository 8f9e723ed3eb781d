"""Smoke tests: every experiment harness runs and matches paper shapes.

These run at the ``smoke`` scale (seconds each) and assert the
*qualitative* relations the paper's figures show — who wins, roughly by
how much, and in which direction curves move with skew.
"""

import pytest

from repro.experiments import (
    fig5_clueweb,
    fig6_twitter,
    fig7_tpcds,
    fig8_synthetic_hadoop,
    fig9_adaptive,
    fig11_synthetic_muppet,
)

SEED = 7


@pytest.fixture(scope="module")
def fig5():
    return fig5_clueweb.run(scale="smoke", seed=SEED)


@pytest.fixture(scope="module")
def fig6():
    return fig6_twitter.run(scale="smoke", seed=SEED)


@pytest.fixture(scope="module")
def fig7():
    return fig7_tpcds.run(scale="smoke", seed=SEED)


@pytest.fixture(scope="module")
def fig8():
    return {t.title.split("(")[1][:3].strip(") "): t
            for t in fig8_synthetic_hadoop.run(scale="smoke", seed=SEED)}


@pytest.fixture(scope="module")
def fig11():
    return {t.title.split("(")[1][:3].strip(") "): t
            for t in fig11_synthetic_muppet.run(scale="smoke", seed=SEED)}


class TestFig5Shapes:
    def test_all_bars_present(self, fig5):
        assert [row[0] for row in fig5.rows] == list(fig5_clueweb.TECHNIQUES)

    def test_fo_is_fastest(self, fig5):
        fo = fig5.cell("FO", "minutes")
        for technique in fig5_clueweb.TECHNIQUES:
            assert fig5.cell(technique, "minutes") >= fo

    def test_hadoop_is_far_worst(self, fig5):
        assert fig5.cell("Hadoop", "normalized_vs_FO") > 5.0

    def test_fo_beats_stat_based_baselines_substantially(self, fig5):
        assert fig5.cell("CSAW", "normalized_vs_FO") > 1.5
        assert fig5.cell("FlowJoinLB", "normalized_vs_FO") > 1.5

    def test_fd_suffers_data_node_skew(self, fig5):
        assert fig5.cell("FD", "minutes") > fig5.cell("FC", "minutes")


class TestFig6Shapes:
    def test_fo_best(self, fig6):
        fo = fig6.cell("FO", "tweets_per_second")
        for strategy in ("NO", "FC", "FD", "FR"):
            assert fig6.cell(strategy, "tweets_per_second") < fo

    def test_fo_substantially_beats_no(self, fig6):
        # ~2x at the default scale; the smoke scale is warm-up heavier,
        # so accept >= 1.5x here.
        assert fig6.cell("FO", "normalized_vs_NO") > 1.5

    def test_fc_at_least_matches_no(self, fig6):
        # FC > NO at the default scale; at smoke scale the two can tie
        # (batching has little to amortize over 8k mentions).
        assert fig6.cell("FC", "tweets_per_second") > 0.95 * fig6.cell(
            "NO", "tweets_per_second"
        )

    def test_fd_is_worst_async_strategy(self, fig6):
        fd = fig6.cell("FD", "tweets_per_second")
        for strategy in ("FR", "FO"):
            assert fig6.cell(strategy, "tweets_per_second") > fd

    def test_throughput_is_pinned_bit_for_bit(self, fig6):
        # The Figure 6 bars at seed 7, smoke scale, as float.hex: any
        # change to how the stream runs are built moves one of them.
        pinned = {
            "NO": "0x1.79811967147dep+11",
            "FC": "0x1.738b304e735a4p+11",
            "FD": "0x1.2dbe30cc19764p+11",
            "FR": "0x1.208d0253c8839p+12",
            "FO": "0x1.455949f0eab9ep+12",
        }
        got = {
            strategy: float(fig6.cell(strategy, "tweets_per_second")).hex()
            for strategy in pinned
        }
        assert got == pinned


class TestFig7Shapes:
    def test_framework_wins_every_query(self, fig7):
        for row in fig7.rows:
            query, spark, ours, speedup = row
            assert ours < spark, f"{query}: ours {ours} vs spark {spark}"
            assert speedup > 1.0


class TestFig8Shapes:
    def test_no_is_baseline_one(self, fig8):
        for table in fig8.values():
            assert table.cell("NO", "z=0.0") == pytest.approx(1.0)

    def test_dh_caching_wins_at_high_skew(self, fig8):
        dh = fig8["DH"]
        assert dh.cell("FO", "z=1.5") < 0.6 * dh.cell("FD", "z=1.5")
        assert dh.cell("CO", "z=1.5") == pytest.approx(
            dh.cell("FO", "z=1.5"), rel=0.25
        )

    def test_dh_fd_competitive_at_zero_skew(self, fig8):
        dh = fig8["DH"]
        assert dh.cell("FD", "z=0.0") < dh.cell("FC", "z=0.0")
        # FO pays only a small overhead over FD at z=0.
        assert dh.cell("FO", "z=0.0") < 1.4 * dh.cell("FD", "z=0.0")

    def test_ch_fd_degrades_with_skew(self, fig8):
        ch = fig8["CH"]
        assert ch.cell("FD", "z=1.5") > 1.5 * ch.cell("FD", "z=0.0")

    def test_ch_fr_collapses_under_skew(self, fig8):
        ch = fig8["CH"]
        assert ch.cell("FR", "z=1.5") > 1.5 * ch.cell("FR", "z=0.0")

    def test_ch_lo_fo_beat_co(self, fig8):
        ch = fig8["CH"]
        for z in ("z=0.0", "z=1.0"):
            assert ch.cell("LO", z) < ch.cell("CO", z)
            assert ch.cell("FO", z) < ch.cell("CO", z)

    def test_dch_fo_best_or_tied_everywhere(self, fig8):
        dch = fig8["DCH"]
        for z in ("z=0.0", "z=0.5", "z=1.0"):
            for strategy in ("NO", "FC", "FD", "FR", "CO"):
                assert dch.cell("FO", z) <= dch.cell(strategy, z) * 1.05


class TestFig9Shapes:
    def test_adaptive_wins_under_drifted_skew(self):
        table = fig9_adaptive.run(scale="smoke", seed=SEED)
        dh_high = table.cell("DH", "z=1.5")
        assert dh_high > 1.15
        # Uniform distribution: adapting buys nothing.
        for workload in ("DH", "DCH", "CH"):
            assert table.cell(workload, "z=0.0") == pytest.approx(1.0, abs=0.15)


class TestFig11Shapes:
    def test_throughput_normalized_to_no(self, fig11):
        for table in fig11.values():
            assert table.cell("NO", "z=0.0") == pytest.approx(1.0)

    def test_dh_fo_throughput_grows_with_skew(self, fig11):
        dh = fig11["DH"]
        assert dh.cell("FO", "z=1.5") > dh.cell("FO", "z=0.0")

    def test_dh_fd_throughput_decays_with_skew(self, fig11):
        dh = fig11["DH"]
        assert dh.cell("FD", "z=1.5") < dh.cell("FD", "z=0.0")

    def test_fc_beats_no_everywhere(self, fig11):
        for table in fig11.values():
            for z in ("z=0.0", "z=1.5"):
                assert table.cell("FC", z) >= table.cell("NO", z) * 0.95
