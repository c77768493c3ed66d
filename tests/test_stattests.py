import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cardskill import stattests
from cardskill.records import Outcome, PlayerTimeline
from cardskill.stattests import (
    CHANCE_DOMINANT,
    FLAT,
    IMPROVING,
    INCONCLUSIVE,
    SKILL_DOMINANT,
    InsufficientPlayers,
    LengthMismatch,
    TooFewPlayers,
    ZeroVariance,
    classify,
    fit_exponential,
    fit_power,
    learning_curve_test,
    pearson,
    persistence_test,
    qq_test,
    quantile_summary,
)

from helpers import HOUR_MS, wins_timeline


class TestPearson:
    def test_identity(self):
        assert pearson([1, 2, 3, 5], [1, 2, 3, 5]) == pytest.approx(1.0)

    def test_negation(self):
        assert pearson([1, 2, 3, 5], [-1, -2, -3, -5]) == pytest.approx(-1.0)

    def test_hand_computed_value(self):
        # frozen from the definitional formula: 11 / sqrt(5 * 26)
        assert pearson([1, 2, 3, 4], [2, 4, 5, 9]) == pytest.approx(
            11 / math.sqrt(130), abs=1e-12
        )

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            pearson([1, 2, 3], [1, 2])

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            pearson([1, 1, 1], [1, 2, 3])

    @given(
        xs=st.lists(st.integers(-1000, 1000).map(float),
                    min_size=3, max_size=20),
        a=st.floats(0.01, 50),
        b=st.floats(-50, 50),
    )
    def test_affine_invariance(self, xs, a, b):
        ys = list(range(len(xs)))
        if len(set(xs)) < 2:
            return
        base = pearson(xs, ys)
        scaled = pearson([a * x + b for x in xs], ys)
        assert scaled == pytest.approx(base, abs=1e-12)


def _two_period_cohort(patterns, offset_games=None):
    """Each player's period-B outcomes copy period A; split at 1000 h."""
    split_ms = 1000 * HOUR_MS
    timelines = {}
    for i, wins in enumerate(patterns):
        a = wins_timeline(wins, user_id=f"u{i}", start=0)
        b = wins_timeline(wins, user_id=f"u{i}", start=split_ms)
        timelines[f"u{i}"] = PlayerTimeline(
            user_id=f"u{i}",
            table_size=2,
            outcomes=a.outcomes + b.outcomes,
        )
    return timelines, split_ms


class TestPersistence:
    def test_copied_periods_give_r_one(self):
        rng = np.random.default_rng(5)
        patterns = [list(rng.random(10) < p) for p in (0.2, 0.5, 0.8, 0.4)]
        timelines, split_ms = _two_period_cohort(patterns)
        res = persistence_test(timelines, split=split_ms, min_games=5, seed=1)
        assert res.r == pytest.approx(1.0)
        assert res.n_players == 4

    def test_min_games_filter_excludes_short_periods(self):
        # each period holds the pattern once, so nobody reaches 15 per period
        patterns = [[True] * 10, [True, False] * 5, [False] * 10]
        timelines, split_ms = _two_period_cohort(patterns)
        with pytest.raises(InsufficientPlayers):
            persistence_test(timelines, split=split_ms, min_games=15, seed=1)

    def test_insufficient_players(self):
        patterns = [[True, False]] * 2
        timelines, split_ms = _two_period_cohort(patterns)
        with pytest.raises(InsufficientPlayers):
            persistence_test(timelines, split=split_ms, min_games=1, seed=1)

    def test_ci_brackets_r(self):
        rng = np.random.default_rng(9)
        patterns = [list(rng.random(40) < p)
                    for p in rng.uniform(0.2, 0.8, size=30)]
        timelines, split_ms = _two_period_cohort(patterns)
        res = persistence_test(timelines, split=split_ms, min_games=10, seed=3)
        lo, hi = res.bootstrap_ci95
        assert lo <= res.r <= hi
        assert abs(res.r) <= 1.0

    def test_seeded_bootstrap_reproducible(self):
        rng = np.random.default_rng(9)
        patterns = [list(rng.random(20) < p)
                    for p in rng.uniform(0.2, 0.8, size=10)]
        timelines, split_ms = _two_period_cohort(patterns)
        a = persistence_test(timelines, split=split_ms, min_games=5, seed=7)
        b = persistence_test(timelines, split=split_ms, min_games=5, seed=7)
        assert a.bootstrap_ci95 == b.bootstrap_ci95


def _independent_cohort(n_players, games, seed):
    """Each player has a win probability p ~ U(0.2, 0.8) and draws `games`
    wins at p in each period independently, so 0 < r < 1; split at 1000 h."""
    split_ms = 1000 * HOUR_MS
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.2, 0.8, size=n_players)
    wins = rng.random((n_players, 2, games)) < p[:, None, None]
    timelines = {}
    for i in range(n_players):
        a = wins_timeline(wins[i, 0].tolist(), user_id=f"u{i}", start=0)
        b = wins_timeline(wins[i, 1].tolist(), user_id=f"u{i}",
                          start=split_ms)
        timelines[f"u{i}"] = PlayerTimeline(
            user_id=f"u{i}",
            table_size=2,
            outcomes=a.outcomes + b.outcomes,
        )
    return timelines, split_ms


@pytest.fixture(scope="module")
def wide_cohort():
    """2**16 + 1 players: wider than one bootstrap block of 2**16 values."""
    return _independent_cohort(2**16 + 1, 3, seed=11)


class TestBootstrapPinned:
    """The bootstrap CI's exact bits, captured from the one-shot
    n_boot x n resample; the blocked resample must reproduce them."""

    def test_copied_periods_cohort(self):
        rng = np.random.default_rng(9)
        patterns = [list(rng.random(40) < p)
                    for p in rng.uniform(0.2, 0.8, size=30)]
        timelines, split_ms = _two_period_cohort(patterns)
        res = persistence_test(timelines, split=split_ms, min_games=10, seed=3)
        assert repr(res.r) == "1.0"
        assert repr(res.bootstrap_ci95) == "(1.0, 1.0)"

    def test_independent_periods_cohort(self):
        timelines, split_ms = _independent_cohort(30, 40, seed=9)
        res = persistence_test(timelines, split=split_ms, min_games=10, seed=3)
        assert repr(res.r) == "0.9434658334792217"
        assert repr(res.bootstrap_ci95) == (
            "(0.907691104845267, 0.96940880951566)")

    def test_wider_than_a_block(self, wide_cohort):
        timelines, split_ms = wide_cohort
        res = persistence_test(timelines, split=split_ms, min_games=3,
                               n_boot=3, seed=4)
        assert res.n_players == 2**16 + 1
        assert repr(res.r) == "0.2874141378407645"
        assert repr(res.bootstrap_ci95) == (
            "(0.28460574649081377, 0.29301723145350717)")


def _one_shot_bootstrap(res, n_boot, seed):
    """The CI from one n_boot x n resample, as persistence_test computed it
    before it drew in blocks, and how many resamples were non-finite."""
    xs = np.array([p[1] for p in res.pairs])
    ys = np.array([p[2] for p in res.pairs])
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    idx = rng.integers(0, len(xs), size=(n_boot, len(xs)))
    bx = xs[idx]
    by = ys[idx]
    bx = bx - bx.mean(axis=1, keepdims=True)
    by = by - by.mean(axis=1, keepdims=True)
    denom = np.sqrt((bx * bx).sum(axis=1) * (by * by).sum(axis=1))
    with np.errstate(invalid="ignore", divide="ignore"):
        rs = (bx * by).sum(axis=1) / denom
    finite = rs[np.isfinite(rs)]
    lo, hi = (float(np.quantile(finite, 0.025)),
              float(np.quantile(finite, 0.975)))
    return (min(lo, res.r), max(hi, res.r)), len(rs) - len(finite)


@lru_cache(maxsize=None)
def _cohort_of(n_players):
    return _independent_cohort(n_players, 10, seed=n_players)


class TestBootstrapBlocks:
    """The blocked bootstrap equals the one-shot formula bit for bit."""

    @pytest.mark.parametrize("block", [None, 7], ids=["block-default",
                                                     "block-7"])
    @pytest.mark.parametrize("n_boot", [1, 7, 1000])
    @pytest.mark.parametrize("n_players", [3, 7, 1001])
    def test_equals_one_shot(self, monkeypatch, n_players, n_boot, block):
        # block 7 gives 2 rows per block at n=3 and 1 row at n >= 4, so
        # the last block is partial whenever n_boot is odd
        if block is not None:
            monkeypatch.setattr(stattests, "BOOT_BLOCK", block)
        timelines, split_ms = _cohort_of(n_players)
        res = persistence_test(timelines, split=split_ms, min_games=10,
                               n_boot=n_boot, seed=5)
        assert res.n_players == n_players
        ci, _ = _one_shot_bootstrap(res, n_boot, seed=5)
        assert res.bootstrap_ci95 == ci

    def test_degenerate_resamples_are_dropped(self):
        # n = 3: a resample of one player three times has zero variance
        timelines, split_ms = _cohort_of(3)
        res = persistence_test(timelines, split=split_ms, min_games=10,
                               n_boot=1000, seed=5)
        ci, dropped = _one_shot_bootstrap(res, 1000, seed=5)
        assert dropped > 0
        assert res.bootstrap_ci95 == ci

    def test_one_row_per_block_when_wider_than_a_block(self, wide_cohort):
        timelines, split_ms = wide_cohort
        assert max(1, stattests.BOOT_BLOCK // len(timelines)) == 1
        res = persistence_test(timelines, split=split_ms, min_games=3,
                               n_boot=3, seed=4)
        ci, _ = _one_shot_bootstrap(res, 3, seed=4)
        assert res.bootstrap_ci95 == ci

    def test_peak_memory_does_not_grow_with_n_boot(self):
        timelines, split_ms = _cohort_of(1001)

        def peak(n_boot):
            tracemalloc.start()
            try:
                persistence_test(timelines, split=split_ms, min_games=10,
                                 n_boot=n_boot, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4000) < 2 * peak(200)

    @pytest.mark.parametrize("n_boot", [0, -5])
    def test_n_boot_below_one_rejected(self, n_boot):
        timelines, split_ms = _cohort_of(3)
        with pytest.raises(ValueError, match="n_boot"):
            persistence_test(timelines, split=split_ms, min_games=10,
                             n_boot=n_boot)


class TestFits:
    def test_power_recovery_noiseless(self):
        xs = np.arange(1.0, 25.0)
        ys = 0.45 - 0.15 * xs ** -0.7
        fit = fit_power(xs, ys)
        assert fit.a == pytest.approx(0.45, rel=0.05)
        assert fit.b == pytest.approx(-0.15, rel=0.05)
        assert fit.alpha == pytest.approx(0.7, rel=0.05)
        assert fit.sse < 1e-12

    def test_exponential_recovery_noiseless(self):
        xs = np.arange(1.0, 25.0)
        ys = 0.45 - 0.15 * np.exp(-0.3 * xs)
        fit = fit_exponential(xs, ys)
        assert fit.a == pytest.approx(0.45, rel=0.05)
        assert fit.b == pytest.approx(-0.15, rel=0.05)
        assert fit.alpha == pytest.approx(0.3, rel=0.05)

    def test_sse_recomputable_from_params(self):
        xs = np.arange(1.0, 15.0)
        rng = np.random.default_rng(2)
        ys = 0.5 - 0.2 * xs ** -0.5 + rng.normal(0, 0.002, len(xs))
        fit = fit_power(xs, ys)
        recomputed = float(
            ((ys - (fit.a + fit.b * xs ** -fit.alpha)) ** 2).sum()
        )
        assert recomputed == pytest.approx(fit.sse, abs=1e-9)


class TestLearningCurve:
    def _cohort(self, win_prob_per_bin, n_players=200, bin_width=10, seed=0):
        rng = np.random.default_rng(seed)
        timelines = {}
        for i in range(n_players):
            wins = []
            for p in win_prob_per_bin:
                wins.extend(rng.random(bin_width) < p)
            timelines[f"u{i}"] = wins_timeline(wins, user_id=f"u{i}")
        return timelines

    def test_constant_metric_is_flat(self):
        timelines = self._cohort([0.5] * 8)
        res = learning_curve_test(timelines, bin_width=10)
        assert res.trend_direction == FLAT

    def test_rising_win_rate_improves(self):
        probs = [0.3 + 0.25 * (1 - (b + 1) ** -0.7) for b in range(10)]
        timelines = self._cohort(probs, n_players=400)
        res = learning_curve_test(timelines, bin_width=10)
        assert res.trend_direction == IMPROVING

    def test_loss_metric_polarity(self):
        # shrinking loss magnitudes should read as Improving
        rng = np.random.default_rng(4)
        timelines = {}
        for i in range(100):
            deltas = []
            for b in range(8):
                size = 40 - 3 * b
                deltas.extend(-rng.uniform(size * 0.8, size * 1.2, 10))
            deltas[0] = 5.0  # one win so the metric is defined
            timelines[f"u{i}"] = PlayerTimeline(
                user_id=f"u{i}",
                table_size=2,
                outcomes=tuple(
                    Outcome(won=d > 0, value_delta=float(d),
                            timestamp=j * HOUR_MS, key=f"g{j:04d}")
                    for j, d in enumerate(deltas)
                ),
            )
        res = learning_curve_test(
            timelines, metric="avg_points_lost_losing", bin_width=10
        )
        assert res.trend_direction == IMPROVING

    def test_preferred_consistent_with_aic(self):
        probs = [0.3 + 0.2 * (1 - (b + 1) ** -0.8) for b in range(8)]
        res = learning_curve_test(self._cohort(probs), bin_width=10)
        fits = {"Power": res.power_fit, "Exponential": res.exp_fit}
        best = min((f.aic, name) for name, f in fits.items() if f)[1]
        assert res.preferred == best


class TestQQ:
    def test_exact_normal_quantiles_consistent(self):
        from cardskill.metrics import theoretical_quantile

        values = [theoretical_quantile((i - 0.5) / 100) for i in range(1, 101)]
        res = qq_test(values)
        assert res.r_squared >= 0.999
        assert res.normal_consistent

    def test_bimodal_not_consistent(self):
        values = [0.2] * 50 + [0.8] * 50
        res = qq_test(values)
        assert not res.normal_consistent

    def test_percentiles_strictly_increasing_and_symmetric(self):
        rng = np.random.default_rng(8)
        values = list(rng.integers(0, 10, 60) / 10.0)  # plenty of ties
        res = qq_test(values)
        ps = [p.percentile for p in res.points]
        assert all(b > a for a, b in zip(ps, ps[1:]))
        n = len(ps)
        for i in range(n):
            assert ps[i] + ps[n - 1 - i] == pytest.approx(1.0, abs=1e-15)

    def test_too_few_players(self):
        with pytest.raises(TooFewPlayers):
            qq_test([0.5] * 10)


class TestQuantileSummary:
    def test_final_group_mean_is_cohort_mean(self):
        rng = np.random.default_rng(1)
        players = [(int(g), float(w)) for g, w in
                   zip(rng.integers(30, 100, 50), rng.random(50))]
        res = quantile_summary(players, 4)
        assert res.groups[-1][1] == pytest.approx(
            sum(w for _, w in players) / len(players), abs=1e-12
        )

    def test_counts_strictly_increasing_to_n(self):
        players = [(i, 0.1 * (i % 7)) for i in range(33)]
        res = quantile_summary(players, 10)
        counts = [n for n, _, _ in res.groups]
        assert all(b > a for a, b in zip(counts, counts[1:]))
        assert counts[-1] == 33

    def test_experience_ordering(self):
        players = [(100, 0.9), (10, 0.1), (50, 0.5), (20, 0.3)]
        res = quantile_summary(players, 2)
        # first half = two least-experienced players
        assert res.groups[0] == (2, pytest.approx(0.2), pytest.approx(
            math.sqrt(((0.1 - 0.2) ** 2 + (0.3 - 0.2) ** 2) / 1)))

    def test_too_few_players(self):
        with pytest.raises(TooFewPlayers):
            quantile_summary([(10, 0.5)], 4)


class TestClassify:
    def _qq(self, consistent):
        from cardskill.metrics import theoretical_quantile

        if consistent:
            values = [theoretical_quantile((i - 0.5) / 60)
                      for i in range(1, 61)]
        else:
            values = [0.2] * 30 + [0.8] * 30
        return qq_test(values)

    def _persistence(self, r, ci):
        from cardskill.stattests import PersistenceResult

        return PersistenceResult(
            r=r, n_players=100, period_a=(0, 1), period_b=(2, 3),
            min_games=30, bootstrap_ci95=ci,
        )

    def _learning(self, trend):
        from cardskill.metrics import SkillSeries
        from cardskill.stattests import CurveFitResult, LearningCurveResult

        fit = CurveFitResult(0.5, -0.1, 0.5, 0.0, -100.0)
        return LearningCurveResult(
            binned=SkillSeries("win_rate", ((1, 0.4), (2, 0.5)), "cohort"),
            power_fit=fit, exp_fit=fit, preferred="Power",
            trend_direction=trend,
        )

    def test_skill_dominant(self):
        v = classify(self._persistence(0.8, (0.7, 0.9)),
                     self._learning(IMPROVING), self._qq(False))
        assert v.verdict == SKILL_DOMINANT

    def test_chance_dominant(self):
        v = classify(self._persistence(0.01, (-0.05, 0.06)),
                     self._learning(FLAT), self._qq(True))
        assert v.verdict == CHANCE_DOMINANT

    def test_inconclusive_mix(self):
        v = classify(self._persistence(0.8, (0.7, 0.9)),
                     self._learning(FLAT), self._qq(False))
        assert v.verdict == INCONCLUSIVE

    def test_pure_function_reproducible(self):
        args = (self._persistence(0.0, (-0.1, 0.1)), self._learning(FLAT),
                self._qq(True))
        a = classify(*args, thresholds={"r_min": 0.0})
        b = classify(*args, thresholds={"r_min": 0.0})
        assert a.verdict == b.verdict
        assert a.thresholds_used == b.thresholds_used

    def test_thresholds_recorded(self):
        v = classify(self._persistence(0.5, (0.4, 0.6)),
                     self._learning(IMPROVING), self._qq(False),
                     thresholds={"r_min": 0.45})
        assert v.thresholds_used["r_min"] == 0.45
        assert "threshold_r2" in v.thresholds_used
