import gc
import math
import tracemalloc
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import curve_fit

from cardskill import stattests
from cardskill.metrics import METRICS
from cardskill.records import Outcome, PlayerTimeline, parse_timestamp
from cardskill.simgen import SimConfig, simulate_timelines
from cardskill.stattests import (
    CHANCE_DOMINANT,
    FLAT,
    IMPROVING,
    INCONCLUSIVE,
    SKILL_DOMINANT,
    CurveFitResult,
    FitDiverged,
    InsufficientPlayers,
    LengthMismatch,
    StatTestError,
    ZeroVariance,
    classify,
    fit_exponential,
    fit_power,
    learning_curve_test,
    pearson,
    persistence_test,
    player_values,
    qq_test,
    quantile_summary,
)

from helpers import (HOUR_MS, REFERENCE_METRICS, outcome_of, outcome_runs,
                     wins_timeline)


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

    @pytest.mark.parametrize("xs", [
        [math.inf, 1, 2, 3],
    ])
    def test_non_finite_correlation_raises(self, xs):
        with pytest.raises(StatTestError, match="not finite"):
            pearson(xs, [1, 2, 3, 4])

    def test_large_finite_values_do_not_overflow(self):
        # Unscaled, the deviations' products overflow: r read 0.0 for
        # 1e155, and the 1e308 case raised.
        ys = [5, 1, 2, 3, 4]
        assert pearson([1e155, 1, 2, 3, 4], ys) == pytest.approx(
            pearson([1e150, 1, 2, 3, 4], ys), abs=1e-12)
        assert pearson([1e155, 1, 2, 3, 4], ys) == pytest.approx(
            1 / math.sqrt(2), abs=1e-6)
        xs = [1e308, 1e308, -1e308, 2]
        assert pearson(xs, [1, 2, 3, 4]) == pearson(
            [math.ldexp(x, -1000) for x in xs], [1, 2, 3, 4])

    @given(
        xs=st.lists(st.integers(-1000, 1000).map(float),
                    min_size=3, max_size=20),
        k=st.integers(-1000, 1000),
        j=st.integers(-1000, 1000),
    )
    def test_scaling_by_powers_of_two_is_exact(self, xs, k, j):
        ys = [float((7 * i) % 5) for i in range(len(xs))]
        expected = outcome_of(pearson, xs, ys)
        assert outcome_of(pearson, [math.ldexp(x, k) for x in xs],
                          [math.ldexp(y, j) for y in ys]) == expected

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
    @staticmethod
    def _scaled_cohort(k):
        """40 players, 8 games either side of 1000 h, deltas times 2**k."""
        rng = np.random.default_rng(11)
        return {f"u{i}": PlayerTimeline(f"u{i}", 2, tuple(
            Outcome(d > 0, math.ldexp(d, k), t * HOUR_MS) for d, t in zip(
                rng.normal(i % 5, 3.0, 16).tolist(),
                list(range(8)) + list(range(1000, 1008)))))
            for i in range(40)}

    @pytest.mark.parametrize("k", [-700, -40, 40, 600])
    def test_ci_is_the_same_under_scaling_by_powers_of_two(self, k):
        """bb_per_100 scales exactly with the deltas, so r and the bootstrap
        CI must not move; at 2**600 the unscaled products of sums overflow,
        and at 2**-700 they underflow."""
        def run(cohort):
            res = persistence_test(cohort, split=1000 * HOUR_MS,
                                   metric="bb_per_100", min_games=5, seed=2)
            return res.r, res.bootstrap_ci95, res.values_a
        r, ci, values = run(self._scaled_cohort(0))
        r_k, ci_k, values_k = run(self._scaled_cohort(k))
        assert values_k.tolist() == [math.ldexp(v, k) for v in values]
        assert (r_k, ci_k) == (r, ci)
        assert ci[0] < r < ci[1]

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

    @pytest.mark.parametrize("first,last,split", [
        ("2022-12-01T00:00Z", "2023-01-30T10:49Z", "2023-01-01T00:00Z"),
        ("9999-11-01T00:00Z", "9999-12-31T10:49Z", "9999-12-01T00:00Z"),
        # the nearer month start is in year 10000, so the midpoint is kept
        ("9999-12-02T00:00Z", "9999-12-31T23:59:59.999Z", None),
    ])
    def test_month_split_up_to_december_9999(self, first, last, split):
        lo, hi = parse_timestamp(first), parse_timestamp(last)
        timelines = {"a": PlayerTimeline("a", 2, tuple(
            Outcome(True, 0.0, t) for t in (lo, hi)))}
        expected = (lo + hi) // 2 if split is None else parse_timestamp(split)
        assert stattests.resolve_split(timelines) == expected


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
        assert len(res.users) == len(res.values_a) == len(res.values_b) \
            == res.n_players
        assert repr(res.r) == "0.2874141378407645"
        assert repr(res.bootstrap_ci95) == (
            "(0.28460574649081377, 0.29301723145350717)")


def _one_shot_bootstrap(res, n_boot, seed):
    """The CI from one n_boot x n resample, as persistence_test computed it
    before it drew in blocks, and how many resamples were non-finite."""
    xs, ys = res.values_a, res.values_b
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


    def test_three_bins_diverge(self):
        for fit in (fit_power, fit_exponential):
            with pytest.raises(FitDiverged, match="at least 4 bins"):
                fit([1.0, 2.0, 3.0], [0.4, 0.5, 0.45])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_ys_diverge(self, bad):
        for fit in (fit_power, fit_exponential):
            with pytest.raises(FitDiverged, match="non-finite"):
                fit([1.0, 2.0, 3.0, 4.0, 5.0], [0.4, 0.5, bad, 0.45, 0.5])

    def test_constant_series(self):
        fit = fit_power(np.arange(1.0, 7.0), [0.25] * 6)
        assert (fit.a, fit.b, fit.alpha, fit.sse) == (0.25, 0.0, 1.0, 0.0)


def _curve_fit_sse(model, xs, ys):
    """The least SSE scipy's curve_fit reaches from several starts within
    the same alpha bounds: an independent oracle for the profile search."""
    best = math.inf
    for alpha0 in (1e-3, 0.03, 0.3, 1.0, 3.0, 10.0):
        try:
            params, _ = curve_fit(
                model, xs, ys, p0=[ys[-1], ys[0] - ys[-1], alpha0],
                bounds=([-np.inf, -np.inf, 1e-8], [np.inf, np.inf, 50.0]),
                maxfev=20000)
        except RuntimeError:
            continue
        best = min(best, float(((ys - model(xs, *params)) ** 2).sum()))
    return best


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("shape", ["power", "exponential", "flat"])
@pytest.mark.parametrize("fit,model", [
    (fit_power, stattests._power_model),
    (fit_exponential, stattests._exp_model),
], ids=["power_fit", "exp_fit"])
def test_fit_no_worse_than_curve_fit(seed, shape, fit, model):
    rng = np.random.default_rng(seed)
    xs = np.arange(1.0, rng.integers(4, 16) + 1)
    ys = {"power": 0.5 - 0.1 * xs ** -0.7,
          "exponential": 0.5 - 0.1 * np.exp(-0.3 * xs),
          "flat": np.full(len(xs), 0.5)}[shape]
    ys = ys + rng.normal(0, rng.choice([0.001, 0.005, 0.02]), len(xs))
    result = fit(xs, ys)
    assert result.sse <= _curve_fit_sse(model, xs, ys) * (1 + 1e-9)
    assert 1e-8 <= result.alpha <= 50.0


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

    @pytest.mark.parametrize("metric", ["avg_points_lost_losing",
                                        "avg_blind_lost"])
    def test_loss_metric_polarity(self, metric):
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
                            timestamp=j * HOUR_MS)
                    for j, d in enumerate(deltas)
                ),
            )
        res = learning_curve_test(timelines, metric=metric, bin_width=10)
        assert res.trend_direction == IMPROVING

    def test_under_four_bins_raises_both_families(self):
        with pytest.raises(FitDiverged) as exc:
            learning_curve_test(self._cohort([0.5, 0.4, 0.6]), bin_width=10)
        assert str(exc.value) == (
            "power: need at least 4 bins to fit a 3-parameter curve; "
            "exponential: need at least 4 bins to fit a 3-parameter curve")

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
        ps = res.percentiles.tolist()
        assert all(b > a for a, b in zip(ps, ps[1:]))
        n = len(ps)
        for i in range(n):
            assert ps[i] + ps[n - 1 - i] == pytest.approx(1.0, abs=1e-15)

    def test_too_few_players(self):
        with pytest.raises(InsufficientPlayers,
                           match="^QQ test needs >= 20 players, got 10$"):
            qq_test([0.5] * 10)

    def test_identical_values_have_no_z_scores(self):
        with pytest.raises(ZeroVariance, match="identical"):
            qq_test([0.5] * 25)

    def test_columns_equal_the_scalar_formulas(self):
        from cardskill.metrics import (percentile_position, rank_average,
                                       sample_mean_std, theoretical_quantile)

        rng = np.random.default_rng(3)
        values = sorted((rng.integers(0, 7, 45) / 7.0).tolist())  # ties
        res = qq_test(rng.permutation(values).tolist())
        mean, sd = sample_mean_std(values)
        n = len(values)
        ps = [percentile_position(i, n) for i in range(1, n + 1)]
        theo = [theoretical_quantile(p) for p in ps]
        obs = [(v - mean) / sd for v in values]
        assert repr(res.ranks.tolist()) == repr(rank_average(values))
        assert repr(res.percentiles.tolist()) == repr(ps)
        assert repr(res.theoretical.tolist()) == repr(theo)
        assert repr(res.observed.tolist()) == repr(obs)
        assert repr((res.cohort_mean, res.cohort_sd)) == repr((mean, sd))
        assert repr(res.max_abs_deviation) == repr(
            max(abs(o - t) for o, t in zip(obs, theo)))
        assert type(res.normal_consistent) is bool
        assert res.as_dict()["n"] == n


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
        with pytest.raises(InsufficientPlayers,
                           match="^4 quantile groups need >= 4 players, "
                           "got 1$"):
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
            min_games=30, bootstrap_ci95=ci, metric="win_rate", users=(),
            values_a=np.empty(0), values_b=np.empty(0),
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


# The per-player loops persistence_test and learning_curve_test ran before
# they read the cohort as segments, kept as the oracle for the segment form.

def _reference_split(timelines, split_ms, metric, min_games):
    """(pairs, period_a, period_b) from the old per-player split loop."""
    metric_fn = REFERENCE_METRICS[metric]
    pairs, spans = [], []
    for user_id in sorted(timelines):
        tl = timelines[user_id]
        part_a = [o for o in tl.outcomes if o.timestamp < split_ms]
        part_b = [o for o in tl.outcomes if o.timestamp >= split_ms]
        if len(part_a) < min_games or len(part_b) < min_games:
            continue
        va = metric_fn(part_a)
        vb = metric_fn(part_b)
        if va is None or vb is None:
            continue
        pairs.append((user_id, va, vb))
        ta = [o.timestamp for o in part_a]
        tb = [o.timestamp for o in part_b]
        spans.append((min(ta), max(ta), min(tb), max(tb)))
    if not spans:
        return pairs, None, None
    return (pairs, (min(s[0] for s in spans), max(s[1] for s in spans)),
            (min(s[2] for s in spans), max(s[3] for s in spans)))


def _reference_points(timelines, metric, bin_width):
    """The binned points from the old bin-by-bin, player-by-player loop."""
    metric_fn = REFERENCE_METRICS[metric]
    max_bins = max(len(tl.outcomes) for tl in timelines.values()) // bin_width
    points = []
    for b in range(max_bins):
        vals = []
        for user_id in sorted(timelines):
            tl = timelines[user_id]
            if len(tl.outcomes) < (b + 1) * bin_width:
                continue
            v = metric_fn(tl.outcomes[b * bin_width : (b + 1) * bin_width])
            if v is not None:
                vals.append(v)
        if vals:
            points.append((b + 1, sum(vals) / len(vals)))
    return points


SPLIT_MS = 100


@st.composite
def _cohorts(draw, stamps=st.one_of(st.integers(SPLIT_MS - 5, SPLIT_MS + 4),
                                    st.integers(0, 2 * SPLIT_MS))):
    """3 to 8 players, some with empty or short timelines, stamps in no
    order and often equal to SPLIT_MS."""
    users = draw(st.lists(st.text("abcu", min_size=1, max_size=3),
                          unique=True, min_size=3, max_size=8))
    sizes = st.sampled_from([0, 3, 6])
    return {u: PlayerTimeline(u, 2, tuple(draw(outcome_runs(
        stamps, 14, draw(sizes))))) for u in users}


def _constant_fit(xs, ys):
    return CurveFitResult(0.0, 0.0, 1.0, 0.0, 0.0)


class TestSegmentForm:
    """persistence_test and learning_curve_test against the old loops, on
    drawn cohorts."""

    @settings(max_examples=200, deadline=None)
    @given(cohort=_cohorts(), metric=st.sampled_from(sorted(METRICS)),
           min_games=st.integers(1, 3))
    def test_persistence_pairs_and_spans(self, cohort, metric, min_games):
        cohort = {u: PlayerTimeline(u, tl.table_size, tuple(sorted(
            tl.outcomes, key=lambda o: o.timestamp)))
            for u, tl in cohort.items()}
        pairs, period_a, period_b = _reference_split(cohort, SPLIT_MS, metric,
                                                     min_games)

        def run():
            return persistence_test(cohort, split=SPLIT_MS, metric=metric,
                                    min_games=min_games, n_boot=200)

        if len(pairs) < 3:
            with pytest.raises(InsufficientPlayers):
                run()
            return
        expected = outcome_of(pearson, [p[1] for p in pairs],
                              [p[2] for p in pairs])
        if expected is ZeroVariance:
            with pytest.raises(ZeroVariance):
                run()
            return
        res = run()
        assert res.users == tuple(p[0] for p in pairs)
        assert repr(res.values_a.tolist()) == repr([p[1] for p in pairs])
        assert repr(res.values_b.tolist()) == repr([p[2] for p in pairs])
        assert res.n_players == len(pairs)
        assert (res.period_a, res.period_b) == (period_a, period_b)
        assert all(type(t) is int for t in res.period_a + res.period_b)

    @settings(max_examples=100, deadline=None)
    @given(cohort=_cohorts(st.integers(1669852800000, 1675209600000)))
    def test_month_split(self, cohort):
        stamps = [o.timestamp for tl in cohort.values() for o in tl.outcomes]
        got = outcome_of(stattests.resolve_split, cohort)
        if not stamps:
            assert got is InsufficientPlayers
            return
        # the rest of the rule reads only the least and greatest stamp
        lo, hi = min(stamps), max(stamps)
        bounds = {u: PlayerTimeline(u, 2, tuple(
            Outcome(True, 0.0, t) for t in (lo, hi))) for u in ("a",)}
        assert got == repr(stattests.resolve_split(bounds))

    @settings(max_examples=200, deadline=None)
    @given(cohort=_cohorts(), metric=st.sampled_from(sorted(METRICS)),
           bin_width=st.integers(1, 4))
    def test_learning_points(self, cohort, metric, bin_width):
        with mock.patch.object(stattests, "fit_power", _constant_fit), \
                mock.patch.object(stattests, "fit_exponential",
                                  _constant_fit):
            got = outcome_of(lambda: learning_curve_test(
                cohort, metric=metric, bin_width=bin_width).binned.points)
        points = _reference_points(cohort, metric, bin_width) if cohort \
            else []
        if points:
            assert got == repr(tuple(points))
        else:
            assert got is InsufficientPlayers

    @settings(max_examples=200, deadline=None)
    @given(cohort=_cohorts(), metric=st.sampled_from(sorted(METRICS)))
    def test_player_values(self, cohort, metric):
        got = outcome_of(player_values, cohort, metric)
        assert got == outcome_of(lambda: {
            u: METRICS[metric](cohort[u].outcomes) for u in sorted(cohort)})


@pytest.mark.parametrize("game", ["poker", "rummy"])
def test_player_values_of_simulated_cohorts(game):
    """Every metric of each player, None (rummy tightness; a player who
    never lost) included, bit for bit."""
    cohort = simulate_timelines(SimConfig(
        game=game, table_size=3, n_players=30, games_per_player=20,
        min_games_per_player=3, mode="skill", skill_sd=2.0, seed=4))
    for metric, fn in METRICS.items():
        got = player_values(cohort, metric)
        expected = {u: fn(cohort[u].outcomes) for u in sorted(cohort)}
        assert list(got) == list(expected)
        assert repr(got) == repr(expected)
    assert None in player_values(cohort, "avg_points_lost_losing").values()


def test_unpaired_players_leave_the_spans():
    # three paired players in 10..13 and 100..103; around them, one with
    # too few games per period and one whose metric is undefined (no loss)
    def player(deltas, stamps):
        return PlayerTimeline("u", 2, tuple(
            Outcome(d > 0, d, t) for d, t in zip(deltas, stamps)))

    cohort = {f"p{i}": player([1.0, -i - 1.0] * 4,
                              [10, 11, 12, 13, 100, 101, 102, 103])
              for i in range(3)}
    cohort["short"] = player([-1.0, -1.0], [0, 200])
    cohort["no-loss"] = player([1.0] * 4, [1, 2, 198, 199])
    res = persistence_test(cohort, split=SPLIT_MS, min_games=2, n_boot=50,
                           metric="avg_points_lost_losing")
    assert res.users == ("p0", "p1", "p2")
    assert (res.period_a, res.period_b) == ((10, 13), (100, 103))


@pytest.mark.parametrize("stamps", [[100, 10, 11, 101], [11, 10, 100, 101]],
                         ids=["b-before-a", "within-a"])
def test_outcomes_out_of_time_order_are_rejected(stamps):
    """A player whose stamps decrease is named, whether an outcome of
    period B comes before one of period A or period A is out of order."""
    def player(deltas, stamps):
        return PlayerTimeline("u", 2, tuple(
            Outcome(d > 0, d, t) for d, t in zip(deltas, stamps)))

    cohort = {f"p{i}": player([1.0, -i - 1.0] * 2, [10, 11, 100, 101])
              for i in range(3)}
    cohort["late"] = player([1.0, -5.0, 1.0, -6.0], stamps)
    with pytest.raises(ValueError, match="^the outcomes of player 'late' "
                                         "are not in time order$"):
        persistence_test(cohort, split=SPLIT_MS, min_games=2, n_boot=50,
                         metric="avg_points_lost_losing")


class TestZeroVarianceBootstrap:
    def test_every_resample_degenerate(self):
        # n_boot=1, seed 4 draws one of the three players three times
        timelines, split_ms = _cohort_of(3)
        with pytest.raises(ZeroVariance, match="no bootstrap resample"):
            persistence_test(timelines, split=split_ms, min_games=10,
                             n_boot=1, seed=4)

    def test_exits_as_a_data_error(self):
        from cardskill import cli
        assert issubclass(ZeroVariance, stattests.StatTestError)
        assert next(code for classes, code in cli.EXIT_CODES
                    if issubclass(ZeroVariance, classes)) == cli.EXIT_DATA


@pytest.fixture(scope="module")
def chance_16k():
    """16000 heads-up chance players with 30-50 games each (640k outcomes)."""
    return simulate_timelines(SimConfig(
        game="poker", table_size=2, n_players=16000, games_per_player=50,
        min_games_per_player=30, mode="chance", seed=7))


class TestMemoryGuard:
    """The tests read the cohort as one run: their traced peak stays under
    64 B an outcome, 39 MiB here (measured: 31.7 MiB for persistence and
    17.3 MiB for the learning curve, against 4.85 and 3.41 MiB when they
    read it in runs of 2**16 outcomes). The cohort itself keeps about
    7.6 MiB, as its 640k games share 300 Outcome objects; one float column
    over its games takes 4.9 MiB, and a copy of its outcomes, one object a
    game, about 70 MiB."""

    OUTCOMES = 640_000

    @staticmethod
    def _peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_persistence_peak(self, chance_16k):
        assert sum(len(tl) for tl in chance_16k.values()) == self.OUTCOMES
        peak = self._peak(lambda: persistence_test(chance_16k, min_games=10))
        assert peak < 64 * self.OUTCOMES

    def test_learning_peak(self, chance_16k):
        peak = self._peak(lambda: learning_curve_test(chance_16k))
        assert peak < 64 * self.OUTCOMES

    def test_results_keep_columns_not_objects(self, chance_16k):
        """A persistence and a QQ result keep their per-player data as
        columns: about 51 B a player here, against about 280 B when they
        kept one tuple per pair and one point object per player."""
        rates = [sum(o.won for o in tl.outcomes) / len(tl.outcomes)
                 for _, tl in sorted(chance_16k.items())]

        def results(cohort):
            return (persistence_test(cohort, min_games=10, n_boot=20),
                    qq_test([rates[i] for i in range(len(cohort))]))

        results(dict(list(chance_16k.items())[:200]))  # warm every path
        gc.collect()
        tracemalloc.start()
        try:
            kept = results(chance_16k)
            gc.collect()
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept[0].n_players > len(chance_16k) // 2
        assert size / len(chance_16k) < 150
