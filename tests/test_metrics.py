import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr, ndtri
from scipy.stats import rankdata

from cardskill import metrics
from cardskill.metrics import (
    LOST,
    METRICS,
    WON,
    DomainError,
    EmptyTimeline,
    MetricError,
    MissingVoluntaryEntry,
    NotPoker,
    OutOfRange,
    Segments,
    SkillSeries,
    avg_blind_amount,
    bb_per_100,
    percentile_position,
    rank_average,
    theoretical_quantile,
    tightness,
    win_probability_series,
)
from cardskill.records import PlayerTimeline

from helpers import (REFERENCE_METRICS, outcome_of, outcome_runs,
                     poker_timeline, rummy_timeline, wins_timeline)


@pytest.mark.parametrize("y", [math.inf, -math.inf, math.nan])
def test_series_rejects_non_finite_y(y):
    with pytest.raises(MetricError, match="finite"):
        SkillSeries("bb_per_100", ((1, 0.5), (2, y)), "cohort")


class TestWinProbabilitySeries:
    def test_direct_ratio(self):
        tl = wins_timeline([True, False, False, True])
        ys = [y for _, y in win_probability_series(tl).points]
        assert ys == pytest.approx([1.0, 0.5, 1 / 3, 0.5])

    def test_all_losses_constant_zero(self):
        tl = wins_timeline([False] * 10)
        assert all(y == 0.0 for _, y in win_probability_series(tl).points)

    def test_final_point_equals_total_ratio(self):
        tl = wins_timeline([True, True, False, True, False, False, True])
        series = win_probability_series(tl)
        assert series.points[-1][1] == 4 / 7

    def test_empty_timeline(self):
        with pytest.raises(EmptyTimeline):
            win_probability_series(
                PlayerTimeline(user_id="u", table_size=6, outcomes=())
            )


class TestAvgBlindAmount:
    def test_won_side(self):
        tl = poker_timeline([4, -2, 6, -2])
        series = avg_blind_amount(tl, WON, 4)
        assert series.points == ((1, 5.0),)

    def test_lost_side_positive_magnitude(self):
        tl = poker_timeline([4, -2, 6, -2])
        series = avg_blind_amount(tl, LOST, 4)
        assert series.points == ((1, 2.0),)

    def test_empty_bin_is_gap_not_zero(self):
        tl = poker_timeline([4, 6, -2, -3])
        series = avg_blind_amount(tl, WON, 2)
        # second bin has no winning hands: no point, not y=0
        assert series.points == ((1, 5.0),)

    def test_rummy_timeline_rejected(self):
        with pytest.raises(NotPoker):
            avg_blind_amount(rummy_timeline([10, -20]), WON, 1)


class TestBBPer100:
    def test_sum_15_over_300(self):
        tl = poker_timeline([0.05] * 300)
        assert bb_per_100(tl) == pytest.approx(5.0)

    def test_all_zero(self):
        assert bb_per_100(poker_timeline([0] * 50)) == 0.0

    def test_exact_100_hand_window(self):
        tl = poker_timeline([0.07] * 100)
        assert bb_per_100(tl) == pytest.approx(7.0)

    def test_scaling_invariance(self):
        # bb-normalized deltas don't change if chips and blind both scale
        deltas = [3, -1, 2, -4]
        assert bb_per_100(poker_timeline(deltas)) == pytest.approx(
            bb_per_100(poker_timeline(deltas))
        )


class TestTightness:
    def test_30_of_100_voluntary(self):
        flags = [True] * 30 + [False] * 70
        tl = poker_timeline([1] * 100, voluntary=flags)
        assert tightness(tl) == pytest.approx(0.70)

    def test_all_voluntary_boundary(self):
        tl = poker_timeline([1] * 10)
        assert tightness(tl) == 0.0

    def test_vpip_complement_exact(self):
        flags = [i % 3 == 0 for i in range(60)]
        tl = poker_timeline([1] * 60, voluntary=flags)
        vpip = sum(flags) / len(flags)
        assert tightness(tl) + vpip == 1.0

    def test_missing_flags(self):
        with pytest.raises((MissingVoluntaryEntry, EmptyTimeline)):
            tightness(rummy_timeline([10, -5]))


class TestWindowMetrics:
    """The two --metric choices with no series function of their own,
    applied to one window of outcomes as persistence and learning do."""

    @pytest.mark.parametrize("deltas,share", [
        ([4, -2, 6, -2], 1.0),
        ([2, -2], 0.0),      # break-even is not net positive
        ([-1, -3], 0.0),
        ([0.5], 1.0),
    ])
    def test_net_positive_share(self, deltas, share):
        outcomes = poker_timeline(deltas).outcomes
        assert METRICS["net_positive_share"](outcomes) == share

    @pytest.mark.parametrize("deltas,lost", [
        ([4, -2, 6, -3], 2.5),
        ([-1, -2, -6], 3.0),
        ([-0.5, 1, -0.25], 0.375),
        ([4, 0, 6], None),   # no losses: a zero delta is not a loss
    ])
    def test_avg_blind_lost(self, deltas, lost):
        outcomes = poker_timeline(deltas).outcomes
        assert METRICS["avg_blind_lost"](outcomes) == lost


class TestRummySkillVariables:
    """The paper's rummy variables, as METRICS compute them on a rummy
    timeline."""

    def test_win_rate_and_losing_mean(self):
        points = [40, -20, -20, 25, -30, -10, 30, -40, 15, -60]
        outcomes = rummy_timeline(points).outcomes
        assert METRICS["win_rate"](outcomes) == pytest.approx(0.4)
        assert METRICS["avg_points_lost_losing"](outcomes) == \
            pytest.approx(30.0)

    def test_no_losing_deals(self):
        outcomes = rummy_timeline([40, 25]).outcomes
        assert METRICS["avg_points_lost_losing"](outcomes) is None


class TestRankAverage:
    def test_standard_tie_averaging(self):
        assert rank_average([10, 20, 20, 30]) == [1, 2.5, 2.5, 4]

    def test_all_equal(self):
        assert rank_average([7, 7, 7, 7]) == [2.5] * 4

    def test_no_ties(self):
        assert rank_average([3, 1, 2]) == [3, 1, 2]

    def test_signed_zeros_tie_and_empty(self):
        ranks = rank_average([0.0, -0.0, 1.0, -0.0])
        assert ranks == [2.0, 2.0, 4.0, 2.0]
        assert all(type(r) is float for r in ranks)
        assert rank_average([]) == []

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=40))
    def test_matches_scipy_and_sums_exactly(self, values):
        ours = rank_average([float(v) for v in values])
        assert ours == list(rankdata(values))
        n = len(values)
        assert sum(ours) == n * (n + 1) / 2


class TestPercentilePosition:
    def test_first_rank(self):
        assert percentile_position(1, 100) == pytest.approx(0.005)

    def test_tie_averaged_middle(self):
        assert percentile_position(50.5, 100) == pytest.approx(0.5)

    def test_last_rank(self):
        assert percentile_position(100, 100) == pytest.approx(0.995)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            percentile_position(0.5, 100)


class TestTheoreticalQuantile:
    def test_median_is_zero(self):
        assert theoretical_quantile(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_0975(self):
        # frozen from a bisection-on-ndtr oracle
        assert theoretical_quantile(0.975) == pytest.approx(
            1.959963984540054, abs=1e-9
        )

    def test_0005(self):
        assert theoretical_quantile(0.005) == pytest.approx(
            -2.575829303548901, abs=1e-9
        )
        assert theoretical_quantile(0.005) == pytest.approx(
            -theoretical_quantile(0.995), abs=1e-9
        )

    def test_domain_error(self):
        for p in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(DomainError):
                theoretical_quantile(p)

    @given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
    def test_odd_symmetry(self, p):
        assert theoretical_quantile(p) == pytest.approx(
            -theoretical_quantile(1 - p), abs=1e-9
        )

    @given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
    def test_cdf_inverse_round_trip(self, p):
        # independent oracle: scipy's normal CDF
        assert float(ndtr(theoretical_quantile(p))) == pytest.approx(
            p, abs=1e-9
        )

    def test_matches_independent_inverse(self):
        for p in (0.001, 0.02425, 0.3, 0.6, 0.97575, 0.999):
            assert theoretical_quantile(p) == pytest.approx(
                float(ndtri(p)), abs=1e-12
            )

    @staticmethod
    def _assert_near_ndtri(ps):
        exact = ndtri(ps)
        got = np.array([theoretical_quantile(p) for p in ps.tolist()])
        bound = 1e-14 * np.maximum(1.0, np.abs(exact))
        assert np.all(np.abs(got - exact) <= bound)

    def test_near_ndtri_deep_in_both_tails(self):
        """p log-uniform in [1e-300, 0.5] and its mirrors 1 - p (where
        1 - p < 1), within 1e-14 relative of scipy's ndtri."""
        p = 10.0 ** np.random.default_rng(19).uniform(-300, np.log10(0.5),
                                                       5000)
        mirrors = 1.0 - p
        self._assert_near_ndtri(np.concatenate((p, mirrors[mirrors < 1.0])))

    def test_near_ndtri_at_every_plotting_position(self):
        n = 20_000
        self._assert_near_ndtri(np.array(
            [percentile_position(i, n) for i in range(1, n + 1)]))


class TestSegmentReductions:
    """Each metric's segment reduction against the per-window body it
    replaced (helpers.REFERENCE_METRICS): equal reprs, errors included."""

    @staticmethod
    def _metric(name):
        return METRICS.get(name) or getattr(metrics, f"_{name}")

    @settings(max_examples=300)
    @given(outcomes=outcome_runs(),
           name=st.sampled_from(sorted(REFERENCE_METRICS)))
    def test_one_window(self, outcomes, name):
        assert outcome_of(self._metric(name), outcomes) == \
            outcome_of(REFERENCE_METRICS[name], outcomes)

    def test_empty_window_raises_as_before(self):
        for name, ref in REFERENCE_METRICS.items():
            assert outcome_of(self._metric(name), []) == outcome_of(ref, [])

    @settings(max_examples=300)
    @given(run=outcome_runs(max_size=25), data=st.data(),
           name=st.sampled_from(sorted(REFERENCE_METRICS)))
    def test_segments_of_a_run(self, run, data, name):
        """Any segments, overlapping or out of order, in one call."""
        bounds = st.tuples(st.integers(0, len(run)), st.integers(0, len(run)))
        segments = [(a, b) for a, b in data.draw(st.lists(bounds, max_size=8))
                    if a < b]
        starts = np.array([a for a, _ in segments], dtype=int)
        stops = np.array([b for _, b in segments], dtype=int)
        got = self._metric(name).segments(Segments(run, starts, stops))
        assert repr(got) == repr([REFERENCE_METRICS[name](run[a:b])
                                  for a, b in segments])

    @given(outcomes=outcome_runs(max_size=30))
    def test_win_probability_series(self, outcomes):
        timeline = PlayerTimeline("u1", 2, tuple(outcomes))
        wins, points = 0, []
        for k, o in enumerate(outcomes, start=1):
            wins += 1 if o.won else 0
            points.append((k, wins / k))
        got = outcome_of(win_probability_series, timeline)
        if outcomes:
            assert got == repr(SkillSeries("WinProbability", tuple(points),
                                           "u1"))
        else:
            assert got is EmptyTimeline
