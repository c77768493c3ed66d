"""Skill variables and derived statistics computed from player timelines.

Covers the per-window metric registry (METRICS) that the statistical
tests and the CLI compute every skill variable with, the per-player
trajectories (cumulative win probability, binned blind amounts won/lost,
tightness, BB/100), and the quantile machinery (tie-averaged ranks,
percentile positions, inverse normal CDF, sample mean and sd) that feeds
the QQ normality test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from statistics import NormalDist
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np

from .records import Outcome, PlayerTimeline


class MetricError(ValueError):
    pass


class EmptyTimeline(MetricError):
    pass


class NotPoker(MetricError):
    pass


class MissingVoluntaryEntry(MetricError):
    pass


class OutOfRange(MetricError):
    pass


class DomainError(MetricError):
    pass


WON = "Won"
LOST = "Lost"


# ---------------------------------------------------------------------------
# Window metrics: each is one reduction over Segments of a run of outcomes,
# one value per segment, or None where it is undefined (e.g. no losses).

def column(outcomes, name: str) -> np.ndarray:
    """The field `name` of each outcome, in order: an ingest.Cohort's own
    column, or read from a sequence of Outcomes, None as nan."""
    if hasattr(outcomes, "columns"):  # an ingest.Cohort
        return getattr(outcomes.columns, name)
    dtype = {"won": bool, "timestamp": np.int64}.get(name, float)
    return np.fromiter(map(itemgetter(Outcome._fields.index(name)), outcomes),
                       dtype, len(outcomes))


class Segments(NamedTuple):
    """Segments [starts[i], stops[i]) of a run of outcomes (a sequence of
    Outcomes or a Cohort), in their own order. Counts are integer cumsum
    differences; sums are the built-in sum of each segment's values in run
    order, as numpy's pairwise sums would move low-order bits."""

    outcomes: Sequence[Outcome]
    starts: np.ndarray
    stops: np.ndarray

    def column(self, name: str) -> np.ndarray:
        return column(self.outcomes, name)

    def lengths(self) -> List[int]:
        return (self.stops - self.starts).tolist()

    def counts(self, flags: np.ndarray) -> List[int]:
        c = np.concatenate(([0], np.cumsum(flags, dtype=np.int64)))
        return (c[self.stops] - c[self.starts]).tolist()

    def sums(self, values: np.ndarray) -> list:
        v = values.tolist()
        return [sum(v[a:b]) for a, b in zip(self.starts.tolist(),
                                             self.stops.tolist())]

    def mean_delta(self, sign: int, mask: np.ndarray | None = None) -> list:
        """Each segment's mean of sign * value_delta where mask (default:
        where that is > 0), or None. The other values add 0.0 to the running
        sum, which leaves its bits as they are."""
        values = sign * self.column("value_delta")
        mask = values > 0 if mask is None else mask
        return [s / n if n else None for s, n in zip(
            self.sums(np.where(mask, values, 0.0)), self.counts(mask))]


class Metric(NamedTuple):
    """A window metric, defined once as its reduction over Segments.
    polarity is +1 if larger is better (Improving when rising), -1 if
    smaller is."""

    segments: Callable[[Segments], List[Optional[float]]]
    polarity: int = +1

    def __call__(self, outcomes: Sequence[Outcome]) -> Optional[float]:
        """The metric over one window of outcomes."""
        return self.segments(Segments(outcomes, np.zeros(1, int),
                                      np.full(1, len(outcomes))))[0]


# Each window metric's reduction.
@Metric
def _tightness(seg: Segments) -> List[Optional[float]]:
    flags = seg.column("voluntary_entry")
    return [None if m else 1.0 - v / n for m, v, n in zip(
        seg.counts(np.isnan(flags)), seg.counts(flags == 1.0), seg.lengths())]


_win_rate = Metric(lambda seg: [
    w / n for w, n in zip(seg.counts(seg.column("won")), seg.lengths())])
_bb_per_100 = Metric(lambda seg: [
    100.0 * s / n
    for s, n in zip(seg.sums(seg.column("value_delta")), seg.lengths())])
_avg_points_lost_losing = Metric(
    lambda seg: seg.mean_delta(-1, ~seg.column("won")), polarity=-1)
_avg_win_magnitude = Metric(lambda seg: seg.mean_delta(+1))
_avg_loss_magnitude = Metric(lambda seg: seg.mean_delta(-1), polarity=-1)
_net_positive = Metric(lambda seg: [
    1.0 if s > 0 else 0.0 for s in seg.sums(seg.column("value_delta"))])

METRICS: Dict[str, Metric] = {
    "win_rate": _win_rate,
    "bb_per_100": _bb_per_100,
    "avg_points_lost_losing": _avg_points_lost_losing,
    "avg_blind_lost": _avg_loss_magnitude,
    "tightness": _tightness,
    "net_positive_share": _net_positive,
}


@dataclass(frozen=True)
class SkillSeries:
    """A named metric trajectory: (x, y) points with strictly increasing x."""

    metric_name: str
    points: Tuple[Tuple[float, float], ...]
    player_scope: str  # a user_id or "cohort"

    def __post_init__(self):
        xs = [p[0] for p in self.points]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("series x values must be strictly increasing")
        if any(not math.isfinite(p[1]) for p in self.points):
            raise MetricError("series y values must be finite")


def _require_outcomes(timeline: PlayerTimeline) -> Sequence[Outcome]:
    if not timeline.outcomes:
        raise EmptyTimeline(f"player {timeline.user_id} has no outcomes")
    return timeline.outcomes


def win_probability_series(timeline: PlayerTimeline) -> SkillSeries:
    """Cumulative wins/games after each game, k = 1..n."""
    wins = np.cumsum(column(_require_outcomes(timeline), "won")).tolist()
    points = tuple((k, w / k) for k, w in enumerate(wins, start=1))
    return SkillSeries("WinProbability", points, timeline.user_id)


def avg_blind_amount(
    timeline: PlayerTimeline, side: str, bin_width: int
) -> SkillSeries:
    """Per-bin mean big blinds won (over winning hands) or lost (as a
    positive magnitude over losing hands). Bins with no qualifying hands
    emit no point rather than a zero."""
    if side not in (WON, LOST):
        raise ValueError(f"side must be {WON!r} or {LOST!r}")
    if bin_width < 1:
        raise ValueError("bin_width must be >= 1")
    outcomes = _require_outcomes(timeline)
    if any(o.voluntary_entry is None for o in outcomes):
        raise NotPoker("blind amounts are defined for poker timelines only")
    mean = _avg_win_magnitude if side == WON else _avg_loss_magnitude
    starts = np.arange(0, len(outcomes), bin_width)
    values = mean.segments(Segments(outcomes, starts, np.minimum(
        starts + bin_width, len(outcomes))))
    points = [(b + 1, v) for b, v in enumerate(values) if v is not None]
    name = "AvgBlindWon" if side == WON else "AvgBlindLost"
    return SkillSeries(name, tuple(points), timeline.user_id)


def bb_per_100(timeline: PlayerTimeline) -> float:
    """Average big blinds won per 100 hands over the whole timeline."""
    outcomes = _require_outcomes(timeline)
    if any(o.voluntary_entry is None for o in outcomes):
        raise NotPoker("BB/100 is defined for poker timelines only")
    return _bb_per_100(outcomes)


def tightness(timeline: PlayerTimeline) -> float:
    """1 - VPIP: the fraction of hands the player stayed out of voluntarily."""
    value = _tightness(_require_outcomes(timeline))
    if value is None:
        raise MissingVoluntaryEntry("timeline lacks voluntary_entry flags")
    return value


def rank_average(values: Sequence[float]) -> List[float]:
    """Ascending ranks 1..n; tied values get the mean of their positions."""
    v = np.asarray(values, dtype=float)
    order = np.argsort(v, kind="stable")
    ranked = v[order]
    # runs of equal values in sorted order: positions starts[k]..stops[k]-1
    starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
    stops = np.append(starts[1:], len(v))
    ranks = np.empty(len(v))
    # the mean of the run's 1-based positions starts+1..stops
    ranks[order] = np.repeat((starts + stops + 1) / 2.0, stops - starts)
    return ranks.tolist()


def percentile_position(rank: float, n: int) -> float:
    """(rank - 0.5) / n, the plotting position for rank within n values."""
    if not (1 <= rank <= n):
        raise OutOfRange(f"rank {rank} outside [1, {n}]")
    return (rank - 0.5) / n


_STANDARD_NORMAL = NormalDist()


def theoretical_quantile(p: float) -> float:
    """Inverse standard normal CDF on (0, 1): the standard library's
    NormalDist.inv_cdf (Wichura's AS241, Applied Statistics 37:477, 1988),
    within a few ulp of the exact quantile."""
    if not (0.0 < p < 1.0):
        raise DomainError(f"p must be in (0, 1), got {p}")
    return _STANDARD_NORMAL.inv_cdf(p)


def sample_mean_std(values: Sequence[float]) -> Tuple[float, float]:
    """Mean and sample (n-1 denominator) standard deviation."""
    n = len(values)
    if n < 2:
        raise MetricError("need at least 2 values for a sample std")
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var)
