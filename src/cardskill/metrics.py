"""Skill variables and derived statistics computed from player timelines.

Covers the per-window metric registry (METRICS) that the statistical
tests and the CLI compute every skill variable with, the per-player
trajectories (cumulative win probability, binned blind amounts won/lost,
tightness, BB/100), the rummy skill variables, and the quantile machinery (tie-averaged ranks, percentile positions,
inverse normal CDF, standardization) that feeds the QQ normality test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import (Callable, Dict, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from .records import Outcome, PlayerTimeline


class MetricError(ValueError):
    pass


class EmptyTimeline(MetricError):
    pass


class NotPoker(MetricError):
    pass


class EmptyWindow(MetricError):
    pass


class MissingVoluntaryEntry(MetricError):
    pass


class NoLosingDeals(MetricError):
    pass


class NoWinningDeals(MetricError):
    pass


class ZeroSd(MetricError):
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

def column(outcomes: Sequence[Outcome], name: str) -> np.ndarray:
    """The field `name` of each outcome, in order; None reads as nan."""
    dtype = {"won": bool, "timestamp": np.int64}.get(name, float)
    return np.fromiter(map(itemgetter(Outcome._fields.index(name)), outcomes),
                       dtype, len(outcomes))


class Segments(NamedTuple):
    """Segments [starts[i], stops[i]) of a run of outcomes, in their own
    order or the given one. Counts are integer cumsum differences; sums are
    the built-in sum of each segment's values in run order, as numpy's
    pairwise sums would move low-order bits."""

    outcomes: Sequence[Outcome]
    starts: np.ndarray
    stops: np.ndarray
    order: Optional[np.ndarray] = None

    def column(self, name: str) -> np.ndarray:
        values = column(self.outcomes, name)
        return values if self.order is None else values[self.order]

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
    """A window metric, defined once as its reduction over Segments."""

    segments: Callable[[Segments], List[Optional[float]]]

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
    lambda seg: seg.mean_delta(-1, ~seg.column("won")))
_avg_win_magnitude = Metric(lambda seg: seg.mean_delta(+1))
_avg_loss_magnitude = Metric(lambda seg: seg.mean_delta(-1))
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

# +1: larger is better (Improving when rising); -1: smaller is better.
METRIC_POLARITY: Dict[str, int] = {
    "win_rate": +1,
    "bb_per_100": +1,
    "avg_points_lost_losing": -1,
    "avg_blind_lost": -1,
    "tightness": +1,
    "net_positive_share": +1,
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
            raise ValueError("series y values must be finite")


@dataclass(frozen=True)
class QuantilePoint:
    rank: float          # tie-averaged rank of the value
    percentile: float    # (position - 0.5) / n, strictly increasing
    theoretical_q: float
    observed_q: float


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


def _window(
    outcomes: Sequence[Outcome], window: Optional[Tuple[int, int]]
) -> Sequence[Outcome]:
    if window is None:
        return outcomes
    start, stop = window
    if not (0 <= start < stop <= len(outcomes)):
        raise EmptyWindow(f"window {window} out of bounds for n={len(outcomes)}")
    return outcomes[start:stop]


def bb_per_100(
    timeline: PlayerTimeline, window: Optional[Tuple[int, int]] = None
) -> float:
    """Average big blinds won per 100 hands over the window (default: all)."""
    outcomes = _require_outcomes(timeline)
    if any(o.voluntary_entry is None for o in outcomes):
        raise NotPoker("BB/100 is defined for poker timelines only")
    return _bb_per_100(_window(outcomes, window))


def tightness(
    timeline: PlayerTimeline, window: Optional[Tuple[int, int]] = None
) -> float:
    """1 - VPIP: the fraction of hands the player stayed out of voluntarily."""
    value = _tightness(_window(_require_outcomes(timeline), window))
    if value is None:
        raise MissingVoluntaryEntry("timeline lacks voluntary_entry flags")
    return value


def rummy_skill_variables(
    timeline: PlayerTimeline,
    opponents_view: Mapping[str, Sequence[float]],
) -> Tuple[float, float, float]:
    """(win_rate, avg_points_lost_losing, avg_points_lost_by_opponent).

    opponents_view maps a deal key to the loss points conceded by the
    player's opponents in that deal; only deals the player won contribute
    to the opponent-side mean.
    """
    outcomes = _require_outcomes(timeline)
    avg_lost = _avg_points_lost_losing(outcomes)
    if avg_lost is None:
        raise NoLosingDeals(f"player {timeline.user_id} has no losing deals")
    opp_points: List[float] = []
    for o in outcomes:
        if o.won:
            opp_points.extend(opponents_view.get(o.key, ()))
    if not opp_points:
        raise NoWinningDeals(
            f"player {timeline.user_id} has no winning deals with opponent data"
        )
    avg_opp = sum(opp_points) / len(opp_points)
    return _win_rate(outcomes), avg_lost, avg_opp


def rank_average(values: Sequence[float]) -> List[float]:
    """Ascending ranks 1..n; tied values get the mean of their positions."""
    n = len(values)
    order = sorted(range(n), key=lambda i: values[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j + 2) / 2.0  # mean of 1-based positions i+1..j+1
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def percentile_position(rank: float, n: int) -> float:
    """(rank - 0.5) / n, the plotting position for rank within n values."""
    if not (1 <= rank <= n):
        raise OutOfRange(f"rank {rank} outside [1, {n}]")
    return (rank - 0.5) / n


_SQRT2 = math.sqrt(2.0)

# Acklam's rational approximation coefficients for the inverse normal CDF.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / _SQRT2)


def _normal_pdf(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def theoretical_quantile(p: float) -> float:
    """Inverse standard normal CDF, |error| <= 1e-9 on (0, 1).

    Rational initial estimate refined by two Halley steps against an
    erfc-based CDF; the refinement drives the residual to machine level.
    """
    if not (0.0 < p < 1.0):
        raise DomainError(f"p must be in (0, 1), got {p}")
    if p < _P_LOW or p > 1.0 - _P_LOW:
        # the tails mirror each other: x(1 - p) = -x(p)
        q = math.sqrt(-2.0 * math.log(min(p, 1.0 - p)))
        x = ((((( _C[0]*q + _C[1])*q + _C[2])*q + _C[3])*q + _C[4])*q + _C[5]) / \
            (((( _D[0]*q + _D[1])*q + _D[2])*q + _D[3])*q + 1.0)
        x = x if p < 0.5 else -x
    else:
        q = p - 0.5
        r = q * q
        x = ((((( _A[0]*r + _A[1])*r + _A[2])*r + _A[3])*r + _A[4])*r + _A[5])*q / \
            ((((( _B[0]*r + _B[1])*r + _B[2])*r + _B[3])*r + _B[4])*r + 1.0)
    for _ in range(2):
        e = normal_cdf(x) - p
        u = e / _normal_pdf(x)
        x -= u / (1.0 + 0.5 * x * u)
    return x


def standardize(x: float, mean: float, sd: float) -> float:
    if sd <= 0:
        raise ZeroSd("standard deviation must be > 0")
    return (x - mean) / sd


def sample_mean_std(values: Sequence[float]) -> Tuple[float, float]:
    """Mean and sample (n-1 denominator) standard deviation."""
    n = len(values)
    if n < 2:
        raise MetricError("need at least 2 values for a sample std")
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var)
