"""Three-test skill-vs-chance battery and quantile summaries.

Persistence: Pearson correlation of a per-player skill variable across two
disjoint time periods, with a seeded bootstrap CI. Learning: least-squares
power-law and exponential fits to the cohort-mean metric across experience
bins. Normality: a QQ comparison of per-player win rates, as z-scores,
against standard normal quantiles. classify() combines the three into a
verdict, with every threshold recorded in the report. Each test reads the
cohort as one run of its players in user order: an ingest.Cohort is its
own run, and timelines by user id become one list of their outcomes.
"""

from __future__ import annotations

import math
import numbers
from calendar import monthrange
from collections import defaultdict
from dataclasses import dataclass, field
from datetime import date
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .ingest import Cohort
from .metrics import (
    METRICS,
    Segments,
    column,
    SkillSeries,
    percentile_position,
    rank_average,
    sample_mean_std,
    theoretical_quantile,
)
from .records import EPOCH, PlayerTimeline, format_timestamp

Cohorts = Union[Cohort, Mapping[str, PlayerTimeline]]


class StatTestError(ValueError):
    pass


class LengthMismatch(StatTestError):
    pass


class ZeroVariance(StatTestError):
    pass


class InsufficientPlayers(StatTestError):
    pass


class FitDiverged(StatTestError):
    pass


DEFAULT_THRESHOLDS: Dict[str, float] = {
    "r_min": 0.3,            # minimum persistence correlation for skill
    "threshold_r2": 0.98,    # QQ linearity floor for normal-consistency
    "threshold_dev": 0.15,   # QQ max absolute deviation ceiling
    "trend_epsilon": 0.01,   # relative change below which a trend is Flat
}

IMPROVING = "Improving"
FLAT = "Flat"
WORSENING = "Worsening"

# Index values the persistence bootstrap draws at once (at least one row).
BOOT_BLOCK = 1 << 16
ALPHA_BOUNDS = (1e-8, 50.0)  # the curve fits' range of alpha
FIT_GRID = 128  # alphas a pass; each pass narrows log(hi/lo) 63.5-fold,
FIT_PASSES = 7  # so from 22 to 5e-12
QQ_MIN_PLAYERS = 20

SKILL_DOMINANT = "SkillDominant"
CHANCE_DOMINANT = "ChanceDominant"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True, eq=False)
class PersistenceResult:
    """The paired players as columns: users[i] read values_a[i] in period A
    and values_b[i] in B. Compares by identity, as its arrays have no
    single truth value."""

    r: float
    n_players: int
    period_a: Tuple[int, int]  # (start_ms, end_ms) of observed period A
    period_b: Tuple[int, int]
    min_games: int
    bootstrap_ci95: Tuple[float, float]
    metric: str
    users: Tuple[str, ...]
    values_a: np.ndarray
    values_b: np.ndarray

    def ci_covers_zero(self) -> bool:
        lo, hi = self.bootstrap_ci95
        return lo <= 0.0 <= hi

    def as_dict(self) -> dict:
        return {
            "r": self.r,
            "n_players": self.n_players,
            "period_a": list(self.period_a),
            "period_b": list(self.period_b),
            "min_games": self.min_games,
            "bootstrap_ci95": list(self.bootstrap_ci95),
            "metric": self.metric,
        }


@dataclass(frozen=True)
class CurveFitResult:
    a: float
    b: float
    alpha: float
    sse: float
    aic: float

    def as_dict(self) -> dict:
        return {"A": self.a, "B": self.b, "alpha": self.alpha,
                "sse": self.sse, "aic": self.aic}


@dataclass(frozen=True)
class LearningCurveResult:
    binned: SkillSeries
    power_fit: Optional[CurveFitResult]
    exp_fit: Optional[CurveFitResult]
    preferred: str  # "Power" or "Exponential"
    trend_direction: str
    fit_errors: Tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {
            "binned": [list(p) for p in self.binned.points],
            "metric": self.binned.metric_name,
            "power_fit": self.power_fit.as_dict() if self.power_fit else None,
            "exp_fit": self.exp_fit.as_dict() if self.exp_fit else None,
            "preferred": self.preferred,
            "trend_direction": self.trend_direction,
            "fit_errors": list(self.fit_errors),
        }


@dataclass(frozen=True, eq=False)
class QQResult:
    """One point per value, as columns in ascending value order: its
    tie-averaged rank, its percentile (position - 0.5) / n, that
    percentile's normal quantile and the value's z-score. Compares by
    identity, as its arrays have no single truth value."""

    ranks: np.ndarray
    percentiles: np.ndarray
    theoretical: np.ndarray
    observed: np.ndarray
    r_squared: float
    max_abs_deviation: float
    normal_consistent: bool
    cohort_mean: float
    cohort_sd: float

    def as_dict(self) -> dict:
        return {
            "n": len(self.observed),
            "r_squared": self.r_squared,
            "max_abs_deviation": self.max_abs_deviation,
            "normal_consistent": self.normal_consistent,
            "cohort_mean": self.cohort_mean,
            "cohort_sd": self.cohort_sd,
        }


@dataclass(frozen=True)
class QuantileSummary:
    groups: Tuple[Tuple[int, float, float], ...]  # (cumulative n, mean, std)
    k: int

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "ordering": "experience",
            "groups": [
                {"cumulative_players": n, "mean_win_rate": m, "std_win_rate": s}
                for n, m, s in self.groups
            ],
        }


@dataclass(frozen=True)
class VerdictReport:
    persistence: PersistenceResult
    learning: LearningCurveResult
    normality: QQResult
    quantiles: Optional[QuantileSummary]
    verdict: str
    thresholds_used: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "persistence": self.persistence.as_dict(),
            "learning": self.learning.as_dict(),
            "normality": self.normality.as_dict(),
            "quantiles": self.quantiles.as_dict() if self.quantiles else None,
            "verdict": self.verdict,
            "thresholds_used": dict(sorted(self.thresholds_used.items())),
        }


def _unit_scaled(values) -> np.ndarray:
    """values over the power of two at their largest magnitude, exactly
    short of underflow: no product of them overflows, and r is the same
    under any scaling of the values by 2**k."""
    x = np.asarray(values, dtype=float)
    return np.ldexp(x, -math.frexp(float(np.max(np.abs(x), initial=0)))[1])


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient."""
    if len(xs) != len(ys):
        raise LengthMismatch(f"lengths differ: {len(xs)} vs {len(ys)}")
    if len(xs) < 3:
        raise StatTestError("need at least 3 pairs")
    x = _unit_scaled(xs)
    y = _unit_scaled(ys)
    with np.errstate(all="ignore"):  # a non-finite r is raised below
        dx = x - x.mean()
        dy = y - y.mean()
        sx = float(np.sqrt(np.dot(dx, dx)))
        sy = float(np.sqrt(np.dot(dy, dy)))
        r = float(np.dot(dx, dy) / (sx * sy))
    if sx == 0.0 or sy == 0.0:
        raise ZeroVariance("an argument has zero variance")
    if not math.isfinite(r):
        raise StatTestError("the correlation is not finite")
    return max(-1.0, min(1.0, r))


_DAY_MS = 86_400_000
_EPOCH_DAY = EPOCH.toordinal()


def _month_bounds_ms(ms: int) -> Tuple[int, int]:
    """The starts (ms) of the calendar month holding ms and of the next,
    in integer days from the epoch, so December 9999 has a next month."""
    days = ms // _DAY_MS
    day = date.fromordinal(_EPOCH_DAY + days)
    floor = (days - day.day + 1) * _DAY_MS
    return floor, floor + monthrange(day.year, day.month)[1] * _DAY_MS


def _run(cohort: Cohorts) -> Tuple[List[str], np.ndarray, object]:
    """The players in user order as one run: (user ids, bounds, run),
    player i at run[bounds[i]:bounds[i + 1]]. A Cohort is its own run, as
    its columns are in memory already; timelines become one list of their
    outcomes."""
    if isinstance(cohort, Cohort):
        return cohort.users, cohort.bounds, cohort
    users, run, bounds = sorted(cohort), [], [0]
    for user_id in users:
        run.extend(cohort[user_id].outcomes)
        bounds.append(len(run))
    return users, np.array(bounds), run


def player_values(cohort: Cohorts,
                  metric: str) -> Dict[str, Optional[float]]:
    """METRICS[metric] over each player's whole timeline, by user id in
    user order."""
    users, bounds, run = _run(cohort)
    return dict(zip(users, METRICS[metric].segments(
        Segments(run, bounds[:-1], bounds[1:]))))


def _split_ms(split: Union[int, str], stamps: np.ndarray) -> int:
    """The split timestamp (ms) of resolve_split, over the given stamps."""
    if isinstance(split, numbers.Integral) and not isinstance(split, bool):
        return int(split)
    if split != "month":
        raise ValueError(f"unknown split rule: {split!r}")
    if not len(stamps):
        raise InsufficientPlayers("no outcomes to split")
    lo, hi = int(stamps.min()), int(stamps.max())
    mid = (lo + hi) // 2
    floor, ceil = _month_bounds_ms(mid)
    snapped = floor if mid - floor <= ceil - mid else ceil
    return snapped if lo < snapped <= hi else mid


def resolve_split(cohort: Cohorts, split: Union[int, str] = "month") -> int:
    """Split timestamp (ms). An integer (not a bool) is used as int(split).
    "month": the calendar-month boundary nearest the midpoint of the
    observed range, or the midpoint itself when that boundary falls outside
    the range."""
    return _split_ms(split, column(_run(cohort)[2], "timestamp"))


def persistence_test(
    cohort: Cohorts,
    split: Union[int, str] = "month",
    metric: str = "win_rate",
    min_games: int = 30,
    n_boot: int = 1000,
    seed: int = 0,
) -> PersistenceResult:
    """Correlate a per-player skill variable across the two periods either
    side of the split (resolve_split), over players with >= min_games in
    each period and the metric defined in both. Timelines need not be in
    time order.

    The players are read as one run, and the percentile CI comes from
    n_boot resamples of the players, drawn in blocks of about BOOT_BLOCK
    values, so memory is O(outcomes + BOOT_BLOCK), not O(n_boot x
    players); the draws and the CI equal one n_boot x players draw from
    the same seed."""
    if n_boot < 1:
        raise ValueError("n_boot must be >= 1")
    if min_games < 1:
        raise ValueError("min_games must be >= 1")
    metric_fn = METRICS[metric]
    users, bounds, run = _run(cohort)
    ts = column(run, "timestamp")
    split_ms = _split_ms(split, ts)
    in_b = ts >= split_ms
    if len(ts) and (in_b.all() or not in_b.any()):
        raise InsufficientPlayers(
            f"split {format_timestamp(split_ms)} leaves period "
            f"{'AB'[int(not in_b.any())]} empty: the outcomes run from "
            f"{format_timestamp(ts.min())} to {format_timestamp(ts.max())}")
    player = np.repeat(np.arange(len(users)), np.diff(bounds))
    # A stable sort on (player, period) keeps each player's outcomes at
    # bounds[i]:bounds[i + 1], period A before period B, each in timeline
    # order.
    order = np.argsort(2 * player + in_b, kind="stable")
    mid = bounds[1:] - np.bincount(player[in_b], minlength=len(users))
    q = np.nonzero((mid - bounds[:-1] >= min_games)
                   & (bounds[1:] - mid >= min_games))[0]
    values = metric_fn.segments(Segments(
        run, np.concatenate((bounds[q], mid[q])),
        np.concatenate((mid[q], bounds[q + 1])), order))
    pairs = [(i, a, b) for i, a, b in zip(q.tolist(), values,
                                          values[len(q):])
             if a is not None and b is not None]
    n = len(pairs)
    if n < 3:
        raise InsufficientPlayers(
            f"only {n} players qualify: {len(q)} have >= "
            f"{min_games} games in both periods, and {len(q) - n} "
            f"of those have {metric} undefined in a period"
        )
    paired, xs, ys = zip(*pairs)
    users_paired = [users[i] for i in paired]
    in_pair = np.isin(np.arange(len(users)), paired)[player]
    ta, tb = ts[in_pair & ~in_b], ts[in_pair & in_b]
    xs, ys = np.array(xs), np.array(ys)
    for i in np.flatnonzero(~(np.isfinite(xs) & np.isfinite(ys)))[:1]:
        raise StatTestError(f"{metric} of player {users_paired[i]!r} in "
                            f"period {'AB'[int(np.isfinite(xs[i]))]} is not "
                            f"finite")
    r = pearson(xs, ys)

    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    rows = max(1, BOOT_BLOCK // n)
    rs = np.empty(n_boot)
    unit_xs, unit_ys = _unit_scaled(xs), _unit_scaled(ys)
    for s in range(0, n_boot, rows):
        idx = rng.integers(0, n, size=(min(rows, n_boot - s), n))
        bx, by = unit_xs[idx], unit_ys[idx]
        bx -= bx.mean(axis=1, keepdims=True)
        by -= by.mean(axis=1, keepdims=True)
        denom = np.sqrt((bx * bx).sum(axis=1) * (by * by).sum(axis=1))
        with np.errstate(invalid="ignore", divide="ignore"):
            rs[s:s + len(idx)] = (bx * by).sum(axis=1) / denom
    rs = rs[np.isfinite(rs)]
    if not len(rs):
        raise ZeroVariance("no bootstrap resample had non-zero variance")
    lo, hi = (float(np.quantile(rs, 0.025)), float(np.quantile(rs, 0.975)))
    lo, hi = min(lo, r), max(hi, r)

    return PersistenceResult(
        r=r,
        n_players=n,
        period_a=(int(ta.min()), int(ta.max())),
        period_b=(int(tb.min()), int(tb.max())),
        min_games=min_games,
        bootstrap_ci95=(lo, hi),
        metric=metric,
        users=tuple(users_paired),
        values_a=xs,
        values_b=ys,
    )


def _power_model(x, a, b, alpha):
    return a + b * np.power(x, -alpha)


def _exp_model(x, a, b, alpha):
    return a + b * np.exp(-alpha * x)


def _aic(sse: float, n: int, k: int = 3) -> float:
    return n * math.log(max(sse, 1e-300) / n) + 2 * k


def fit_power(xs: Sequence[float], ys: Sequence[float]) -> CurveFitResult:
    """Least squares for y = A + B*x^(-alpha), x >= 1."""
    return _fit(_power_model, xs, ys)


def fit_exponential(xs: Sequence[float], ys: Sequence[float]) -> CurveFitResult:
    """Least squares for y = A + B*exp(-alpha*x)."""
    return _fit(_exp_model, xs, ys)


def _fit(model, xs, ys) -> CurveFitResult:
    """Variable projection: for a fixed alpha, (A, B) and the SSE are a
    two-column least squares, so only alpha is searched: on a log grid over
    ALPHA_BOUNDS, narrowed to the best point's neighbours on each pass."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if len(x) < 4:
        raise FitDiverged("need at least 4 bins to fit a 3-parameter curve")
    if float(y.max() - y.min()) < 1e-12:
        # Constant series: both families degenerate to y = A.
        a = float(y.mean())
        sse = float(((y - a) ** 2).sum())
        return CurveFitResult(a, 0.0, 1.0, sse, _aic(sse, len(y)))

    lo, hi = ALPHA_BOUNDS
    with np.errstate(all="ignore"):  # a non-finite SSE is raised below
        yc = y - y.mean()
        for _ in range(FIT_PASSES):
            alphas = np.geomspace(lo, hi, FIT_GRID)
            f = model(x, 0.0, 1.0, alphas[:, None])
            fc = f - f.mean(axis=1, keepdims=True)
            ss = np.maximum((fc * fc).sum(axis=1), np.finfo(float).tiny)
            bs = (fc * yc).sum(axis=1) / ss  # 0 where the basis is constant
            i = int(np.argmin(((yc - bs[:, None] * fc) ** 2).sum(axis=1)))
            lo, hi = alphas[max(i - 1, 0)], alphas[min(i + 1, FIT_GRID - 1)]
        alpha, b = float(alphas[i]), float(bs[i])
        a = float(y.mean() - b * f[i].mean())
        sse = float(((y - model(x, a, b, alpha)) ** 2).sum())
    if not math.isfinite(sse):
        raise FitDiverged("non-finite residual")
    return CurveFitResult(a, b, alpha, sse, _aic(sse, len(y)))


def learning_curve_test(
    cohort: Cohorts,
    metric: str = "win_rate",
    bin_width: int = 10,
    trend_epsilon: float = DEFAULT_THRESHOLDS["trend_epsilon"],
) -> LearningCurveResult:
    """Cohort-mean metric per experience bin, with power/exponential fits.

    Bin b covers each player's games (b*w, (b+1)*w]; only players with the
    full bin contribute, and bins where the metric is undefined for every
    player emit no point. The players are read as one run: memory is
    O(run) plus one value per (player, bin).
    """
    if bin_width < 1:
        raise ValueError("bin_width must be >= 1")
    if not cohort:
        raise InsufficientPlayers("empty cohort")
    metric_fn = METRICS[metric]
    _, bounds, run = _run(cohort)
    # player i's bin b is the segment of bin_width from bounds[i] + b*w
    n_bins = np.diff(bounds) // bin_width
    bins = np.arange(n_bins.sum()) - np.repeat(n_bins.cumsum() - n_bins,
                                               n_bins)
    starts = np.repeat(bounds[:-1], n_bins) + bins * bin_width
    values = metric_fn.segments(Segments(run, starts, starts + bin_width))
    vals: Dict[int, List[float]] = defaultdict(list)  # by bin, in user order
    for b, v in zip(bins.tolist(), values):
        if v is not None:
            vals[b].append(v)
    points = [(b + 1, sum(v) / len(v)) for b, v in sorted(vals.items())]
    if not points:
        raise InsufficientPlayers("no complete experience bins")
    for b, _ in [p for p in points if not math.isfinite(p[1])][:1]:
        raise StatTestError(f"the mean {metric} of bin {b} is not finite")
    binned = SkillSeries(metric, tuple(points), "cohort")

    xs, ys = zip(*points)
    fit_errors: List[str] = []
    power = expo = None
    try:
        power = fit_power(xs, ys)
    except FitDiverged as exc:
        fit_errors.append(f"power: {exc}")
    try:
        expo = fit_exponential(xs, ys)
    except FitDiverged as exc:
        fit_errors.append(f"exponential: {exc}")
    if power is None and expo is None:
        raise FitDiverged("; ".join(fit_errors))
    if power is not None and (expo is None or power.aic <= expo.aic):
        preferred, best, model = "Power", power, _power_model
    else:
        preferred, best, model = "Exponential", expo, _exp_model

    y_first = float(model(np.array([xs[0]]), best.a, best.b, best.alpha)[0])
    y_last = float(model(np.array([xs[-1]]), best.a, best.b, best.alpha)[0])
    scale = max(abs(sum(ys) / len(ys)), 1e-12)
    rel_change = (y_last - y_first) / scale
    # A constant model beating the curve on AIC means the apparent trend is
    # noise, regardless of the fitted endpoints.
    y_arr = np.asarray(ys)
    const_sse = float(((y_arr - y_arr.mean()) ** 2).sum())
    const_wins = _aic(const_sse, len(ys), k=1) <= best.aic
    if const_wins or abs(rel_change) < trend_epsilon:
        trend = FLAT
    elif rel_change * metric_fn.polarity > 0:
        trend = IMPROVING
    else:
        trend = WORSENING

    return LearningCurveResult(
        binned=binned,
        power_fit=power,
        exp_fit=expo,
        preferred=preferred,
        trend_direction=trend,
        fit_errors=tuple(fit_errors),
    )


def qq_test(
    win_rates: Sequence[float],
    threshold_r2: float = DEFAULT_THRESHOLDS["threshold_r2"],
    threshold_dev: float = DEFAULT_THRESHOLDS["threshold_dev"],
) -> QQResult:
    """QQ comparison of the values' z-scores against normal quantiles, over
    at least QQ_MIN_PLAYERS values.

    Percentiles come from the ordinal position (i - 0.5)/n on the sorted
    values, so the sequence is strictly increasing and pairwise symmetric;
    tie-averaged ranks are carried alongside. The mean and sd are the
    built-in sums over the sorted values, as numpy's pairwise sums would
    move low-order bits.
    """
    n = len(win_rates)
    if n < QQ_MIN_PLAYERS:
        raise InsufficientPlayers(
            f"QQ test needs >= {QQ_MIN_PLAYERS} players, got {n}")
    values = np.sort(np.asarray(win_rates, dtype=float), kind="stable")
    mean, sd = sample_mean_std(values.tolist())
    if sd == 0.0:
        raise ZeroVariance("all win rates identical")
    percentiles = np.array([percentile_position(i, n)
                            for i in range(1, n + 1)])
    theo = np.array([theoretical_quantile(p) for p in percentiles.tolist()])
    obs = (values - mean) / sd
    r_squared = pearson(theo, obs) ** 2
    max_dev = float(np.abs(obs - theo).max())
    consistent = r_squared >= threshold_r2 and max_dev <= threshold_dev
    return QQResult(
        ranks=np.array(rank_average(values)),
        percentiles=percentiles,
        theoretical=theo,
        observed=obs,
        r_squared=r_squared,
        max_abs_deviation=max_dev,
        normal_consistent=consistent,
        cohort_mean=mean,
        cohort_sd=sd,
    )


def quantile_summary(
    players: Sequence[Tuple[int, float]],
    k: int,
) -> QuantileSummary:
    """Cumulative-prefix summary of win rates over players ordered by
    experience (games played) ascending; group j is the first
    ceil(j*n/k) players."""
    n = len(players)
    if k < 2:
        raise ValueError("k must be >= 2")
    if n < k:
        raise InsufficientPlayers(
            f"{k} quantile groups need >= {k} players, got {n}")
    ordered = sorted(players, key=lambda p: p[0])
    rates = [p[1] for p in ordered]
    groups = []
    for j in range(1, k + 1):
        size = math.ceil(j * n / k)
        chunk = rates[:size]
        mean, std = sample_mean_std(chunk) if size > 1 else (chunk[0], 0.0)
        groups.append((size, mean, std))
    return QuantileSummary(groups=tuple(groups), k=k)


def classify(
    persistence: PersistenceResult,
    learning: LearningCurveResult,
    normality: QQResult,
    thresholds: Optional[Mapping[str, float]] = None,
    quantiles: Optional[QuantileSummary] = None,
) -> VerdictReport:
    """Combine the three tests into a verdict.

    SkillDominant: persistent correlation at or above r_min with a CI
    excluding zero, an improving learning trend, and win rates deviating
    from normal. ChanceDominant: no persistence (CI covers zero) and a
    flat trend. Anything else is Inconclusive.
    """
    th = {**DEFAULT_THRESHOLDS, **(thresholds or {})}
    covers_zero = persistence.ci_covers_zero()
    if (
        persistence.r >= th["r_min"]
        and not covers_zero
        and learning.trend_direction == IMPROVING
        and not normality.normal_consistent
    ):
        verdict = SKILL_DOMINANT
    elif covers_zero and learning.trend_direction == FLAT:
        verdict = CHANCE_DOMINANT
    else:
        verdict = INCONCLUSIVE
    return VerdictReport(
        persistence=persistence,
        learning=learning,
        normality=normality,
        quantiles=quantiles,
        verdict=verdict,
        thresholds_used=th,
    )
