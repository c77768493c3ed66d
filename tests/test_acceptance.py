"""Acceptance battery: one test per criterion, printed pass/fail lines.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines. Large synthetic cohorts are module-scoped fixtures so the suite
stays fast.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import rankdata

from cardskill.cli import battery, main as cli_main
from cardskill.ingest import parse_poker_log
from cardskill.metrics import percentile_position, rank_average, \
    theoretical_quantile
from cardskill.simgen import SimConfig, ground_truth, simulate_cohort
from cardskill.stattests import (
    SKILL_DOMINANT,
    fit_exponential,
    fit_power,
    pearson,
    player_values,
    qq_test,
    quantile_summary,
)


def _report(criterion, ok, detail):
    marker = "PASS" if ok else "FAIL"
    print(f"{marker} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def chance_2p():
    cfg = SimConfig(game="poker", table_size=2, n_players=10_000,
                    games_per_player=100, mode="chance", seed=42)
    t0 = time.monotonic()
    report = battery(simulate_cohort(cfg), seed=42)
    return report, time.monotonic() - t0


@pytest.fixture(scope="module")
def skill_2p():
    cfg = SimConfig(game="poker", table_size=2, n_players=10_000,
                    games_per_player=100, mode="skill", skill_sd=0.8,
                    learning_curve="power", learning_b=0.6,
                    learning_alpha=0.5, stagger_starts=True, seed=11)
    return battery(simulate_cohort(cfg), seed=11)


def test_criterion_1_null_model_soundness(chance_2p):
    report, elapsed = chance_2p
    p, verdict = report.persistence, report.verdict
    ok = (abs(p.r) < 0.05
          and p.bootstrap_ci95[0] <= 0.0 <= p.bootstrap_ci95[1]
          and verdict != SKILL_DOMINANT
          and elapsed < 30.0)
    _report(1, ok, f"|r|={abs(p.r):.4f}, ci={p.bootstrap_ci95}, "
                   f"verdict={verdict}, elapsed={elapsed:.1f}s")


def test_criterion_2_skill_model_detection(skill_2p):
    p, verdict = skill_2p.persistence, skill_2p.verdict
    ok = p.r > 0.5 and verdict == SKILL_DOMINANT
    _report(2, ok, f"r={p.r:.3f}, trend={skill_2p.learning.trend_direction}, "
                   f"qq_consistent={skill_2p.normality.normal_consistent}, "
                   f"verdict={verdict}")


def test_criterion_3_heads_up_oracle():
    cfg = SimConfig(game="poker", table_size=2, n_players=2,
                    games_per_player=100_000, mode="skill", skill_sd=0.8,
                    skill_overrides=(0.8, 0.0), seed=3)
    cohort = simulate_cohort(cfg)
    won = cohort.columns.won[:cohort.bounds[1]].tolist()
    empirical = sum(won) / len(won)
    expected = math.exp(0.8) / (math.exp(0.8) + 1.0)
    truth = ground_truth(cfg)
    assert truth.heads_up_probability(0.8, 0.0) == pytest.approx(expected)
    ok = abs(empirical - expected) <= 0.01
    _report(3, ok, f"empirical={empirical:.4f} vs closed-form "
                   f"{expected:.4f} over {len(won)} games")


def test_criterion_4_learning_curve_recovery():
    xs = np.arange(1.0, 21.0)
    a, b, alpha = 0.45, -0.18, 0.65
    power_y = a + b * xs ** -alpha
    fp = fit_power(xs, power_y)
    fe = fit_exponential(xs, power_y)
    power_ok = (abs(fp.a - a) <= 0.05 * abs(a)
                and abs(fp.b - b) <= 0.05 * abs(b)
                and abs(fp.alpha - alpha) <= 0.05 * alpha
                and fp.aic < fe.aic)

    a2, b2, alpha2 = 0.45, -0.18, 0.30
    exp_y = a2 + b2 * np.exp(-alpha2 * xs)
    fe2 = fit_exponential(xs, exp_y)
    fp2 = fit_power(xs, exp_y)
    exp_ok = (abs(fe2.a - a2) <= 0.05 * abs(a2)
              and abs(fe2.b - b2) <= 0.05 * abs(b2)
              and abs(fe2.alpha - alpha2) <= 0.05 * alpha2
              and fe2.aic < fp2.aic)
    ok = power_ok and exp_ok
    _report(4, ok, f"power fit ({fp.a:.4f},{fp.b:.4f},{fp.alpha:.4f}) "
                   f"AIC pref ok={fp.aic < fe.aic}; exponential fit "
                   f"({fe2.a:.4f},{fe2.b:.4f},{fe2.alpha:.4f}) "
                   f"AIC pref ok={fe2.aic < fp2.aic}")


def test_criterion_5_quantile_math():
    grid = np.linspace(0.001, 0.999, 1000)
    max_err = max(abs(theoretical_quantile(float(p)) - float(ndtri(p)))
                  for p in grid)
    quantile_ok = max_err <= 1e-9

    rng = np.random.default_rng(55)
    rank_ok = True
    pct_ok = True
    for _ in range(10_000):
        n = int(rng.integers(1, 30))
        values = [float(v) for v in rng.integers(0, 8, n)]  # dense ties
        ours = rank_average(values)
        rank_ok &= ours == list(rankdata(values))
        r = float(rng.uniform(1, n))
        pct_ok &= percentile_position(r, n) == (r - 0.5) / n
    ok = quantile_ok and rank_ok and pct_ok
    _report(5, ok, f"inverse-CDF max err={max_err:.2e}; "
                   f"rank_average exact={rank_ok}; "
                   f"percentile exact={pct_ok}")


def test_criterion_6_qq_self_consistency():
    exact = [theoretical_quantile((i - 0.5) / 100) for i in range(1, 101)]
    res_norm = qq_test(exact)
    bimodal = [0.2] * 100 + [0.8] * 100
    res_bi = qq_test(bimodal)
    ok = (res_norm.r_squared >= 0.999 and res_norm.normal_consistent
          and not res_bi.normal_consistent)
    _report(6, ok, f"exact-normal r2={res_norm.r_squared:.5f} "
                   f"consistent={res_norm.normal_consistent}; "
                   f"bimodal consistent={res_bi.normal_consistent}")


def test_criterion_7_chance_6p_quantile_structure():
    cfg = SimConfig(game="rummy", table_size=6, n_players=2400,
                    games_per_player=100, mode="chance",
                    min_games_per_player=30, seed=7)
    cohort = simulate_cohort(cfg)
    players = list(zip(cohort.games().tolist(),
                       player_values(cohort, "win_rate").values()))
    summary = quantile_summary(players, 4)
    means_ok = all(abs(m - 1 / 6) < 0.01 for _, m, _ in summary.groups)
    stds = [s for _, _, s in summary.groups]
    stds_ok = all(a >= b for a, b in zip(stds, stds[1:]))
    ok = means_ok and stds_ok
    _report(7, ok, f"group means={[round(m, 4) for _, m, _ in summary.groups]}, "
                   f"stds={[round(s, 4) for s in stds]}")


def test_criterion_8_pipeline_determinism(tmp_path):
    sim_out = tmp_path / "sim"
    assert cli_main(["simulate", "--game", "poker", "--table-size", "2",
                     "--players", "120", "--games", "80", "--mode", "chance",
                     "--seed", "13", "--out", str(sim_out)]) == 0
    log = sim_out / "poker_log.csv"
    recs, stats = parse_poker_log(log.read_bytes())
    roundtrip_ok = stats.rows_rejected == 0 and stats.rows_accepted > 0

    blobs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert cli_main(["analyze", "--game", "poker", "--table-size", "2",
                         "--seed", "13", "--out", str(out), str(log)]) == 0
        blobs.append((out / "verdict.json").read_bytes())
    identical = blobs[0] == blobs[1]
    ok = roundtrip_ok and identical
    _report(8, ok, f"round-trip rejected={stats.rows_rejected}, "
                   f"verdict.json identical={identical}")


def test_criterion_9_pearson_properties():
    rng = np.random.default_rng(99)
    ok = True
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 40))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        a = float(rng.uniform(0.01, 100))
        b = float(rng.normal())
        base = pearson(x, y)
        err = abs(pearson(a * x + b, y) - base)
        worst = max(worst, err)
        ok &= err <= 1e-12
        ok &= abs(pearson(x, x) - 1.0) <= 1e-12
        ok &= abs(pearson(x, -x) + 1.0) <= 1e-12
    _report(9, ok, f"worst affine-invariance error={worst:.2e}")
