"""Plant a pure-chance cohort and a skill-with-learning cohort, then run
the three-test battery on both and compare the verdicts.

The chance cohort should come out ChanceDominant (or at worst
Inconclusive); the skill cohort should come out SkillDominant.
"""

from cardskill.simgen import SimConfig, simulate_timelines
from cardskill.stattests import (
    classify,
    learning_curve_test,
    persistence_test,
    player_values,
    qq_test,
)


def run_battery(name, config):
    timelines = simulate_timelines(config)
    persistence = persistence_test(timelines, split="month", min_games=30,
                                   seed=config.seed)
    learning = learning_curve_test(timelines, bin_width=10)
    rates = player_values(timelines, "win_rate")
    normality = qq_test(list(rates.values()))
    report = classify(persistence, learning, normality)

    print(f"--- {name} ---")
    print(f"persistence r    : {persistence.r:+.4f} "
          f"(95% CI {persistence.bootstrap_ci95[0]:+.4f} "
          f".. {persistence.bootstrap_ci95[1]:+.4f}, "
          f"n={persistence.n_players})")
    print(f"learning trend   : {learning.trend_direction} "
          f"(preferred family: {learning.preferred})")
    print(f"QQ normality     : consistent={normality.normal_consistent} "
          f"(r2={normality.r_squared:.4f}, "
          f"max dev={normality.max_abs_deviation:.3f})")
    print(f"verdict          : {report.verdict}")
    print()


if __name__ == "__main__":
    run_battery("pure chance, 2P poker", SimConfig(
        game="poker", table_size=2, n_players=3000, games_per_player=100,
        mode="chance", seed=1,
    ))
    run_battery("latent skill + learning, 2P poker", SimConfig(
        game="poker", table_size=2, n_players=3000, games_per_player=100,
        mode="skill", skill_sd=0.8, learning_curve="power",
        learning_b=0.6, learning_alpha=0.5, stagger_starts=True, seed=2,
    ))
