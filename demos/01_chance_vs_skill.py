"""Plant a pure-chance cohort and a skill-with-learning cohort, then run
the three-test battery on both and compare the verdicts.

The chance cohort should come out ChanceDominant (or at worst
Inconclusive); the skill cohort should come out SkillDominant.
"""

from cardskill.cli import battery
from cardskill.simgen import SimConfig, simulate_cohort


def run_battery(name, config):
    report = battery(simulate_cohort(config), seed=config.seed)
    pers, learn, qq = report.persistence, report.learning, report.normality
    print(f"--- {name} ---")
    print(f"persistence r    : {pers.r:+.4f} "
          f"(95% CI {pers.bootstrap_ci95[0]:+.4f} "
          f".. {pers.bootstrap_ci95[1]:+.4f}, n={pers.n_players})")
    print(f"learning trend   : {learn.trend_direction} "
          f"(preferred family: {learn.preferred})")
    print(f"QQ normality     : consistent={qq.normal_consistent} "
          f"(r2={qq.r_squared:.4f}, max dev={qq.max_abs_deviation:.3f})")
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
