"""Walk a simulated poker log through ingest and the per-player skill
variables: cumulative win probability, binned blind amounts, BB/100,
and tightness.
"""

from cardskill.ingest import build_timelines, parse_poker_log
from cardskill.metrics import (
    LOST,
    WON,
    avg_blind_amount,
    bb_per_100,
    tightness,
    win_probability_series,
)
from cardskill.simgen import SimConfig, simulate

config = SimConfig(game="poker", table_size=6, n_players=60,
                   games_per_player=120, mode="skill", skill_sd=0.6,
                   learning_b=0.4, learning_alpha=0.5, seed=4)
data, truth = simulate(config)
# The parser returns the accepted hands as columns; rows[i] or list(rows)
# reads them back as PokerHandRecords.
rows, stats = parse_poker_log(data)
print(f"parsed {stats.rows_accepted} hands "
      f"({stats.rows_rejected} rejected); the first: {rows[0].user_id} "
      f"won {rows[0].chips_won:g} of {rows[0].chips_placed:g} chips placed")

timelines = build_timelines(6, rows)  # players in user-id order
best = max(range(config.n_players), key=lambda i: truth.skills[i])
user = list(timelines)[best]
tl = timelines[user]
print(f"most skilled player: {user} (planted skill "
      f"{truth.skills[best]:+.2f}), {len(tl.outcomes)} hands")

series = win_probability_series(tl)
print("cumulative win probability (every 20 games):",
      [round(y, 3) for x, y in series.points if x % 20 == 0])

won = avg_blind_amount(tl, WON, bin_width=20)
lost = avg_blind_amount(tl, LOST, bin_width=20)
print("avg bb won per 20-hand bin :", [round(y, 2) for _, y in won.points])
print("avg bb lost per 20-hand bin:", [round(y, 2) for _, y in lost.points])
print(f"BB/100 overall  : {bb_per_100(tl):+.2f}")
print(f"tightness       : {tightness(tl):.3f}")
