"""Shared builders for test timelines and records."""

from cardskill.records import Outcome, PlayerTimeline

HOUR_MS = 3_600_000


def poker_timeline(deltas, user_id="u1", voluntary=None, start=0, step=HOUR_MS):
    """Timeline from a list of bb deltas; voluntary defaults to all True."""
    if voluntary is None:
        voluntary = [True] * len(deltas)
    outcomes = tuple(
        Outcome(
            won=d > 0,
            value_delta=float(d),
            timestamp=start + i * step,
            key=f"g{i:04d}",
            voluntary_entry=v,
        )
        for i, (d, v) in enumerate(zip(deltas, voluntary))
    )
    return PlayerTimeline(user_id=user_id, table_size=6, outcomes=outcomes)


def rummy_timeline(points, user_id="u1", start=0, step=HOUR_MS):
    """Timeline from signed point deltas (+win, -loss)."""
    outcomes = tuple(
        Outcome(
            won=p > 0,
            value_delta=float(p),
            timestamp=start + i * step,
            key=f"d{i:04d}",
        )
        for i, p in enumerate(points)
    )
    return PlayerTimeline(user_id=user_id, table_size=2, outcomes=outcomes)


def wins_timeline(wins, user_id="u1", start=0, step=HOUR_MS):
    """Timeline from a list of booleans; delta is +1/-1."""
    return rummy_timeline([1 if w else -1 for w in wins],
                          user_id=user_id, start=start, step=step)


POKER_ROW = {
    "user_id": "u1",
    "game_id": "g1",
    "game_type": "Ring",
    "game_variant": "TexasHoldem",
    "big_blind": "2",
    "chips_placed": "10",
    "chips_won": "0",
    "num_players": "6",
    "max_players": "6",
    "min_players": "2",
    "voluntary_entry": "1",
    "game_start": "2022-12-01T10:00:00Z",
    "game_end": "2022-12-01T10:05:00Z",
}

RUMMY_ROW = {
    "user_id": "u1",
    "game_id": "g1",
    "game_type": "Points",
    "game_variant": "0.5",
    "max_players": "6",
    "actual_players": "6",
    "game_start": "2022-12-01T10:00:00Z",
    "game_end": "2022-12-01T10:20:00Z",
    "deal_start": "2022-12-01T10:00:00Z",
    "deal_end": "2022-12-01T10:05:00Z",
    "buy_in": "100",
    "win_amt": "20",
    "deal_id": "d1",
    "deal_number": "1",
    "is_winner": "1",
    "winner_points": "40",
    "loss_points": "0",
}
