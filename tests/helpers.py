"""Shared builders for test timelines and records."""

from hypothesis import strategies as st

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


# The per-window metric bodies as written before the metrics became segment
# reductions, kept as the oracle the segment form must equal bit for bit.

def _ref_win_rate(outcomes):
    return sum(1 for o in outcomes if o.won) / len(outcomes)


def _ref_bb_per_100(outcomes):
    return 100.0 * sum(o.value_delta for o in outcomes) / len(outcomes)


def _ref_avg_points_lost_losing(outcomes):
    losses = [-o.value_delta for o in outcomes if not o.won]
    return sum(losses) / len(losses) if losses else None


def _ref_avg_win_magnitude(outcomes):
    wins = [o.value_delta for o in outcomes if o.value_delta > 0]
    return sum(wins) / len(wins) if wins else None


def _ref_avg_loss_magnitude(outcomes):
    losses = [-o.value_delta for o in outcomes if o.value_delta < 0]
    return sum(losses) / len(losses) if losses else None


def _ref_tightness(outcomes):
    flags = [o.voluntary_entry for o in outcomes]
    if any(f is None for f in flags):
        return None
    return 1.0 - sum(1 for f in flags if f) / len(flags)


def _ref_net_positive(outcomes):
    return 1.0 if sum(o.value_delta for o in outcomes) > 0 else 0.0


# By METRICS name; "avg_win_magnitude" is the won side of avg_blind_amount.
REFERENCE_METRICS = {
    "win_rate": _ref_win_rate,
    "bb_per_100": _ref_bb_per_100,
    "avg_points_lost_losing": _ref_avg_points_lost_losing,
    "avg_blind_lost": _ref_avg_loss_magnitude,
    "tightness": _ref_tightness,
    "net_positive_share": _ref_net_positive,
    "avg_win_magnitude": _ref_avg_win_magnitude,
}


def outcome_of(fn, *args):
    """repr of fn(*args), or the type of the exception it raised."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc)


def outcome_runs(stamps=None, max_size=12, min_size=0):
    """Hypothesis strategy: lists of outcomes with any won flag, deltas that
    include -0.0 and non-integers, stamps in no particular order, and all
    voluntary_entry flags set (poker), all None (rummy) or mixed."""
    deltas = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, -0.3, 2.5, -7.0]),
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
    if stamps is None:
        stamps = st.integers(0, 9)

    @st.composite
    def runs(draw):
        flags = draw(st.sampled_from([st.booleans(), st.none(),
                                      st.one_of(st.booleans(), st.none())]))
        outcome = st.builds(Outcome, won=st.booleans(), value_delta=deltas,
                            timestamp=stamps, voluntary_entry=flags)
        return draw(st.lists(outcome, min_size=min_size, max_size=max_size))

    return runs()


# One record's outcome, as the Python expressions of the record-per-row
# path: ingest.build_timelines computes it on columns and must give the
# same values, bit for bit, with the same types.
def poker_outcome(rec):
    delta = rec.value_delta_bb
    return Outcome(delta > 0, delta, rec.game_start, rec.voluntary_entry)


def rummy_outcome(rec):
    delta = float(rec.winner_points) if rec.is_winner else -float(rec.loss_points)
    return Outcome(rec.is_winner, delta, rec.game_start, None)
