import pytest
from hypothesis import given, strategies as st

from cardskill.records import (
    POKER_COLUMNS,
    RUMMY_COLUMNS,
    InvariantViolation,
    MissingField,
    FieldTypeError,
    WinnerContradiction,
    format_timestamp,
    parse_timestamp,
    poker_outcome,
    rummy_outcome,
    validate_poker_record,
    validate_rummy_record,
)

from helpers import POKER_ROW, RUMMY_ROW


class TestValidatePoker:
    def test_valid_row(self):
        rec = validate_poker_record(POKER_ROW)
        assert rec.big_blind == 2.0
        assert rec.chips_placed == 10.0
        assert rec.voluntary_entry is True
        assert rec.value_delta_bb == -5.0

    def test_zero_big_blind_rejected(self):
        with pytest.raises(InvariantViolation, match="big_blind"):
            validate_poker_record({**POKER_ROW, "big_blind": "0"})

    def test_num_players_above_max_rejected(self):
        with pytest.raises(InvariantViolation, match="num_players"):
            validate_poker_record({**POKER_ROW, "num_players": "7"})

    def test_missing_field(self):
        row = dict(POKER_ROW)
        del row["game_id"]
        with pytest.raises(MissingField):
            validate_poker_record(row)

    def test_unknown_variant_is_parse_error_not_guess(self):
        with pytest.raises(FieldTypeError):
            validate_poker_record({**POKER_ROW, "game_variant": "SevenCardStud"})

    def test_bad_number(self):
        with pytest.raises(FieldTypeError):
            validate_poker_record({**POKER_ROW, "chips_won": "lots"})

    def test_start_after_end_rejected(self):
        bad = {**POKER_ROW, "game_start": "2022-12-02T00:00:00Z"}
        with pytest.raises(InvariantViolation):
            validate_poker_record(bad)


class TestValidateRummy:
    def test_valid_winner_row(self):
        rec = validate_rummy_record(RUMMY_ROW)
        assert rec.is_winner and rec.winner_points == 40

    def test_winner_contradiction(self):
        with pytest.raises(WinnerContradiction):
            validate_rummy_record({**RUMMY_ROW, "loss_points": "20"})

    def test_too_many_actual_players(self):
        with pytest.raises(InvariantViolation):
            validate_rummy_record({**RUMMY_ROW, "actual_players": "7"})

    def test_loser_with_winner_points_rejected(self):
        bad = {**RUMMY_ROW, "is_winner": "0", "winner_points": "40"}
        with pytest.raises(InvariantViolation):
            validate_rummy_record(bad)

    def test_flag_must_be_01(self):
        with pytest.raises(FieldTypeError):
            validate_rummy_record({**RUMMY_ROW, "is_winner": "yes"})


def test_timestamp_round_trip():
    ms = parse_timestamp("2022-12-31T23:59:59.250Z")
    assert format_timestamp(ms) == "2022-12-31T23:59:59.250Z"
    assert parse_timestamp(format_timestamp(ms)) == ms


@given(
    big_blind=st.integers(1, 1000),
    placed=st.integers(0, 10_000),
    won=st.integers(0, 10_000),
    num=st.integers(2, 6),
    voluntary=st.booleans(),
)
def test_poker_row_round_trip(big_blind, placed, won, num, voluntary):
    raw = {
        **POKER_ROW,
        "big_blind": str(big_blind),
        "chips_placed": str(placed),
        "chips_won": str(won),
        "num_players": str(num),
        "voluntary_entry": "1" if voluntary else "0",
    }
    rec = validate_poker_record(raw)
    row = rec.to_row()
    reparsed = validate_poker_record(dict(zip(POKER_COLUMNS, row)))
    assert reparsed == rec


@given(
    is_winner=st.booleans(),
    points=st.integers(0, 80),
    deal_number=st.integers(1, 6),
)
def test_rummy_row_round_trip(is_winner, points, deal_number):
    raw = {
        **RUMMY_ROW,
        "is_winner": "1" if is_winner else "0",
        "winner_points": str(points) if is_winner else "0",
        "loss_points": "0" if is_winner else str(points),
        "win_amt": "20" if is_winner else "0",
        "deal_number": str(deal_number),
    }
    rec = validate_rummy_record(raw)
    reparsed = validate_rummy_record(dict(zip(RUMMY_COLUMNS, rec.to_row())))
    assert reparsed == rec


@pytest.mark.parametrize("make,field", [
    (lambda: validate_poker_record(POKER_ROW), "big_blind"),
    (lambda: validate_rummy_record(RUMMY_ROW), "is_winner"),
    (lambda: poker_outcome(validate_poker_record(POKER_ROW)), "value_delta"),
    (lambda: rummy_outcome(validate_rummy_record(RUMMY_ROW)), "won"),
], ids=["poker", "rummy", "poker-outcome", "rummy-outcome"])
def test_records_are_immutable(make, field):
    obj = make()
    with pytest.raises(AttributeError):
        setattr(obj, field, getattr(obj, field))
