import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from cardskill.records import (
    POKER_COLUMNS,
    RUMMY_COLUMNS,
    InvariantViolation,
    MissingField,
    RecordError,
    FieldTypeError,
    WinnerContradiction,
    _fmt,
    column_texts,
    format_timestamp,
    parse_timestamp,
    validate_poker_record,
    validate_rummy_record,
)

from helpers import POKER_ROW, RUMMY_ROW, poker_outcome, rummy_outcome


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
    assert format_timestamp(np.int64(ms)) == "2022-12-31T23:59:59.250Z"
    assert parse_timestamp(format_timestamp(ms)) == ms


@example(parse_timestamp("0500-01-01T00:00:00Z"))
@example(parse_timestamp("1000-03-01T12:34:56.789Z"))
@given(st.integers(parse_timestamp("0001-01-01T00:00:00Z"),
                   parse_timestamp("9999-12-31T23:59:59.999Z")))
def test_timestamp_round_trip_in_years_1_to_9999(ms):
    text = format_timestamp(ms)
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d{3}Z", text)
    assert parse_timestamp(text) == ms


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


# The exact wording and field types of the row validators and to_row. The
# column pass is held to the validators, so these pin both.
POKER_REPR = (
    "PokerHandRecord(user_id='u1', game_id='g1', "
    "game_type=<PokerGameType.RING: 'Ring'>, "
    "game_variant=<PokerVariant.TEXAS_HOLDEM: 'TexasHoldem'>, "
    "big_blind=2.0, chips_placed=10.0, chips_won=0.0, num_players=6, "
    "max_players=6, min_players=2, voluntary_entry=True, "
    "game_start=1669888800000, game_end=1669889100000)")
RUMMY_REPR = (
    "RummyDealRecord(user_id='u1', game_id='g1', "
    "game_type=<RummyGameType.POINTS: 'Points'>, game_variant=0.5, "
    "max_players=6, actual_players=6, game_start=1669888800000, "
    "game_end=1669890000000, deal_start=1669888800000, "
    "deal_end=1669889100000, buy_in=100.0, win_amt=20.0, deal_id='d1', "
    "deal_number=1, is_winner=True, winner_points=40, loss_points=0)")


def test_validated_record_repr_is_pinned():
    assert repr(validate_poker_record(POKER_ROW)) == POKER_REPR
    assert repr(validate_rummy_record(RUMMY_ROW)) == RUMMY_REPR


def test_to_row_text_is_pinned():
    assert validate_poker_record(POKER_ROW).to_row() == [
        "u1", "g1", "Ring", "TexasHoldem", "2", "10", "0", "6", "6", "2",
        "1", "2022-12-01T10:00:00.000Z", "2022-12-01T10:05:00.000Z"]
    rec = validate_rummy_record(
        {**RUMMY_ROW, "game_variant": "0.25", "buy_in": "1e20"})
    assert rec.to_row() == [
        "u1", "g1", "Points", "0.25", "6", "6", "2022-12-01T10:00:00.000Z",
        "2022-12-01T10:20:00.000Z", "2022-12-01T10:00:00.000Z",
        "2022-12-01T10:05:00.000Z", "1e+20", "20", "d1", "1", "1", "40", "0"]


_DROP = object()


@pytest.mark.parametrize("validate,base,changes,error,message", [
    (validate_poker_record, POKER_ROW, {"big_blind": _DROP},
     MissingField, "missing field: big_blind"),
    (validate_poker_record, POKER_ROW, {"big_blind": ""},
     MissingField, "missing field: big_blind"),
    (validate_poker_record, POKER_ROW, {"big_blind": "inf"},
     FieldTypeError, "field big_blind: cannot parse 'inf' as finite number"),
    (validate_poker_record, POKER_ROW, {"big_blind": "lots"},
     FieldTypeError, "field big_blind: cannot parse 'lots' as number"),
    (validate_poker_record, POKER_ROW, {"num_players": "6.0"},
     FieldTypeError, "field num_players: cannot parse '6.0' as integer"),
    (validate_poker_record, POKER_ROW, {"voluntary_entry": " yes "},
     FieldTypeError,
     "field voluntary_entry: cannot parse 'yes' as 0/1 flag"),
    (validate_poker_record, POKER_ROW, {"game_type": " ring "},
     FieldTypeError, "field game_type: cannot parse 'ring' as Ring/Tournament"),
    (validate_poker_record, POKER_ROW, {"game_start": " bad "},
     FieldTypeError,
     "field game_start: cannot parse ' bad ' as ISO-8601 timestamp"),
    # The first failing field in column order decides.
    (validate_poker_record, POKER_ROW,
     {"game_end": "bad", "max_players": "x", "game_variant": "Stud"},
     FieldTypeError,
     "field game_variant: cannot parse 'Stud' as TexasHoldem/PLO"),
    (validate_poker_record, POKER_ROW, {"big_blind": "0"},
     InvariantViolation, "big_blind > 0 violated"),
    (validate_poker_record, POKER_ROW, {"chips_won": "-1"},
     InvariantViolation, "chip amounts must be >= 0"),
    (validate_poker_record, POKER_ROW, {"num_players": "7"},
     InvariantViolation, "min_players <= num_players <= max_players violated"),
    (validate_poker_record, POKER_ROW, {"game_end": "2022-12-01T09:00:00Z"},
     InvariantViolation, "game_start <= game_end violated"),
    (validate_rummy_record, RUMMY_ROW, {"game_variant": "nan"},
     FieldTypeError, "field game_variant: cannot parse 'nan' as finite number"),
    (validate_rummy_record, RUMMY_ROW, {"game_type": "Ring"},
     FieldTypeError, "field game_type: cannot parse 'Ring' as Points/Pool/Deal"),
    (validate_rummy_record, RUMMY_ROW, {"deal_id": _DROP, "is_winner": "2"},
     MissingField, "missing field: deal_id"),
    (validate_rummy_record, RUMMY_ROW, {"deal_number": "1.0"},
     FieldTypeError, "field deal_number: cannot parse '1.0' as integer"),
    (validate_rummy_record, RUMMY_ROW, {"loss_points": "20"},
     WinnerContradiction, "is_winner=1 but loss_points > 0"),
    (validate_rummy_record, RUMMY_ROW, {"is_winner": "0"},
     InvariantViolation, "is_winner=0 but winner_points > 0"),
    (validate_rummy_record, RUMMY_ROW,
     {"is_winner": "0", "winner_points": "0", "loss_points": "-3"},
     InvariantViolation, "points must be >= 0"),
    (validate_rummy_record, RUMMY_ROW, {"buy_in": "-1"},
     InvariantViolation, "amounts must be >= 0"),
    (validate_rummy_record, RUMMY_ROW, {"actual_players": "7"},
     InvariantViolation, "actual_players <= max_players violated"),
    (validate_rummy_record, RUMMY_ROW, {"deal_number": "0"},
     InvariantViolation, "deal_number >= 1 violated"),
    (validate_rummy_record, RUMMY_ROW, {"deal_end": "2022-12-01T09:00:00Z"},
     InvariantViolation, "start <= end violated"),
    # Outcome values that are not finite floats.
    (validate_poker_record, POKER_ROW,
     {"big_blind": "0.001", "chips_won": "1e308"},
     InvariantViolation, "value_delta_bb is not a finite number"),
    (validate_rummy_record, RUMMY_ROW, {"winner_points": "9" * 401},
     InvariantViolation, "points must fit a finite float"),
    (validate_rummy_record, RUMMY_ROW,
     {"is_winner": "0", "winner_points": "0", "loss_points": "9" * 310},
     InvariantViolation, "points must fit a finite float"),
    # UTC instants in year 0 and year 10000
    (validate_poker_record, POKER_ROW,
     {"game_start": "0001-01-01T00:00:00+01:00"}, FieldTypeError,
     "field game_start: cannot parse '0001-01-01T00:00:00+01:00' as "
     "ISO-8601 timestamp"),
    (validate_poker_record, POKER_ROW,
     {"game_end": "9999-12-31T23:00:00-01:00"}, FieldTypeError,
     "field game_end: cannot parse '9999-12-31T23:00:00-01:00' as "
     "ISO-8601 timestamp"),
])
def test_validator_wording_is_pinned(validate, base, changes, error, message):
    raw = {k: v for k, v in {**base, **changes}.items() if v is not _DROP}
    with pytest.raises(RecordError) as info:
        validate(raw)
    assert type(info.value) is error
    assert str(info.value) == message


def test_float_column_texts_are_fmt():
    values = [-0.0, 0.5, 1e15 - 1, 1e15, 2.0**53, 1e-7, 123456.5, -3.0,
              -(1e15 - 1)]
    assert column_texts(_fmt, np.array(values)) == list(map(_fmt, values))
    assert column_texts(str, np.array([3, -4])) == ["3", "-4"]
