"""Validated record types for poker hands and rummy deals.

Raw log rows arrive as text field mappings; the validate_* functions
coerce and check them, raising a structured error that identifies the
offending field so callers can report line-accurate diagnostics.
INVARIANTS holds each record type's invariants between fields; check_record
tests them on one record, and ingest on whole columns at once.

Records and outcomes are typing.NamedTuples: immutable after construction,
safe to share across threads, and about a fifth of the cost of a frozen
dataclass to build. They compare equal to plain tuples of their fields; use
_replace and _asdict, not dataclasses.replace and asdict.
The record type is the log format: its fields are the CSV columns in order,
and each annotation is the field's kind: str, float, int, bool (a 0/1 flag),
Millis (epoch milliseconds, ISO-8601 UTC text in files) or an Enum (by value).
"""

from __future__ import annotations

import enum
import gc
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from operator import attrgetter
from typing import (Iterator, Mapping, NamedTuple, NewType, Optional, Union,
                    get_type_hints)

import numpy as np

Millis = NewType("Millis", int)  # epoch milliseconds
EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


class RecordError(ValueError):
    """Base for row-level validation failures."""

    def __init__(self, message: str, field_name: Optional[str] = None):
        super().__init__(message)
        self.field_name = field_name


class MissingField(RecordError):
    def __init__(self, name: str):
        super().__init__(f"missing field: {name}", name)


class FieldTypeError(RecordError):
    """A field's text could not be coerced to its declared type."""

    def __init__(self, name: str, text: str, expected: str):
        super().__init__(f"field {name}: cannot parse {text!r} as {expected}", name)


class InvariantViolation(RecordError):
    pass


class WinnerContradiction(InvariantViolation):
    pass


class PokerGameType(enum.Enum):
    RING = "Ring"
    TOURNAMENT = "Tournament"


class PokerVariant(enum.Enum):
    TEXAS_HOLDEM = "TexasHoldem"
    PLO = "PLO"


class RummyGameType(enum.Enum):
    POINTS = "Points"
    POOL = "Pool"
    DEAL = "Deal"


def parse_timestamp(text: str) -> int:
    """ISO-8601 UTC text -> epoch milliseconds. Naive times are taken as UTC."""
    try:
        dt = datetime.fromisoformat(text.strip().replace("Z", "+00:00"))
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        # OverflowError when the UTC instant falls outside years 1-9999
        dt = dt.astimezone(timezone.utc)
    except (ValueError, OverflowError):
        raise FieldTypeError("timestamp", text, "ISO-8601 timestamp") from None
    return int(round(dt.timestamp() * 1000))


def format_timestamp(ms: int) -> str:
    """Epoch milliseconds -> ISO-8601 UTC text, exact to the millisecond."""
    dt = EPOCH + timedelta(milliseconds=int(ms))  # no numpy ints in timedelta
    return dt.isoformat(timespec="milliseconds").replace("+00:00", "Z")


def _to_row(rec: Record) -> list:
    """The record's log row: each field's text, in column order."""
    return [text(value)
            for (_, _, _, text), value in zip(FIELDS[type(rec)], rec)]


class PokerHandRecord(NamedTuple):
    user_id: str
    game_id: str
    game_type: PokerGameType
    game_variant: PokerVariant
    big_blind: float
    chips_placed: float
    chips_won: float
    num_players: int
    max_players: int
    min_players: int
    voluntary_entry: bool
    game_start: Millis
    game_end: Millis

    @property
    def value_delta_bb(self) -> float:
        """Net result of the hand, normalized to big-blind units."""
        return (self.chips_won - self.chips_placed) / self.big_blind

    to_row = _to_row


class RummyDealRecord(NamedTuple):
    user_id: str
    game_id: str
    game_type: RummyGameType
    game_variant: float
    max_players: int
    actual_players: int
    game_start: Millis
    game_end: Millis
    deal_start: Millis
    deal_end: Millis
    buy_in: float
    win_amt: float
    deal_id: str
    deal_number: int
    is_winner: bool
    winner_points: int
    loss_points: int

    to_row = _to_row


class Outcome(NamedTuple):
    """One game/deal result for one player, the unit of all metric work.

    value_delta is in big blinds for poker (chips_won - chips_placed over
    big_blind) and in points for rummy (+winner_points or -loss_points).
    Timelines may hold one Outcome object for many equal games: compare
    outcomes with ==, never with `is`.
    """

    won: bool
    value_delta: float
    timestamp: int
    voluntary_entry: Optional[bool] = None


@dataclass(frozen=True, slots=True)
class PlayerTimeline:
    """Per-player, time-ordered outcome sequence at one table size."""

    user_id: str
    table_size: int
    outcomes: tuple = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.outcomes)


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, then restore its prior state:
    timelines form no cycles for its passes to free. Its one caller is
    simgen.simulate_timelines, which builds a tuple and a PlayerTimeline
    per player."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


def _fmt(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def column_texts(text, column: np.ndarray) -> list:
    """list(map(text, column.tolist())) for a field's text form. A str
    field's column is its own text. A float column's integral values below
    1e15 are converted to int64 at once; _fmt writes the others."""
    if text is str.__str__:
        return column.tolist()
    if text is not _fmt:
        return list(map(text, column.tolist()))
    whole = (column == np.trunc(column)) & (np.abs(column) < 1e15)
    out = np.empty(len(column), dtype=object)
    out[whole] = list(map(str, column[whole].astype(np.int64).tolist()))
    out[~whole] = list(map(_fmt, column[~whole].tolist()))
    return out.tolist()


def _get(raw: Mapping[str, str], name: str) -> str:
    value = raw.get(name)
    if value is None or value == "":
        raise MissingField(name)
    return value


def _parse_float(raw: Mapping[str, str], name: str) -> float:
    text = _get(raw, name)
    try:
        x = float(text)
    except ValueError:
        raise FieldTypeError(name, text, "number") from None
    if x != x or x in (float("inf"), float("-inf")):
        raise FieldTypeError(name, text, "finite number")
    return x


def _parse_int(raw: Mapping[str, str], name: str) -> int:
    text = _get(raw, name)
    try:
        return int(text)
    except ValueError:
        raise FieldTypeError(name, text, "integer") from None


def _parse_bool01(raw: Mapping[str, str], name: str) -> bool:
    text = _get(raw, name).strip()
    if text == "1":
        return True
    if text == "0":
        return False
    raise FieldTypeError(name, text, "0/1 flag")


def _parse_enum(raw: Mapping[str, str], name: str, enum_cls) -> enum.Enum:
    text = _get(raw, name).strip()
    try:
        return enum_cls(text)
    except ValueError:
        allowed = "/".join(m.value for m in enum_cls)
        raise FieldTypeError(name, text, allowed) from None


def _parse_ts(raw: Mapping[str, str], name: str) -> int:
    text = _get(raw, name)
    try:
        return parse_timestamp(text)
    except FieldTypeError:
        raise FieldTypeError(name, text, "ISO-8601 timestamp") from None


# The row parser and the text form of each field kind but Enum subclasses;
# a str field's text is its value, which str.__str__ checks is a str.
_KINDS = {
    str: (_get, str.__str__),
    float: (_parse_float, _fmt),
    int: (_parse_int, str),
    bool: (_parse_bool01, {True: "1", False: "0"}.__getitem__),
    Millis: (_parse_ts, format_timestamp),
}


def _forms(kind) -> tuple:
    if isinstance(kind, enum.EnumMeta):
        return (lambda raw, name: _parse_enum(raw, name, kind),
                attrgetter("value"))
    return _KINDS[kind]


def _columns(record: type) -> tuple:
    """(name, kind, parse(raw, name), text(value)) for each field in order."""
    hints = get_type_hints(record)
    return tuple((name, hints[name], *_forms(hints[name]))
                 for name in record._fields)


# Resolved once at import: the row validators, to_row and ingest read it.
FIELDS = {record: _columns(record)
          for record in (PokerHandRecord, RummyDealRecord)}
POKER_COLUMNS = list(PokerHandRecord._fields)
RUMMY_COLUMNS = list(RummyDealRecord._fields)


def _validate(record: type, raw: Mapping[str, str]) -> Record:
    """raw's fields parsed in column order: the first bad field decides."""
    return record._make([parse(raw, name)
                         for name, _, parse, _ in FIELDS[record]])


def validate_poker_record(raw: Mapping[str, str]) -> PokerHandRecord:
    return check_record(_validate(PokerHandRecord, raw))


def validate_rummy_record(raw: Mapping[str, str]) -> RummyDealRecord:
    return check_record(_validate(RummyDealRecord, raw))


def _not_finite(x):
    return (x != x) | (abs(x) > sys.float_info.max)


# Each record type's invariants between fields, in the order check_record
# tests them: (error type, message, broken). broken uses only |, & and
# comparisons, so it takes a record, or a record whose fields are column
# arrays to flag a whole chunk in ingest. x ^ True is "not x" for a bool and
# a bool array alike, where ~x of a Python bool is an int.
INVARIANTS = {
    PokerHandRecord: (
        (InvariantViolation, "big_blind > 0 violated",
         lambda r: r.big_blind <= 0),
        (InvariantViolation, "chip amounts must be >= 0",
         lambda r: (r.chips_placed < 0) | (r.chips_won < 0)),
        (InvariantViolation,
         "min_players <= num_players <= max_players violated",
         lambda r: (r.min_players > r.num_players)
         | (r.num_players > r.max_players)),
        (InvariantViolation, "game_start <= game_end violated",
         lambda r: r.game_start > r.game_end),
        (InvariantViolation, "value_delta_bb is not a finite number",
         lambda r: _not_finite(r.value_delta_bb)),
    ),
    RummyDealRecord: (
        (WinnerContradiction, "is_winner=1 but loss_points > 0",
         lambda r: r.is_winner & (r.loss_points > 0)),
        (InvariantViolation, "is_winner=0 but winner_points > 0",
         lambda r: (r.is_winner ^ True) & (r.winner_points > 0)),
        (InvariantViolation, "points must be >= 0",
         lambda r: (r.winner_points < 0) | (r.loss_points < 0)),
        (InvariantViolation, "points must fit a finite float",
         lambda r: (r.winner_points > sys.float_info.max)
         | (r.loss_points > sys.float_info.max)),
        (InvariantViolation, "amounts must be >= 0",
         lambda r: (r.buy_in < 0) | (r.win_amt < 0)),
        (InvariantViolation, "actual_players <= max_players violated",
         lambda r: r.actual_players > r.max_players),
        (InvariantViolation, "deal_number >= 1 violated",
         lambda r: r.deal_number < 1),
        (InvariantViolation, "start <= end violated",
         lambda r: (r.game_start > r.game_end) | (r.deal_start > r.deal_end)),
    ),
}


def check_record(rec: Record) -> Record:
    """Return rec, or raise the error of the first invariant it breaks."""
    for error, message, broken in INVARIANTS[type(rec)]:
        if broken(rec):
            raise error(message)
    return rec


def _poker_outcomes(r) -> tuple:
    delta = PokerHandRecord.value_delta_bb.fget(r)  # r need not be a record
    return delta > 0, delta, r.voluntary_entry


def _rummy_outcomes(r) -> tuple:
    delta = np.where(r.is_winner, np.array(r.winner_points, float),
                     -np.array(r.loss_points, float))
    # A column of None that takes no memory.
    return r.is_winner, delta, np.broadcast_to(None, len(delta))


Record = Union[PokerHandRecord, RummyDealRecord]

# Each record type's timeline: the fields after game_start that order it, and
# its outcome columns (won, value_delta, voluntary_entry), computed from any
# object whose attributes are the type's fields as columns. Outcome documents
# the values.
TIMELINE = {
    PokerHandRecord: (("game_id",), _poker_outcomes),
    RummyDealRecord: (("game_id", "deal_number"), _rummy_outcomes),
}
