"""CSV ingestion and timeline assembly.

Parsers read the CSV in chunks of CHUNK_ROWS records and convert each chunk
a column at a time: one map() per column, a dict lookup for enums and 0/1
flags, one parse per distinct timestamp text. A row that this column pass or
the invariant check rejects goes to the row validator (records.validate_*),
which alone decides it and words its error, so the records, counts and
messages are those of a row-by-row parse. Every accepted record is returned
in one list, so memory grows with the log. Rows failing validation are
counted and sampled (first 20 structured errors with line numbers), never
fatal. Only a bad header, text that is not UTF-8 or a field longer than
csv.field_size_limit() (csv.Error) aborts a parse.

build_timelines groups the records per player, sorts each group by its
type's order key (records.TIMELINE) and maps the group to outcomes at once.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple, Union

from .records import (
    FIELDS,
    FieldTypeError,
    Millis,
    PlayerTimeline,
    PokerHandRecord,
    Record,
    RecordError,
    RummyDealRecord,
    TIMELINE,
    check_poker_record,
    check_rummy_record,
    parse_timestamp,
    validate_poker_record,
    validate_rummy_record,
)

ERROR_SAMPLE_LIMIT = 20

TABLE_SIZE_BUCKETS = (2, 3, 6)
OTHER_BUCKET = "other"


class HeaderMismatch(ValueError):
    def __init__(self, missing: List[str]):
        super().__init__(f"header missing required columns: {', '.join(missing)}")
        self.missing = missing


@dataclass
class RowError:
    line: int
    error: RecordError

    def __str__(self) -> str:
        return f"line {self.line}: {self.error}"


@dataclass
class IngestStats:
    rows_read: int = 0
    rows_accepted: int = 0
    rows_rejected: int = 0
    first_error_samples: List[RowError] = field(default_factory=list)

    def record_error(self, line: int, error: RecordError) -> None:
        self.rows_rejected += 1
        if len(self.first_error_samples) < ERROR_SAMPLE_LIMIT:
            self.first_error_samples.append(RowError(line, error))

    def as_dict(self) -> dict:
        return {
            "rows_read": self.rows_read,
            "rows_accepted": self.rows_accepted,
            "rows_rejected": self.rows_rejected,
            "first_error_samples": [str(e) for e in self.first_error_samples],
        }


# Rows per column pass. Larger chunks hold more row lists at once and parse
# no faster: 65536 rows raised the peak RSS of `cardskill ingest` on a
# 200k-row poker log from 161 to 222 MB.
CHUNK_ROWS = 8192


def _mapped(parse) -> Callable:
    """A column converter: parse over the column in one map() call or, if
    some text fails, text by text, with each failing row put in bad."""
    def convert(texts, bad: Set[int]) -> list:
        try:
            return list(map(parse, texts))
        except (ValueError, KeyError):
            pass
        values = []
        for i, text in enumerate(texts):
            try:
                values.append(parse(text))
            except (ValueError, KeyError):
                values.append(None)
                bad.add(i)
        return values
    return convert


def _texts(texts, bad: Set[int]):
    if not all(texts):
        bad.update(i for i, text in enumerate(texts) if not text)
    return texts


def _finite_float(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(text)
    return x


def _floats(texts, bad: Set[int]) -> list:
    # _mapped(_finite_float), with one finiteness test per column at best.
    try:
        values = list(map(float, texts))
        if math.isfinite(sum(values)):  # no inf or nan among them
            return values
    except ValueError:
        pass
    return _mapped(_finite_float)(texts, bad)


def _timestamps(texts, bad: Set[int]) -> list:
    # Logs repeat their timestamps, so each distinct text is parsed once.
    memo = {}
    for text in set(texts):
        try:
            memo[text] = parse_timestamp(text)
        except FieldTypeError:
            pass
    return _mapped(memo.__getitem__)(texts, bad)


def _lookup(enum_cls) -> Callable:
    return _mapped({m.value: m for m in enum_cls}.__getitem__)


# The column converter of each field kind; an Enum's is _lookup(kind). Each
# takes exactly the texts that its field's row validator takes unchanged. A
# text the validator would strip or reject sends its row to the validator.
_CONVERTERS = {str: _texts, float: _floats, int: _mapped(int),
               bool: _mapped({"1": True, "0": False}.__getitem__),
               Millis: _timestamps}


def _parse_log(stream, record: type, check: Callable,
               validate: Callable) -> Tuple[list, IngestStats]:
    if isinstance(stream, (bytes, bytearray)):
        stream = io.BytesIO(stream)
    text = io.TextIOWrapper(stream, encoding="utf-8", newline="")
    reader = csv.reader(text)
    header = [h.strip() for h in next(reader, [])]
    missing = [c for c in record._fields if c not in header]
    if missing:
        raise HeaderMismatch(missing)
    index = {name: header.index(name) for name in record._fields}
    width = max(index.values()) + 1
    converters = [(index[name], _CONVERTERS.get(kind) or _lookup(kind))
                  for name, kind, _, _ in FIELDS[record]]

    stats = IngestStats()
    out = []
    line_no = 2  # of the next csv record: the header is line 1
    while True:
        block = list(itertools.islice(reader, CHUNK_ROWS))
        if not block:
            break
        if all(block):
            rows, lines = block, range(line_no, line_no + len(block))
        else:  # blank records are skipped but keep their line numbers
            rows = [row for row in block if row]
            lines = [n for n, row in enumerate(block, line_no) if row]
        line_no += len(block)
        stats.rows_read += len(rows)
        if not rows:
            continue

        # Short rows are padded with blanks, which no converter accepts.
        full = rows if min(map(len, rows)) >= width else [
            row + [""] * (width - len(row)) for row in rows]
        table = list(zip(*full))
        bad: Set[int] = set()
        fields = [convert(table[j], bad) for j, convert in converters]
        for i, rec in enumerate(map(record, *fields)):
            if i not in bad:
                try:
                    out.append(check(rec))
                    continue
                except RecordError:
                    pass
            # The row validator decides every row the column pass did not
            # accept, and words every error.
            row = rows[i]
            raw = {name: row[j] if j < len(row) else ""
                   for name, j in index.items()}
            try:
                out.append(validate(raw))
            except RecordError as exc:
                stats.record_error(lines[i], exc)
    stats.rows_accepted = len(out)
    return out, stats


def parse_poker_log(stream) -> Tuple[List[PokerHandRecord], IngestStats]:
    """Parse a poker hand-history CSV. stream: bytes or binary file."""
    return _parse_log(stream, PokerHandRecord, check_poker_record,
                      validate_poker_record)


def parse_rummy_log(stream) -> Tuple[List[RummyDealRecord], IngestStats]:
    """Parse a rummy deal-log CSV. stream: bytes or binary file."""
    return _parse_log(stream, RummyDealRecord, check_rummy_record,
                      validate_rummy_record)


TimelineMap = Dict[Union[int, str], Dict[str, PlayerTimeline]]


def build_timelines(records: Iterable[Record]) -> TimelineMap:
    """Group validated records into per-player, per-table-size timelines,
    each sorted stably by its record type's order key in TIMELINE: records
    with equal keys keep their input order. Table sizes outside {2, 3, 6}
    land in the "other" bucket. A record of another type, or a player with
    both poker and rummy records in one bucket, raises TypeError."""
    staged: Dict[tuple, list] = {}
    for rec in records:
        if type(rec) not in TIMELINE:
            raise TypeError(f"unsupported record type: {type(rec).__name__}")
        size = rec.max_players
        bucket = size if size in TABLE_SIZE_BUCKETS else OTHER_BUCKET
        staged.setdefault((type(rec), bucket, rec.user_id), []).append(rec)
    result: TimelineMap = {}
    for (kind, bucket, user_id), recs in staged.items():
        players = result.setdefault(bucket, {})
        if user_id in players:
            raise TypeError(f"{kind.__name__} records mixed with another type "
                            f"for player {user_id!r} at table size {bucket!r}")
        order, outcome = TIMELINE[kind]
        recs.sort(key=order)
        players[user_id] = PlayerTimeline(user_id, bucket,
                                          tuple(map(outcome, recs)))
    return result


def filter_min_games(
    timelines: Dict[str, PlayerTimeline],
    min_games: int,
    max_games: Optional[int] = None,
) -> Dict[str, PlayerTimeline]:
    """Keep players with min_games <= games <= max_games (exclusion, not
    truncation: a player over the cap is removed, their series untouched)."""
    if min_games < 1:
        raise ValueError("min_games must be >= 1")
    cap = math.inf if max_games is None else max_games
    return {user_id: tl for user_id, tl in timelines.items()
            if min_games <= len(tl.outcomes) <= cap}

