"""CSV ingestion and timeline assembly.

Parsers read the CSV in chunks of CHUNK_ROWS lines. A plain chunk (no quote,
no CR, no line over csv.field_size_limit(), one comma fewer than the header
has columns on every line) is split with one str.split(","); from the first
chunk that is not plain, csv.reader reads the rest in chunks of CHUNK_ROWS
records. Either way the chunk's column table is converted a column at a
time, each into a numpy array: one map() per column, a dict lookup for
enums and 0/1 flags, one parse per distinct timestamp text.
records.INVARIANTS is then tested over the chunk's columns as one mask. A
row that the column pass or the mask rejects goes to the row validator
(records.validate_*), which alone decides it and words its error, so the
rows, counts and messages are those of a row-by-row parse. The accepted
rows are returned as numpy columns (Rows), with no record per row; memory
still grows with the log. Rows failing validation are counted and sampled
(first 20 structured errors with line numbers), never fatal. Only a bad
header, text that is not UTF-8 or a field longer than
csv.field_size_limit() (csv.Error) aborts a parse.

build_timelines codes the players, sorts all rows at once by player and
game_start, orders tied rows by their type's fields in records.TIMELINE and
builds every outcome from the sorted columns through assemble_timelines,
which simgen.simulate_timelines calls too. build_cohort sorts one table-size
bucket's rows the same way into a Cohort: the outcome columns, player by
player, with no object per outcome. analyze and the statistics read that.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import reduce
from typing import (Callable, Dict, Iterator, List, Optional, Set, Tuple,
                    Union)

import numpy as np

from .records import (
    FIELDS,
    INVARIANTS,
    TIMELINE,
    FieldTypeError,
    Millis,
    Outcome,
    PlayerTimeline,
    PokerHandRecord,
    Record,
    RecordError,
    RummyDealRecord,
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
            # A traceback, its own or its context's, would keep the frames
            # of the parse alive, and with them every chunk it holds.
            error.__traceback__ = error.__context__ = None
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


def _mapped(parse, dtype=object) -> Callable:
    """A column converter: parse over the column in one map() call or, if
    some text fails, text by text, with each failing row put in bad and 0 in
    its place. The column is an array of dtype, or of objects if an int
    does not fit it."""
    def convert(texts, bad: Set[int]):
        try:
            values = list(map(parse, texts))
        except (ValueError, KeyError):
            values = []
            for i, text in enumerate(texts):
                try:
                    values.append(parse(text))
                except (ValueError, KeyError):
                    values.append(0)
                    bad.add(i)
        try:
            return np.fromiter(values, dtype, len(values))
        except OverflowError:
            return np.fromiter(values, object, len(values))
    return convert


def _texts(texts, bad: Set[int]) -> np.ndarray:
    if not all(texts):
        bad.update(i for i, text in enumerate(texts) if not text)
    return np.fromiter(texts, object, len(texts))


def _finite_float(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(text)
    return x


def _floats(texts, bad: Set[int]) -> np.ndarray:
    # _mapped(_finite_float, float), with one finiteness test per column at
    # best.
    try:
        values = np.fromiter(map(float, texts), float, len(texts))
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    return _mapped(_finite_float, float)(texts, bad)


def _timestamps(texts, bad: Set[int]) -> np.ndarray:
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
# Each gives the array type that Rows holds for its kind.
_CONVERTERS = {str: _texts, float: _floats, int: _mapped(int, np.int64),
               bool: _mapped({"1": True, "0": False}.__getitem__, bool),
               Millis: _timestamps}


def _broken(columns: Record) -> np.ndarray:
    """The rows of columns that break one of their type's INVARIANTS."""
    with np.errstate(all="ignore"):  # such a row's inf or nan flags it
        broken = reduce(operator.or_, (test(columns) for _, _, test
                                       in INVARIANTS[type(columns)]))
    return np.asarray(broken, bool)


def _joined(pieces: List[np.ndarray]) -> np.ndarray:
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


class Rows:
    """One record type's accepted rows as columns, in log order: columns is
    a record whose fields are numpy arrays. float and bool fields are of
    their own dtype and int fields int64, or objects if an int does not fit.
    str, Enum and Millis fields hold objects; the rows of a chunk with one
    timestamp text share its int, as do the outcomes built from them.

    len(), iteration and indexing give the records that the row validator
    gives, with the same field types.
    """

    __slots__ = ("record", "columns")

    def __init__(self, record: type, columns: Record):
        self.record, self.columns = record, columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self) -> Iterator[Record]:
        return map(self.record, *(c.tolist() for c in self.columns))

    def __getitem__(self, i: int) -> Record:
        return self.record._make(c.item(i) for c in self.columns)


class _Joined:
    """The columns of several Rows of one record type by field name, each
    joined on first use, so the fields no one reads are never copied; with
    keep, only the rows where keep is set. Two record types raise
    TypeError."""

    def __init__(self, parts: Tuple[Rows, ...],
                 keep: Optional[np.ndarray] = None):
        if len({p.record for p in parts}) > 1:
            raise TypeError("timelines take rows of one record type")
        self.parts, self.keep, self.record = parts, keep, parts[0].record

    def __getattr__(self, name: str):
        column = _joined([getattr(p.columns, name) for p in self.parts])
        if self.keep is not None:
            column = column[self.keep]
        setattr(self, name, column)
        return column


def _plain_columns(lines: List[str], width: int,
                   n: int) -> Optional[List[list]]:
    """Columns 0..width-1 of lines split at every comma if lines is a plain
    chunk, whose lines csv.reader reads as their n texts between commas."""
    chunk = "".join(lines)
    if ('"' in chunk or "\r" in chunk
            or max(map(len, lines), default=0) > csv.field_size_limit()
            or set(map(str.count, lines, itertools.repeat(","))) != {n - 1}):
        return None
    flat = chunk.replace("\n", ",").split(",")
    stop = len(lines) * n  # past the blank left by a final newline
    return [flat[j:stop:n] for j in range(width)]


def _parse_log(stream, record: type,
               validate: Callable) -> Tuple[Rows, IngestStats]:
    if isinstance(stream, (bytes, bytearray)):
        stream = io.BytesIO(stream)
    text = io.TextIOWrapper(stream, encoding="utf-8", newline="")
    try:
        return _parse_text(text, record, validate)
    finally:
        text.detach()  # a wrapper that is let go closes the stream it wraps


def _parse_text(text, record: type,
                validate: Callable) -> Tuple[Rows, IngestStats]:
    header = [h.strip() for h in next(csv.reader(text), [])]
    missing = [c for c in record._fields if c not in header]
    if missing:
        raise HeaderMismatch(missing)
    index = {name: header.index(name) for name in record._fields}
    width = max(index.values()) + 1
    converters = [(index[name], _CONVERTERS.get(kind) or _lookup(kind))
                  for name, kind, _, _ in FIELDS[record]]

    stats = IngestStats()
    # Each column's accepted pieces, from an empty one of its type on.
    pieces = [[convert((), set())] for _, convert in converters]
    line_no = 2  # of the next csv record: the header is line 1
    reader = None  # csv.reader from the first chunk that is not plain on
    while True:
        if reader is None:
            block = list(itertools.islice(text, CHUNK_ROWS))
            table = _plain_columns(block, width, len(header))
            if table is None:
                reader = csv.reader(itertools.chain(block, text))
        if reader is not None:
            block, table = list(itertools.islice(reader, CHUNK_ROWS)), None
        if not block:
            break
        lines = range(line_no, line_no + len(block))
        line_no += len(block)
        if table is None:
            if not all(block):  # blank records keep their line numbers
                lines = [n for n, row in zip(lines, block) if row]
                block = [row for row in block if row]
                if not block:
                    continue
            # Short rows are padded with blanks, which no converter accepts.
            if min(map(len, block)) < width:
                block = [row + [""] * (width - len(row)) for row in block]
            table = list(zip(*block))
        stats.rows_read += len(lines)

        bad: Set[int] = set()
        columns = [convert(table[j], bad) for j, convert in converters]
        flagged = _broken(record._make(columns))
        flagged[list(bad)] = True
        keep = ~flagged
        # The row validator decides every row the column pass did not
        # accept, and words every error; a row it accepts keeps its place.
        for i in np.flatnonzero(flagged).tolist():
            try:
                rec = validate({name: table[j][i] for name, j in index.items()})
            except RecordError as exc:
                stats.record_error(lines[i], exc)
                continue
            for column, value in zip(columns, rec):
                column[i] = value
            keep[i] = True
        all_kept = keep.all()
        for piece, column in zip(pieces, columns):
            piece.append(column if all_kept else column[keep])
    out = Rows(record, record._make(map(_joined, pieces)))
    stats.rows_accepted = len(out)
    return out, stats


def parse_poker_log(stream) -> Tuple[Rows, IngestStats]:
    """Parse a poker hand-history CSV. stream: bytes or binary file, which
    is left open."""
    return _parse_log(stream, PokerHandRecord, validate_poker_record)


def parse_rummy_log(stream) -> Tuple[Rows, IngestStats]:
    """Parse a rummy deal-log CSV. stream: bytes or binary file, which is
    left open."""
    return _parse_log(stream, RummyDealRecord, validate_rummy_record)


TimelineMap = Dict[Union[int, str], Dict[str, PlayerTimeline]]

# Outcomes built from one set of Python lists: the lists' memory is bounded
# by the block, not by the log.
OUTCOME_BLOCK = 4096


@dataclass(frozen=True, eq=False)
class Cohort:
    """One table-size bucket's players as columns, with no object per
    outcome: users in user-id order, and player i's outcomes, in timeline
    order, at rows bounds[i]:bounds[i + 1] of columns, an Outcome whose
    fields are arrays: won (bool), value_delta (float), timestamp (int64 ms)
    and voluntary_entry (float: 1.0, 0.0, or nan for None, as in rummy).
    len() counts players; equality is identity."""

    users: List[str]
    bounds: np.ndarray
    columns: Outcome

    def __len__(self) -> int:
        return len(self.users)

    def games(self) -> np.ndarray:
        return np.diff(self.bounds)

    def blocks(self, size: int) -> Iterator["Cohort"]:
        """Runs of whole players, each ended by the first player to bring it
        to size outcomes, as views of these columns."""
        first = 0
        while first < len(self):
            last = min(np.searchsorted(self.bounds, self.bounds[first] + size),
                       len(self))
            a, b = self.bounds[first], self.bounds[last]
            yield Cohort(self.users[first:last],
                         self.bounds[first:last + 1] - a,
                         Outcome._make(c[a:b] for c in self.columns))
            first = last

    def where(self, keep: np.ndarray) -> "Cohort":
        """The players flagged in keep, as copies."""
        rows = np.repeat(keep, self.games())
        return Cohort([u for u, k in zip(self.users, keep.tolist()) if k],
                      np.concatenate(([0], np.cumsum(self.games()[keep]))),
                      Outcome._make(c[rows] for c in self.columns))


def _coded(values: list, distinct=dict.fromkeys) -> Tuple[list, np.ndarray]:
    """The distinct values, in order of first appearance or as distinct
    lists them, and the index of each value among them."""
    index = {v: i for i, v in enumerate(distinct(values))}
    return list(index), np.fromiter(map(index.__getitem__, values), np.intp,
                                    len(values))


def _sorted_rows(code: np.ndarray, start: np.ndarray, cols,
                 ties: Tuple[str, ...]) -> np.ndarray:
    """The order of the rows: by code, then by start (game_start) and then
    by the fields of cols named in ties, stably."""
    order = np.lexsort((start, code))
    # Sort each run of equal code and start by ties, in Python.
    code, start = code[order], start[order]
    same = (code[1:] == code[:-1]) & (start[1:] == start[:-1])
    edges = np.flatnonzero(np.diff(same, prepend=False, append=False))
    fields = [getattr(cols, name) for name in ties] if len(edges) else []

    def key(i: int) -> list:
        return [f[i] for f in fields]

    for run_first, run_last in zip(edges[::2].tolist(), edges[1::2].tolist()):
        run = order[run_first:run_last + 1]
        run[:] = sorted(run.tolist(), key=key)
    return order


def _grouped(cols, ties: Tuple[str, ...]) -> Tuple[list, list, np.ndarray]:
    """The (bucket, user_id) pairs of cols in order of first appearance,
    the number of rows of each, and the order of the rows: by pair, then by
    game_start and then by the fields named in ties, stably."""
    # Coded from lists, so that a table size is a Python int, not np.int64.
    sizes, size = _coded(cols.max_players.tolist())
    buckets, bucket = _coded([s if s in TABLE_SIZE_BUCKETS else OTHER_BUCKET
                              for s in sizes])
    users, user = _coded(cols.user_id.tolist())
    pairs, code = _coded((bucket[size] * len(users) + user).tolist())
    order = _sorted_rows(code, np.array(cols.game_start, np.int64), cols, ties)
    groups = [(buckets[p // len(users)], users[p % len(users)])
              for p in pairs]
    return groups, np.bincount(code, minlength=len(groups)).tolist(), order


def assemble_timelines(groups: list, counts: list, order: np.ndarray,
                       read: Callable[[np.ndarray], tuple]) -> TimelineMap:
    """The timelines of groups, (bucket, user_id) pairs, in order: each
    takes the next of counts rows of order. read(rows) gives the outcome
    columns (won, value_delta, timestamp, voluntary_entry) of an array of
    rows as lists; it is called OUTCOME_BLOCK rows at a time."""
    def block(first: int) -> Iterator[Outcome]:
        # tuple.__new__ skips NamedTuple's Python-level __new__
        return map(tuple.__new__, itertools.repeat(Outcome),
                   zip(*read(order[first:first + OUTCOME_BLOCK])))
    outcomes = itertools.chain.from_iterable(
        map(block, range(0, len(order), OUTCOME_BLOCK)))
    result: TimelineMap = {}
    for (bucket, user), count in zip(groups, counts):
        result.setdefault(bucket, {})[user] = PlayerTimeline(
            user, bucket, tuple(itertools.islice(outcomes, count)))
    return result


def build_timelines(*parts: Rows) -> TimelineMap:
    """Group rows into per-player, per-table-size timelines, each sorted
    stably by game_start and then by its record type's fields in TIMELINE:
    rows with equal keys keep their order, parts taken in argument order.
    Buckets and players come in order of first appearance. Table sizes
    outside {2, 3, 6} land in the "other" bucket. Parts of two record types
    raise TypeError."""
    cols = _Joined(parts)
    ties, outcome_columns = TIMELINE[cols.record]
    groups, counts, order = _grouped(cols, ties)
    won, delta, voluntary = outcome_columns(cols)
    columns = (won, delta, cols.game_start, voluntary)

    def read(rows: np.ndarray) -> list:
        return [c[rows].tolist() for c in columns]
    return assemble_timelines(groups, counts, order, read)


def build_cohort(table_size: int, *parts: Rows) -> Cohort:
    """The players of build_timelines(*parts)[table_size] as a Cohort, with
    the same outcomes in the same order: only that bucket's rows are
    grouped and sorted, and no outcome object is built."""
    keep = _Joined(parts).max_players == table_size
    cols = _Joined(parts, None if keep.all() else keep)
    ties, outcome_columns = TIMELINE[cols.record]
    users, code = _coded(cols.user_id.tolist(), lambda v: sorted(set(v)))
    start = np.array(cols.game_start, np.int64)
    order = _sorted_rows(code, start, cols, ties)
    won, delta, voluntary = outcome_columns(cols)
    games = np.bincount(code, minlength=len(users))
    return Cohort(users, np.concatenate(([0], np.cumsum(games))), Outcome(
        np.asarray(won, bool)[order], np.asarray(delta)[order], start[order],
        np.asarray(voluntary, float)[order]))


def filter_min_games(
    timelines: Union[Cohort, Dict[str, PlayerTimeline]],
    min_games: int,
    max_games: Optional[int] = None,
) -> Union[Cohort, Dict[str, PlayerTimeline]]:
    """Keep players with min_games <= games <= max_games (exclusion, not
    truncation: a player over the cap is removed, their series untouched)."""
    if min_games < 1:
        raise ValueError("min_games must be >= 1")
    cap = math.inf if max_games is None else max_games
    if isinstance(timelines, Cohort):
        games = timelines.games()
        return timelines.where((min_games <= games) & (games <= cap))
    return {user_id: tl for user_id, tl in timelines.items()
            if min_games <= len(tl.outcomes) <= cap}
