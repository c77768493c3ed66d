"""CSV ingestion and timeline assembly.

Parsers read the CSV in chunks of CHUNK_ROWS lines. A plain chunk (no quote,
no CR, no line over csv.field_size_limit(), one comma fewer than the header
has columns on every line) is split with one str.split(","); from the first
chunk that is not plain, csv.reader reads the rest in chunks of CHUNK_ROWS
records. Either way the chunk's column table is converted a column at a
time, each into a numpy array: one map() per column, a dict lookup for
enums and 0/1 flags, and one parse per distinct int or timestamp text where
the chunk repeats its texts.
records.INVARIANTS is then tested over the chunk's columns as one mask. A
row that the column pass or the mask rejects goes to the row validator
(records.validate_*), which alone decides it and words its error, so the
rows, counts and messages are those of a row-by-row parse. The accepted
rows are returned as numpy columns (Rows), with no record per row and no
object per row but its text ids; memory still grows with the log. Rows
failing validation are counted and sampled (first 20 structured errors with
line numbers), never fatal. A leading UTF-8 byte-order mark is skipped.
Only a bad header, text that is not UTF-8 or a field longer than
csv.field_size_limit() (csv.Error) aborts a parse.

build_cohort and build_timelines select the rows of one table size, code
their players in user-id order, sort the rows at once by player and
game_start and order tied rows by their type's fields in records.TIMELINE.
build_cohort hands the sorted outcome columns to gather_cohort, which keeps
them as a Cohort with no object per outcome, and build_timelines to
assemble_timelines, as simgen does with the simulator's rows. The latter
codes each row's outcome by the exact bits of its fields and builds one
Outcome per distinct outcome, which all its rows share. analyze and the
statistics read a Cohort as one run of all its players, and
filter_min_games takes and gives one.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from .records import (
    FIELDS,
    INVARIANTS,
    TIMELINE,
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
    some text fails or an int does not fit dtype, text by text, with each
    failing row put in bad and 0 in its place. The column is an array of
    dtype, or of objects if an int does not fit it."""
    def convert(texts, bad: Set[int]):
        try:
            return np.fromiter(map(parse, texts), dtype, len(texts))
        except (ValueError, KeyError, OverflowError):
            pass
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


def _floats(texts, bad: Set[int]) -> np.ndarray:
    """_mapped(float, float), with each row whose value is not finite put
    in bad."""
    values = _mapped(float, float)(texts, bad)
    bad.update(np.flatnonzero(~np.isfinite(values)).tolist())
    return values


def _parsed(parse, dtype) -> Callable:
    """_mapped(parse, dtype), but parsing each distinct text once when the
    column has at most half as many distinct texts as rows, as a few-valued
    int column or the repeated timestamps of a log has. A text that parse
    rejects is missing from the memo and fails the lookup."""
    def convert(texts, bad: Set[int]):
        distinct = set(texts)
        if 2 * len(distinct) > len(texts):
            return _mapped(parse, dtype)(texts, bad)
        memo = {}
        for text in distinct:
            try:
                memo[text] = parse(text)
            except ValueError:
                pass
        return _mapped(memo.__getitem__, dtype)(texts, bad)
    return convert


def _lookup(enum_cls) -> Callable:
    return _mapped({m.value: m for m in enum_cls}.__getitem__)


# The column converter of each field kind; an Enum's is _lookup(kind). Each
# takes exactly the texts that its field's row validator takes unchanged. A
# text the validator would strip or reject sends its row to the validator.
# Each gives the array type that Rows holds for its kind.
_CONVERTERS = {str: _texts, float: _floats, int: _parsed(int, np.int64),
               bool: _mapped({"1": True, "0": False}.__getitem__, bool),
               Millis: _parsed(parse_timestamp, np.int64)}


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
    their own dtype, Millis fields int64 and int fields int64, or objects if
    an int does not fit. Only str and Enum fields hold objects.

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
    text = io.TextIOWrapper(stream, encoding="utf-8-sig", newline="")
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


# Outcomes built from one set of Python lists: the lists' memory is bounded
# by the block, not by the log.
OUTCOME_BLOCK = 4096


@dataclass(frozen=True, eq=False)
class Cohort:
    """The players at one table size as columns, with no object per
    outcome: users in user-id order, and player i's outcomes, in timeline
    order, at rows bounds[i]:bounds[i + 1] of columns, an Outcome whose
    fields are arrays: won (bool), value_delta (float), timestamp (int64 ms)
    and voluntary_entry (float: 1.0, 0.0, or nan for None, as in rummy).
    The statistics read it whole, as one run. len() counts players;
    equality is identity."""

    users: List[str]
    bounds: np.ndarray
    columns: Outcome

    def __len__(self) -> int:
        return len(self.users)

    def games(self) -> np.ndarray:
        return np.diff(self.bounds)

    def where(self, keep: np.ndarray) -> "Cohort":
        """The players flagged in keep, as copies."""
        rows = np.repeat(keep, self.games())
        return Cohort([u for u, k in zip(self.users, keep.tolist()) if k],
                      np.concatenate(([0], np.cumsum(self.games()[keep]))),
                      Outcome._make(c[rows] for c in self.columns))


def _coded(values: list) -> Tuple[list, np.ndarray]:
    """The distinct values, sorted, and the index of each value among
    them."""
    index = {v: i for i, v in enumerate(sorted(set(values)))}
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


def _selected(table_size: int, parts: Tuple[Rows, ...]
              ) -> Tuple[list, list, np.ndarray, Outcome]:
    """The rows of parts whose max_players is table_size, as
    assemble_timelines and gather_cohort take them: their users, in user-id
    order, the number of rows of each, the order of the rows (by user, then
    by game_start and then by the fields named in their type's TIMELINE
    ties, stably, parts taken in argument order) and their outcome columns
    in log order. Parts of two record types raise TypeError."""
    keep = _Joined(parts).max_players == table_size
    cols = _Joined(parts, None if keep.all() else keep)
    ties, outcome_columns = TIMELINE[cols.record]
    users, code = _coded(cols.user_id.tolist())
    order = _sorted_rows(code, cols.game_start, cols, ties)
    won, delta, voluntary = outcome_columns(cols)
    return (users, np.bincount(code, minlength=len(users)).tolist(), order,
            Outcome(won, delta, cols.game_start, voluntary))


def _shared_codes(won: np.ndarray, delta: np.ndarray, stamp: np.ndarray,
                  voluntary: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """A row of each distinct outcome of the rows, told apart by the exact
    bits of their fields (so -0.0 and 0.0 differ), and each row's index
    among them."""
    key = np.zeros(len(won), np.int64)  # ends under 6 * rows**2
    for column in (delta.view(np.int64), stamp):
        # With return_inverse, np.unique sorts rather than hashes: faster.
        values, code = np.unique(column, return_inverse=True)
        key *= len(values)
        key += code
        del code
    key *= 2
    key += won
    key *= 3
    key += (voluntary if voluntary.dtype == bool else
            np.where(np.equal(voluntary, None), 2, voluntary.astype(bool)))
    values, code = np.unique(key, return_inverse=True)
    first = np.empty(len(values), np.intp)
    first[code] = np.arange(len(code))
    return first, code


def _blocks(rows: np.ndarray, read: Callable[[np.ndarray], list]) -> Iterator:
    """read(part) for each OUTCOME_BLOCK rows of rows, chained."""
    return itertools.chain.from_iterable(
        read(rows[first:first + OUTCOME_BLOCK])
        for first in range(0, len(rows), OUTCOME_BLOCK))


def assemble_timelines(table_size: int, users: list, counts: list,
                       order: np.ndarray, columns: Outcome
                       ) -> Dict[str, PlayerTimeline]:
    """The table_size timelines of users, in order: each takes the next of
    counts rows of order. columns is an Outcome of the rows' outcome
    columns: won (bool), value_delta (float), timestamp (int64) and
    voluntary_entry (bool, or objects: True, False or None). The outcomes
    have Python bool, float, int and None fields.

    One Outcome is built per distinct outcome, from a row of it, and every
    row of it refers to that one; both OUTCOME_BLOCK rows at a time. So
    equal outcomes may be one object: never rely on `is`."""
    first, code = _shared_codes(*columns)

    def made(rows: np.ndarray) -> Iterator[Outcome]:
        # tuple.__new__ skips NamedTuple's Python-level __new__
        return map(tuple.__new__, itertools.repeat(Outcome),
                   zip(*(c[rows].tolist() for c in columns)))
    shared = np.fromiter(_blocks(first, made), object, len(first))
    outcomes = _blocks(code[order], lambda rows: shared[rows].tolist())
    del first, code
    return {user: PlayerTimeline(user, table_size,
                                 tuple(itertools.islice(outcomes, count)))
            for user, count in zip(users, counts)}


def build_timelines(table_size: int, *parts: Rows
                    ) -> Dict[str, PlayerTimeline]:
    """The timelines of the players of parts at table_size, in user-id
    order, each sorted stably by game_start and then by its record type's
    fields in TIMELINE: rows with equal keys keep their order, parts taken
    in argument order. They hold the outcomes of build_cohort(table_size,
    *parts), in the same order. Parts of two record types raise
    TypeError."""
    return assemble_timelines(table_size, *_selected(table_size, parts))


def gather_cohort(users: list, counts: list, order: np.ndarray,
                  columns: Outcome) -> Cohort:
    """The Cohort of assemble_timelines' arguments but the table size, with
    no outcome object built."""
    won, delta, stamp, voluntary = columns
    return Cohort(users, np.cumsum([0] + counts), Outcome(
        won[order], delta[order], stamp[order],
        np.asarray(voluntary, float)[order]))


def build_cohort(table_size: int, *parts: Rows) -> Cohort:
    """The players of build_timelines(table_size, *parts) as a Cohort, with
    the same outcomes in the same order."""
    return gather_cohort(*_selected(table_size, parts))


def filter_min_games(cohort: Cohort, min_games: int,
                     max_games: Optional[int] = None) -> Cohort:
    """Keep players with min_games <= games <= max_games (exclusion, not
    truncation: a player over the cap is removed, their series untouched)."""
    if min_games < 1:
        raise ValueError("min_games must be >= 1")
    cap = math.inf if max_games is None else max_games
    games = cohort.games()
    return cohort.where((min_games <= games) & (games <= cap))
