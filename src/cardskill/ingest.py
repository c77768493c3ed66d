"""CSV ingestion and timeline assembly.

Parsers read the CSV row by row and return every accepted record in one
list, so memory grows with the log. Rows failing validation are counted
and sampled (first 20 structured errors with line numbers), never fatal.
Only a bad header aborts a parse.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from .records import (
    POKER_COLUMNS,
    RUMMY_COLUMNS,
    PlayerTimeline,
    PokerHandRecord,
    Record,
    RecordError,
    RummyDealRecord,
    poker_outcome,
    rummy_outcome,
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


def _parse_log(stream, columns, validate) -> Tuple[list, IngestStats]:
    if isinstance(stream, (bytes, bytearray)):
        stream = io.BytesIO(stream)
    text = io.TextIOWrapper(stream, encoding="utf-8", newline="")
    reader = csv.reader(text)
    header = [h.strip() for h in next(reader, [])]
    missing = [c for c in columns if c not in header]
    if missing:
        raise HeaderMismatch(missing)
    index = {name: header.index(name) for name in columns}

    stats = IngestStats()
    out = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        stats.rows_read += 1
        raw: Mapping[str, str] = {
            name: row[i] if i < len(row) else "" for name, i in index.items()
        }
        try:
            out.append(validate(raw))
        except RecordError as exc:
            stats.record_error(line_no, exc)
        else:
            stats.rows_accepted += 1
    return out, stats


def parse_poker_log(stream) -> Tuple[List[PokerHandRecord], IngestStats]:
    """Parse a poker hand-history CSV. stream: bytes or binary file."""
    return _parse_log(stream, POKER_COLUMNS, validate_poker_record)


def parse_rummy_log(stream) -> Tuple[List[RummyDealRecord], IngestStats]:
    """Parse a rummy deal-log CSV. stream: bytes or binary file."""
    return _parse_log(stream, RUMMY_COLUMNS, validate_rummy_record)


def _bucket(max_players: int) -> Union[int, str]:
    return max_players if max_players in TABLE_SIZE_BUCKETS else OTHER_BUCKET


TimelineMap = Dict[Union[int, str], Dict[str, PlayerTimeline]]


def build_timelines(records: Iterable[Record]) -> TimelineMap:
    """Group validated records into per-player, per-table-size timelines.

    Ordering within a timeline is (game_start, game_id, deal_number);
    construction is permutation-invariant in the input order. Table sizes
    outside {2, 3, 6} land in the "other" bucket rather than being dropped.
    """
    staged: Dict[Union[int, str], Dict[str, list]] = {}
    for rec in records:
        if isinstance(rec, PokerHandRecord):
            outcome = poker_outcome(rec)
            sort_key = (rec.game_start, rec.game_id, 0)
        elif isinstance(rec, RummyDealRecord):
            outcome = rummy_outcome(rec)
            sort_key = (rec.game_start, rec.game_id, rec.deal_number)
        else:
            raise TypeError(f"unsupported record type: {type(rec).__name__}")
        bucket = _bucket(rec.max_players)
        staged.setdefault(bucket, {}).setdefault(rec.user_id, []).append(
            (sort_key, outcome)
        )

    result: TimelineMap = {}
    for bucket, players in staged.items():
        result[bucket] = {}
        for user_id, keyed in players.items():
            keyed.sort(key=lambda kv: kv[0])
            result[bucket][user_id] = PlayerTimeline(
                user_id=user_id,
                table_size=bucket,
                outcomes=tuple(o for _, o in keyed),
            )
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

