import csv
import io
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cardskill import ingest
from cardskill.ingest import (
    HeaderMismatch,
    IngestStats,
    Rows,
    build_timelines,
    filter_min_games,
    parse_poker_log,
    parse_rummy_log,
)
from cardskill.records import (
    FIELDS,
    POKER_COLUMNS,
    RUMMY_COLUMNS,
    Millis,
    PlayerTimeline,
    PokerHandRecord,
    RecordError,
    validate_poker_record,
    validate_rummy_record,
)
from cardskill.simgen import SimConfig, simulate, simulate_timelines

from helpers import POKER_ROW, RUMMY_ROW, poker_outcome, rummy_outcome


def poker_csv(rows):
    out = [",".join(POKER_COLUMNS)]
    for row in rows:
        out.append(",".join(row[c] for c in POKER_COLUMNS))
    return ("\n".join(out) + "\n").encode()


def rummy_csv(rows):
    out = [",".join(RUMMY_COLUMNS)]
    for row in rows:
        out.append(",".join(row[c] for c in RUMMY_COLUMNS))
    return ("\n".join(out) + "\n").encode()


def _rows(records):
    """Rows holding records, parsed from the log that to_row writes."""
    record = type(records[0])
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(record._fields)
    writer.writerows(rec.to_row() for rec in records)
    parse = parse_poker_log if record is PokerHandRecord else parse_rummy_log
    rows, stats = parse(buf.getvalue().encode())
    assert stats.rows_rejected == 0 and list(rows) == records
    return rows


class TestParsePoker:
    def test_all_valid(self):
        recs, stats = parse_poker_log(poker_csv([POKER_ROW] * 3))
        assert len(recs) == 3
        assert stats.rows_read == 3
        assert stats.rows_accepted == 3
        assert stats.rows_rejected == 0

    def test_bad_row_collected_not_fatal(self):
        rows = [POKER_ROW, {**POKER_ROW, "big_blind": "0"}, POKER_ROW]
        recs, stats = parse_poker_log(poker_csv(rows))
        assert len(recs) == 2
        assert stats.rows_rejected == 1
        assert len(stats.first_error_samples) == 1
        assert stats.first_error_samples[0].line == 3

    def test_empty_file_valid_header(self):
        recs, stats = parse_poker_log(poker_csv([]))
        assert list(recs) == [] and len(recs) == 0
        assert stats.rows_read == 0

    def test_header_mismatch_fatal(self):
        data = b"user_id,game_id\nu1,g1\n"
        with pytest.raises(HeaderMismatch):
            parse_poker_log(data)

    def test_accepts_binary_stream(self):
        recs, _ = parse_poker_log(io.BytesIO(poker_csv([POKER_ROW])))
        assert len(recs) == 1

    def test_stats_balance(self):
        rows = [POKER_ROW, {**POKER_ROW, "num_players": "9"}]
        _, stats = parse_poker_log(poker_csv(rows))
        assert stats.rows_read == stats.rows_accepted + stats.rows_rejected


class TestParseRummy:
    def test_one_valid_deal(self):
        recs, stats = parse_rummy_log(rummy_csv([RUMMY_ROW]))
        assert len(recs) == 1 and stats.rows_rejected == 0

    def test_winner_contradiction_rejected(self):
        bad = {**RUMMY_ROW, "loss_points": "20"}
        recs, stats = parse_rummy_log(rummy_csv([bad]))
        assert list(recs) == [] and stats.rows_rejected == 1

    def test_header_missing_deal_id(self):
        cols = [c for c in RUMMY_COLUMNS if c != "deal_id"]
        data = (",".join(cols) + "\n").encode()
        with pytest.raises(HeaderMismatch) as exc:
            parse_rummy_log(data)
        assert "deal_id" in str(exc.value)


@pytest.mark.parametrize("parse,data,header_ok", [
    (parse_poker_log, poker_csv([POKER_ROW] * 2), True),
    (parse_rummy_log, rummy_csv([RUMMY_ROW]), True),
    (parse_poker_log, b"user_id,game_id\nu1,g1\n", False),
    (parse_rummy_log, b"user_id,deal_id\nu1,d1\n", False),
], ids=["poker", "rummy", "poker-header-mismatch", "rummy-header-mismatch"])
@pytest.mark.parametrize("opener", ["file", "bytesio"])
def test_parse_leaves_the_stream_open(tmp_path, parse, data, header_ok,
                                      opener):
    """The caller's stream stays open and can be read again, whether the
    parse returns or raises HeaderMismatch."""
    path = tmp_path / "log.csv"
    path.write_bytes(data)
    with (open(path, "rb") if opener == "file" else io.BytesIO(data)) as f:
        if header_ok:
            parse(f)
        else:
            with pytest.raises(HeaderMismatch):
                parse(f)
        assert not f.closed
        f.seek(0)
        assert f.read() == data


def test_rows_read_as_the_validator_records():
    """A row only the validator accepts keeps its place among the rows the
    column pass accepts; a table size beyond int64 is kept exactly."""
    texts = [POKER_ROW, {**POKER_ROW, "voluntary_entry": " 0"},
             {**POKER_ROW, "big_blind": "0"},
             {**POKER_ROW, "max_players": "9223372036854775808"}]
    rows, stats = parse_poker_log(poker_csv(texts))
    expect = [validate_poker_record(texts[i]) for i in (0, 1, 3)]
    assert stats.rows_rejected == 1 and len(rows) == 3
    assert isinstance(rows, Rows)
    assert repr(list(rows)) == repr(expect)
    assert [repr(rows[i]) for i in (0, 1, 2, -1)] == \
        [repr(r) for r in expect + expect[-1:]]
    assert len(build_timelines(rows)["other"]["u1"]) == 1


# The dtype of each field kind's Rows column; an Enum's is object.
_COLUMN_DTYPES = {str: object, float: np.float64, bool: np.bool_,
                  int: np.int64, Millis: object}


@pytest.mark.parametrize("parse,log,base", [
    (parse_poker_log, poker_csv, POKER_ROW),
    (parse_rummy_log, rummy_csv, RUMMY_ROW),
], ids=["poker", "rummy"])
def test_every_column_is_an_array(parse, log, base):
    rows, _ = parse(log([base, {**base, "max_players": "x"}, base]))
    assert len(rows) == 2
    for (name, kind, _, _), column in zip(FIELDS[rows.record], rows.columns):
        assert isinstance(column, np.ndarray), name
        assert column.dtype == _COLUMN_DTYPES.get(kind, object), name


def test_int_beyond_int64_in_a_later_chunk():
    """Chunks 1 and 2 of 7 rows hold int64 columns, chunk 3 a max_players
    beyond int64: the joined column holds Python ints in every chunk."""
    texts = [{**POKER_ROW, "game_id": f"g{i}"} for i in range(20)]
    texts[16]["max_players"] = str(2 ** 70)
    with mock.patch.object(ingest, "CHUNK_ROWS", 7):
        rows, stats = parse_poker_log(poker_csv(texts))
    assert stats.rows_rejected == 0
    assert rows.columns.max_players.dtype == object
    assert list(rows) == [validate_poker_record(t) for t in texts]
    ints = [name for name, kind, _, _ in FIELDS[PokerHandRecord]
            if kind is int]
    for rec in [*rows, *(rows[i] for i in range(len(rows)))]:
        for name in ints:
            assert type(getattr(rec, name)) is int, name
    assert rows[16].max_players == 2 ** 70


@pytest.mark.parametrize("game,table_size", [("poker", 2), ("rummy", 3)])
def test_parse_peak_memory_is_bounded_by_its_result(game, table_size):
    """The parse's tracemalloc peak stays within 3.2x of what the returned
    Rows keeps: the chunks in flight, not the log, set the excess."""
    data, _ = simulate(SimConfig(game=game, table_size=table_size,
                                 n_players=210, games_per_player=100,
                                 stagger_starts=True, seed=1))
    parse = parse_poker_log if game == "poker" else parse_rummy_log
    tracemalloc.start()
    try:
        rows, _ = parse(data)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) >= 20_900
    assert peak <= 3.2 * kept


def _poker_rows(user_id, n, start_hour=0):
    rows = []
    for i in range(n):
        rows.append({
            **POKER_ROW,
            "user_id": user_id,
            "game_id": f"g{start_hour + i:04d}",
            "game_start": f"2022-12-01T{(start_hour + i) % 24:02d}:00:00Z",
            "game_end": f"2022-12-01T{(start_hour + i) % 24:02d}:05:00Z",
        })
    return rows


class TestBuildTimelines:
    def test_orders_by_time(self):
        # hours 0, 1, 2 with deltas -5, 10, 1 bb, given latest first
        rows = [{**row, "chips_won": won} for row, won
                in zip(_poker_rows("a", 3), ("0", "30", "12"))]
        recs, _ = parse_poker_log(poker_csv(rows[::-1]))
        outcomes = build_timelines(recs)[6]["a"].outcomes
        stamps = [o.timestamp for o in outcomes]
        assert stamps == sorted(stamps) and len(set(stamps)) == 3
        assert [o.value_delta for o in outcomes] == [-5.0, 10.0, 1.0]

    def test_game_id_tiebreak_on_equal_timestamps(self):
        rows = [
            {**POKER_ROW, "game_id": "g2", "chips_won": "30"},
            {**POKER_ROW, "game_id": "g1"},
        ]
        recs, _ = parse_poker_log(poker_csv(rows))
        tls = build_timelines(recs)
        # g1 (-5 bb) before g2 (+10 bb)
        assert [o.value_delta for o in tls[6]["u1"].outcomes] == [-5.0, 10.0]

    def test_two_users_two_timelines(self):
        recs, _ = parse_poker_log(
            poker_csv(_poker_rows("a", 2) + _poker_rows("b", 2))
        )
        tls = build_timelines(recs)
        assert set(tls[6]) == {"a", "b"}

    def test_permutation_invariance(self):
        rows = _poker_rows("a", 5) + _poker_rows("b", 4)
        recs, _ = parse_poker_log(poker_csv(rows))
        base = build_timelines(recs)
        rng = random.Random(3)
        for _ in range(5):
            shuffled = list(recs)
            rng.shuffle(shuffled)
            assert build_timelines(_rows(shuffled)) == base

    def test_odd_table_size_goes_to_other_bucket(self):
        row = {**POKER_ROW, "max_players": "9", "num_players": "9"}
        recs, _ = parse_poker_log(poker_csv([row]))
        tls = build_timelines(recs)
        assert "other" in tls and 6 not in tls

    def test_outcome_count_matches_accepted(self):
        rows = _poker_rows("a", 5) + [{**POKER_ROW, "big_blind": "0"}]
        recs, stats = parse_poker_log(poker_csv(rows))
        tls = build_timelines(recs)
        total = sum(len(tl.outcomes) for b in tls.values() for tl in b.values())
        assert total == stats.rows_accepted

    def test_equal_keys_keep_input_order(self):
        # A duplicated hand with other chips: the stable sort keeps input
        # order, so such ties are the one case where order matters.
        rows = [{**POKER_ROW, "chips_won": "30"}, POKER_ROW]
        recs = list(parse_poker_log(poker_csv(rows))[0])
        for order in (recs, recs[::-1]):
            deltas = [o.value_delta for o
                      in build_timelines(_rows(order))[6]["u1"].outcomes]
            assert deltas == [poker_outcome(r).value_delta for r in order]

    def test_split_log_keeps_ties_in_order(self):
        # One log split into two files inside a run of hands tied on
        # (player, game_start, game_id): the parts, taken in argument
        # order, give the whole log's timelines.
        rows = ([{**POKER_ROW, "chips_won": w} for w in ("0", "30", "12")]
                + _poker_rows("u1", 3, start_hour=11))
        whole, _ = parse_poker_log(poker_csv(rows))
        first, _ = parse_poker_log(poker_csv(rows[:2]))
        rest, _ = parse_poker_log(poker_csv(rows[2:]))
        assert repr(build_timelines(first, rest)) == repr(build_timelines(whole))
        deltas = [o.value_delta
                  for o in build_timelines(rest, first)[6]["u1"].outcomes]
        assert deltas[:3] == [1.0, -5.0, 10.0]  # rest's tie, then first's

    def test_rummy_loser_without_points_has_negative_zero(self):
        row = {**RUMMY_ROW, "is_winner": "0", "winner_points": "0",
               "win_amt": "0"}
        recs, _ = parse_rummy_log(rummy_csv([row]))
        (outcome,) = build_timelines(recs)[6]["u1"].outcomes
        assert repr(outcome) == repr(rummy_outcome(recs[0]))
        assert repr(outcome.value_delta) == "-0.0"

    def test_rummy_deal_number_tiebreak(self):
        rows = [{**RUMMY_ROW, "deal_id": f"d{n}", "deal_number": str(n),
                 "winner_points": str(10 * n)} for n in (3, 1, 2)]
        recs, _ = parse_rummy_log(rummy_csv(rows))
        tls = build_timelines(recs)
        assert [o.value_delta for o in tls[6]["u1"].outcomes] == \
            [10.0, 20.0, 30.0]

    def test_player_with_poker_and_rummy_records_raises(self):
        poker, _ = parse_poker_log(poker_csv([POKER_ROW]))
        rummy, _ = parse_rummy_log(rummy_csv([RUMMY_ROW]))
        with pytest.raises(TypeError, match="one record type"):
            build_timelines(poker, rummy)
        # the same user_id at another table size is another timeline
        three, _ = parse_poker_log(poker_csv(
            [{**POKER_ROW, "max_players": "3", "num_players": "3"}]))
        tls = build_timelines(poker, three)
        assert len(tls[6]["u1"]) == len(tls[3]["u1"]) == 1


def _reference_timelines(records):
    """The (sort key, outcome) staging that build_timelines replaced."""
    staged = {}
    for rec in records:
        if isinstance(rec, PokerHandRecord):
            key, outcome = (rec.game_start, rec.game_id, 0), poker_outcome(rec)
        else:
            key = (rec.game_start, rec.game_id, rec.deal_number)
            outcome = rummy_outcome(rec)
        bucket = rec.max_players if rec.max_players in (2, 3, 6) else "other"
        staged.setdefault(bucket, {}).setdefault(rec.user_id, []).append(
            (key, outcome))
    return {bucket: {user_id: PlayerTimeline(user_id, bucket, tuple(
        o for _, o in sorted(keyed, key=lambda kv: kv[0])))
        for user_id, keyed in players.items()}
        for bucket, players in staged.items()}


def _simulated(game, table_size, n_players=200, seed=1):
    """The Rows of a simulated log."""
    data, _ = simulate(SimConfig(game=game, table_size=table_size,
                                 n_players=n_players, games_per_player=100,
                                 stagger_starts=True, seed=seed))
    return (parse_poker_log if game == "poker" else parse_rummy_log)(data)[0]


@pytest.mark.parametrize("game,table_size", [("poker", 6), ("rummy", 3)])
def test_build_matches_reference_staging(game, table_size):
    """Shuffled simulated records with odd table sizes and tied order keys
    give the reference's timelines: equal values, types and order."""
    recs = list(_simulated(game, table_size, n_players=30, seed=4))
    rng = random.Random(7)
    recs += [r._replace(max_players=9) for r in rng.sample(recs, 40)]
    # every seat of one game as one player: each hand or deal is a tie
    game_id = rng.choice(recs).game_id
    recs += [r._replace(user_id="tied") for r in recs if r.game_id == game_id]
    rng.shuffle(recs)
    assert repr(build_timelines(_rows(recs))) == \
        repr(_reference_timelines(recs))


@pytest.mark.parametrize("game,table_size", [("poker", 2), ("rummy", 3)])
def test_build_peak_memory_is_its_result(game, table_size):
    """The build stages no per-row objects beyond the outcomes it returns:
    its tracemalloc peak stays within 1.3x of what the result keeps."""
    recs = _simulated(game, table_size)
    assert len(recs) >= 19_800
    tracemalloc.start()
    try:
        timelines = build_timelines(recs)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(map(len, timelines[table_size].values())) == len(recs)
    assert peak <= 1.3 * kept


class TestFilterMinGames:
    def _cohort(self, sizes):
        parts = [parse_poker_log(poker_csv(_poker_rows(uid, n)))[0]
                 for uid, n in sizes.items()]
        return build_timelines(*parts)[6]

    def test_29_games_excluded_at_min_30(self):
        cohort = self._cohort({"a": 29})
        assert filter_min_games(cohort, 30) == {}

    def test_30_games_included_at_min_30(self):
        cohort = self._cohort({"a": 30})
        assert set(filter_min_games(cohort, 30)) == {"a"}

    def test_over_max_excluded_not_truncated(self):
        # brute-force oracle: keep exactly min <= n <= max
        sizes = {f"u{i}": n for i, n in enumerate([10, 29, 30, 64, 100, 150])}
        cohort = self._cohort(sizes)
        got = set(filter_min_games(cohort, 30, 100))
        expect = {u for u, n in sizes.items() if 30 <= n <= 100}
        assert got == expect
        for u in got:
            assert len(cohort[u].outcomes) == sizes[u]  # untouched series

    def test_identity_at_min_1(self):
        cohort = self._cohort({"a": 3, "b": 7})
        assert filter_min_games(cohort, 1) == cohort



# --- the column pass against the row-validator oracle ------------------------

_TS = ["2022-12-01T10:00:00Z", "2022-12-01T10:05:00.000Z",
       "2022-12-01T10:20:00Z"]
_ODD_TS = ["2022-12-01 10:00:00", "2022-12-01T11:00:00+01:00",
           " 2022-12-01T10:00:00Z", "20221201T100000Z", "2023-02-30T00:00:00Z",
           "2022-13-01T00:00:00Z", "yesterday", ""]
# Beyond int64 and beyond the largest float, as integer texts.
_ODD_NUMBER = ["", " 3", "3 ", "1_0", "+4", "1e3", "2.0", "-1", "12x", "nan",
               "NaN", "inf", "-inf", "1e400", "9223372036854775808",
               "1" + "0" * 400]
_ODD_WORD = ["", " ", "x,y", 'q"t', "two\nlines", " Ring", "Ring ", "ring",
             " Points", " 1", "1 ", "yes", "2"]

# Values each column takes when it is not odd; mixed freely, the later
# ones also break the invariants between fields.
_VALUES = {
    "user_id": ["u1", "u2"], "game_id": ["g1", "g2"], "deal_id": ["d1"],
    "big_blind": ["2", "0.5", "0"], "chips_placed": ["10", "0", "3.5"],
    "chips_won": ["0", "25", "-1"], "num_players": ["2", "6", "7"],
    "max_players": ["6", "2", "9"], "min_players": ["2"],
    "actual_players": ["2", "6", "7"], "voluntary_entry": ["0", "1"],
    "buy_in": ["100", "0"], "win_amt": ["20", "0", "-5"],
    "deal_number": ["1", "2", "0"], "is_winner": ["0", "1"],
    "winner_points": ["0", "40"], "loss_points": ["0", "20", "-3"],
    "game_start": _TS, "game_end": _TS, "deal_start": _TS, "deal_end": _TS,
}
_POKER_VALUES = {**_VALUES, "game_type": ["Ring", "Tournament", "Pool"],
                 "game_variant": ["TexasHoldem", "PLO", "0.5"]}
_RUMMY_VALUES = {**_VALUES, "game_type": ["Points", "Pool", "Deal", "Ring"],
                 "game_variant": ["0.5", "80", "PLO"]}


@st.composite
def _log(draw, columns, values):
    """CSV bytes with odd texts, short, long and blank rows, a shuffled
    header, sometimes an extra column, and \n or \r\n line ends. With \n,
    the rows up to the first odd one are plain chunks."""
    header = draw(st.permutations(columns + ["note"] * draw(st.booleans())))
    pools = [values.get(name, ["n"]) for name in header]
    good = st.tuples(*(st.sampled_from(p[:1] * 4 + p) for p in pools))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator=end)
    writer.writerow(header)
    for _ in range(draw(st.integers(0, 30))):
        shape = draw(st.sampled_from(["full"] * 6 + ["short", "long", "blank"]))
        if shape == "blank":
            buf.write(end)
            continue
        row = list(draw(good))
        odd = draw(st.integers(0, 2 * len(row)))  # this field, if any, is odd
        if odd < len(row):
            row[odd] = draw(st.sampled_from(
                _ODD_TS if pools[odd] is _TS else _ODD_NUMBER + _ODD_WORD))
        if shape == "short":
            row = row[:draw(st.integers(1, len(row) - 1))]
        elif shape == "long":
            row += ["extra"]
        writer.writerow(row)
    return buf.getvalue().encode("utf-8")


def _reference_parse(data, columns, validate):
    """The row loop: every csv record through the row validator."""
    reader = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
    header = [h.strip() for h in next(reader)]
    index = {name: header.index(name) for name in columns}
    out, stats = [], IngestStats()
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        stats.rows_read += 1
        raw = {name: row[i] if i < len(row) else "" for name, i in index.items()}
        try:
            out.append(validate(raw))
        except RecordError as exc:
            stats.record_error(line_no, exc)
        else:
            stats.rows_accepted += 1
    return out, stats


@pytest.mark.parametrize("parse,columns,values,validate", [
    (parse_poker_log, POKER_COLUMNS, _POKER_VALUES, validate_poker_record),
    (parse_rummy_log, RUMMY_COLUMNS, _RUMMY_VALUES, validate_rummy_record),
], ids=["poker", "rummy"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_column_pass_matches_row_validator(parse, columns, values, validate,
                                           data):
    log = data.draw(_log(columns, values))
    chunk = data.draw(st.integers(1, 9))  # bad rows straddle chunk edges
    with mock.patch.object(ingest, "CHUNK_ROWS", chunk):
        recs, stats = parse(log)
    ref_recs, ref_stats = _reference_parse(log, columns, validate)
    # repr also tells 2 from 2.0 and True
    assert repr(list(recs)) == repr(ref_recs)
    assert stats.as_dict() == ref_stats.as_dict()
    assert [e.line for e in stats.first_error_samples] == \
        [e.line for e in ref_stats.first_error_samples]


@pytest.mark.parametrize("parse,base,validate,end", [
    (parse_poker_log, POKER_ROW, validate_poker_record, "\r\n"),
    (parse_rummy_log, RUMMY_ROW, validate_rummy_record, "\r\n"),
    (parse_poker_log, POKER_ROW, validate_poker_record, "\n"),
    (parse_rummy_log, RUMMY_ROW, validate_rummy_record, "\n"),
], ids=["poker", "rummy", "poker-lf", "rummy-lf"])
def test_each_odd_text_matches_row_validator(parse, base, validate, end):
    """Every odd text in every column, one per row, between clean rows.
    With \n line ends the chunks are plain until the first quoted text."""
    columns = list(base)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator=end)
    writer.writerow(columns)
    for name in columns:
        for text in _ODD_TS + _ODD_NUMBER + _ODD_WORD:
            writer.writerow([text if c == name else base[c] for c in columns])
            writer.writerow([base[c] for c in columns])
    log = buf.getvalue().encode("utf-8")
    with mock.patch.object(ingest, "CHUNK_ROWS", 7):
        recs, stats = parse(log)
    ref_recs, ref_stats = _reference_parse(log, columns, validate)
    assert repr(list(recs)) == repr(ref_recs)
    assert stats.as_dict() == ref_stats.as_dict()
    assert stats.rows_rejected > 0 and stats.rows_accepted > stats.rows_read / 2


def _plain_log(base, rows, odd_row=None, odd=""):
    """A log of rows copies of base with \n line ends, game_id as the first
    column and user_id as the last; every fourth row has a bad big_blind or
    buy_in. Row odd_row (0-based) is then given the odd text: a quoted
    game_id, a \r\n or \r line end, or a blank, short or long line."""
    columns = [c for c in base if c != "user_id"] + ["user_id"]
    bad = "big_blind" if "big_blind" in base else "buy_in"
    lines = []
    for i in range(rows):
        row = {**base, "user_id": f"u{i % 3}", bad: "x" if i % 4 == 3
               else base[bad]}
        lines.append(",".join(row[c] for c in columns) + "\n")
    if odd_row is not None:
        line = lines[odd_row]
        game_id, rest = line.split(",", 1)
        lines[odd_row] = {
            "quoted": f'"{game_id}",{rest}',
            "quoted-newline": f'"g\n{game_id}",{rest}',
            "crlf": line[:-1] + "\r\n",
            "cr": line[:-1] + "\r",
            "blank": "\n" + line,
            "short": line.split(",", 1)[1],
            "long": "extra," + line,
        }[odd]
    return (",".join(columns) + "\n" + "".join(lines)).encode()


@pytest.mark.parametrize("odd", [None, "quoted", "quoted-newline", "crlf",
                                 "cr", "blank", "short", "long"])
@pytest.mark.parametrize("parse,base,validate", [
    (parse_poker_log, POKER_ROW, validate_poker_record),
    (parse_rummy_log, RUMMY_ROW, validate_rummy_record),
], ids=["poker", "rummy"])
def test_csv_reader_takes_over_in_chunk_3(parse, base, validate, odd):
    """Chunks 1 and 2 of 7 rows are plain; the first text that is not
    plain lies in chunk 3, and csv.reader reads from its first row on."""
    log = _plain_log(base, 40, None if odd is None else 16, odd)
    assert (log == _plain_log(base, 40)) == (odd is None)
    with mock.patch.object(ingest, "CHUNK_ROWS", 7):
        recs, stats = parse(log)
    ref_recs, ref_stats = _reference_parse(log, list(base), validate)
    assert repr(list(recs)) == repr(ref_recs)
    assert stats.as_dict() == ref_stats.as_dict()
    assert [e.line for e in stats.first_error_samples] == \
        [e.line for e in ref_stats.first_error_samples]
    assert stats.rows_rejected >= 9


@pytest.mark.parametrize("odd", [None, "quoted-newline", "crlf", "cr"])
def test_lines_end_at_newline_and_cr_only(odd):
    """The game ids hold characters that str.splitlines also takes as line
    ends; they stay inside their fields, in plain chunks and after
    csv.reader takes over."""
    base = {**POKER_ROW, "game_id": "g\x1c\x1d\x1e\x85\u2028\u2029\x0b\x0c1"}
    log = _plain_log(base, 40, None if odd is None else 16, odd)
    with mock.patch.object(ingest, "CHUNK_ROWS", 7):
        recs, stats = parse_poker_log(log)
    ref_recs, ref_stats = _reference_parse(log, list(base),
                                           validate_poker_record)
    assert repr(list(recs)) == repr(ref_recs)
    assert stats.as_dict() == ref_stats.as_dict()
    assert set(recs.columns.game_id.tolist()) <= {
        base["game_id"], "g\n" + base["game_id"]}
    assert stats.rows_accepted == 30


def test_error_samples_hold_no_traceback():
    """A sampled error keeps no traceback, whose frames would keep the
    parse's chunks alive for as long as the stats."""
    rows = [POKER_ROW, {**POKER_ROW, "big_blind": "x"},
            {**POKER_ROW, "big_blind": "0"}]
    _, stats = parse_poker_log(poker_csv(rows))
    assert [str(e) for e in stats.first_error_samples] == [
        "line 3: field big_blind: cannot parse 'x' as number",
        "line 4: big_blind > 0 violated"]
    for sample in stats.first_error_samples:
        assert sample.error.__traceback__ is None
        assert sample.error.__context__ is None


def test_assemble_reads_outcome_block_rows_at_a_time():
    """OUTCOME_BLOCK is read when the timelines are built."""
    sizes = []

    def read(rows):
        sizes.append(len(rows))
        return [[True] * len(rows), rows.tolist(), rows.tolist(),
                ["g"] * len(rows), [None] * len(rows)]
    with mock.patch.object(ingest, "OUTCOME_BLOCK", 5):
        timelines = ingest.assemble_timelines(
            [(2, "a"), (2, "b")], [7, 5], np.arange(12)[::-1].copy(), read)
    assert sizes == [5, 5, 2]
    assert [o.value_delta for o in timelines[2]["b"].outcomes] == \
        [4, 3, 2, 1, 0]


@pytest.mark.parametrize("block", [1, 5])
@pytest.mark.parametrize("config", [
    SimConfig(game="poker", table_size=2, n_players=30, games_per_player=12,
              mode="skill", skill_sd=0.5, min_games_per_player=5,
              stagger_starts=True, seed=31),
    SimConfig(game="rummy", table_size=6, n_players=36, games_per_player=10,
              stagger_starts=True, seed=32),
], ids=["poker-2", "rummy-6"])
def test_outcome_blocks_split_anywhere(block, config):
    """With OUTCOME_BLOCK 1 or 5, a block boundary falls inside and between
    timelines; build_timelines and simulate_timelines still give, player by
    player, the reference's timelines of the simulated log."""
    data, _ = simulate(config)
    parse = parse_poker_log if config.game == "poker" else parse_rummy_log
    rows, _ = parse(data)
    expected = {u: repr(tl) for u, tl in
                _reference_timelines(list(rows))[config.table_size].items()}
    with mock.patch.object(ingest, "OUTCOME_BLOCK", block):
        built = build_timelines(rows)[config.table_size]
        direct = simulate_timelines(config)
    assert {u: repr(tl) for u, tl in built.items()} == expected
    assert {u: repr(tl) for u, tl in direct.items()} == expected
