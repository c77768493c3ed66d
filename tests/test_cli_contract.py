"""The CLI's input contract: every failure ends in a documented exit code
(2 usage, 3 data, 4 cohort) with one "error:" line, never a traceback."""

import codecs
import csv
import io
import json
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cardskill import ingest
from cardskill.cli import EXIT_COHORT, EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from cardskill.records import format_timestamp, parse_timestamp
from cardskill.simgen import BASE_START, SimConfig, simulate

# A small clean heads-up log: 24 players x 40 games, 480 rows.
BASE_LOG, _ = simulate(SimConfig(n_players=24, games_per_player=40,
                                 mode="skill", skill_sd=0.5, seed=9))


def exit_code(argv):
    """main()'s code; argparse's SystemExit counts as its exit status."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def non_utf8(data: bytes, pos: int) -> bytes:
    return data[:pos] + b"\xff" + data[pos + 1:]


def oversized_field(data: bytes, line: int) -> bytes:
    """data with the first field of a line 200k characters long, beyond
    csv.field_size_limit()."""
    lines = data.split(b"\n")
    rest = lines[line - 1][lines[line - 1].index(b","):]
    lines[line - 1] = b"u" * 200_000 + rest
    return b"\n".join(lines)


@pytest.fixture(scope="module")
def log_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("log") / "poker_log.csv"
    path.write_bytes(BASE_LOG)
    return str(path)


def _analyze(log, out, *flags, more_logs=()):
    return ["analyze", log, *more_logs, "--game", "poker", "--table-size",
            "2", "--min-games", "10", "--out", out, *flags]


def respelled(path):
    """path with a "." component: another spelling of the same file."""
    return os.path.join(os.path.dirname(path), ".", os.path.basename(path))


# (id, bytes written to IN or None, argv builder, exit code, what the error
# line names). IN is the written file, LOG the clean log, OUT a fresh
# directory and FILE an existing regular file; other names match as they are.
CASES = [
    ("thresholds-string", b'{"r_min": "high"}',
     lambda p: _analyze(p["LOG"], p["OUT"], "--thresholds", p["IN"]),
     EXIT_DATA, "r_min"),
    ("thresholds-list", b"[1, 2]",
     lambda p: _analyze(p["LOG"], p["OUT"], "--thresholds", p["IN"]),
     EXIT_DATA, "IN"),
    ("thresholds-unknown-key", b'{"r_mni": 0.9}',
     lambda p: _analyze(p["LOG"], p["OUT"], "--thresholds", p["IN"]),
     EXIT_DATA, "r_mni"),
    ("thresholds-nan", b'{"r_min": NaN}',
     lambda p: _analyze(p["LOG"], p["OUT"], "--thresholds", p["IN"]),
     EXIT_DATA, "r_min"),
    ("thresholds-beyond-floats", b'{"r_min": 1' + b"0" * 400 + b'}',
     lambda p: _analyze(p["LOG"], p["OUT"], "--thresholds", p["IN"]),
     EXIT_DATA, "r_min"),
    ("split-date-month-13", None,
     lambda p: _analyze(p["LOG"], p["OUT"], "--split-date", "2023-13"),
     EXIT_USAGE, "--split-date"),
    ("ingest-non-utf8", non_utf8(BASE_LOG, 300),
     lambda p: ["ingest", "--game", "poker", p["IN"]],
     EXIT_DATA, "IN"),
    ("analyze-non-utf8", non_utf8(BASE_LOG, 300),
     lambda p: _analyze(p["IN"], p["OUT"]),
     EXIT_DATA, "IN"),
    ("ingest-oversized-field", oversized_field(BASE_LOG, 3),
     lambda p: ["ingest", "--game", "poker", p["IN"]],
     EXIT_DATA, "IN"),
    ("analyze-oversized-field", oversized_field(BASE_LOG, 3),
     lambda p: _analyze(p["IN"], p["OUT"]),
     EXIT_DATA, "IN"),
    ("analyze-same-log-twice", None,
     lambda p: _analyze(p["LOG"], p["OUT"], more_logs=[p["LOG"]]),
     EXIT_USAGE, "LOG"),
    # not UTF-8, so the code is 3 if the log is read before the check
    ("analyze-one-log-two-spellings", non_utf8(BASE_LOG, 300),
     lambda p: _analyze(p["IN"], p["OUT"], more_logs=[respelled(p["IN"])]),
     EXIT_USAGE, "IN"),
    # not UTF-8, so the code is 3 if the log is read before the check
    ("analyze-min-games-above-max-games", non_utf8(BASE_LOG, 300),
     lambda p: _analyze(p["IN"], p["OUT"], "--min-games", "50",
                        "--max-games", "40"),
     EXIT_USAGE, "--min-games 50"),
    ("ingest-same-log-twice", None,
     lambda p: ["ingest", "--game", "poker", p["LOG"], p["LOG"]],
     EXIT_USAGE, "LOG"),
    ("ingest-one-log-two-spellings", non_utf8(BASE_LOG, 300),
     lambda p: ["ingest", "--game", "poker", p["IN"], respelled(p["IN"])],
     EXIT_USAGE, "IN"),
    ("config-list", b"[1]",
     lambda p: ["simulate", "--config", p["IN"], "--out", p["OUT"]],
     EXIT_DATA, "IN"),
    ("config-n-players-string", b'{"n_players": "10"}',
     lambda p: ["simulate", "--config", p["IN"], "--out", p["OUT"]],
     EXIT_USAGE, "n_players"),
    ("config-n-players-float", b'{"n_players": 4.5}',
     lambda p: ["simulate", "--config", p["IN"], "--out", p["OUT"]],
     EXIT_USAGE, "n_players"),
    ("config-skill-overrides-strings",
     b'{"mode": "skill", "n_players": 3, "skill_overrides": ["a", "b", "c"]}',
     lambda p: ["simulate", "--config", p["IN"], "--out", p["OUT"]],
     EXIT_USAGE, "skill_overrides"),
    ("config-stagger-starts-string", b'{"stagger_starts": "no"}',
     lambda p: ["simulate", "--config", p["IN"], "--out", p["OUT"]],
     EXIT_USAGE, "stagger_starts"),
    # the stakes and the loss-points cap are simgen constants, not SimConfig
    # fields: a config that sets one exits 2 naming it
    ("config-rummy-negative-points",
     b'{"game": "rummy", "mode": "skill", "skill_sd": 2.0, "n_players": 60,'
     b' "games_per_player": 20, "points_cap": [-10, 80], "seed": 5}',
     lambda p: ["simulate", "--config", p["IN"], "--out", p["OUT"]],
     EXIT_USAGE, "points_cap: not a SimConfig field"),
    ("config-rummy-negative-value-per-point",
     b'{"game": "rummy", "value_per_point": -0.5}',
     lambda p: ["simulate", "--config", p["IN"], "--out", p["OUT"]],
     EXIT_USAGE, "value_per_point: not a SimConfig field"),
    ("config-big-blind-default", b'{"big_blind": 2}',
     lambda p: ["simulate", "--config", p["IN"], "--out", p["OUT"]],
     EXIT_USAGE, "big_blind: not a SimConfig field"),
    ("config-big-blind-overflow", b'{"big_blind": 1e308}',
     lambda p: ["simulate", "--config", p["IN"], "--out", p["OUT"]],
     EXIT_USAGE, "big_blind: not a SimConfig field"),
    ("config-rummy-value-per-point-overflow",
     b'{"game": "rummy", "value_per_point": 1e308}',
     lambda p: ["simulate", "--config", p["IN"], "--out", p["OUT"]],
     EXIT_USAGE, "value_per_point: not a SimConfig field"),
    ("config-rummy-points-cap-401-digits",
     b'{"game": "rummy", "points_cap": [2, 1' + b"0" * 400 + b']}',
     lambda p: ["simulate", "--config", p["IN"], "--out", p["OUT"]],
     EXIT_USAGE, "points_cap: not a SimConfig field"),
    ("config-rummy-points-cap-fractions",
     b'{"game": "rummy", "points_cap": [2.5, 80.5]}',
     lambda p: ["simulate", "--config", p["IN"], "--out", p["OUT"]],
     EXIT_USAGE, "points_cap: not a SimConfig field"),
    ("config-rummy-points-cap-integral-floats",
     b'{"game": "rummy", "points_cap": [2.0, 80.0]}',
     lambda p: ["simulate", "--config", p["IN"], "--out", p["OUT"]],
     EXIT_USAGE, "points_cap: not a SimConfig field"),
    ("analyze-out-is-a-file", None,
     lambda p: _analyze(p["LOG"], p["FILE"]),
     EXIT_DATA, "FILE"),
    ("simulate-out-is-a-file", None,
     lambda p: ["simulate", "--players", "4", "--games", "2",
                "--out", p["FILE"]],
     EXIT_DATA, "FILE"),
]


@pytest.mark.parametrize("data,argv,code,named", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_bad_input_exit_code(tmp_path, log_path, capsys,
                             data, argv, code, named):
    paths = {"LOG": log_path, "IN": str(tmp_path / "input"),
             "OUT": str(tmp_path / "out"), "FILE": str(tmp_path / "a_file")}
    (tmp_path / "a_file").write_bytes(b"")
    if data is not None:
        (tmp_path / "input").write_bytes(data)
    assert exit_code(argv(paths)) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert lines and "error:" in lines[-1]
    assert paths.get(named, named) in lines[-1]


RUMMY_LOG, _ = simulate(SimConfig(game="rummy", table_size=3, n_players=24,
                                  games_per_player=40, seed=9))


def edit_row(data: bytes, **values) -> bytes:
    """data with the named fields of its first row replaced."""
    lines = data.split(b"\n")
    header = lines[0].decode().split(",")
    fields = lines[1].split(b",")
    for name, text in values.items():
        fields[header.index(name)] = text.encode()
    lines[1] = b",".join(fields)
    return b"\n".join(lines)


def shifted(data: bytes, first: str) -> bytes:
    """data with every timestamp moved by one offset, so that the first
    (simgen.BASE_START) reads first."""
    offset = parse_timestamp(first) - BASE_START
    return re.sub(rb"\d{4}-\d\d-\d\dT[\d:.]+Z", lambda m: format_timestamp(
        parse_timestamp(m.group().decode()) + offset).encode(), data)


# A row whose outcome value is not a finite float, or whose UTC instant is
# outside years 1-9999, is rejected; a metric that overflows on accepted rows
# is a data error. A cohort whose month split reaches December 9999 is
# analyzed.
@pytest.mark.parametrize("game,data,rejected,code", [
    ("poker", edit_row(BASE_LOG, big_blind="0.001", chips_won="1e308"),
     1, EXIT_OK),
    ("poker", edit_row(BASE_LOG, big_blind="1", chips_won="1e308"),
     0, EXIT_DATA),
    ("rummy", edit_row(RUMMY_LOG, is_winner="1", loss_points="0",
                       winner_points="9" * 401), 1, EXIT_OK),
    ("poker", edit_row(BASE_LOG, game_start="0001-01-01T00:00:00+01:00"),
     1, EXIT_OK),
    ("poker", shifted(BASE_LOG, "9999-11-01T00:00:00Z"), 0, EXIT_OK),
], ids=["poker-delta-overflow", "poker-metric-overflow", "rummy-points",
        "poker-stamp-in-year-0", "poker-december-9999"])
def test_outcome_overflow(tmp_path, capsys, game, data, rejected, code):
    path = tmp_path / "log.csv"
    path.write_bytes(data)
    assert exit_code(["ingest", "--game", game, str(path)]) == EXIT_OK
    stats = json.loads(capsys.readouterr().out)[str(path)]
    assert (stats["rows_read"], stats["rows_rejected"]) == (
        data.count(b"\n") - 1, rejected)
    argv = ["analyze", str(path), "--game", game, "--min-games", "10",
            "--table-size", "2" if game == "poker" else "3",
            "--metric", "bb_per_100" if game == "poker" else "win_rate",
            "--out", str(tmp_path / "out")]
    assert exit_code(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert (err.startswith("error: ") and err.count("\n") == 1
            if code else err == "")


def test_undefined_metric_is_named_apart_from_too_few_games(tmp_path, capsys):
    # Every rummy player has the games, but rummy rows carry no
    # voluntary_entry flags, so tightness is undefined for all of them.
    path = tmp_path / "log.csv"
    path.write_bytes(RUMMY_LOG)
    argv = ["analyze", str(path), "--game", "rummy", "--table-size", "3",
            "--min-games", "10", "--metric", "tightness",
            "--out", str(tmp_path / "out")]
    assert exit_code(argv) == EXIT_COHORT
    assert capsys.readouterr().err == (
        "error: only 0 players qualify: 24 have >= 10 games in both "
        "periods, and 24 of those have tightness undefined in a period\n")
    argv[argv.index("tightness")] = "win_rate"
    assert exit_code(argv) == EXIT_OK


def test_empty_table_size_names_the_sizes_the_logs_hold(tmp_path, capsys):
    """A heads-up log analyzed at the default table size, 6, fails on the
    table size, not on the games filter."""
    path = tmp_path / "log.csv"
    path.write_bytes(BASE_LOG)
    argv = ["analyze", str(path), "--game", "poker",
            "--out", str(tmp_path / "out")]
    assert exit_code(argv) == EXIT_COHORT
    assert capsys.readouterr().err == (
        "error: no players at table size 6; the logs hold table sizes: 2\n")
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def poker_2_log(tmp_path_factory):
    """tests/test_report_pins.py's POKER_2 log: 200 heads-up players, all
    of whom pass the games filter, from December 2022 to January 2023."""
    path = tmp_path_factory.mktemp("poker_2") / "poker2.csv"
    path.write_bytes(simulate(SimConfig(
        game="poker", table_size=2, n_players=200, games_per_player=80,
        mode="skill", skill_sd=0.5, learning_b=0.4, stagger_starts=True,
        seed=61))[0])
    return str(path)


def test_quantile_groups_fail_before_the_bootstrap(poker_2_log, tmp_path,
                                                   capsys):
    argv = _analyze(poker_2_log, str(tmp_path / "out"),
                    "--quantile-groups", "500")
    with mock.patch("cardskill.cli.persistence_test",
                    side_effect=AssertionError("persistence_test ran")):
        assert exit_code(argv) == EXIT_COHORT
    assert capsys.readouterr().err == (
        "error: 500 quantile groups need >= 500 players, got 200\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("month,empty", [("2022-12", "A"), ("2023-02", "B")])
def test_split_outside_the_data_names_the_split(poker_2_log, tmp_path,
                                                capsys, month, empty):
    argv = _analyze(poker_2_log, str(tmp_path / "out"),
                    "--split-date", month)
    assert exit_code(argv) == EXIT_COHORT
    assert capsys.readouterr().err == (
        f"error: split {month}-01T00:00:00.000Z leaves period {empty} "
        "empty: the outcomes run from 2022-12-01T00:00:00.000Z to "
        "2023-01-31T14:42:00.000Z\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("pos,bom", [
    (300, b""), (30000, b""), (30000, codecs.BOM_UTF8),
], ids=["first-8KiB", "beyond-8KiB", "beyond-8KiB-bom"])
def test_non_utf8_error_names_the_line(tmp_path, capsys, pos, bom):
    """The line and column of the first byte that is not UTF-8, after a
    leading byte-order mark too."""
    assert BASE_LOG.index(b"\n") < pos < len(BASE_LOG)
    path = tmp_path / "log.csv"
    path.write_bytes(bom + non_utf8(BASE_LOG, pos))
    assert exit_code(["ingest", "--game", "poker", str(path)]) == EXIT_DATA
    line = BASE_LOG.count(b"\n", 0, pos) + 1
    column = pos - BASE_LOG.rfind(b"\n", 0, pos) - 1
    assert capsys.readouterr().err == (
        f"error: {path}: line {line}: 'utf-8' codec can't decode byte 0xff "
        f"in position {column}: invalid start byte\n")


def test_byte_order_mark_log_reads_as_without_it(tmp_path, capsys):
    """A log that opens with a UTF-8 byte-order mark gives the counts and
    the reports of the same log without it."""
    reports = []
    for name, data in (("plain", BASE_LOG),
                       ("bom", codecs.BOM_UTF8 + BASE_LOG)):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(data)
        assert exit_code(["ingest", "--game", "poker", str(path)]) == EXIT_OK
        counts = json.loads(capsys.readouterr().out)[str(path)]
        out = tmp_path / name
        assert exit_code(_analyze(str(path), str(out))) == EXIT_OK
        assert capsys.readouterr().err == ""
        verdict = json.loads((out / "verdict.json").read_text())
        del verdict["manifest"]  # names the log and its digest
        reports.append((counts, verdict, {
            p.name: p.read_bytes() for p in out.glob("*.csv")}))
    assert reports[0] == reports[1] and len(reports[0][2]) == 4
    assert reports[0][0]["rows_accepted"] == BASE_LOG.count(b"\n") - 1


@pytest.mark.parametrize("command", ["ingest", "analyze"])
def test_oversized_field_in_a_later_plain_chunk(tmp_path, capsys, command):
    """The field over csv.field_size_limit() is on line 300, in chunk 5 of
    64 rows; chunks 1 to 4 are plain."""
    path = tmp_path / "log.csv"
    path.write_bytes(oversized_field(BASE_LOG, 300))
    argv = (["ingest", "--game", "poker", str(path)] if command == "ingest"
            else _analyze(str(path), str(tmp_path / "out")))
    with mock.patch.object(ingest, "CHUNK_ROWS", 64):
        assert exit_code(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err == (f"error: {path}: field larger than field limit "
                   f"({csv.field_size_limit()})\n")


def test_ingest_bad_header_goes_to_stderr(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("user_id,game_id\nu1,g1\n")
    assert exit_code(["ingest", "--game", "poker", str(bad)]) == EXIT_DATA
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {bad}: header missing required columns")


def test_split_date_kept_as_typed(log_path, tmp_path):
    out = tmp_path / "r"
    assert exit_code(_analyze(log_path, str(out), "--split-date",
                              "2023-01")) == EXIT_OK
    doc = json.loads((out / "verdict.json").read_text())
    assert doc["manifest"]["config"]["split_date"] == "2023-01"


# --- generated argv and CSV bytes -------------------------------------------

_LINES = BASE_LOG.splitlines(keepends=True)

# Field texts a mutated line may take: bad values, numbers at and beyond
# the limits of floats and int64, the first and last instants of years
# 1-9999, a blank-padded flag and quoted fields.
FIELD_TEXTS = [
    b"", b"x", b"-1", b"0", b"nan", b"1e400", b"2023-13-01T00:00Z", b'"',
    b"Tournament", b"6", b"u0", b"1e308", b"-1e308", b"5e-324", b"-0",
    b"1e25", b"12345678901234567890123456", b"9223372036854775808",
    b"0001-01-01T00:00:00Z", b"9999-12-31T23:59:59Z", b" 1", b'"a,b"',
]


@st.composite
def csv_bytes(draw):
    kind = draw(st.sampled_from(["valid", "valid", "mutated", "non_utf8",
                                 "empty"]))
    if kind == "empty":
        return b""
    if kind == "non_utf8":
        return non_utf8(BASE_LOG, draw(st.integers(0, len(BASE_LOG) - 1)))
    lines = [line.rstrip(b"\n") for line in _LINES]
    for _ in range(draw(st.integers(1, 8)) if kind == "mutated" else 0):
        i = draw(st.integers(0, len(lines) - 1))
        fields = lines[i].split(b",")
        edit = draw(st.sampled_from(["field", "field", "field", "duplicate",
                                     "short", "extra"]))
        if edit == "duplicate":
            lines.insert(i, lines[i])
            continue
        if edit == "short":
            del fields[draw(st.integers(0, len(fields) - 1)):]
        elif edit == "extra":
            fields.append(draw(st.sampled_from(FIELD_TEXTS)))
        else:
            j = draw(st.integers(0, len(fields) - 1))
            fields[j] = draw(st.sampled_from(FIELD_TEXTS))
        lines[i] = b",".join(fields)
    end = draw(st.sampled_from([b"\n", b"\n", b"\r\n"]))
    return b"".join(line + end for line in lines)


def _flag(name, valid, invalid=()):
    """Strategy for a flag: absent, or with a value; invalid values only when
    the argument `bad` is true, so that half the runs can succeed."""
    def flag(bad):
        values = st.sampled_from(list(valid) + (list(invalid) if bad else []))
        return st.one_of(st.just([]), values.map(
            lambda v: [name] if v is True else [name, v]))
    return flag


JSON_DOCS = st.sampled_from([
    b"{}", b'{"r_min": 0.5}', b'{"trend_epsilon": 0}', b'{"r_min": true}',
    b'{"bogus": 1}', b"[1]", b"not json", b"\xff", b'{"n_players": 6}',
    b'{"game": "rummy", "n_players": 6, "games_per_player": 12}',
    b'{"points_cap": [2]}', b'{"seed": -1}', b'{"skill_overrides": 1}',
])

ANALYZE_FLAGS = [
    _flag("--table-size", ["2", "2", "3"], ["4"]),
    _flag("--min-games", ["1", "5", "10", "50"], ["0", "x"]),
    _flag("--max-games", ["40", "100", "5"], ["0"]),
    _flag("--bin-width", ["1", "5", "10"], ["0"]),
    _flag("--metric", ["win_rate", "bb_per_100", "tightness",
                       "avg_points_lost_losing", "avg_blind_lost",
                       "net_positive_share"], ["nope"]),
    _flag("--split-date", ["2022-12", "2023-01", "2024-01"],
          ["2023-13", "2023-1", "x"]),
    _flag("--quantile-groups", ["2", "4", "30"], ["1"]),
    _flag("--seed", ["0", "7", str(2**70)], ["-1", "x"]),
    _flag("--thresholds", ["THRESHOLDS"]),
]

SIMULATE_FLAGS = [
    _flag("--game", ["poker", "rummy"], ["bridge"]),
    _flag("--table-size", ["2", "3", "6"], ["4"]),
    _flag("--players", ["1", "6", "12"], ["-3", "x"]),
    _flag("--games", ["1", "12"], ["0"]),
    _flag("--mode", ["chance", "skill"]),
    _flag("--skill-sd", ["0", "0.5"], ["-1", "nan", "inf"]),
    _flag("--learning-curve", ["power", "exponential"]),
    _flag("--learning-b", ["0", "0.4"], ["nan"]),
    _flag("--learning-alpha", ["0.5", "2"], ["0", "-inf"]),
    _flag("--min-games-per-player", ["1", "6"], ["0", "50"]),
    _flag("--stagger-starts", [True]),
    _flag("--seed", ["0", "3"], ["-1", str(2**64)]),
    _flag("--config", ["CONFIG"]),
]


@st.composite
def argv_and_files(draw):
    command = draw(st.sampled_from(["ingest", "analyze", "simulate",
                                    "version"]))
    files = {"LOG": draw(csv_bytes()), "THRESHOLDS": draw(JSON_DOCS),
             "CONFIG": draw(JSON_DOCS)}
    game = draw(st.sampled_from(["poker", "poker", "rummy"]))
    bad = draw(st.booleans())
    if command == "version":
        argv = ["version"]
    elif command == "ingest":
        argv = ["ingest", "--game", game, "LOG"]
    elif command == "analyze":
        argv = ["analyze", "LOG", "--game", game, "--out", "OUT",
                "--table-size", "2", "--min-games", "10"]
        for flag in ANALYZE_FLAGS:
            argv += draw(flag(bad))
    else:
        argv = ["simulate", "--out", "OUT", "--players", "6", "--games", "4"]
        for flag in SIMULATE_FLAGS:
            argv += draw(flag(bad))
    return argv, files


@settings(deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv_and_files())
def test_main_exits_with_a_documented_code(case):
    """A documented code, with nothing on stderr on success and one
    "error: " line, the last, on failure."""
    argv, files = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        names = {name: os.path.join(tmp, name) for name in files}
        names["OUT"] = os.path.join(tmp, "out")
        for name, data in files.items():
            with open(names[name], "wb") as f:
                f.write(data)
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            code = exit_code([names.get(arg, arg) for arg in argv])
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_COHORT)
    lines = err.getvalue().splitlines()
    if code == EXIT_OK:
        assert lines == []
    else:
        assert [n for n, line in enumerate(lines) if "error: " in line] \
            == [len(lines) - 1], lines


# 24 heads-up players x 60 hands; bb_per_100 overflows to inf on a player
# whose hands include one with big_blind=1 and chips_won=1e308.
HU_LOG, _ = simulate(SimConfig(n_players=24, games_per_player=60, seed=5))


def test_non_finite_persistence_value_names_player(tmp_path, capsys):
    path = tmp_path / "log.csv"
    path.write_bytes(edit_row(HU_LOG, big_blind="1", chips_won="1e308"))
    user = HU_LOG.split(b"\n")[1].split(b",")[0].decode()
    argv = _analyze(str(path), str(tmp_path / "out"), "--metric", "bb_per_100")
    assert exit_code(argv) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"error: bb_per_100 of player {user!r} in period A is not finite\n")


def test_non_finite_bin_mean_names_bin(tmp_path, capsys):
    # A new player with 10 hands at the log's first time: in bin 1 of the
    # learning curve, but in period A only, so in no persistence pair.
    header, first = HU_LOG.split(b"\n")[:2]
    hands = [b",".join([b"zz", b"zz%d" % i] + first.split(b",")[2:])
             for i in range(10)]
    extra = edit_row(b"\n".join([header] + hands),
                     big_blind="1", chips_won="1e308")
    path = tmp_path / "log.csv"
    path.write_bytes(HU_LOG + extra.split(b"\n", 1)[1] + b"\n")
    argv = _analyze(str(path), str(tmp_path / "out"), "--metric", "bb_per_100")
    assert exit_code(argv) == EXIT_DATA
    assert capsys.readouterr().err == (
        "error: the mean bb_per_100 of bin 1 is not finite\n")
