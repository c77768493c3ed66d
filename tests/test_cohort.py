"""The columnar Cohort against the timelines it replaces on the analyze path:
the same players and outcomes, and bit-identical statistics from either."""

import json
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest

from cardskill import cli, ingest, stattests
from cardskill.cli import EXIT_OK
from cardskill.ingest import (
    Cohort,
    build_cohort,
    build_timelines,
    filter_min_games,
    parse_poker_log,
    parse_rummy_log,
)
from cardskill.metrics import METRICS, column
from cardskill.records import Outcome
from cardskill.simgen import SimConfig, simulate
from cardskill.stattests import (
    learning_curve_test,
    persistence_test,
    player_values,
    qq_test,
    quantile_summary,
    resolve_split,
)

from helpers import POKER_ROW, outcome_of

# Every simulator shape: both games, 2, 3 and 6 seats, staggered or not.
SHAPES = [
    SimConfig(game=game, table_size=size, n_players=10 * size,
              games_per_player=36, min_games_per_player=12,
              mode="skill", skill_sd=0.6, learning_b=0.4,
              stagger_starts=stagger, seed=50 + 2 * size + stagger)
    for game in ("poker", "rummy") for size in (2, 3, 6)
    for stagger in (False, True)
]


def _parsed(config):
    parse = parse_poker_log if config.game == "poker" else parse_rummy_log
    rows, stats = parse(simulate(config)[0])
    assert stats.rows_rejected == 0
    return rows


def _battery(cohort, games, metric):
    """Every statistic that analyze computes, as reprs or error types."""
    values = player_values(cohort, "win_rate")
    return {
        "split": outcome_of(resolve_split, cohort),
        "values": outcome_of(player_values, cohort, metric),
        "rates": repr(values),
        "persistence": outcome_of(lambda: (lambda p: (
            p.as_dict(), p.users, p.values_a.tolist(), p.values_b.tolist()))(
            persistence_test(cohort, metric=metric, min_games=5, n_boot=200,
                             seed=3))),
        "learning": outcome_of(lambda: learning_curve_test(
            cohort, metric=metric, bin_width=6).as_dict()),
        "qq": outcome_of(lambda: qq_test(list(values.values())).as_dict()),
        "quantiles": outcome_of(lambda: quantile_summary(
            list(zip(games, values.values())), 4).as_dict()),
    }


@pytest.mark.parametrize("config", SHAPES, ids=[
    f"{c.game}-{c.table_size}{'-staggered' * c.stagger_starts}"
    for c in SHAPES])
def test_cohort_holds_the_timelines(config):
    rows = _parsed(config)
    timelines = build_timelines(rows)[config.table_size]
    cohort = build_cohort(config.table_size, rows)
    assert cohort.users == sorted(timelines)
    assert cohort.games().tolist() == [len(timelines[u]) for u in cohort.users]
    flat = [o for u in cohort.users for o in timelines[u].outcomes]
    for name in Outcome._fields:
        got = getattr(cohort.columns, name)
        expected = column(flat, name)
        assert got.dtype == expected.dtype, name
        assert repr(got.tolist()) == repr(expected.tolist()), name


@pytest.mark.parametrize("block", [None, 64])
@pytest.mark.parametrize("config", SHAPES, ids=[
    f"{c.game}-{c.table_size}{'-staggered' * c.stagger_starts}"
    for c in SHAPES])
def test_statistics_agree_bit_for_bit(config, block):
    """The three tests, player_values and quantile_summary, from the
    Cohort and from build_timelines' mapping, before and after the
    min/max games filter; STAT_BLOCK as is, or 64 so that runs end inside
    the cohort."""
    rows = _parsed(config)
    timelines = build_timelines(rows)[config.table_size]
    cohort = build_cohort(config.table_size, rows)
    patch = (nullcontext() if block is None
             else mock.patch.object(stattests, "STAT_BLOCK", block))
    with patch:
        for metric in METRICS:
            for cut in ((1, None), (20, 30)):
                kept = filter_min_games(cohort, *cut)
                kept_map = filter_min_games(timelines, *cut)
                assert isinstance(kept, Cohort) and len(kept) == len(kept_map)
                assert _battery(kept, kept.games().tolist(), metric) == \
                    _battery(kept_map, [len(kept_map[u]) for u in
                                        sorted(kept_map)], metric)


def _poker_log(rows):
    columns = list(POKER_ROW)
    lines = [",".join(columns)] + [",".join(r[c] for c in columns)
                                   for r in rows]
    return ("\n".join(lines) + "\n").encode()


def test_two_buckets_and_tied_rows():
    """Two parts, two table sizes: only the asked bucket is kept, and rows
    of one player that share a game_start keep build_timelines' order."""
    def row(user, game, size, hour):
        return {**POKER_ROW, "user_id": user, "game_id": game,
                "max_players": str(size), "num_players": "2",
                "game_start": f"2022-12-01T{hour:02d}:00:00Z",
                "game_end": f"2022-12-01T{hour:02d}:30:00Z",
                "chips_won": game[1:]}
    log_a = [row("b", "g9", 6, 3), row("a", "g5", 6, 3), row("a", "g2", 6, 3),
             row("a", "g7", 2, 1), row("b", "g1", 6, 2)]
    log_b = [row("a", "g4", 6, 3), row("c", "g3", 2, 4), row("a", "g0", 6, 1)]
    parts = [parse_poker_log(_poker_log(log))[0] for log in (log_a, log_b)]
    for size in (2, 6):
        timelines = build_timelines(*parts)[size]
        cohort = build_cohort(size, *parts)
        assert cohort.users == sorted(timelines)
        flat = [o for u in cohort.users for o in timelines[u].outcomes]
        for name in Outcome._fields:
            assert repr(getattr(cohort.columns, name).tolist()) == \
                repr(column(flat, name).tolist())
    cohort = build_cohort(6, *parts)
    # a: g0 at 1 h, then g2, g4 and g5 at 3 h, in game_id order
    assert cohort.columns.value_delta[:4].tolist() == [-5.0, -4.0, -3.0, -2.5]
    empty = build_cohort(3, *parts)
    assert len(empty) == 0 and not filter_min_games(empty, 1)


def test_blocks_are_views_of_whole_players():
    rows = _parsed(SHAPES[0])
    cohort = build_cohort(2, rows)
    blocks = list(cohort.blocks(100))
    assert [u for b in blocks for u in b.users] == cohort.users
    assert all(b.bounds[-1] >= 100 for b in blocks[:-1])
    assert all(b.bounds[-2] < 100 for b in blocks if len(b) > 1)
    for b in blocks:
        for got, whole in zip(b.columns, cohort.columns):
            assert np.shares_memory(got, whole)


def test_analyze_builds_no_timeline(tmp_path):
    """analyze reads the Cohort: it succeeds with the one constructor of
    timelines patched to raise, and writes what it writes unpatched."""
    config = SimConfig(game="rummy", table_size=3, n_players=60,
                       games_per_player=40, seed=8)
    log = tmp_path / "rummy_log.csv"
    log.write_bytes(simulate(config)[0])

    def analyze(out):
        return cli.main(["analyze", str(log), "--game", "rummy",
                         "--table-size", "3", "--min-games", "10",
                         "--out", str(out)])
    with mock.patch.object(ingest, "assemble_timelines",
                           side_effect=AssertionError("timelines built")):
        assert analyze(tmp_path / "patched") == EXIT_OK
    assert analyze(tmp_path / "plain") == EXIT_OK
    names = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "patched").iterdir())
    for name in names:
        assert (tmp_path / "patched" / name).read_bytes() == \
            (tmp_path / "plain" / name).read_bytes(), name
    verdict = json.loads((tmp_path / "plain" / "verdict.json").read_text())
    assert verdict["persistence"]["n_players"] > 3
