"""The columnar Cohort against the timelines it replaces on the analyze path:
the same players and outcomes, and bit-identical statistics from either."""

import json
import math
from unittest import mock

import numpy as np
import pytest

from cardskill import cli, ingest
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
from cardskill.simgen import (
    SimConfig,
    simulate,
    simulate_cohort,
    simulate_timelines,
)
from cardskill.stattests import (
    DEFAULT_THRESHOLDS,
    classify,
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
    """build_cohort holds build_timelines' outcomes, and simulate_cohort
    equals build_cohort on the simulated log."""
    rows = _parsed(config)
    timelines = build_timelines(config.table_size, rows)
    cohort = build_cohort(config.table_size, rows)
    assert cohort.users == list(timelines)
    assert cohort.games().tolist() == [len(timelines[u]) for u in cohort.users]
    flat = [o for u in cohort.users for o in timelines[u].outcomes]
    direct = simulate_cohort(config)
    assert direct.users == cohort.users
    assert direct.bounds.dtype == cohort.bounds.dtype
    assert direct.bounds.tolist() == cohort.bounds.tolist()
    for name in Outcome._fields:
        got = getattr(cohort.columns, name)
        expected = column(flat, name)
        assert got.dtype == expected.dtype, name
        assert repr(got.tolist()) == repr(expected.tolist()), name
        simulated = getattr(direct.columns, name)
        assert simulated.dtype == got.dtype, name
        assert repr(simulated.tolist()) == repr(got.tolist()), name


@pytest.mark.parametrize("config", [SHAPES[1], SHAPES[10]],
                         ids=["poker-2-staggered", "rummy-6"])
def test_battery_is_the_hand_assembly(config):
    """cli.battery on simulate_cohort gives the report that the three tests
    and classify, put together by hand as analyze did, give on
    simulate_timelines."""
    timelines = simulate_timelines(config)
    th = DEFAULT_THRESHOLDS
    rates = player_values(timelines, "win_rate")
    expected = classify(
        persistence_test(timelines, split="month", min_games=5, seed=4),
        learning_curve_test(timelines, bin_width=6,
                            trend_epsilon=th["trend_epsilon"]),
        qq_test(list(rates.values()), threshold_r2=th["threshold_r2"],
                threshold_dev=th["threshold_dev"]),
        thresholds=th, quantiles=quantile_summary(
            [(len(timelines[u]), r) for u, r in rates.items()], 4))
    got = cli.battery(simulate_cohort(config), min_games=5, bin_width=6,
                      k=4, seed=4)
    assert repr(got.as_dict()) == repr(expected.as_dict())


def _pieces(games, block):
    """Keep masks over the players in user order: one of them all when
    block is None, else runs of whole players, each ending once it holds
    block outcomes, so that most pieces end inside the cohort."""
    if block is None:
        yield np.ones(len(games), bool)
        return
    start, held = 0, 0
    for i, n in enumerate(games.tolist()):
        held += n
        if held >= block or i == len(games) - 1:
            keep = np.zeros(len(games), bool)
            keep[start:i + 1] = True
            yield keep
            start, held = i + 1, 0


@pytest.mark.parametrize("block", [None, 64])
@pytest.mark.parametrize("config", SHAPES, ids=[
    f"{c.game}-{c.table_size}{'-staggered' * c.stagger_starts}"
    for c in SHAPES])
def test_statistics_agree_bit_for_bit(config, block):
    """The three tests, player_values and quantile_summary, from the
    Cohort and from build_timelines' mapping, before and after the
    min/max games filter; over the whole cohort, or over each piece of
    it cut in runs of whole players of at least 64 outcomes, taken with
    Cohort.where."""
    rows = _parsed(config)
    timelines = build_timelines(config.table_size, rows)
    cohort = build_cohort(config.table_size, rows)
    pieces = list(_pieces(cohort.games(), block))
    assert sum(keep.sum() for keep in pieces) == len(cohort)
    assert (len(pieces) > 1) == (block is not None)
    for keep in pieces:
        part = cohort.where(keep)
        part_map = {u: timelines[u] for u in part.users}
        for metric in METRICS:
            for low, high in ((1, None), (20, 30)):
                kept = filter_min_games(part, low, high)
                kept_map = {u: tl for u, tl in part_map.items()
                            if low <= len(tl) <= (high or math.inf)}
                assert isinstance(kept, Cohort)
                assert kept.users == sorted(kept_map)
                assert _battery(kept, kept.games().tolist(), metric) == \
                    _battery(kept_map, [len(kept_map[u]) for u in
                                        sorted(kept_map)], metric)


@pytest.fixture(scope="module")
def both_forms():
    """One simulated cohort as timelines and as a Cohort."""
    config = SHAPES[0]
    rows = _parsed(config)
    return {"timelines": build_timelines(config.table_size, rows),
            "cohort": build_cohort(config.table_size, rows)}


@pytest.mark.parametrize("form", ["timelines", "cohort"])
@pytest.mark.parametrize("min_games", [0, -1])
def test_min_games_below_one_is_a_value_error(both_forms, form, min_games):
    with pytest.raises(ValueError, match="min_games must be >= 1"):
        persistence_test(both_forms[form], min_games=min_games)


@pytest.mark.parametrize("form", ["timelines", "cohort"])
def test_split_is_any_integer_but_a_bool(both_forms, form):
    cohort = both_forms[form]
    split = resolve_split(cohort)
    assert type(split) is int
    numpy_split = resolve_split(cohort, np.int64(split))
    assert (type(numpy_split), numpy_split) == (int, split)

    def fields(split):
        res = persistence_test(cohort, split=split, min_games=5, n_boot=50)
        return repr((res.as_dict(), res.users, res.values_a.tolist(),
                     res.values_b.tolist()))

    assert fields(np.int64(split)) == fields(split)
    for flag in (True, False):
        with pytest.raises(ValueError, match="unknown split rule"):
            resolve_split(cohort, flag)
        with pytest.raises(ValueError, match="unknown split rule"):
            persistence_test(cohort, split=flag)


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
        timelines = build_timelines(size, *parts)
        cohort = build_cohort(size, *parts)
        assert cohort.users == list(timelines)
        flat = [o for u in cohort.users for o in timelines[u].outcomes]
        for name in Outcome._fields:
            assert repr(getattr(cohort.columns, name).tolist()) == \
                repr(column(flat, name).tolist())
    cohort = build_cohort(6, *parts)
    # a: g0 at 1 h, then g2, g4 and g5 at 3 h, in game_id order
    assert cohort.columns.value_delta[:4].tolist() == [-5.0, -4.0, -3.0, -2.5]
    empty = build_cohort(3, *parts)
    assert len(empty) == 0 and not filter_min_games(empty, 1)


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
