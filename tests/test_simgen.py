import csv
import hashlib
import io
import json
import math
import sys
import tracemalloc
from collections import defaultdict

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cardskill.ingest import build_timelines, parse_poker_log, parse_rummy_log
from cardskill.simgen import (
    ConfigInvalid,
    GroundTruth,
    SimConfig,
    ground_truth,
    simulate,
    simulate_timelines,
)


def test_determinism_same_seed():
    cfg = SimConfig(game="poker", table_size=2, n_players=30,
                    games_per_player=20, seed=99)
    a, truth_a = simulate(cfg)
    b, truth_b = simulate(cfg)
    assert a == b
    assert truth_a.skills == truth_b.skills


def test_different_seed_differs():
    a, _ = simulate(SimConfig(n_players=30, games_per_player=20, seed=1))
    b, _ = simulate(SimConfig(n_players=30, games_per_player=20, seed=2))
    assert a != b


def test_poker_round_trips_ingest_cleanly():
    cfg = SimConfig(game="poker", table_size=6, n_players=36,
                    games_per_player=15, seed=5)
    data, _ = simulate(cfg)
    recs, stats = parse_poker_log(data)
    assert stats.rows_rejected == 0
    assert stats.rows_accepted == len(recs) > 0


def test_rummy_round_trips_ingest_cleanly():
    cfg = SimConfig(game="rummy", table_size=3, n_players=30,
                    games_per_player=12, seed=5)
    data, _ = simulate(cfg)
    recs, stats = parse_rummy_log(data)
    assert stats.rows_rejected == 0


def test_poker_conservation_per_hand():
    cfg = SimConfig(game="poker", table_size=6, n_players=36,
                    games_per_player=10, seed=6)
    data, _ = simulate(cfg)
    recs, _ = parse_poker_log(data)
    by_game = defaultdict(list)
    for r in recs:
        by_game[r.game_id].append(r)
    for game_id, hand in by_game.items():
        assert len(hand) == 6
        net = sum(r.chips_won - r.chips_placed for r in hand)
        assert net == pytest.approx(0.0, abs=1e-9)


def test_exactly_one_winner_per_rummy_deal():
    cfg = SimConfig(game="rummy", table_size=6, n_players=36,
                    games_per_player=10, seed=6)
    data, _ = simulate(cfg)
    recs, _ = parse_rummy_log(data)
    by_deal = defaultdict(list)
    for r in recs:
        by_deal[r.deal_id].append(r)
    for deal in by_deal.values():
        assert sum(1 for r in deal if r.is_winner) == 1


def test_rummy_loss_points_clamped():
    cfg = SimConfig(game="rummy", table_size=2, n_players=40,
                    games_per_player=25, seed=7)
    data, _ = simulate(cfg)
    recs, _ = parse_rummy_log(data)
    losses = [r.loss_points for r in recs if not r.is_winner]
    assert losses
    assert all(2 <= lp <= 80 for lp in losses)


def test_chance_2p_win_rate_within_binomial_bound():
    cfg = SimConfig(game="poker", table_size=2, n_players=2,
                    games_per_player=4000, seed=8)
    tls = simulate_timelines(cfg)
    for tl in tls.values():
        n = len(tl.outcomes)
        rate = sum(o.won for o in tl.outcomes) / n
        assert abs(rate - 0.5) <= 3 * math.sqrt(0.25 / n)


def test_chance_6p_cohort_mean_one_sixth():
    cfg = SimConfig(game="rummy", table_size=6, n_players=600,
                    games_per_player=60, seed=9)
    tls = simulate_timelines(cfg)
    rates = [sum(o.won for o in tl.outcomes) / len(tl.outcomes)
             for tl in tls.values()]
    assert sum(rates) / len(rates) == pytest.approx(1 / 6, abs=0.01)


def test_skill_sd_zero_degenerates_to_chance_rates():
    cfg = SimConfig(game="poker", table_size=2, n_players=200,
                    games_per_player=200, mode="skill", skill_sd=0.0, seed=10)
    tls = simulate_timelines(cfg)
    rates = [sum(o.won for o in tl.outcomes) / len(tl.outcomes)
             for tl in tls.values()]
    assert sum(rates) / len(rates) == pytest.approx(0.5, abs=0.02)


def test_ground_truth_matches_simulate_and_is_deterministic():
    cfg = SimConfig(game="poker", table_size=2, n_players=25,
                    games_per_player=10, mode="skill", skill_sd=0.5, seed=11)
    _, truth_from_sim = simulate(cfg)
    truth_direct = ground_truth(cfg)
    assert truth_direct.skills == truth_from_sim.skills
    assert truth_direct.to_json() == ground_truth(cfg).to_json()
    json.loads(truth_direct.to_json())  # valid JSON document


def test_ground_truth_chance_expected_rate():
    truth = ground_truth(SimConfig(table_size=6, n_players=60,
                                   games_per_player=5))
    assert truth.expected_win_rate_chance == pytest.approx(1 / 6)


def test_heads_up_closed_form():
    truth = ground_truth(SimConfig(table_size=2, n_players=10,
                                   games_per_player=5))
    assert truth.heads_up_probability(0.8, 0.0) == pytest.approx(
        math.exp(0.8) / (math.exp(0.8) + 1)
    )


# Non-integer big_blind and value_per_point take the repr() branch of the
# number formatter; the digests pin the simulator's output bytes.
POKER_6_SKILL = SimConfig(
    game="poker", table_size=6, n_players=60, games_per_player=40,
    mode="skill", skill_sd=0.8, learning_b=0.6, min_games_per_player=20,
    stagger_starts=True, big_blind=0.3, seed=13,
)
RUMMY_3_SKILL = SimConfig(
    game="rummy", table_size=3, n_players=45, games_per_player=40,
    mode="skill", skill_sd=0.5, learning_curve="exponential", learning_b=0.4,
    stagger_starts=True, value_per_point=0.25, seed=13,
)


# The shape of the benchmark's heads-up poker cohort, at 40 players.
POKER_HU_SKILL = SimConfig(
    game="poker", table_size=2, n_players=40, games_per_player=30,
    mode="skill", skill_sd=0.8, learning_curve="power", learning_b=0.6,
    stagger_starts=True, seed=14,
)
RUMMY_6_SKILL = SimConfig(
    game="rummy", table_size=6, n_players=48, games_per_player=25,
    mode="skill", skill_sd=0.6, learning_b=0.3, min_games_per_player=10,
    stagger_starts=True, value_per_point=0.75, seed=14,
)


@pytest.mark.parametrize("cfg, digest", [
    (POKER_6_SKILL,
     "19091e49c129956468833f2b6ea763a8a718734bc8008e810cfa00f1b7ddefe8"),
    (RUMMY_3_SKILL,
     "b87f174742649b3b4fa68a76a9af4f9c897314373b12e29357ceb1dae64ee453"),
    (POKER_HU_SKILL,
     "3a0a9561dcf9ef63a6a439e9767964eebc7a513c5387dbef1239bbea36841278"),
    (RUMMY_6_SKILL,
     "ada962bb37984b2af76306715943e389e2df665e3bb10add40c1d1226cc2aaf3"),
], ids=["poker", "rummy", "poker-hu", "rummy-6"])
def test_simulate_bytes_pinned(cfg, digest):
    data, _ = simulate(cfg)
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("cfg", [
    SimConfig(game="poker", table_size=2, n_players=1000, games_per_player=50,
              mode="skill", skill_sd=0.8, seed=3),
    SimConfig(game="rummy", table_size=3, n_players=600, games_per_player=60,
              seed=3),
], ids=["poker", "rummy"])
def test_simulate_holds_the_log_once(cfg):
    """The log is encoded as it is written, so the tracemalloc peak stays
    near the size of the bytes returned, not twice it."""
    simulate(SimConfig(n_players=4, games_per_player=2))  # one-off imports
    tracemalloc.start()
    try:
        data, _ = simulate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(data) > 4_000_000
    assert peak <= 1.3 * len(data)


@pytest.mark.parametrize("cfg", [
    POKER_6_SKILL,
    SimConfig(game="rummy", table_size=3, n_players=30, games_per_player=12,
              seed=12),
    SimConfig(game="poker", table_size=2, n_players=40, games_per_player=30,
              mode="skill", skill_sd=0.5, min_games_per_player=8,
              stagger_starts=True, seed=21),
    SimConfig(game="rummy", table_size=6, n_players=36, games_per_player=20,
              seed=22),
    SimConfig(game="poker", table_size=3, n_players=31, games_per_player=15,
              min_games_per_player=5, seed=23),
    # losers with 0 points: value_delta is -0.0 on both paths
    SimConfig(game="rummy", table_size=3, n_players=45, games_per_player=20,
              mode="skill", skill_sd=2.0, points_cap=(0, 80), seed=5),
], ids=["poker", "rummy", "poker-hu-stagger-quotas", "rummy-6",
        "poker-3-ragged", "rummy-zero-point-losers"])
def test_simulated_timelines_match_csv_path(cfg):
    data, _ = simulate(cfg)
    parse = parse_poker_log if cfg.game == "poker" else parse_rummy_log
    recs, _ = parse(data)
    via_csv = build_timelines(cfg.table_size, recs)
    direct = simulate_timelines(cfg)
    assert via_csv == direct
    # repr tells -0.0 from 0.0, which == does not; the lists, dict order
    assert [(u, repr(tl)) for u, tl in via_csv.items()] == \
        [(u, repr(tl)) for u, tl in direct.items()]
    assert list(direct) == sorted(direct)
    # dataclass == lets numpy scalars pass for Python ones; reports do not
    flag = bool if cfg.game == "poker" else type(None)
    for tl in direct.values():
        for o in tl.outcomes:
            assert type(o.won) is bool
            assert type(o.value_delta) is float
            assert type(o.timestamp) is int
            assert type(o.voluntary_entry) is flag


@pytest.mark.parametrize("cfg, digest", [
    (SimConfig(game="poker", table_size=2, n_players=40, games_per_player=30,
               min_games_per_player=8, seed=31),
     "a454657637630a5f709aa1eb6495b40d8678af3b75fe0bb6911118ebdb658d21"),
    (SimConfig(game="rummy", table_size=3, n_players=30, games_per_player=20,
               stagger_starts=True, seed=32),
     "105bdee3e0e6f40030f1d82f04cfe305ee244da817f1c4566439f07b592b5d56"),
    (POKER_6_SKILL,
     "91ebb88765f2c915edc2782679f86f64fffd442b38a6406b8f4ce88a309fe4cf"),
], ids=["poker-2-chance-quotas", "rummy-3-stagger", "poker-6-skill"])
def test_simulate_timelines_pinned(cfg, digest):
    """The users and timeline reprs, in dict order, pinned by sha256."""
    h = hashlib.sha256()
    for user, tl in simulate_timelines(cfg).items():
        h.update(user.encode())
        h.update(repr(tl).encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("cfg", [
    SimConfig(game="poker", table_size=2, n_players=2000, games_per_player=50,
              min_games_per_player=30, seed=3),
    SimConfig(game="rummy", table_size=6, n_players=600, games_per_player=60,
              seed=3),
], ids=["poker-2", "rummy-6"])
def test_simulate_timelines_peak_memory_is_its_result(cfg):
    """With the outcomes shared, the timelines keep at most 50 bytes a game,
    where one Outcome a game keeps about 117, and the working columns peak
    at 120 at most."""
    simulate_timelines(SimConfig(n_players=4, games_per_player=2))  # imports
    tracemalloc.start()
    try:
        timelines = simulate_timelines(cfg)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(timelines) == cfg.n_players
    games = sum(map(len, timelines.values()))
    assert kept <= 50 * games
    assert peak <= 120 * games


def test_battery_cohort_holds_one_outcome_per_distinct_outcome():
    """The 20k-player chance battery's 800k games hold 300 Outcome objects,
    one per distinct outcome: 50 rounds, each with its start time, times 6
    (won or lost, 1 or 5 blinds in, against 1 or 5)."""
    timelines = simulate_timelines(SimConfig(
        game="poker", table_size=2, n_players=20_000, games_per_player=50,
        min_games_per_player=30, seed=1))
    objects = {id(o): o for tl in timelines.values() for o in tl.outcomes}
    assert len(objects) == len({repr(o) for o in objects.values()}) == 300


class TestConfigInvalid:
    def test_chance_with_skill_sd(self):
        with pytest.raises(ConfigInvalid):
            SimConfig(mode="chance", skill_sd=0.5).validate()

    def test_bad_table_size(self):
        with pytest.raises(ConfigInvalid):
            SimConfig(table_size=4).validate()

    def test_bad_game(self):
        with pytest.raises(ConfigInvalid):
            SimConfig(game="bridge").validate()

    def test_overrides_length(self):
        with pytest.raises(ConfigInvalid):
            SimConfig(mode="skill", n_players=3,
                      skill_overrides=(0.1, 0.2)).validate()

    def test_min_games_band(self):
        with pytest.raises(ConfigInvalid):
            SimConfig(games_per_player=50, min_games_per_player=60).validate()

    # Configs whose rows ingest would reject, or whose numbers could
    # overflow while the log is written.
    @pytest.mark.parametrize("name,settings", [
        ("points_cap", dict(game="rummy", mode="skill", skill_sd=2.0,
                            points_cap=(-10, 80), n_players=60,
                            games_per_player=20, seed=5)),
        ("value_per_point", dict(game="rummy", value_per_point=-0.5,
                                 n_players=30, games_per_player=10)),
        ("big_blind", dict(big_blind=1e308)),
        ("value_per_point", dict(game="rummy", value_per_point=1e308)),
        ("points_cap", dict(game="rummy", points_cap=(2, 10**400))),
        ("points_cap", dict(game="rummy", table_size=6,
                            points_cap=(2, 2**53 // 5 + 1))),
    ], ids=["negative-points", "negative-value", "big-blind-overflow",
            "value-overflow", "points-cap-401-digits", "points-past-2**53"])
    def test_rows_that_ingest_rejects_or_cannot_be_written(self, name,
                                                           settings):
        with pytest.raises(ConfigInvalid) as exc:
            SimConfig(**settings).validate()
        assert exc.value.field_name == name

    @pytest.mark.parametrize("name,value", [
        ("n_players", "10"), ("n_players", 4.5), ("seed", True),
        ("min_games_per_player", 2.0), ("skill_sd", float("nan")),
        ("big_blind", "2"), ("stagger_starts", "no"), ("points_cap", (2,)),
        ("points_cap", (2, "80")), ("skill_overrides", ("a", "b")),
        ("points_cap", (2.5, 80.5)), ("points_cap", (2.0, 80.0)),
        ("points_cap", (True, 80)),
    ])
    def test_field_type_named(self, name, value):
        with pytest.raises(ConfigInvalid) as exc:
            SimConfig(**{name: value}).validate()
        assert exc.value.field_name == name


_MAX = sys.float_info.max


def _edge(draw, common, rare):
    """One of common, or about one time in ten one of rare: values at or
    past the edge of the valid range."""
    return draw(st.sampled_from(
        rare if draw(st.integers(0, 9)) == 9 else common))


@st.composite
def small_configs(draw):
    """Tiny cohorts of both games and every table size, with edge values of
    the settings that shape the log's numbers, now and then invalid ones."""
    size = draw(st.sampled_from([2, 3, 6]))
    games = draw(st.integers(1, 6))
    settings = dict(
        game=draw(st.sampled_from(["poker", "rummy"])), table_size=size,
        n_players=draw(st.integers(size, 3 * size)), games_per_player=games,
        stagger_starts=draw(st.booleans()),
        seed=draw(st.integers(0, 2**64 - 1)),
    )
    if draw(st.booleans()):
        settings.update(
            mode="skill", skill_sd=draw(st.sampled_from([0.0, 3.0])),
            learning_b=draw(st.sampled_from([0.0, 0.6])),
            learning_curve=draw(st.sampled_from(["power", "exponential"])))
    if draw(st.booleans()):
        settings["min_games_per_player"] = draw(st.integers(1, games))
    most = 2**53 // (size - 1)  # the largest valid high bound
    high = _edge(draw, [1, 80, most], [most + 1, 10**400])
    settings["points_cap"] = (_edge(draw, [0, min(2, high - 1), high - 1],
                                    [-1, high]), high)
    settings["big_blind"] = _edge(draw, [5e-324, 0.3, 2, 1e15 + 0.5,
                                         _MAX / (10 * size)],
                                  [_MAX / (10 * size - 1), 0.0, -2.0])
    settings["value_per_point"] = _edge(draw, [0.0, 5e-324, 0.25, 3, 2**62,
                                               _MAX / 2**53], [1e300, -0.5])
    return SimConfig(**settings)


@settings(deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_configs())
def test_simulated_log_round_trips(cfg):
    try:
        cfg.validate()
    except ConfigInvalid:
        for build in (simulate, simulate_timelines):
            with pytest.raises(ConfigInvalid):
                build(cfg)
        return
    data, _ = simulate(cfg)
    # simulate joins the texts unquoted: the log is what csv.writer writes
    # for its own rows, each as wide as the header, so no field holds a
    # comma, a quote, a CR or an LF
    table = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    assert {len(row) for row in table} == {len(table[0])}
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(table)
    assert buf.getvalue().encode("utf-8") == data
    parse = parse_poker_log if cfg.game == "poker" else parse_rummy_log
    rows, stats = parse(data)
    assert stats.rows_rejected == 0
    via_csv = build_timelines(cfg.table_size, rows)
    direct = simulate_timelines(cfg)
    assert [(u, repr(tl)) for u, tl in via_csv.items()] == \
        [(u, repr(tl)) for u, tl in direct.items()]
