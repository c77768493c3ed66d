"""Synthetic poker/rummy log generator with planted ground truth.

Chance mode: every game's winner is uniform over the seated players.
Skill mode: player i has base skill s_i ~ Normal(0, skill_sd^2), plus a
learning increment that follows the configured power or exponential
curve of games played; the winner of each game is drawn with probability
proportional to exp(effective skill) among the seated players (sampled
via the Gumbel-argmax trick, which is exactly that softmax).

Output is byte-identical for a given config (seed included) across runs;
it round-trips the ingest CSV formats with zero rejected rows.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
from dataclasses import dataclass, fields
from itertools import islice, repeat
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .records import (
    POKER_COLUMNS,
    RUMMY_COLUMNS,
    Outcome,
    PlayerTimeline,
    _fmt,
    format_timestamp,
    gc_paused,
    parse_timestamp,
)

POKER = "poker"
RUMMY = "rummy"
CHANCE = "chance"
SKILL = "skill"
POWER = "power"
EXPONENTIAL = "exponential"

BASE_START = parse_timestamp("2022-12-01T00:00:00Z")
SPAN_MS = 62 * 86_400_000  # Dec 2022 + Jan 2023
GAME_DURATION_MS = 60_000
TIMELINE_CHUNK = 1 << 16  # about how many outcomes to build at once


class ConfigInvalid(ValueError):
    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


def finite_number(value) -> bool:
    """True for a finite real number that is not a bool."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) < math.inf)


def _numbers(value) -> bool:
    return isinstance(value, (tuple, list)) and all(map(finite_number, value))


# (fields, what their values must be, test), checked before the value rules;
# a field whose default is None also takes None.
_FIELD_TYPES = (
    (("table_size", "n_players", "games_per_player", "min_games_per_player",
      "seed"), "an integer",
     lambda v: finite_number(v) and isinstance(v, numbers.Integral)),
    (("skill_sd", "learning_b", "learning_alpha", "points_mu", "points_sd",
      "points_skill_coeff", "value_per_point", "vpip_start", "vpip_end",
      "big_blind"), "a finite number", finite_number),
    (("stagger_starts",), "true or false", lambda v: isinstance(v, bool)),
    (("points_cap",), "a pair of numbers",
     lambda v: _numbers(v) and len(v) == 2),
    (("skill_overrides",), "a list of numbers", _numbers),
)


@dataclass(frozen=True)
class SimConfig:
    game: str = POKER
    table_size: int = 2
    n_players: int = 100
    games_per_player: int = 100
    mode: str = CHANCE
    skill_sd: float = 0.0
    learning_curve: str = POWER
    learning_b: float = 0.0
    learning_alpha: float = 0.5
    # rummy loss-points model: Normal(points_mu - points_skill_coeff * skill,
    # points_sd), rounded and clamped to points_cap
    points_mu: float = 40.0
    points_sd: float = 10.0
    points_skill_coeff: float = 10.0
    points_cap: Tuple[int, int] = (2, 80)
    value_per_point: float = 1.0
    # poker: VPIP interpolates start -> end over a player's experience
    vpip_start: float = 0.6
    vpip_end: float = 0.3
    big_blind: float = 2.0
    # experience heterogeneity knobs
    min_games_per_player: Optional[int] = None  # spread quotas min..games
    stagger_starts: bool = False  # offset players' first games in time
    skill_overrides: Optional[Tuple[float, ...]] = None
    seed: int = 0

    def validate(self) -> None:
        for names, kind, accepts in _FIELD_TYPES:
            for name in names:
                value = getattr(self, name)
                optional = SimConfig.__dataclass_fields__[name].default is None
                if not (accepts(value) or (optional and value is None)):
                    raise ConfigInvalid(name, f"must be {kind}, got {value!r}")
        if self.game not in (POKER, RUMMY):
            raise ConfigInvalid("game", f"must be {POKER!r} or {RUMMY!r}")
        if self.table_size not in (2, 3, 6):
            raise ConfigInvalid("table_size", "must be 2, 3, or 6")
        if self.n_players < self.table_size:
            raise ConfigInvalid("n_players", "fewer players than one table")
        if self.games_per_player < 1:
            raise ConfigInvalid("games_per_player", "must be >= 1")
        if self.mode not in (CHANCE, SKILL):
            raise ConfigInvalid("mode", f"must be {CHANCE!r} or {SKILL!r}")
        if self.mode == CHANCE and (
            self.skill_sd != 0.0 or self.learning_b != 0.0
            or self.skill_overrides is not None
        ):
            raise ConfigInvalid(
                "mode", "chance mode requires skill_sd=0, learning_b=0, "
                "and no skill overrides"
            )
        if self.skill_sd < 0:
            raise ConfigInvalid("skill_sd", "must be >= 0")
        if self.learning_curve not in (POWER, EXPONENTIAL):
            raise ConfigInvalid("learning_curve",
                                f"must be {POWER!r} or {EXPONENTIAL!r}")
        if self.learning_alpha <= 0:
            raise ConfigInvalid("learning_alpha", "must be > 0")
        if not (0 <= self.vpip_end <= 1 and 0 <= self.vpip_start <= 1):
            raise ConfigInvalid("vpip_start", "VPIP bounds must lie in [0, 1]")
        if self.points_cap[0] >= self.points_cap[1]:
            raise ConfigInvalid("points_cap", "low bound must be < high bound")
        if self.points_sd <= 0:
            raise ConfigInvalid("points_sd", "must be > 0")
        if self.big_blind <= 0:
            raise ConfigInvalid("big_blind", "must be > 0")
        if self.min_games_per_player is not None and not (
            1 <= self.min_games_per_player <= self.games_per_player
        ):
            raise ConfigInvalid("min_games_per_player",
                                "must be in [1, games_per_player]")
        if self.skill_overrides is not None and \
                len(self.skill_overrides) != self.n_players:
            raise ConfigInvalid("skill_overrides",
                                "length must equal n_players")
        if not (0 <= self.seed < 2**64):
            raise ConfigInvalid("seed", "must be an unsigned 64-bit integer")

    def as_dict(self) -> dict:
        """Every field but skill_overrides, in declaration order."""
        d = {f.name: getattr(self, f.name) for f in fields(self)
             if f.name != "skill_overrides"}
        d["points_cap"] = list(self.points_cap)
        return d


@dataclass(frozen=True)
class GroundTruth:
    config: SimConfig
    skills: Tuple[float, ...]
    quotas: Tuple[int, ...]
    expected_win_rate_chance: Optional[float]

    def heads_up_probability(self, skill_a: float, skill_b: float) -> float:
        """Closed-form P(A beats B) under the softmax winner model."""
        return 1.0 / (1.0 + math.exp(-(skill_a - skill_b)))

    def to_json(self) -> str:
        return json.dumps(
            {
                "config": self.config.as_dict(),
                "skills": list(self.skills),
                "quotas": list(self.quotas),
                "expected_win_rate_chance": self.expected_win_rate_chance,
            },
            sort_keys=True,
            indent=2,
        )


def _learning_delta(config: SimConfig, n: np.ndarray) -> np.ndarray:
    """Skill gained after n games; 0 at n=0, saturates at learning_b."""
    if config.learning_b == 0.0:
        return np.zeros_like(n, dtype=float)
    if config.learning_curve == POWER:
        return config.learning_b * (1.0 - np.power(n + 1.0, -config.learning_alpha))
    return config.learning_b * (1.0 - np.exp(-config.learning_alpha * n))


def _planted(config: SimConfig) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(skills, quotas, start offsets) of a valid config, from the seed."""
    config.validate()
    n = config.n_players
    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed))
    if config.mode == CHANCE:
        skills = np.zeros(n)
        rng.standard_normal(n)  # keep the draw order aligned with skill mode
    elif config.skill_overrides is not None:
        skills = np.asarray(config.skill_overrides, dtype=float)
        rng.standard_normal(n)
    else:
        skills = config.skill_sd * rng.standard_normal(n)
    if config.min_games_per_player is not None:
        quotas = np.rint(np.linspace(
            config.min_games_per_player, config.games_per_player, n
        )).astype(int)
        quotas = rng.permutation(quotas)
    else:
        quotas = np.full(n, config.games_per_player, dtype=int)
    if config.stagger_starts and n > 1:
        offsets = np.rint(np.linspace(0, config.games_per_player, n)).astype(int)
        offsets = rng.permutation(offsets)
    else:
        offsets = np.zeros(n, dtype=int)
    return skills, quotas, offsets


def ground_truth(config: SimConfig) -> GroundTruth:
    skills, quotas, _ = _planted(config)
    return _truth(config, skills, quotas)


def _truth(config: SimConfig, skills: np.ndarray,
           quotas: np.ndarray) -> GroundTruth:
    expected = 1.0 / config.table_size if config.mode == CHANCE else None
    return GroundTruth(
        config=config,
        skills=tuple(float(s) for s in skills),
        quotas=tuple(int(q) for q in quotas),
        expected_win_rate_chance=expected,
    )


def _players(config: SimConfig) -> List[str]:
    """The user ids, of one width, so their text order is their index order."""
    pw = max(5, len(str(config.n_players)))
    return [f"p{i:0{pw}d}" for i in range(config.n_players)]


def _seats(config: SimConfig, skills: np.ndarray, quotas: np.ndarray,
           offsets: np.ndarray) -> Iterator[Tuple[int, np.ndarray, List[str],
                                                   Tuple[np.ndarray, ...]]]:
    """Run the matchmaking/game loop, for CSV emission and for direct
    timeline construction alike. Each round is (timestamp, seated players
    (tables, size), the tables' game ids, seat columns in the log order of
    seated.ravel()): poker (won, value_delta_bb, voluntary, chips_placed,
    chips_won); rummy (won, value_delta_points, points), where points are
    the winner's points or the loser's loss points."""
    size = config.table_size
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed).spawn(1)[0]
    )
    total_rounds = int((offsets + quotas).max())
    step = max(SPAN_MS // max(total_rounds, 1), 1)
    gw = max(5, len(str(config.games_per_player * 2)))
    played = np.zeros(config.n_players, dtype=int)

    for r in range(total_rounds):
        active = np.nonzero((offsets <= r) & (played < quotas))[0]
        if len(active) < size:
            continue
        perm = active[rng.permutation(len(active))]
        n_tables = len(perm) // size
        seated = perm[: n_tables * size].reshape(n_tables, size)
        exp_before = played[seated]
        eff = skills[seated] + _learning_delta(config, exp_before.astype(float))
        gumbel = rng.gumbel(size=seated.shape)
        is_winner = np.zeros(seated.shape, dtype=bool)
        is_winner[np.arange(n_tables), np.argmax(eff + gumbel, axis=1)] = True
        if config.game == POKER:
            frac = exp_before / np.maximum(quotas[seated] - 1, 1)
            vpip = config.vpip_start + (config.vpip_end - config.vpip_start) * frac
            voluntary = rng.random(seated.shape) < vpip
            # everyone posts one blind; a voluntary entry adds four more
            contrib = config.big_blind * (1.0 + 4.0 * voluntary)
            chips_won = np.where(is_winner, contrib.sum(axis=1)[:, None], 0.0)
            delta = (chips_won - contrib) / config.big_blind
            cols = (delta > 0, delta, voluntary, contrib, chips_won)
        else:
            mu = config.points_mu - config.points_skill_coeff * eff
            raw = rng.normal(mu, config.points_sd)
            pts = np.clip(np.rint(raw), *config.points_cap).astype(int)
            pts[is_winner] = 0
            points = np.where(is_winner, pts.sum(axis=1)[:, None], pts)
            delta = np.where(is_winner, points, -points).astype(float)
            cols = (is_winner, delta, points)
        played[seated] += 1
        prefix = f"g{r:0{gw}d}t"
        yield (BASE_START + r * step, seated,
               [f"{prefix}{t:05d}" for t in range(n_tables)],
               tuple(c.ravel() for c in cols))


def simulate(config: SimConfig) -> Tuple[bytes, GroundTruth]:
    """Generate a CSV log (ingest's exact schema) plus the ground truth."""
    skills, quotas, offsets = _planted(config)
    players = _players(config)
    poker = config.game == POKER
    size = str(config.table_size)
    bb = _fmt(config.big_blind)
    vpp = config.value_per_point
    vpp_text = _fmt(vpp)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(POKER_COLUMNS if poker else RUMMY_COLUMNS)
    for ts, seated, tables, cols in _seats(config, skills, quotas, offsets):
        start = format_timestamp(ts)
        end = format_timestamp(ts + GAME_DURATION_MS)
        rows = zip([players[i] for i in seated.ravel().tolist()],
                   [g for g in tables for _ in range(config.table_size)],
                   *(c.tolist() for c in cols))
        if poker:
            writer.writerows(
                [player, gid, "Ring", "TexasHoldem", bb, _fmt(placed),
                 _fmt(chips_won), size, size, "2", "1" if voluntary else "0",
                 start, end]
                for player, gid, _, _, voluntary, placed, chips_won in rows)
        else:
            writer.writerows(
                [player, gid, "Points", vpp_text, size, size,
                 start, end, start, end, "0",
                 _fmt(points * vpp) if won else "0", gid + "d1", "1",
                 "1" if won else "0", str(points) if won else "0",
                 "0" if won else str(points)]
                for player, gid, won, _, points in rows)
    return buf.getvalue().encode("utf-8"), _truth(config, skills, quotas)


def simulate_timelines(config: SimConfig) -> Dict[str, PlayerTimeline]:
    """Build player timelines directly from the game loop, bypassing CSV.

    Equal to the config's table-size bucket of
    build_timelines(parse_*_log(simulate(config))), field types included,
    at a fraction of the cost; used for large validation cohorts. The rounds
    fill flat columns, ordered player-major by one stable argsort, and the
    outcomes are built player by player in runs of about TIMELINE_CHUNK, so
    each timeline lies together in memory; a round's outcomes share one
    timestamp, a table's one key. The cyclic collector is paused meanwhile.
    """
    poker, size, n = config.game == POKER, config.table_size, config.n_players
    with gc_paused():
        skills, quotas, offsets = _planted(config)
        seats, cols, keys, stamps = [], [], [], []
        for ts, seated, games, (won, delta, voluntary, *_) in _seats(
                config, skills, quotas, offsets):
            seats.append(seated.ravel().astype(np.int32))
            cols.append((won, delta, voluntary if poker else won))
            keys.extend(games if poker else [g + "d1" for g in games])
            stamps.extend(repeat(ts, len(games)))
        seat = np.concatenate(seats)
        order = np.argsort(seat, kind="stable")  # seat k is at table k // size
        counts = np.bincount(seat, minlength=n)
        step = max(1, TIMELINE_CHUNK * n // len(seat))  # players per run
        won, delta, voluntary = (np.concatenate(c) for c in zip(*cols))
        del seats, cols, seat  # freed first, the outcomes reuse their memory
        ends = np.concatenate(([0], counts.cumsum())).tolist()
        users, counts = _players(config), counts.tolist()
        timelines: Dict[str, PlayerTimeline] = {}
        for first in range(0, n, step):
            idx = order[ends[first]:ends[min(first + step, n)]]
            t = (idx // size).tolist()
            # tuple.__new__ skips NamedTuple's Python-level __new__
            outs = map(tuple.__new__, repeat(Outcome), zip(
                won[idx].tolist(), delta[idx].tolist(),
                map(stamps.__getitem__, t), map(keys.__getitem__, t),
                voluntary[idx].tolist() if poker else repeat(None)))
            for user, k in zip(users[first:first + step],
                               counts[first:first + step]):
                if k:
                    timelines[user] = PlayerTimeline(user, size,
                                                     tuple(islice(outs, k)))
    return timelines
