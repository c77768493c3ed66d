"""Synthetic poker/rummy log generator with planted ground truth.

Chance mode: every game's winner is uniform over the seated players.
Skill mode: player i has base skill s_i ~ Normal(0, skill_sd^2), plus a
learning increment that follows the configured power or exponential
curve of games played; the winner of each game is drawn with probability
proportional to exp(effective skill) among the seated players (sampled
via the Gumbel-argmax trick, which is exactly that softmax).

The game loop yields each round as a record of columns; records states the
log layout, each field's text and the outcome rule. simulate joins the texts
itself: ids, enum values, _fmt numbers and ISO stamps need no CSV quoting.
The log is byte-identical per config (seed included), and ingest rejects none
of its rows, which SimConfig.validate ensures.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
import tempfile
from dataclasses import dataclass, fields
from itertools import repeat
from typing import Dict, Iterator, Optional, Tuple, get_type_hints

import numpy as np

from .ingest import TABLE_SIZE_BUCKETS, assemble_timelines
from .records import (
    FIELDS,
    TIMELINE,
    Outcome,
    PlayerTimeline,
    PokerGameType,
    PokerHandRecord,
    PokerVariant,
    Record,
    RummyDealRecord,
    RummyGameType,
    column_texts,
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
RECORDS = {POKER: PokerHandRecord, RUMMY: RummyDealRecord}
# Rummy loss points: Normal(POINTS_MU - POINTS_SKILL_COEFF * skill, POINTS_SD),
# rounded and clamped to points_cap.
POINTS_MU, POINTS_SD, POINTS_SKILL_COEFF = 40.0, 10.0, 10.0
# Poker: a player's VPIP goes from VPIP_START to VPIP_END over their games.
VPIP_START, VPIP_END = 0.6, 0.3


class ConfigInvalid(ValueError):
    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


def finite_number(value) -> bool:
    """True for a real number that is not a bool and fits a finite float."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _all(test):
    return lambda v: isinstance(v, (tuple, list)) and all(map(test, v))


# What a field's value must be, and its test, by the field's annotation,
# checked before the value rules; an Optional field also takes None.
_KIND_TESTS = {
    int: ("an integer", lambda v: _integer(v) and finite_number(v)),
    float: ("a finite number", finite_number),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    Tuple[int, int]: ("a pair of integers",
                      lambda v: _all(_integer)(v) and len(v) == 2),
    Tuple[float, ...]: ("a list of finite numbers", _all(finite_number)),
}


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
    points_cap: Tuple[int, int] = (2, 80)  # rummy loss points, low..high
    value_per_point: float = 1.0
    big_blind: float = 2.0
    # experience heterogeneity knobs
    min_games_per_player: Optional[int] = None  # spread quotas min..games
    stagger_starts: bool = False  # offset players' first games in time
    skill_overrides: Optional[Tuple[float, ...]] = None
    seed: int = 0

    def validate(self) -> None:
        ann = get_type_hints(SimConfig)
        for kind, (what, accepts) in _KIND_TESTS.items():
            for name in [n for n in ann if ann[n] in (kind, Optional[kind])]:
                value = getattr(self, name)
                if not (accepts(value) or (value is None and ann[name] != kind)):
                    raise ConfigInvalid(name, f"must be {what}, got {value!r}")
        if self.game not in (POKER, RUMMY):
            raise ConfigInvalid("game", f"must be {POKER!r} or {RUMMY!r}")
        if self.table_size not in TABLE_SIZE_BUCKETS:
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
        # a deal's winner scores up to (table_size - 1) * high, exact in floats
        low, high = self.points_cap
        if not 0 <= low < high <= 2**53 // (self.table_size - 1):
            raise ConfigInvalid("points_cap", "must be 0 <= low < high <= "
                                "2**53 / (table_size - 1)")
        if not (self.value_per_point >= 0 and finite_number(
                self.value_per_point * ((self.table_size - 1) * high))):
            raise ConfigInvalid("value_per_point", "must be >= 0, with "
                                "(table_size - 1) * high of it finite")
        # a pot is at most 5 big blinds a seat; 10 leaves room for rounding
        if not 0 < self.big_blind * 10 * self.table_size <= sys.float_info.max:
            raise ConfigInvalid("big_blind", "must be > 0 and at most the "
                                "largest float / (10 * table_size)")
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


def _players(config: SimConfig) -> np.ndarray:
    """The user ids as objects, of one width, so their text order is their
    index order."""
    pw = max(5, len(str(config.n_players)))
    return np.array([f"p{i:0{pw}d}" for i in range(config.n_players)],
                    dtype=object)


def _rounds(config: SimConfig, users: np.ndarray, skills: np.ndarray,
            quotas: np.ndarray, offsets: np.ndarray
            ) -> Iterator[Tuple[int, np.ndarray, Record]]:
    """The matchmaking/game loop of simulate and simulate_timelines, with
    users from _players(config). Each round is (round number, seated
    players (tables, size), rec): a record of the game's type whose fields
    are the round's columns in seated.ravel() order, as numpy arrays (of
    objects for str fields), or a plain value that every row shares. Its
    game_id (and deal_id) is None: only simulate writes the ids."""
    size = config.table_size
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed).spawn(1)[0]
    )
    total_rounds = int((offsets + quotas).max())
    step = max(SPAN_MS // max(total_rounds, 1), 1)
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
        user, start = users[seated.ravel()], BASE_START + r * step
        end = start + GAME_DURATION_MS
        if config.game == POKER:
            frac = exp_before / np.maximum(quotas[seated] - 1, 1)
            vpip = VPIP_START + (VPIP_END - VPIP_START) * frac
            voluntary = rng.random(seated.shape) < vpip
            # everyone posts one blind; a voluntary entry adds four more
            contrib = config.big_blind * (1.0 + 4.0 * voluntary)
            chips_won = np.where(is_winner, contrib.sum(axis=1)[:, None], 0.0)
            rec = PokerHandRecord(
                user, None, PokerGameType.RING,
                PokerVariant.TEXAS_HOLDEM, config.big_blind, contrib.ravel(),
                chips_won.ravel(), size, size, 2, voluntary.ravel(),
                start, end)
        else:
            raw = rng.normal(POINTS_MU - POINTS_SKILL_COEFF * eff, POINTS_SD)
            loss = np.clip(np.rint(raw), *config.points_cap).astype(int)
            loss[is_winner] = 0
            won = np.where(is_winner, loss.sum(axis=1)[:, None], 0).ravel()
            vpp = config.value_per_point  # float(): int64 products can wrap
            rec = RummyDealRecord(
                user, None, RummyGameType.POINTS, vpp, size, size, start, end,
                start, end, 0.0, won * float(vpp), None, 1, is_winner.ravel(),
                won, loss.ravel())
        played[seated] += 1
        yield r, seated, rec


def simulate(config: SimConfig) -> Tuple[bytes, GroundTruth]:
    """Generate a CSV log (ingest's exact schema) plus the ground truth."""
    skills, quotas, offsets = _planted(config)
    record = RECORDS[config.game]
    texts = [text for _, _, _, text in FIELDS[record]]
    size = config.table_size
    gw = max(5, len(str(config.games_per_player * 2)))
    tables = np.array([f"{t:05d}" for t in range(config.n_players // size)],
                      dtype=object)
    # Each round is encoded into an unnamed temporary file, read back in one
    # read of its exact size: the log is held once, and no growing buffer's
    # reallocation holes make the caller's peak RSS depend on the allocator.
    with tempfile.TemporaryFile() as out:
        out.write((",".join(record._fields) + "\n").encode("utf-8"))
        for r, seated, rec in _rounds(config, _players(config), skills,
                                      quotas, offsets):
            game = f"g{r:0{gw}d}t" + tables[:len(seated)]
            rec = rec._replace(game_id=np.repeat(game, size))
            if record is RummyDealRecord:
                rec = rec._replace(deal_id=np.repeat(game + "d1", size))
            rows = map(",".join, zip(*(
                column_texts(text, value) if isinstance(value, np.ndarray)
                else repeat(text(value), seated.size)
                for text, value in zip(texts, rec))))
            out.write(("\n".join(rows) + "\n").encode("utf-8"))
        out.seek(0)
        data = out.read()
    return data, _truth(config, skills, quotas)


def simulate_timelines(config: SimConfig) -> Dict[str, PlayerTimeline]:
    """Build player timelines directly from the game loop, bypassing CSV.

    Equal, in repr and in player (user-id) order too, to
    build_timelines(config.table_size, parse_*_log(simulate(config))[0]) at
    a fraction of the cost; used for large validation cohorts. Each round's
    outcome columns come from records.TIMELINE. They fill flat columns,
    with one start time a round, from which ingest.assemble_timelines
    builds the timelines of shared Outcomes; a player sits at most one
    table a round, so each player's k-th row is their k-th game, and a
    second pass over the rounds' seats writes the player-major row order.
    The cyclic collector, which would scan each player's new tuple, is
    paused meanwhile.
    """
    outcome_columns = TIMELINE[RECORDS[config.game]][1]
    with gc_paused():
        skills, quotas, offsets = _planted(config)
        users = _players(config)
        seats, cols, starts = [], [], []
        for _, seated, rec in _rounds(config, users, skills, quotas,
                                      offsets):
            seats.append(seated.ravel().astype(np.int32))
            cols.append(outcome_columns(rec))
            starts.append(rec.game_start)
        counts = np.bincount(np.concatenate(seats), minlength=config.n_players)
        stamps = np.repeat(np.array(starts, np.int64), list(map(len, seats)))
        won, delta, voluntary = (np.concatenate(c) for c in zip(*cols))
        del cols
        order = np.empty(len(won), dtype=np.intp)
        at, row = np.cumsum(counts) - counts, 0  # each player's next place
        for seat in seats:
            order[at[seat]] = np.arange(row, row + len(seat))
            at[seat] += 1
            row += len(seat)
        del seats
        seen = np.flatnonzero(counts).tolist()
        return assemble_timelines(config.table_size, users[seen],
                                  counts[seen].tolist(), order,
                                  Outcome(won, delta, stamps, voluntary))
