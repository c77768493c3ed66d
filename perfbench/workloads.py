"""Seeded inputs for the benchmark workloads.

Every input is built from the workload seed with ``cardskill.simgen`` plus
this module's own corrupt-and-split step, so the same seed always gives the
same bytes. Each generator records the planted configs and the exact number
of rows it corrupted; the checks compare the program's counts against them.
"""

from __future__ import annotations

import hashlib
import heapq
import os
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from cardskill import simgen
from cardskill.records import RUMMY_COLUMNS

from spans import NULL_TRACER

# Each corruption makes one row fail validation in a different way. A row is
# corrupted at most once, so injected rejects equal the rows the parser drops.
REJECT_KINDS = ("blank_field", "non_numeric", "bad_timestamp",
                "winner_contradiction")
_RUMMY_NUMERIC = ("game_variant", "max_players", "actual_players", "buy_in",
                  "win_amt", "deal_number", "winner_points", "loss_points")
_RUMMY_TIMESTAMPS = ("game_start", "game_end", "deal_start", "deal_end")
_COL = {name: i for i, name in enumerate(RUMMY_COLUMNS)}


@dataclass
class CsvInputs:
    """Log files written for one CLI workload, with what was planted."""

    paths: List[str]
    rows: int
    rejects: int
    rejects_by_kind: Dict[str, int]
    planted: List[dict]
    digest: str
    bytes: int

    def describe(self) -> dict:
        return {"files": self.paths, "rows": self.rows, "bytes": self.bytes,
                "rejects": self.rejects,
                "rejects_by_kind": self.rejects_by_kind,
                "planted": self.planted, "sha256": self.digest}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    CLI workloads run ``cardskill analyze --game <game> --table-size
    <table_size>`` on the generated files; the battery workload hands the
    simulated timelines to the statistics with the ``battery`` settings.
    """

    name: str
    game: str
    table_size: int
    configs: Callable[[int], List[simgen.SimConfig]]
    expect_skill: bool
    cli: bool = True
    reject_share: float = 0.0
    n_files: int = 1
    battery: dict = field(default_factory=dict)


# The poker cohort has 2000 players: with 1000, the planted learning curve is
# weak enough against the noise that some seeds read a Flat trend (seed 11
# does) and so fail the SkillDominant check.
# The smoke tests lower SCALE, which multiplies every cohort's player count.
SCALE = 1.0


def _scaled(n: int, table_size: int) -> int:
    return max(table_size * 4, int(round(n * SCALE)))


def _poker_hu(seed: int) -> List[simgen.SimConfig]:
    return [simgen.SimConfig(
        game="poker", table_size=2, n_players=_scaled(2000, 2),
        games_per_player=100, mode="skill", skill_sd=0.8,
        learning_curve="power", learning_b=0.6, stagger_starts=True,
        seed=seed,
    )]


def _rummy_mixed(seed: int) -> List[simgen.SimConfig]:
    # Two cohorts over the same calendar window; the 6-seat one is the bucket
    # that `--table-size 3` discards. Distinct seeds keep them independent.
    return [
        simgen.SimConfig(
            game="rummy", table_size=3, n_players=_scaled(1500, 3),
            games_per_player=100, min_games_per_player=40, mode="chance",
            seed=seed,
        ),
        simgen.SimConfig(
            game="rummy", table_size=6, n_players=_scaled(600, 6),
            games_per_player=100, mode="chance", seed=seed + 2**32,
        ),
    ]


def _battery_chance(seed: int) -> List[simgen.SimConfig]:
    return [simgen.SimConfig(
        game="poker", table_size=2, n_players=_scaled(20000, 2),
        games_per_player=50, min_games_per_player=30, mode="chance",
        seed=seed,
    )]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="poker-hu-clean", game="poker", table_size=2,
        configs=_poker_hu, expect_skill=True,
    ),
    Workload(
        name="rummy-mixed-dirty", game="rummy", table_size=3,
        configs=_rummy_mixed, expect_skill=False,
        reject_share=0.02, n_files=4,
    ),
    Workload(
        name="battery-chance-20k", game="poker", table_size=2,
        configs=_battery_chance, expect_skill=False, cli=False,
        # Quotas of 30-50 games put 10-25 games after the month split, so
        # persistence qualifies players at 10 games per period.
        battery={"min_games": 10, "n_boot": 1000, "bin_width": 10, "k": 10},
    ),
)}


def _corrupt(cells: List[str], kind: str, rng: random.Random) -> None:
    if kind == "blank_field":
        cells[rng.randrange(len(cells))] = ""
    elif kind == "non_numeric":
        cells[_COL[rng.choice(_RUMMY_NUMERIC)]] = "12x"
    elif kind == "bad_timestamp":
        cells[_COL[rng.choice(_RUMMY_TIMESTAMPS)]] = "2023-02-30T00:00:00.000Z"
    else:
        if cells[_COL["is_winner"]] == "1":
            cells[_COL["loss_points"]] = "5"
        else:  # losers always carry loss_points >= 2
            cells[_COL["is_winner"]] = "1"


def corrupt_and_split(logs: List[bytes], share: float, n_files: int,
                      seed: int) -> tuple:
    """Merge simulated logs by start time, corrupt a share of the rows and
    cut the result into ``n_files`` consecutive CSV texts.

    Returns (file texts, row count, rejects by kind).
    """
    header = None
    streams = []
    for log in logs:
        lines = log.decode("utf-8").splitlines()
        if header is not None and lines[0] != header:
            raise ValueError("logs to merge have different headers")
        header = lines[0]
        if any('"' in line for line in lines):
            raise ValueError("quoted CSV fields are not supported here")
        streams.append(lines[1:])
    if share and header != ",".join(RUMMY_COLUMNS):
        raise ValueError("row corruption is defined for rummy logs only")
    start_col = header.split(",").index("game_start")
    rows = list(heapq.merge(*streams,
                            key=lambda line: line.split(",", start_col + 1)[start_col]))

    rng = random.Random(seed)
    picked = rng.sample(range(len(rows)), int(round(share * len(rows))))
    by_kind = Counter()
    for j, i in enumerate(picked):
        kind = REJECT_KINDS[j % len(REJECT_KINDS)]
        cells = rows[i].split(",")
        _corrupt(cells, kind, rng)
        rows[i] = ",".join(cells)
        by_kind[kind] += 1

    per_file = -(-len(rows) // n_files)
    texts = ["\n".join([header] + rows[k:k + per_file]) + "\n"
             for k in range(0, len(rows), per_file)]
    return texts, len(rows), {k: by_kind[k] for k in REJECT_KINDS}


def make_csv_inputs(workload: Workload, seed: int, work_dir: str,
                    tracer=NULL_TRACER) -> CsvInputs:
    """Simulate, corrupt, split and write the log files of a CLI workload."""
    configs = workload.configs(seed)
    logs = []
    for config in configs:
        with tracer.span("simgen.simulate"):
            data, _ = simgen.simulate(config)
        logs.append(data)
    with tracer.span("perfbench.corrupt_split_write"):
        texts, rows, by_kind = corrupt_and_split(
            logs, workload.reject_share, workload.n_files, seed)
        del logs
        os.makedirs(work_dir, exist_ok=True)
        paths = []
        digest = hashlib.sha256()
        size = 0
        for k, text in enumerate(texts, start=1):
            path = os.path.join(work_dir, f"{workload.game}_part{k}.csv")
            blob = text.encode("utf-8")
            with open(path, "wb") as f:
                f.write(blob)
            digest.update(blob)
            size += len(blob)
            paths.append(path)
    return CsvInputs(
        paths=paths, rows=rows, rejects=sum(by_kind.values()),
        rejects_by_kind=by_kind, planted=[c.as_dict() for c in configs],
        digest=digest.hexdigest(), bytes=size,
    )


def make_timelines(workload: Workload, seed: int, tracer=NULL_TRACER):
    """The battery workload's input: timelines straight from the simulator."""
    (config,) = workload.configs(seed)
    with tracer.span("simgen.simulate_timelines"):
        timelines = simgen.simulate_timelines(config)
    return config, timelines
