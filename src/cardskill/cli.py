"""Command-line front end: ingest, analyze, simulate, version.

Exit codes: 0 success, 2 usage error, 3 data error (unreadable input,
bad header), 4 insufficient cohort after filtering.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

from . import __version__
from .ingest import (
    HeaderMismatch,
    build_timelines,
    filter_min_games,
    parse_poker_log,
    parse_rummy_log,
)
from .metrics import METRICS
from .records import parse_timestamp
from .report import atomic_write, build_manifest, write_reports
from .simgen import ConfigInvalid, SimConfig, simulate
from .stattests import (
    DEFAULT_THRESHOLDS,
    InsufficientPlayers,
    StatTestError,
    TooFewPlayers,
    ZeroVariance,
    classify,
    learning_curve_test,
    persistence_test,
    qq_test,
    quantile_summary,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_COHORT = 4


def _int_at_least(low: int):
    """An argparse type for integers >= low; anything else exits with 2."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cardskill",
        description="Skill-vs-chance analytics for poker and rummy game logs.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pi = sub.add_parser("ingest", help="validate log files, print stats")
    pi.add_argument("paths", nargs="+")
    pi.add_argument("--game", choices=["poker", "rummy"], required=True)

    pa = sub.add_parser("analyze", help="run the three-test battery")
    pa.add_argument("paths", nargs="+")
    pa.add_argument("--game", choices=["poker", "rummy"], required=True)
    pa.add_argument("--table-size", type=int, choices=[2, 3, 6], default=6)
    pa.add_argument("--min-games", type=_int_at_least(1), default=30)
    pa.add_argument("--max-games", type=_int_at_least(1), default=100)
    pa.add_argument("--bin-width", type=_int_at_least(1), default=10)
    pa.add_argument("--metric", choices=sorted(METRICS), default="win_rate",
                    help="skill variable for persistence and learning tests")
    pa.add_argument("--split-date", default=None, metavar="YYYY-MM",
                    help="period boundary; default: month nearest midpoint")
    pa.add_argument("--quantile-groups", type=_int_at_least(2), default=None,
                    help="default: 10 for poker, 4 for rummy")
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--out", required=True, metavar="DIR")
    pa.add_argument("--thresholds", default=None, metavar="FILE",
                    help="JSON overrides for classification thresholds")

    ps = sub.add_parser("simulate", help="generate a synthetic log")
    ps.add_argument("--game", choices=["poker", "rummy"], default="poker")
    ps.add_argument("--table-size", type=int, choices=[2, 3, 6], default=2)
    ps.add_argument("--players", type=int, default=100)
    ps.add_argument("--games", type=int, default=100)
    ps.add_argument("--mode", choices=["chance", "skill"], default="chance")
    ps.add_argument("--skill-sd", type=float, default=0.0)
    ps.add_argument("--learning-curve", choices=["power", "exponential"],
                    default="power")
    ps.add_argument("--learning-b", type=float, default=0.0)
    ps.add_argument("--learning-alpha", type=float, default=0.5)
    ps.add_argument("--min-games-per-player", type=int, default=None)
    ps.add_argument("--stagger-starts", action="store_true")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--out", required=True, metavar="DIR")
    ps.add_argument("--config", default=None, metavar="FILE",
                    help="JSON SimConfig; overrides the individual flags")

    sub.add_parser("version", help="print the tool version")
    return p


def _parse_files(paths: List[str], game: str):
    parse = parse_poker_log if game == "poker" else parse_rummy_log
    records = []
    stats_list = []
    for path in paths:
        with open(path, "rb") as f:
            recs, stats = parse(f)
        records.extend(recs)
        stats_list.append((path, stats))
    return records, stats_list


def cmd_ingest(args) -> int:
    try:
        _, stats_list = _parse_files(args.paths, args.game)
    except OSError as exc:
        print(f"error: cannot read {exc.filename}: {exc.strerror}",
              file=sys.stderr)
        return EXIT_DATA
    except HeaderMismatch as exc:
        print(json.dumps({"rows_read": 0, "rows_accepted": 0,
                          "rows_rejected": 0, "error": str(exc)}, indent=2))
        return EXIT_DATA
    out = {path: stats.as_dict() for path, stats in stats_list}
    print(json.dumps(out, indent=2))
    return EXIT_OK


def _load_thresholds(path: Optional[str]) -> Dict[str, float]:
    th = dict(DEFAULT_THRESHOLDS)
    if path:
        with open(path, "r", encoding="utf-8") as f:
            th.update(json.load(f))
    return th


def cmd_analyze(args) -> int:
    try:
        records, stats_list = _parse_files(args.paths, args.game)
    except OSError as exc:
        print(f"error: cannot read {exc.filename}: {exc.strerror}",
              file=sys.stderr)
        return EXIT_DATA
    except HeaderMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA

    try:
        thresholds = _load_thresholds(args.thresholds)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot load thresholds: {exc}", file=sys.stderr)
        return EXIT_DATA

    buckets = build_timelines(records)
    cohort = buckets.get(args.table_size, {})
    cohort = filter_min_games(cohort, args.min_games, args.max_games)
    if not cohort:
        print("error: no players left after min/max games filtering",
              file=sys.stderr)
        return EXIT_COHORT

    split = "month"
    if args.split_date:
        split = parse_timestamp(args.split_date + "-01T00:00:00Z")

    try:
        persistence = persistence_test(
            cohort, split=split, metric=args.metric,
            min_games=args.min_games, seed=args.seed,
        )
        learning = learning_curve_test(
            cohort, metric=args.metric, bin_width=args.bin_width,
            trend_epsilon=thresholds["trend_epsilon"],
        )
        win_rate = METRICS["win_rate"]
        rates = {u: win_rate(tl.outcomes) for u, tl in cohort.items()}
        normality = qq_test(
            [rates[u] for u in sorted(rates)],
            threshold_r2=thresholds["threshold_r2"],
            threshold_dev=thresholds["threshold_dev"],
        )
        k = args.quantile_groups or (10 if args.game == "poker" else 4)
        quantiles = quantile_summary(
            [(len(cohort[u].outcomes), rates[u]) for u in sorted(cohort)], k
        )
    except (InsufficientPlayers, TooFewPlayers) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COHORT
    except (ZeroVariance, StatTestError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA

    report = classify(persistence, learning, normality,
                      thresholds=thresholds, quantiles=quantiles)
    stamps = [o.timestamp for tl in cohort.values() for o in tl.outcomes]
    manifest = build_manifest(
        command_line=["cardskill"] + sys.argv[1:],
        config={
            "game": args.game, "table_size": args.table_size,
            "min_games": args.min_games, "max_games": args.max_games,
            "bin_width": args.bin_width, "metric": args.metric,
            "split_date": args.split_date, "quantile_groups": k,
            "rows_accepted": sum(s.rows_accepted for _, s in stats_list),
            "rows_rejected": sum(s.rows_rejected for _, s in stats_list),
        },
        input_paths=args.paths,
        seed=args.seed,
        data_start=min(stamps),
        data_end=max(stamps),
    )
    paths = write_reports(args.out, report, manifest)
    print(json.dumps({"verdict": report.verdict, "outputs": paths}, indent=2))
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as f:
                raw = json.load(f)
            if "points_cap" in raw:
                raw["points_cap"] = tuple(raw["points_cap"])
            if raw.get("skill_overrides") is not None:
                raw["skill_overrides"] = tuple(raw["skill_overrides"])
            config = SimConfig(**raw)
        except (OSError, json.JSONDecodeError, TypeError) as exc:
            print(f"error: bad config file: {exc}", file=sys.stderr)
            return EXIT_DATA
    else:
        config = SimConfig(
            game=args.game,
            table_size=args.table_size,
            n_players=args.players,
            games_per_player=args.games,
            mode=args.mode,
            skill_sd=args.skill_sd,
            learning_curve=args.learning_curve,
            learning_b=args.learning_b,
            learning_alpha=args.learning_alpha,
            min_games_per_player=args.min_games_per_player,
            stagger_starts=args.stagger_starts,
            seed=args.seed,
        )
    try:
        data, truth = simulate(config)
    except ConfigInvalid as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    os.makedirs(args.out, exist_ok=True)
    log_path = os.path.join(args.out, f"{config.game}_log.csv")
    truth_path = os.path.join(args.out, "ground_truth.json")
    atomic_write(log_path, data)
    atomic_write(truth_path, (truth.to_json() + "\n").encode("utf-8"))
    print(log_path)
    print(truth_path)
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "version":
        print(__version__)
        return EXIT_OK
    if args.command == "ingest":
        return cmd_ingest(args)
    if args.command == "analyze":
        return cmd_analyze(args)
    if args.command == "simulate":
        return cmd_simulate(args)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
