"""Command-line front end: ingest, analyze, simulate, version.

Each of simulate's setting flags stores into its SimConfig field by dest and
declares no default or allowed values. The flags given, or else a --config
file, make one dict of fields; SimConfig's defaults fill the rest and its
validate() judges every value. --config with any setting flag is a usage
error that names the flags.

Commands return 0 or raise. main() alone maps a raised error to an exit
code through EXIT_CODES and prints one "error: ..." line to stderr:
2, usage: a bad flag (argparse), --split-date not YYYY-MM, --config with a
setting flag, an invalid simulator config value, named by its field, or, to
analyze, --min-games above --max-games or one log file given twice, both
checked before any log is read;
3, data: a log that is unreadable, not UTF-8, badly headed or holds a field
over the csv module's size limit, a thresholds or config file that is not a
JSON object, a bad threshold key or value, a failed statistic, or an --out
that cannot be written; 4, cohort: no player at the table size, too few for
a test after filtering, or a split that leaves a period without outcomes.
Other errors are bugs and keep their tracebacks.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager
from typing import Dict, List, Mapping, Optional, Union

from . import __version__
from .ingest import (  # noqa: F401 - build_timelines: see cmd_analyze
    TABLE_SIZE_BUCKETS,
    Cohort,
    HeaderMismatch,
    build_cohort,
    build_timelines,
    filter_min_games,
    parse_poker_log,
    parse_rummy_log,
)
from .metrics import METRICS, MetricError
from .records import RecordError, parse_timestamp
from .report import atomic_write, build_manifest, write_reports
from .simgen import ConfigInvalid, SimConfig, finite_number, simulate
from .stattests import (
    DEFAULT_THRESHOLDS,
    InsufficientPlayers,
    StatTestError,
    VerdictReport,
    classify,
    learning_curve_test,
    persistence_test,
    player_values,
    qq_test,
    quantile_summary,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_COHORT = 4


class UsageError(ValueError):
    """Arguments that argparse accepts but that do not go together."""


# First match wins: the cohort error is a StatTestError too.
EXIT_CODES = (
    ((InsufficientPlayers,), EXIT_COHORT),
    ((ConfigInvalid, UsageError), EXIT_USAGE),
    ((HeaderMismatch, RecordError, StatTestError, MetricError, OSError,
      json.JSONDecodeError, UnicodeDecodeError), EXIT_DATA),
)


def _int_at_least(low: int):
    """An argparse type for integers >= low; anything else exits with 2."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


def _year_month(text: str) -> str:
    """An argparse type for YYYY-MM; the text is kept for the manifest."""
    try:
        parse_timestamp(text + "-01T00:00:00Z")
    except RecordError:
        raise argparse.ArgumentTypeError(
            f"expected YYYY-MM, got {text!r}") from None
    return text


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cardskill",
        description="Skill-vs-chance analytics for poker and rummy game logs.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pi = sub.add_parser("ingest", help="validate log files, print stats")
    pi.set_defaults(run=cmd_ingest)
    pi.add_argument("paths", nargs="+")
    pi.add_argument("--game", choices=["poker", "rummy"], required=True)

    pa = sub.add_parser("analyze", help="run the three-test battery")
    pa.set_defaults(run=cmd_analyze)
    pa.add_argument("paths", nargs="+")
    pa.add_argument("--game", choices=["poker", "rummy"], required=True)
    pa.add_argument("--table-size", type=int, choices=TABLE_SIZE_BUCKETS,
                    default=6)
    pa.add_argument("--min-games", type=_int_at_least(1), default=30,
                    help="games a player needs in all to enter the cohort, "
                    "and in each period to enter the persistence test, so "
                    "twice this many in all (default: 30)")
    pa.add_argument("--max-games", type=_int_at_least(1), default=100)
    pa.add_argument("--bin-width", type=_int_at_least(1), default=10)
    pa.add_argument("--metric", choices=sorted(METRICS), default="win_rate",
                    help="skill variable for persistence and learning tests")
    pa.add_argument("--split-date", type=_year_month, metavar="YYYY-MM",
                    help="period boundary; default: month nearest midpoint")
    pa.add_argument("--quantile-groups", type=_int_at_least(2), default=None,
                    help="default: 10 for poker, 4 for rummy")
    pa.add_argument("--seed", type=_int_at_least(0), default=0)
    pa.add_argument("--out", required=True, metavar="DIR")
    pa.add_argument("--thresholds", default=None, metavar="FILE",
                    help="JSON overrides for classification thresholds")

    ps = sub.add_parser("simulate", help="generate a synthetic log",
                        argument_default=argparse.SUPPRESS)
    settings = [
        ps.add_argument("--game"),
        ps.add_argument("--table-size", type=int),
        ps.add_argument("--players", dest="n_players", type=int),
        ps.add_argument("--games", dest="games_per_player", type=int),
        ps.add_argument("--mode"),
        ps.add_argument("--skill-sd", type=float),
        ps.add_argument("--learning-curve"),
        ps.add_argument("--learning-b", type=float),
        ps.add_argument("--learning-alpha", type=float),
        ps.add_argument("--min-games-per-player", type=int),
        ps.add_argument("--stagger-starts", action="store_true"),
        ps.add_argument("--seed", type=int),
    ]
    ps.set_defaults(run=cmd_simulate, settings={
        a.dest: a.option_strings[0] for a in settings})
    ps.add_argument("--out", required=True, metavar="DIR")
    ps.add_argument("--config", default=None, metavar="FILE",
                    help="JSON SimConfig, given instead of the setting flags")

    pv = sub.add_parser("version", help="print the tool version")
    pv.set_defaults(run=cmd_version)
    return p


def _undecodable_line(path: str) -> Optional[str]:
    """'line N: <error>' for the first line of path that is not UTF-8."""
    with open(path, "rb") as f:
        for n, line in enumerate(f, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return f"line {n}: {exc}"
    return None


@contextmanager
def _reading(path: str):
    """Re-raise a header, decoding, CSV or JSON error in path naming the
    file; a decoding error also names the first line that is not UTF-8."""
    try:
        yield
    except UnicodeDecodeError as exc:
        # The decoder's position counts from its current 8 KiB block.
        raise RecordError(
            f"{path}: {_undecodable_line(path) or exc}") from exc
    except (HeaderMismatch, csv.Error, json.JSONDecodeError) as exc:
        raise RecordError(f"{path}: {exc}") from exc


def _parse_file(path: str, game: str):
    parse = parse_poker_log if game == "poker" else parse_rummy_log
    with open(path, "rb") as f, _reading(path):
        return parse(f)


def _load_json_object(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as f, _reading(path):
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise RecordError(f"{path}: expected a JSON object")
    return doc


def cmd_ingest(args) -> int:
    _distinct(args.paths)
    # Only the counts are printed, so no file's records outlive its parse.
    out = {path: _parse_file(path, args.game)[1].as_dict()
           for path in args.paths}
    print(json.dumps(out, indent=2))
    return EXIT_OK


def _load_thresholds(path: Optional[str]) -> Dict[str, float]:
    """The thresholds that path overrides."""
    th = _load_json_object(path) if path else {}
    for key, value in th.items():
        if key not in DEFAULT_THRESHOLDS:
            raise RecordError(f"{path}: unknown threshold {key!r}", key)
        if not finite_number(value):
            raise RecordError(
                f"{path}: {key}: must be a finite number, got {value!r}", key)
    return th


def _distinct(paths: List[str]) -> None:
    """Raise UsageError if two of paths, however spelled, name one file."""
    seen: Dict[str, str] = {}
    for path in paths:
        real = os.path.realpath(path)
        if real in seen:
            raise UsageError(f"log given twice: {seen[real]} and {path}")
        seen[real] = path


def battery(cohort: Cohort, *, metric: str = "win_rate",
            split: Union[int, str] = "month", min_games: int = 30,
            bin_width: int = 10, k: int = 10,
            thresholds: Mapping[str, float] = DEFAULT_THRESHOLDS,
            seed: int = 0) -> VerdictReport:
    """analyze's battery: the QQ test and k-group quantile summary of win
    rates, persistence of metric across split, its learning curve, and
    classify under thresholds over the defaults. The two quick tests run
    first, so a cohort too small for them fails before the bootstrap. Each
    test is called by its name here, which perfbench wraps to time it."""
    th = {**DEFAULT_THRESHOLDS, **thresholds}
    rates = player_values(cohort, "win_rate")
    normality = qq_test(list(rates.values()),
                        threshold_r2=th["threshold_r2"],
                        threshold_dev=th["threshold_dev"])
    quantiles = quantile_summary(
        list(zip(cohort.games().tolist(), rates.values())), k)
    persistence = persistence_test(cohort, split=split, metric=metric,
                                   min_games=min_games, seed=seed)
    learning = learning_curve_test(cohort, metric=metric,
                                   bin_width=bin_width,
                                   trend_epsilon=th["trend_epsilon"])
    return classify(persistence, learning, normality, thresholds=th,
                    quantiles=quantiles)


def cmd_analyze(args) -> int:
    if args.min_games > args.max_games:
        raise UsageError(f"--min-games {args.min_games} is above --max-games "
                         f"{args.max_games}")
    _distinct(args.paths)
    thresholds = _load_thresholds(args.thresholds)
    parts, stats_list = zip(*(_parse_file(path, args.game)
                              for path in args.paths))
    # No timeline is built (build_timelines stays bound for perfbench), and
    # the parsed rows go once the cohort holds what it needs of them.
    cohort = build_cohort(args.table_size, *parts)
    if not cohort:
        sizes = set().union(*(p.columns.max_players.tolist() for p in parts))
        raise InsufficientPlayers(
            f"no players at table size {args.table_size}; the logs hold "
            f"table sizes: {', '.join(map(str, sorted(sizes))) or 'none'}")
    del parts
    cohort = filter_min_games(cohort, args.min_games, args.max_games)
    if not cohort:
        raise InsufficientPlayers(
            "no players left after min/max games filtering")
    split = (parse_timestamp(args.split_date + "-01T00:00:00Z")
             if args.split_date else "month")
    k = args.quantile_groups or (10 if args.game == "poker" else 4)
    report = battery(cohort, metric=args.metric, split=split,
                     min_games=args.min_games, bin_width=args.bin_width, k=k,
                     thresholds=thresholds, seed=args.seed)
    manifest = build_manifest(
        command_line=["cardskill"] + sys.argv[1:],
        config={
            "game": args.game, "table_size": args.table_size,
            "min_games": args.min_games, "max_games": args.max_games,
            "bin_width": args.bin_width, "metric": args.metric,
            "split_date": args.split_date, "quantile_groups": k,
            "rows_accepted": sum(s.rows_accepted for s in stats_list),
            "rows_rejected": sum(s.rows_rejected for s in stats_list),
        },
        input_paths=args.paths, seed=args.seed,
        data_start=int(cohort.columns.timestamp.min()),
        data_end=int(cohort.columns.timestamp.max()),
    )
    paths = write_reports(args.out, report, manifest)
    print(json.dumps({"verdict": report.verdict, "outputs": paths}, indent=2))
    return EXIT_OK


def cmd_simulate(args) -> int:
    fields = {dest: getattr(args, dest) for dest in args.settings
              if hasattr(args, dest)}
    if args.config and fields:
        raise ConfigInvalid("--config", "cannot be given with setting flags ("
                            + ", ".join(map(args.settings.get, fields)) + ")")
    if args.config:
        fields = _load_json_object(args.config)
    unknown = sorted(set(fields) - set(SimConfig.__dataclass_fields__))
    if unknown:
        raise ConfigInvalid(unknown[0], "not a SimConfig field")
    config = SimConfig(**{k: tuple(v) if isinstance(v, list) else v
                          for k, v in fields.items()})
    data, truth = simulate(config)
    os.makedirs(args.out, exist_ok=True)
    log_path = os.path.join(args.out, f"{config.game}_log.csv")
    truth_path = os.path.join(args.out, "ground_truth.json")
    atomic_write(log_path, data)
    atomic_write(truth_path, (truth.to_json() + "\n").encode("utf-8"))
    print(log_path)
    print(truth_path)
    return EXIT_OK


def cmd_version(args) -> int:
    print(__version__)
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except tuple(c for classes, _ in EXIT_CODES for c in classes) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for classes, code in EXIT_CODES
                    if isinstance(exc, classes))


if __name__ == "__main__":
    sys.exit(main())
