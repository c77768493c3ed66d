"""The benchmark's child process: the program under test in a fresh
interpreter, with a span around each layer call.

    python3 perfbench/pipeline.py SPEC.json

``SPEC.json["job"]`` picks what runs; the result goes once, at the end, to
the JSON file ``SPEC.json["result"]``.

``analyze`` runs ``cardskill.cli.main`` itself on ``SPEC.json["argv"]``.
Before it does, every layer function that the CLI calls by name (parse,
timeline build, filter, the three tests, quantiles, classify, manifest and
report writing) is replaced in ``cardskill.cli`` by a wrapper that opens a
span and notes the counts the benchmark checks. With ``"traced": false`` the
wrappers use a tracer that records nothing, so traced and untraced runs go
through the same code and differ only by the spans.

``battery`` simulates the timelines of ``battery-chance-20k`` from the seed
``setup_reps`` times, each under a span, freeing each copy before the next,
and runs ``run_battery`` on the last copy again and again until
``SPEC.json["seconds"]`` have passed and at least ``min_runs`` times, each
run into its own report directory. With ``"traced": true`` the runs
alternate traced and untraced. Its peak RSS is the battery's:
``simulate_timelines`` peaks at the size of the timelines it returns, which
every battery run holds anyway.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict, Sequence

from cardskill import cli, report, stattests

import workloads
from spans import NULL_TRACER, Tracer

# The cardskill.cli globals wrapped in the ``analyze`` job, with span names.
CLI_LAYERS = {
    "parse_poker_log": "ingest.parse",
    "parse_rummy_log": "ingest.parse",
    "build_timelines": "ingest.build_timelines",
    "filter_min_games": "ingest.filter",
    "persistence_test": "stattests.persistence",
    "learning_curve_test": "stattests.learning",
    "qq_test": "stattests.qq",
    "quantile_summary": "stattests.quantiles",
    "classify": "stattests.classify",
    "build_manifest": "report.digest",
    "write_reports": "report.write",
}


def classify_inputs(doc: dict) -> dict:
    """The verdict and the values classify() decided it from, taken from a
    verdict.json document or ``VerdictReport.as_dict()``."""
    return {
        "verdict": doc["verdict"],
        "r": doc["persistence"]["r"],
        "ci95": doc["persistence"]["bootstrap_ci95"],
        "trend": doc["learning"]["trend_direction"],
        "qq_r2": doc["normality"]["r_squared"],
        "qq_max_dev": doc["normality"]["max_abs_deviation"],
    }


def battery_counts(verdict) -> dict:
    return {
        "persistence_players": verdict.persistence.n_players,
        "learning_bins": len(verdict.learning.binned.points),
        "fit_errors": len(verdict.learning.fit_errors),
        "classify": classify_inputs(verdict.as_dict()),
    }


def _note(counts: dict, name: str, args: tuple, out) -> None:
    """Keep what the benchmark checks from one layer call's result."""
    if name in ("parse_poker_log", "parse_rummy_log"):
        stats = out[1]
        for key in ("rows_read", "rows_accepted", "rows_rejected"):
            counts[key] = counts.get(key, 0) + getattr(stats, key)
    elif name == "build_timelines":
        counts["outcomes"] = sum(len(tl.outcomes) for players in out.values()
                                 for tl in players.values())
        counts["players"] = {str(b): len(p) for b, p in out.items()}
    elif name == "filter_min_games":
        counts["players_kept"] = len(out)
        counts["players_dropped"] = len(args[0]) - len(out)
    elif name == "classify":
        counts.update(battery_counts(out))


def instrument_cli(tracer, counts: dict) -> None:
    """Replace each CLI_LAYERS name in cardskill.cli by a spanned wrapper."""
    def wrap(name, fn):
        def layer(*args, **kwargs):
            with tracer.span(CLI_LAYERS[name]):
                out = fn(*args, **kwargs)
            _note(counts, name, args, out)
            return out
        return layer

    for name in CLI_LAYERS:
        setattr(cli, name, wrap(name, getattr(cli, name)))


def run_analyze(spec: dict) -> dict:
    tracer = Tracer() if spec["traced"] else NULL_TRACER
    counts: Dict = {}
    instrument_cli(tracer, counts)
    # The manifest records sys.argv, so the reports match the CLI's bytes.
    sys.argv = ["cardskill", *spec["argv"]]
    with tracer.span("cli.main"):
        code = cli.main(spec["argv"])
    return {"code": code, "counts": counts,
            "spans": getattr(tracer, "spans", [])}


def run_battery(tracer, cohort, *, min_games: int, n_boot: int,
                bin_width: int, k: int, seed: int, out_dir: str,
                command_line: Sequence[str], config: Dict):
    """The three tests, classify and the report files, called as the CLI
    calls them with the default thresholds."""
    th = dict(stattests.DEFAULT_THRESHOLDS)
    with tracer.span("stattests.persistence"):
        persistence = stattests.persistence_test(
            cohort, split="month", metric="win_rate", min_games=min_games,
            n_boot=n_boot, seed=seed)
    with tracer.span("stattests.learning"):
        learning = stattests.learning_curve_test(
            cohort, metric="win_rate", bin_width=bin_width,
            trend_epsilon=th["trend_epsilon"])
    rates = {u: sum(1 for o in tl.outcomes if o.won) / len(tl.outcomes)
             for u, tl in cohort.items()}
    with tracer.span("stattests.qq"):
        normality = stattests.qq_test(
            [rates[u] for u in sorted(rates)],
            threshold_r2=th["threshold_r2"], threshold_dev=th["threshold_dev"])
    with tracer.span("stattests.quantiles"):
        quantiles = stattests.quantile_summary(
            [(len(cohort[u].outcomes), rates[u]) for u in sorted(cohort)], k)
    with tracer.span("stattests.classify"):
        verdict = stattests.classify(persistence, learning, normality,
                                     thresholds=th, quantiles=quantiles)
    stamps = [o.timestamp for tl in cohort.values() for o in tl.outcomes]
    with tracer.span("report.digest"):
        manifest = report.build_manifest(
            command_line=command_line, config=config, input_paths=(),
            seed=seed, data_start=min(stamps), data_end=max(stamps))
    with tracer.span("report.write"):
        report.write_reports(out_dir, verdict, manifest)
    return verdict


def battery_runs(spec: dict) -> dict:
    workloads.SCALE = spec["scale"]
    workload = workloads.WORKLOADS[spec["workload"]]
    seed = spec["seed"]
    setup = Tracer()
    timelines = None
    for _ in range(spec["setup_reps"]):
        timelines = None  # free the last copy before building the next
        config, timelines = workloads.make_timelines(workload, seed, setup)
    settings = workload.battery
    runs = []
    t0 = time.perf_counter()
    while (len(runs) < spec["min_runs"]
           or time.perf_counter() - t0 < spec["seconds"]):
        traced = spec["traced"] and len(runs) % 2 == 0
        tracer = Tracer() if traced else NULL_TRACER
        out_dir = os.path.join(spec["out_root"], f"run{len(runs) + 1}")
        start = time.perf_counter()
        with tracer.span("battery"):
            verdict = run_battery(
                tracer, timelines, **settings, seed=seed, out_dir=out_dir,
                command_line=["perfbench", workload.name, "--seed", str(seed)],
                config={"simulation": config.as_dict(), **settings})
        runs.append({"wall": time.perf_counter() - start, "traced": traced,
                     "out_dir": out_dir, "spans": getattr(tracer, "spans", []),
                     "counts": battery_counts(verdict)})
    inputs = {"planted": [config.as_dict()], "players": len(timelines),
              "outcomes": sum(len(tl.outcomes) for tl in timelines.values())}
    return {"inputs": inputs, "setup_spans": setup.spans, "runs": runs}


def main(spec_path: str) -> int:
    with open(spec_path, "r", encoding="utf-8") as f:
        spec = json.load(f)
    job = {"analyze": run_analyze, "battery": battery_runs}[spec["job"]]
    result = job(spec)
    with open(spec["result"], "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
