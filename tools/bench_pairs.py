"""Paired benchmark runs of two cardskill checkouts, written as a BENCH file.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --seed 23 \\
        --pairs 10 --out BENCH_N.json --what "..."

For each workload in turn (``--workload W``, repeatable; by default every
workload of ``BENCHMARK.json`` in CHANGE_DIR), runs ``perfbench/run.py
--workload W --seed S --seconds T --trace 0`` in PARENT_DIR and in
CHANGE_DIR, ``--pairs`` times each, swapping which side goes first every
pair (the parent first in pair 0); T is ``BENCHMARK.json``'s
``run_seconds``. Every run's ``record`` line is kept with its side, run
order and pair index. The summary gives, for each end-to-end metric that
``BENCHMARK.json`` lists, the median and quartiles (inclusive method) of
each side's runs, the number of pairs in which the change read better, and
the no-regression check: the change's median shift in the metric's worse
direction as a share of the parent's median (``worse_shift``, negative when
the change is better), and whether that is at most the metric's ``bound``
(``within_bound``). Two more fields apply the review rules:
``unresolved`` is true when the parent's interquartile range over its
median is wider than the ``bound`` and not every change run reads better
than every parent run, so the runs spread too widely to tell; ``gain_shown``
is true when the change read better in at least nine tenths of the pairs
and its median is better than the parent's by more than the parent's
interquartile range, which a claimed gain needs.
The file is rewritten after every run, so an interruption loses only the
run in progress. A run that exits non-zero or prints no record line stops
the script with exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List

SIDES = ("parent", "change")
COMMAND = ("python3 perfbench/run.py --workload <workload> --seed <seed> "
           "--seconds <seconds> --trace 0")


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """The record of one ``perfbench/run.py`` run in checkout."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    records = [line[len("record "):] for line in proc.stdout.splitlines()
               if line.startswith("record ")]
    if proc.returncode != 0 or not records:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"error: {workload} in {checkout} exited "
                         f"{proc.returncode}")
    return json.loads(records[-1])


def _spread(values: List[float]) -> dict:
    if len(values) == 1:
        return dict.fromkeys(("median", "q1", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: List[dict], metrics: List[dict]) -> dict:
    """Per workload and metric: each side's median and quartiles, the
    pairs, among those with both sides run, in which the change read
    better, the median's worse_shift against the metric's bound, and the
    unresolved and gain_shown rules."""
    summary: Dict[str, dict] = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        by_pair: Dict[int, dict] = {}
        for r in runs:
            if r["workload"] == workload:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r["record"]
        pairs = [p for p in by_pair.values() if len(p) == 2]
        if not pairs:
            continue
        summary[workload] = {}
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"
            value = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                     for side in SIDES}
            better = sum((c < p) if lower else (c > p)
                         for p, c in zip(value["parent"], value["change"]))
            spread = {side: _spread(value[side]) for side in SIDES}
            parent = spread["parent"]["median"]
            gain = spread["change"]["median"] - parent
            gain = -gain if lower else gain
            shift = -gain / abs(parent)
            iqr = spread["parent"]["q3"] - spread["parent"]["q1"]
            separated = (max(value["change"]) < min(value["parent"]) if lower
                         else min(value["change"]) > max(value["parent"]))
            summary[workload][name] = {
                **spread, "change_better_pairs": better, "pairs": len(pairs),
                "worse_shift": shift, "within_bound": shift <= m["bound"],
                "unresolved": iqr / abs(parent) > m["bound"] and not separated,
                "gain_shown": better >= 0.9 * len(pairs) and gain > iqr}
    return summary


def host() -> str:
    import numpy
    import scipy
    return (f"{os.cpu_count()} cores; Python {platform.python_version()}, "
            f"numpy {numpy.__version__}, scipy {scipy.__version__}")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, not {value}")
    return value


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent_dir")
    p.add_argument("change_dir")
    p.add_argument("--workload", action="append",
                   help="a perfbench workload; repeat for several")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=_positive_int, default=10)
    p.add_argument("--out", required=True, help="the BENCH JSON to write")
    p.add_argument("--what", default="", help="what the runs compare")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    with open(os.path.join(args.change_dir, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    dirs = {"parent": args.parent_dir, "change": args.change_dir}
    doc = {"what": args.what,
           "command": COMMAND.replace("<seconds>", f"{seconds:g}"),
           "host": host(), "summary": {}, "runs": []}
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        for pair in range(args.pairs):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                record = run_once(dirs[side], workload, args.seed, seconds)
                doc["runs"].append({
                    "workload": workload, "seed": args.seed, "side": side,
                    "trace": 0, "order": len(doc["runs"]), "pair": pair,
                    "record": record})
                doc["summary"] = summarize(doc["runs"], bench["end_to_end"])
                tmp = args.out + ".tmp"
                with open(tmp, "w") as f:
                    json.dump(doc, f, indent=1)
                    f.write("\n")
                os.replace(tmp, args.out)
                print(f"{workload} pair {pair} {side}: " + ", ".join(
                    f"{k}={v['value']:.4g}"
                    for k, v in record["metrics"].items()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
