"""cardskill benchmark: seeded workloads, end-to-end metrics, traced layers.

Run from the root of a cardskill checkout (it imports ``src/cardskill``):

    python3 perfbench/run.py --workload poker-hu-clean --seed 1 \\
        --seconds 40 --trace 0

Workloads (planted configs in workloads.py):

  poker-hu-clean      ``cardskill analyze`` on one clean heads-up poker log,
                      skill mode, 2000 players x 100 games (200k rows).
                      Parse and timeline build take most of the time.
  rummy-mixed-dirty   ``cardskill analyze --table-size 3`` on four files of a
                      3-seat and a 6-seat rummy chance cohort merged by time,
                      about 165k rows, 2% of them corrupted in four ways.
  battery-chance-20k  No CSV: persistence, learning curve, QQ, quantiles,
                      classify and write_reports on 20k simulated heads-up
                      chance players. Statistics set time and memory.

BENCHMARK.json times poker-hu-clean and battery-chance-20k. Between them
they reach every layer, and with two workloads instead of three a full set of
comparison runs still fits in an hour with 40-second windows. rummy-mixed-dirty,
the one workload with rejected rows, runs by hand and in the smoke tests.

``--trace 0`` prints the end-to-end metrics. The inputs are built from the
seed three times and ``setup_s`` is the median. Then the pipeline runs again
and again until ``--seconds`` have passed, at least three times. A CLI run is
timed from spawning ``cardskill analyze`` until it exits, and its peak RSS is
``ru_maxrss`` from ``wait4``. The battery runs in one child process
(pipeline.py) that simulates the timelines three times, freeing each copy
before the next, and times each run from the first test to the reports on
disk; its peak RSS is the child's ``ru_maxrss`` from ``wait4``.
``wall_s`` is the lower quartile of the runs and ``rows_per_s`` divides the
input rows by it; ``peak_rss_mb`` is the median. On a shared host other
tenants slow a core by up to 1.8x for stretches of seconds to minutes. Such
a slowdown only ever adds time, so a low quantile is the figure it disturbs
least; the lower quartile rather than the fastest run, because the battery's
fastest runs are rare outliers (0.8x of its typical run) that the quartile
passes over. Every sample is kept in the record.

``--trace 1`` runs the program with a span around each call into simgen,
records, ingest, stattests, metrics, report and cli, and prints the
per-layer metrics derived from the self times of the fastest of three traced
runs. For the CLI workloads the child runs ``cardskill.cli.main`` with the
layer functions it calls replaced by spanned wrappers; for the battery it
runs the library calls. Each traced run alternates with an untraced run of
the same child whose wrappers hold a null tracer, and ``trace.overhead_s``
is the median over these pairs of traced minus untraced seconds. Layers a
workload does not exercise read 0.

Every run checks the program's outputs: exit code 0, rows read and rejected
equal to what the generator wrote and injected, a SkillDominant verdict on
the skill workload and none on the chance workloads, and report files
byte-identical across runs on the same inputs. The line before the last,
``record {...}``, holds the version stamps, the planted inputs, the verdict
and classify inputs, every sample, ``fail_ratio`` and, when traced, the
spans. The last line is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

Smoke tests: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = ".perfbench_work"
SETUP_REPS = 3
MIN_RUNS = 3
TRACE_REPS = 3
VALIDATE_CHUNK = 20_000
# The keys of workloads.WORKLOADS, which imports cardskill and so can only be
# loaded once src/ is known to be there.
WORKLOAD_NAMES = ("poker-hu-clean", "rummy-mixed-dirty", "battery-chance-20k")

END_TO_END = {
    "wall_s": "s",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "simgen.simulate_s": "s",
    "simgen.simulate_timelines_s": "s",
    "simgen.rows": "count",
    "records.validate_s": "s",
    "records.validate_us_per_row": "us",
    "ingest.parse_s": "s",
    "ingest.parse_rows_per_s": "rows/s",
    "ingest.rows_read": "count",
    "ingest.rows_rejected": "count",
    "ingest.accept_ratio": "1",
    "ingest.parse_peak_rss_mb": "MB",
    "ingest.build_timelines_s": "s",
    "ingest.build_timelines_peak_rss_mb": "MB",
    "ingest.outcomes": "count",
    "ingest.players.2": "count",
    "ingest.players.3": "count",
    "ingest.players.6": "count",
    "ingest.players.other": "count",
    "ingest.filter_s": "s",
    "ingest.players_kept": "count",
    "ingest.players_dropped": "count",
    "stattests.persistence_s": "s",
    "stattests.persistence_players": "count",
    "stattests.persistence_peak_rss_mb": "MB",
    "stattests.learning_s": "s",
    "stattests.learning_bins": "count",
    "stattests.fit_errors": "count",
    "stattests.qq_s": "s",
    "stattests.quantiles_s": "s",
    "stattests.classify_s": "s",
    "metrics.theoretical_quantile_s": "s",
    "metrics.rank_average_s": "s",
    "report.digest_s": "s",
    "report.digest_bytes": "bytes",
    "report.write_s": "s",
    "report.write_bytes": "bytes",
    "cli.startup_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Checks:
    """Pass/fail bookkeeping: one attempt per pipeline run checked."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def note(self, label: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(f"{label}: {p}" for p in problems)


def git_commit() -> Optional[str]:
    """HEAD of the checkout in the working directory, read from ``.git``;
    None where there is no repository (an exported tree)."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        with open(os.path.join(".git", ref), encoding="utf-8") as f:
            return f.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def stamp(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": seed,
    }


def spawn(args: List[str], env: dict, log_path: str):
    """Run a child to completion: (exit code, seconds from spawn to exit,
    the child's peak RSS in MB from wait4)."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, stdout=log, stderr=subprocess.STDOUT,
                                env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def read_reports(out_dir: str) -> Dict[str, bytes]:
    reports = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as f:
            reports[name] = f.read()
    return reports


def check_verdict(workload, verdict: str) -> List[str]:
    from cardskill.stattests import SKILL_DOMINANT

    if workload.expect_skill and verdict != SKILL_DOMINANT:
        return [f"verdict {verdict}, expected {SKILL_DOMINANT}"]
    if not workload.expect_skill and verdict == SKILL_DOMINANT:
        return [f"verdict {SKILL_DOMINANT} on a chance cohort"]
    return []


def check_reports(reference: Optional[Dict[str, bytes]],
                  reports: Dict[str, bytes]) -> List[str]:
    """Determinism: the same inputs and seed give byte-identical reports."""
    if reference is None or reports == reference:
        return []
    differ = sorted(n for n in set(reference) | set(reports)
                    if reference.get(n) != reports.get(n))
    return ["reports differ from the first run on the same inputs: "
            + ", ".join(differ)]


def check_counts(inputs, rows_read: int, rows_rejected: int) -> List[str]:
    problems = []
    if rows_read != inputs.rows:
        problems.append(f"rows_read {rows_read}, generated {inputs.rows}")
    if rows_rejected != inputs.rejects:
        problems.append(
            f"rows_rejected {rows_rejected}, injected {inputs.rejects}")
    return problems


def check_cli_run(workload, inputs, exit_code: int, out_dir: str,
                  reference: Optional[Dict[str, bytes]]):
    """Checks on one ``cardskill analyze`` run: (problems, reports, verdict
    document); the last two are None when the run did not succeed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"], None, None
    reports = read_reports(out_dir)
    doc = json.loads(reports["verdict.json"])
    cfg = doc["manifest"]["config"]
    problems = check_counts(inputs, cfg["rows_accepted"] + cfg["rows_rejected"],
                            cfg["rows_rejected"])
    problems += check_verdict(workload, doc["verdict"])
    problems += check_reports(reference, reports)
    return problems, reports, doc


def analyze_command(workload, seed: int, out_dir: str, paths: List[str]):
    return ["analyze", "--game", workload.game,
            "--table-size", str(workload.table_size),
            "--seed", str(seed), "--out", out_dir, *paths]


class Bench:
    """One benchmark run of one workload in its own work directory."""

    def __init__(self, workload, seed: int, seconds: float, work: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.in_dir = os.path.join(work, "in")
        self.out_dir = os.path.join(work, "out")
        self.checks = Checks()
        self.record: dict = {}
        src = os.path.abspath("src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ,
                        PYTHONPATH=src + (os.pathsep + path if path else ""))

    # -- helpers -----------------------------------------------------------

    def python(self, args: List[str], log_name: str):
        return spawn([sys.executable, *args], self.env,
                     os.path.join(self.work, log_name))

    def child(self, spec: dict):
        """Run pipeline.py on ``spec``: (exit code, seconds from spawn to
        exit, peak RSS in MB, its result or None if it failed)."""
        result_path = os.path.join(self.work, "result.json")
        spec_path = os.path.join(self.work, "spec.json")
        if os.path.exists(result_path):
            os.remove(result_path)
        with open(spec_path, "w", encoding="utf-8") as f:
            json.dump(dict(spec, result=result_path), f)
        code, wall, rss = self.python(
            [os.path.join(HERE, "pipeline.py"), spec_path], "pipeline.log")
        result = None
        if code == 0:
            with open(result_path, encoding="utf-8") as f:
                result = json.load(f)
        return code, wall, rss, result

    def startup(self) -> None:
        """One fresh interpreter running ``import cardskill.cli``."""
        code, _, _ = self.python(["-c", "import cardskill.cli"], "startup.log")
        if code != 0:
            raise RuntimeError(f"import cardskill.cli exited with {code}")

    def cli_analyze(self, inputs, reference):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        code, wall, rss = self.python(
            ["-m", "cardskill.cli",
             *analyze_command(self.workload, self.seed, self.out_dir,
                              inputs.paths)],
            "analyze.log")
        problems, reports, doc = check_cli_run(
            self.workload, inputs, code, self.out_dir, reference)
        return wall, rss, problems, reports, doc

    def battery_child(self, setup_reps: int, seconds: float, min_runs: int,
                      traced: bool):
        """The battery in a child process, after ``setup_reps`` set-ups, run
        after run; checks each run's verdict and reports. Returns (the child's
        result, its peak RSS in MB, the first run's reports)."""
        import workloads

        shutil.rmtree(self.out_dir, ignore_errors=True)
        code, _, rss, result = self.child({
            "job": "battery", "workload": self.workload.name,
            "seed": self.seed, "scale": workloads.SCALE,
            "setup_reps": setup_reps, "out_root": self.out_dir,
            "seconds": seconds, "min_runs": min_runs, "traced": traced})
        if result is None:
            raise RuntimeError(f"battery child exited with {code}")
        self.record["inputs"] = result["inputs"]
        reference = None
        for n, run in enumerate(result["runs"], start=1):
            reports = read_reports(run["out_dir"])
            problems = check_verdict(self.workload,
                                     run["counts"]["classify"]["verdict"])
            problems += check_reports(reference, reports)
            self.checks.note(("traced" if run["traced"] else "untraced")
                             + f" run {n}", problems)
            if reference is None:
                reference = reports
                self.record["classify"] = run["counts"]["classify"]
        return result, rss, reference

    def record_verdict(self, doc: Optional[dict]) -> None:
        from pipeline import classify_inputs

        self.record["classify"] = classify_inputs(doc) if doc else None

    def timed_runs(self):
        """Run numbers 1, 2, ... until --seconds have passed, at least
        MIN_RUNS of them."""
        t0 = time.perf_counter()
        n = 0
        while n < MIN_RUNS or time.perf_counter() - t0 < self.seconds:
            n += 1
            yield n

    # -- end-to-end runs -----------------------------------------------------

    def cli_end_to_end(self) -> dict:
        from workloads import make_csv_inputs

        setup, digests = [], set()
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            inputs = make_csv_inputs(self.workload, self.seed, self.in_dir)
            setup.append(time.perf_counter() - t0)
            digests.add(inputs.digest)
        if len(digests) != 1:
            self.checks.failures.append(
                "setup: one seed gave different input files")
        self.startup()  # compiles bytecode so every timed run starts warm

        walls, rss = [], []
        reference = doc = None
        for n in self.timed_runs():
            wall, peak, problems, reports, run_doc = self.cli_analyze(
                inputs, reference)
            self.checks.note(f"run {n}", problems)
            if reference is None and reports is not None:
                reference, doc = reports, run_doc
            walls.append(wall)
            rss.append(peak)
        self.record.update(inputs=inputs.describe(), samples={
            "wall_s": walls, "peak_rss_mb": rss, "setup_s": setup})
        self.record_verdict(doc)
        wall = lower_quartile(walls)
        return {"wall_s": wall, "rows_per_s": inputs.rows / wall,
                "peak_rss_mb": statistics.median(rss),
                "setup_s": statistics.median(setup)}

    def battery_end_to_end(self) -> dict:
        from spans import duration

        result, peak, _ = self.battery_child(SETUP_REPS, self.seconds,
                                             MIN_RUNS, traced=False)
        setup = [duration(s) for s in result["setup_spans"]]
        walls = [run["wall"] for run in result["runs"]]
        self.record["samples"] = {"wall_s": walls, "peak_rss_mb": [peak],
                                  "setup_s": setup}
        wall = lower_quartile(walls)
        return {"wall_s": wall,
                "rows_per_s": result["inputs"]["outcomes"] / wall,
                "peak_rss_mb": peak, "setup_s": statistics.median(setup)}

    # -- traced runs ---------------------------------------------------------

    def cli_traced(self) -> dict:
        from spans import Tracer, duration
        from workloads import make_csv_inputs

        tracer = Tracer()
        inputs = make_csv_inputs(self.workload, self.seed, self.in_dir, tracer)
        self.startup()
        for _ in range(TRACE_REPS):
            with tracer.span("cli.startup"):
                self.startup()

        # The CLI's own reports are the reference for the instrumented runs.
        _, _, problems, reference, doc = self.cli_analyze(inputs, None)
        self.checks.note("cli run", problems)
        self.record_verdict(doc)

        # The same instrumented CLI, traced and with a null tracer in turn.
        argv = analyze_command(self.workload, self.seed, self.out_dir,
                               inputs.paths)
        runs = {True: [], False: []}
        for n in range(1, TRACE_REPS + 1):
            for traced in (True, False):
                label = ("traced" if traced else "untraced") + f" run {n}"
                shutil.rmtree(self.out_dir, ignore_errors=True)
                code, wall, _, result = self.child(
                    {"job": "analyze", "argv": argv, "traced": traced})
                if result is None or result["code"] != 0:
                    self.checks.note(label, [f"exit code {code}, cli "
                                             f"{result and result['code']}"])
                    runs[traced].append((None, None))
                    continue
                counts = result["counts"]
                problems = check_counts(inputs, counts["rows_read"],
                                        counts["rows_rejected"])
                problems += check_verdict(self.workload,
                                          counts["classify"]["verdict"])
                problems += check_reports(reference,
                                          read_reports(self.out_dir))
                self.checks.note(label, problems)
                runs[traced].append((wall, result))

        validated, rejected = self.validate_pass(tracer, inputs.paths)
        self.checks.note("records.validate pass", check_counts(
            inputs, validated, rejected))
        self.kernel_pass(tracer, os.path.join(self.out_dir, "qq.csv"))

        counts = {}
        traced = [r for r in runs[True] if r[1] is not None]
        if traced:
            _, result = min(traced, key=lambda r: r[0])
            tracer.adopt(result["spans"])
            counts = dict(result["counts"])
            counts["overhead"] = pair_overhead(runs[True], runs[False])
        counts.update(simgen_rows=inputs.rows, validate_rows=validated,
                      digest_bytes=inputs.bytes,
                      write_bytes=sum(map(len, (reference or {}).values())),
                      startup=statistics.median(
                          duration(s) for s in tracer.spans
                          if s["name"] == "cli.startup"))
        self.record.update(inputs=inputs.describe(), spans=tracer.spans,
                           samples={"wall_s": [r[0] for r in runs[False]],
                                    "traced_wall_s": [r[0] for r in traced]})
        return layer_metrics(tracer.spans, counts)

    def battery_traced(self) -> dict:
        from spans import Tracer

        tracer = Tracer()
        result, _, reference = self.battery_child(1, 0, 2 * TRACE_REPS,
                                                  traced=True)
        tracer.adopt(result["setup_spans"])
        runs = result["runs"]
        self.kernel_pass(tracer, os.path.join(runs[0]["out_dir"], "qq.csv"))

        traced = [(run["wall"], run) for run in runs if run["traced"]]
        untraced = [(run["wall"], run) for run in runs if not run["traced"]]
        _, best = min(traced, key=lambda r: r[0])
        tracer.adopt(best["spans"])
        counts = dict(best["counts"],
                      simgen_rows=result["inputs"]["outcomes"],
                      write_bytes=sum(map(len, reference.values())),
                      overhead=pair_overhead(traced, untraced))
        self.record.update(
            spans=tracer.spans,
            samples={"wall_s": [r[0] for r in untraced],
                     "traced_wall_s": [r[0] for r in traced]})
        return layer_metrics(tracer.spans, counts)

    def validate_pass(self, tracer, paths: List[str]):
        """Call the row validator directly on ``csv.reader`` rows, timing
        only the validator; returns (rows, rows rejected)."""
        from cardskill import records

        if self.workload.game == "poker":
            columns, validate = records.POKER_COLUMNS, records.validate_poker_record
        else:
            columns, validate = records.RUMMY_COLUMNS, records.validate_rummy_record
        rows = rejected = 0
        for path in paths:
            with open(path, "r", encoding="utf-8", newline="") as f:
                reader = csv.reader(f)
                header = [h.strip() for h in next(reader)]
                index = {name: header.index(name) for name in columns}
                while True:
                    block = list(itertools.islice(reader, VALIDATE_CHUNK))
                    if not block:
                        break
                    chunk = [{name: row[i] if i < len(row) else ""
                              for name, i in index.items()}
                             for row in block if row]
                    with tracer.span("records.validate"):
                        for raw in chunk:
                            try:
                                validate(raw)
                            except records.RecordError:
                                rejected += 1
                    rows += len(chunk)
        return rows, rejected

    def kernel_pass(self, tracer, qq_path: str) -> None:
        """Time the QQ kernel (tie-averaged ranks and the inverse normal CDF
        over the percentiles) on the cohort in a qq.csv report, and check it
        gives the values the report holds."""
        from cardskill import metrics

        with open(qq_path, encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))[1:]
        values = [float(r[3]) for r in rows]
        n = len(values)
        with tracer.span("metrics.rank_average"):
            ranks = metrics.rank_average(values)
        with tracer.span("metrics.theoretical_quantile"):
            theoretical = [
                metrics.theoretical_quantile(metrics.percentile_position(i, n))
                for i in range(1, n + 1)]
        problems = []
        if ranks != [float(r[0]) for r in rows]:
            problems.append("rank_average disagrees with qq.csv")
        if theoretical != [float(r[2]) for r in rows]:
            problems.append("theoretical_quantile disagrees with qq.csv")
        self.checks.note("metrics kernel pass", problems)


def lower_quartile(samples: List[float]) -> float:
    return statistics.quantiles(samples, n=4)[0]


def pair_overhead(traced: list, untraced: list) -> float:
    """Median of traced minus untraced seconds over runs made back to back,
    as (seconds, ...) tuples in run order; a pair with a failed run (None)
    is left out. Pairs cancel the slow stretches of a shared host that a
    difference of two minima would not."""
    diffs = [t[0] - u[0] for t, u in zip(traced, untraced)
             if t[0] is not None and u[0] is not None]
    return statistics.median(diffs) if diffs else 0.0


def layer_metrics(spans: List[dict], counts: dict) -> dict:
    """Per-layer metrics from the spans' self times and the layer counts."""
    from spans import last_rss_mb, self_times

    t = self_times(spans)
    players = counts.get("players", {})
    rows_read = counts.get("rows_read", 0)
    validate_rows = counts.get("validate_rows", 0)
    parse_s = t.get("ingest.parse", 0.0)
    validate_s = t.get("records.validate", 0.0)
    m = {
        "simgen.simulate_s": t.get("simgen.simulate", 0.0),
        "simgen.simulate_timelines_s": t.get("simgen.simulate_timelines", 0.0),
        "simgen.rows": counts.get("simgen_rows", 0),
        "records.validate_s": validate_s,
        "records.validate_us_per_row":
            validate_s / validate_rows * 1e6 if validate_rows else 0.0,
        "ingest.parse_s": parse_s,
        "ingest.parse_rows_per_s": rows_read / parse_s if parse_s else 0.0,
        "ingest.rows_read": rows_read,
        "ingest.rows_rejected": counts.get("rows_rejected", 0),
        "ingest.accept_ratio":
            counts.get("rows_accepted", 0) / rows_read if rows_read else 0.0,
        "ingest.parse_peak_rss_mb": last_rss_mb(spans, "ingest.parse"),
        "ingest.build_timelines_s": t.get("ingest.build_timelines", 0.0),
        "ingest.build_timelines_peak_rss_mb":
            last_rss_mb(spans, "ingest.build_timelines"),
        "ingest.outcomes": counts.get("outcomes", 0),
        "ingest.filter_s": t.get("ingest.filter", 0.0),
        "ingest.players_kept": counts.get("players_kept", 0),
        "ingest.players_dropped": counts.get("players_dropped", 0),
        "stattests.persistence_s": t.get("stattests.persistence", 0.0),
        "stattests.persistence_players": counts.get("persistence_players", 0),
        "stattests.persistence_peak_rss_mb":
            last_rss_mb(spans, "stattests.persistence"),
        "stattests.learning_s": t.get("stattests.learning", 0.0),
        "stattests.learning_bins": counts.get("learning_bins", 0),
        "stattests.fit_errors": counts.get("fit_errors", 0),
        "stattests.qq_s": t.get("stattests.qq", 0.0),
        "stattests.quantiles_s": t.get("stattests.quantiles", 0.0),
        "stattests.classify_s": t.get("stattests.classify", 0.0),
        "metrics.theoretical_quantile_s":
            t.get("metrics.theoretical_quantile", 0.0),
        "metrics.rank_average_s": t.get("metrics.rank_average", 0.0),
        "report.digest_s": t.get("report.digest", 0.0),
        "report.digest_bytes": counts.get("digest_bytes", 0),
        "report.write_s": t.get("report.write", 0.0),
        "report.write_bytes": counts.get("write_bytes", 0),
        "cli.startup_s": counts.get("startup", 0.0),
        "trace.overhead_s": counts.get("overhead", 0.0),
    }
    for bucket in ("2", "3", "6", "other"):
        m[f"ingest.players.{bucket}"] = players.get(bucket, 0)
    return m


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="how long the timed runs go on (at least three runs)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if not os.path.isfile(os.path.join("src", "cardskill", "cli.py")):
        print("error: run from the root of a cardskill checkout "
              "(src/cardskill not found)", file=sys.stderr)
        return 2
    src = os.path.abspath("src")
    if src not in sys.path:
        sys.path.insert(0, src)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    import cardskill
    from workloads import WORKLOADS

    if not os.path.abspath(cardskill.__file__).startswith(src + os.sep):
        print(f"error: imported cardskill from {cardskill.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    # A terminated benchmark still kills its child and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload]
    work = os.path.join(WORK_ROOT, f"{workload.name}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    bench = Bench(workload, args.seed, args.seconds, work)
    try:
        if args.trace:
            values = (bench.cli_traced() if workload.cli
                      else bench.battery_traced())
            units = PER_LAYER
        else:
            values = (bench.cli_end_to_end() if workload.cli
                      else bench.battery_end_to_end())
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)

    checks = bench.checks
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    fail_ratio = checks.failed / checks.attempted
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'fail_ratio':40s} {fail_ratio:>16.6g} 1 "
          f"({checks.failed} of {checks.attempted} runs)")
    verdict = bench.record.get("classify")
    if verdict:
        print("  verdict {verdict} r={r:.4f} ci95=[{lo:.4f}, {hi:.4f}] "
              "trend={trend} qq_r2={qq_r2:.5f} qq_max_dev={qq_max_dev:.4f}"
              .format(lo=verdict["ci95"][0], hi=verdict["ci95"][1], **verdict))
    for failure in checks.failures:
        print(f"  FAILED {failure}")
    record = {"workload": workload.name, "trace": args.trace,
              "seconds": args.seconds,
              "stamp": stamp(args.seed), "fail_ratio": fail_ratio,
              "failures": checks.failures, **bench.record,
              "metrics": metrics}
    print("record " + json.dumps(record))
    print(json.dumps({"correct": not checks.failures,
                      "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
