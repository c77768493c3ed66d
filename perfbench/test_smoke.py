"""Tiny-size smoke tests of the benchmark. Run: python3 -m pytest perfbench"""

import dataclasses
import json
import math
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, make_csv_inputs  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "SCALE", 0.1)


def bench(capsys, *args):
    assert run.main([*args, "--seconds", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-2].startswith("record ")
    return json.loads(lines[-1]), json.loads(lines[-2][len("record "):])


def test_workloads_match_the_spec():
    names = [w["name"] for w in SPEC["workloads"]]
    assert list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    # rummy-mixed-dirty runs by hand and here, but is not in BENCHMARK.json.
    assert set(run.WORKLOAD_NAMES) - set(names) == {"rummy-mixed-dirty"}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_prints_every_metric_with_its_unit(capsys, monkeypatch, workload,
                                           trace):
    monkeypatch.chdir(ROOT)
    result, record = bench(capsys, "--workload", workload, "--seed", "1",
                           "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert result["attempted"] >= 1
    assert set(record["stamp"]) == {"python", "numpy", "scipy", "nproc",
                                    "git_commit", "seed"}
    assert set(record["classify"]) == {"verdict", "r", "ci95", "trend",
                                       "qq_r2", "qq_max_dev"}
    assert record["fail_ratio"] == 0.0
    if trace == 0:
        for name in SPEC["end_to_end"]:
            assert result["metrics"][name["name"]]["value"] > 0
    assert not os.path.exists(os.path.join(ROOT, run.WORK_ROOT))


def test_wrong_reject_count_fails_the_check(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    workload = WORKLOADS["rummy-mixed-dirty"]
    bench = run.Bench(workload, seed=3, seconds=0, work=str(tmp_path))
    inputs = make_csv_inputs(workload, 3, bench.in_dir)
    assert inputs.rejects == sum(inputs.rejects_by_kind.values()) > 0
    _, _, problems, reports, _ = bench.cli_analyze(inputs, None)
    assert problems == []

    wrong = dataclasses.replace(inputs, rejects=inputs.rejects + 1)
    problems, _, _ = run.check_cli_run(workload, wrong, 0, bench.out_dir,
                                       reports)
    assert any(p.startswith("rows_rejected") for p in problems)
    problems, _, _ = run.check_cli_run(workload, inputs, 3, bench.out_dir,
                                       reports)
    assert problems == ["exit code 3"]


def test_same_seed_same_inputs(tmp_path):
    workload = WORKLOADS["rummy-mixed-dirty"]
    a = make_csv_inputs(workload, 5, str(tmp_path / "a"))
    b = make_csv_inputs(workload, 5, str(tmp_path / "b"))
    c = make_csv_inputs(workload, 6, str(tmp_path / "c"))
    assert a.digest == b.digest != c.digest
    assert len(a.paths) == workload.n_files
