import importlib.util
import json
import os
import subprocess
from unittest import mock

import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_s", "better": "lower", "bound": 0.25},
           {"name": "rows_per_s", "better": "higher", "bound": 0.25}]


def _run(pair, side, wall, rate, workload="w"):
    return {"workload": workload, "pair": pair, "side": side,
            "record": {"metrics": {"wall_s": {"value": wall},
                                   "rows_per_s": {"value": rate}}}}


def test_summary_counts_pairs_the_change_read_better():
    runs = [_run(0, "parent", 2.0, 10), _run(0, "change", 1.0, 20),
            _run(1, "change", 3.0, 10), _run(1, "parent", 2.0, 10),
            _run(2, "parent", 4.0, 5), _run(2, "change", 1.5, 30),
            _run(3, "parent", 9.0, 1)]  # pair 3 is unfinished
    summary = bench_pairs.summarize(runs, METRICS)["w"]
    wall = summary["wall_s"]
    assert wall["pairs"] == 3
    assert wall["change_better_pairs"] == 2
    assert wall["parent"] == {"median": 2.0, "q1": 2.0, "q3": 3.0}
    assert wall["change"]["median"] == 1.5
    # a tie counts for neither side
    assert summary["rows_per_s"]["change_better_pairs"] == 2


def test_summary_skips_a_workload_without_a_finished_pair():
    runs = [_run(0, "parent", 1.0, 1)]
    assert bench_pairs.summarize(runs, METRICS) == {}
    runs.append(_run(0, "change", 0.5, 2))
    wall = bench_pairs.summarize(runs, METRICS)["w"]["wall_s"]
    assert wall["change"] == {"median": 0.5, "q1": 0.5, "q3": 0.5}
    assert wall["change_better_pairs"] == 1



def test_summary_checks_the_median_shift_against_the_bound():
    runs = [_run(0, "parent", 2.0, 100), _run(0, "change", 2.6, 80),
            _run(1, "change", 2.4, 70), _run(1, "parent", 2.0, 100)]
    summary = bench_pairs.summarize(runs, METRICS)["w"]
    # wall 2.0 -> 2.5 s is 25% worse, at the bound; rate 100 -> 75 too
    assert summary["wall_s"]["worse_shift"] == pytest.approx(0.25)
    assert summary["wall_s"]["within_bound"] is True
    assert summary["rows_per_s"]["worse_shift"] == pytest.approx(0.25)
    runs[1] = _run(0, "change", 2.7, 60)
    summary = bench_pairs.summarize(runs, METRICS)["w"]
    assert summary["wall_s"]["within_bound"] is False
    assert summary["rows_per_s"]["within_bound"] is False
    # a better median reads as a negative shift
    better = [_run(0, "parent", 2.0, 100), _run(0, "change", 1.5, 150)]
    summary = bench_pairs.summarize(better, METRICS)["w"]
    assert summary["wall_s"]["worse_shift"] == pytest.approx(-0.25)
    assert summary["rows_per_s"]["worse_shift"] == pytest.approx(-0.5)
    assert summary["rows_per_s"]["within_bound"] is True


def _pairs(parent_walls, change_walls):
    """Runs of the given walls, pair by pair; the rate is 10 / wall."""
    return [_run(i, side, wall, 10 / wall)
            for i, walls in enumerate(zip(parent_walls, change_walls))
            for side, wall in zip(("parent", "change"), walls)]


def test_summary_marks_a_parent_spread_wider_than_the_bound_unresolved():
    # parent IQR 2.5 - 1.5 = 1.0 over a median of 2.0: wider than 0.25
    summary = bench_pairs.summarize(
        _pairs([1.0, 2.0, 3.0], [1.5, 2.5, 2.0]), METRICS)["w"]
    assert summary["wall_s"]["unresolved"] is True
    assert summary["rows_per_s"]["unresolved"] is True
    # every change run better than every parent run settles it
    summary = bench_pairs.summarize(
        _pairs([1.0, 2.0, 3.0], [0.5, 0.6, 0.9]), METRICS)["w"]
    assert summary["wall_s"]["unresolved"] is False
    assert summary["rows_per_s"]["unresolved"] is False
    # a narrow parent spread resolves a change that overlaps it
    summary = bench_pairs.summarize(
        _pairs([2.0, 2.0, 2.1], [2.0, 2.2, 1.9]), METRICS)["w"]
    assert summary["wall_s"]["unresolved"] is False


def test_summary_shows_a_gain_only_when_it_is_clear():
    parent = [2.0 + i / 10 for i in range(10)]  # IQR 0.45, median 2.45
    summary = bench_pairs.summarize(
        _pairs(parent, [1.0] * 9 + [3.0]), METRICS)["w"]
    assert summary["wall_s"]["change_better_pairs"] == 9
    assert summary["wall_s"]["gain_shown"] is True
    assert summary["rows_per_s"]["gain_shown"] is True
    # better in only 8 of 10 pairs
    summary = bench_pairs.summarize(
        _pairs(parent, [1.0] * 8 + [3.0] * 2), METRICS)["w"]
    assert summary["wall_s"]["gain_shown"] is False
    # better in every pair, by less than the parent's IQR
    summary = bench_pairs.summarize(
        _pairs(parent, [w - 0.1 for w in parent]), METRICS)["w"]
    assert summary["wall_s"]["change_better_pairs"] == 10
    assert summary["wall_s"]["gain_shown"] is False
    # a worse change shows no gain
    summary = bench_pairs.summarize(
        _pairs(parent, [w + 1.0 for w in parent]), METRICS)["w"]
    assert summary["wall_s"]["gain_shown"] is False


@pytest.mark.parametrize("pairs", ["0", "-1"])
def test_fewer_than_one_pair_exits_2(tmp_path, capsys, pairs):
    out = tmp_path / "b.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([str(tmp_path), str(tmp_path), "--workload", "w",
                          "--seed", "1", "--pairs", pairs, "--out", str(out)])
    assert exc.value.code == 2
    assert "--pairs" in capsys.readouterr().err
    assert not out.exists()


def test_a_repeated_workload_runs_once(tmp_path):
    """--workload w --workload v --workload w runs w's pairs, then v's,
    once each, so the summary reads every run of the file."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 2, "end_to_end": METRICS}))
    out = tmp_path / "b.json"
    record = {"metrics": {"wall_s": {"value": 1.0},
                          "rows_per_s": {"value": 2.0}}}
    with mock.patch.object(bench_pairs, "run_once",
                           return_value=record) as run_once:
        assert bench_pairs.main([
            str(tmp_path / "p"), str(tmp_path), "--workload", "w",
            "--workload", "v", "--workload", "w", "--seed", "1",
            "--pairs", "2", "--out", str(out)]) == 0
    parent, change = str(tmp_path / "p"), str(tmp_path)
    assert [c.args for c in run_once.call_args_list] == [
        (parent, "w", 1, 2), (change, "w", 1, 2),
        (change, "w", 1, 2), (parent, "w", 1, 2),
        (parent, "v", 1, 2), (change, "v", 1, 2),
        (change, "v", 1, 2), (parent, "v", 1, 2)]
    doc = json.loads(out.read_text())
    assert [(r["workload"], r["pair"]) for r in doc["runs"]] == \
        [(w, p) for w in "wv" for p in (0, 0, 1, 1)]
    assert list(doc["summary"]) == ["w", "v"]


def _stub_run(failures):
    """subprocess.run stubbed to a perfbench run that exits 0 with a record
    listing the given failed checks, and that record."""
    record = {"fail_ratio": len(failures) / 3, "failures": failures,
              "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
    done = subprocess.CompletedProcess(
        [], 0, stdout="perfbench w\nrecord " + json.dumps(record) + "\n",
        stderr="")
    return mock.patch.object(bench_pairs.subprocess, "run",
                             return_value=done), record


def test_a_run_with_no_failed_check_gives_its_record():
    stub, record = _stub_run([])
    with stub:
        assert bench_pairs.run_once("dir", "w", 1, 2.0) == record


def test_a_run_with_failed_checks_exits_1(capsys):
    """perfbench/run.py exits 0 when its checks fail and lists them in the
    record; such a run stops the script as a non-zero exit does."""
    stub, _ = _stub_run(["classify: r 0.5 != 0.4"])
    with stub, pytest.raises(SystemExit) as exc:
        bench_pairs.run_once("dir", "w", 1, 2.0)
    # a message as the exit code exits 1
    assert exc.value.code == "error: w in dir failed 1 benchmark checks"
    assert "FAILED classify: r 0.5 != 0.4" in capsys.readouterr().err
