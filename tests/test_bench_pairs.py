import importlib.util
import os

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


@pytest.mark.parametrize("pairs", ["0", "-1"])
def test_fewer_than_one_pair_exits_2(tmp_path, capsys, pairs):
    out = tmp_path / "b.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([str(tmp_path), str(tmp_path), "--workload", "w",
                          "--seed", "1", "--pairs", pairs, "--out", str(out)])
    assert exc.value.code == 2
    assert "--pairs" in capsys.readouterr().err
    assert not out.exists()
