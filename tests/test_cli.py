import gc
import json
import os
import subprocess
import sys

import pytest

from cardskill import cli, simgen
from cardskill.cli import EXIT_COHORT, EXIT_DATA, EXIT_OK, main
from cardskill.metrics import METRICS


def run(argv):
    return main(argv)


@pytest.fixture
def sim_dir(tmp_path):
    out = tmp_path / "sim"
    code = run([
        "simulate", "--game", "poker", "--table-size", "2",
        "--players", "60", "--games", "60", "--mode", "chance",
        "--seed", "21", "--out", str(out),
    ])
    assert code == EXIT_OK
    return out


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    done = subprocess.run(
        [sys.executable, "-c", "import sys, cardskill.cli; print(sorted("
         "m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    assert done.stdout == "[]\n"


def test_version(capsys):
    assert run(["version"]) == EXIT_OK
    assert capsys.readouterr().out.strip()


def test_simulate_writes_log_and_truth(sim_dir):
    assert (sim_dir / "poker_log.csv").exists()
    truth = json.loads((sim_dir / "ground_truth.json").read_text())
    assert truth["config"]["n_players"] == 60


def test_simulate_same_seed_identical_files(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run(["simulate", "--players", "30", "--games", "20",
                    "--seed", "5", "--out", str(out)]) == EXIT_OK
        outs.append((out / "poker_log.csv").read_bytes())
    assert outs[0] == outs[1]


def test_simulate_invalid_config_exit_code(tmp_path, capsys):
    code = run(["simulate", "--mode", "chance", "--skill-sd", "0.5",
                "--out", str(tmp_path / "x")])
    assert code == 2
    assert "skill_sd" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--metric", "nope"],
    ["--min-games", "0"],
    ["--max-games", "0"],
    ["--bin-width", "0"],
    ["--bin-width", "ten"],
    ["--quantile-groups", "1"],
], ids="-".join)
def test_analyze_bad_flag_exits_2(tmp_path, flags):
    with pytest.raises(SystemExit) as exc:
        run(["analyze", str(tmp_path / "log.csv"), "--game", "poker",
             "--out", str(tmp_path / "out"), *flags])
    assert exc.value.code == 2


def test_ingest_valid_file(sim_dir, capsys):
    code = run(["ingest", "--game", "poker",
                str(sim_dir / "poker_log.csv")])
    assert code == EXIT_OK
    stats = json.loads(capsys.readouterr().out)
    path = str(sim_dir / "poker_log.csv")
    assert stats[path]["rows_rejected"] == 0
    assert stats[path]["rows_read"] > 0


def test_ingest_missing_file(capsys):
    code = run(["ingest", "--game", "poker", "/no/such/file.csv"])
    assert code == EXIT_DATA
    assert "/no/such/file.csv" in capsys.readouterr().err


def test_ingest_bad_header(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("user_id,game_id\nu1,g1\n")
    assert run(["ingest", "--game", "poker", str(bad)]) == EXIT_DATA


def test_analyze_pipeline(sim_dir, tmp_path, capsys):
    out = tmp_path / "report"
    code = run([
        "analyze", "--game", "poker", "--table-size", "2",
        "--min-games", "30", "--max-games", "100", "--seed", "3",
        "--out", str(out), str(sim_dir / "poker_log.csv"),
    ])
    assert code == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["verdict"] in ("ChanceDominant", "Inconclusive",
                                  "SkillDominant")
    for name in ("verdict.json", "persistence.csv", "learning.csv",
                 "qq.csv", "quantiles.csv"):
        assert (out / name).exists()
    doc = json.loads((out / "verdict.json").read_text())
    assert doc["schema_version"] == 1
    assert doc["manifest"]["seed"] == 3
    assert doc["verdict"] == summary["verdict"]


def test_analyze_deterministic_verdict_bytes(sim_dir, tmp_path):
    blobs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert run([
            "analyze", "--game", "poker", "--table-size", "2",
            "--seed", "3", "--out", str(out),
            str(sim_dir / "poker_log.csv"),
        ]) == EXIT_OK
        blobs.append((out / "verdict.json").read_bytes())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("metric", sorted(METRICS))
def test_analyze_each_metric(sim_dir, tmp_path, metric):
    out = tmp_path / "r"
    assert run([
        "analyze", "--game", "poker", "--table-size", "2",
        "--metric", metric, "--out", str(out),
        str(sim_dir / "poker_log.csv"),
    ]) == EXIT_OK
    doc = json.loads((out / "verdict.json").read_text())
    assert doc["persistence"]["metric"] == metric
    assert doc["learning"]["metric"] == metric


def test_analyze_empty_cohort_exit_code(sim_dir, tmp_path, capsys):
    code = run([
        "analyze", "--game", "poker", "--table-size", "2",
        "--min-games", "500", "--max-games", "600",
        "--out", str(tmp_path / "r"), str(sim_dir / "poker_log.csv"),
    ])
    assert code == EXIT_COHORT


def test_analyze_thresholds_file(sim_dir, tmp_path):
    th = tmp_path / "thresholds.json"
    th.write_text(json.dumps({"r_min": 0.9}))
    out = tmp_path / "r"
    assert run([
        "analyze", "--game", "poker", "--table-size", "2",
        "--thresholds", str(th), "--out", str(out),
        str(sim_dir / "poker_log.csv"),
    ]) == EXIT_OK
    doc = json.loads((out / "verdict.json").read_text())
    assert doc["thresholds_used"]["r_min"] == 0.9


def test_reports_are_rfc4180_parsable(sim_dir, tmp_path):
    import csv

    out = tmp_path / "r"
    assert run([
        "analyze", "--game", "poker", "--table-size", "2",
        "--out", str(out), str(sim_dir / "poker_log.csv"),
    ]) == EXIT_OK
    for name in ("persistence.csv", "learning.csv", "qq.csv",
                 "quantiles.csv"):
        with open(out / name, newline="") as f:
            rows = list(csv.reader(f))
        assert rows and rows[0]  # header present
        width = len(rows[0])
        assert all(len(r) == width for r in rows)


@pytest.mark.parametrize("caller_gc", [True, False], ids=["gc-on", "gc-off"])
def test_nothing_touches_the_collector(sim_dir, tmp_path, monkeypatch,
                                       capsys, caller_gc):
    """Nothing in cardskill touches the collector: main and
    simulate_timelines leave it as the caller set it, whether they return
    or raise, and run with it so."""
    seen, parse_poker_log = [], cli.parse_poker_log
    planted = simgen._planted

    def parse(stream):
        seen.append(gc.isenabled())
        return parse_poker_log(stream)

    def plant(config):
        seen.append(gc.isenabled())
        return planted(config)

    monkeypatch.setattr(cli, "parse_poker_log", parse)
    monkeypatch.setattr(simgen, "_planted", plant)
    was_enabled = gc.isenabled()
    (gc.enable if caller_gc else gc.disable)()
    try:
        log = str(sim_dir / "poker_log.csv")
        assert run(["ingest", "--game", "poker", log]) == EXIT_OK
        assert gc.isenabled() is caller_gc
        bad = tmp_path / "bad.csv"
        bad.write_text("user_id\nu1\n")
        assert run(["ingest", "--game", "poker", str(bad)]) == EXIT_DATA
        assert gc.isenabled() is caller_gc
        simgen.simulate_timelines(simgen.SimConfig(n_players=4,
                                                   games_per_player=3))
        assert gc.isenabled() is caller_gc
        with pytest.raises(simgen.ConfigInvalid):
            simgen.simulate_timelines(simgen.SimConfig(table_size=4))
        assert gc.isenabled() is caller_gc
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen == [caller_gc] * 4


def simulated_config(tmp_path, *argv):
    out = tmp_path / "sim"
    assert run(["simulate", *argv, "--out", str(out)]) == EXIT_OK
    return json.loads((out / "ground_truth.json").read_text())["config"]


FLAG_FIELDS = [
    (["--game", "rummy"], {"game": "rummy"}),
    (["--table-size", "3"], {"table_size": 3}),
    (["--players", "7"], {"n_players": 7}),
    (["--games", "5"], {"games_per_player": 5}),
    (["--mode", "skill"], {"mode": "skill"}),
    (["--mode", "skill", "--skill-sd", "0.5"],
     {"mode": "skill", "skill_sd": 0.5}),
    (["--learning-curve", "exponential"], {"learning_curve": "exponential"}),
    (["--mode", "skill", "--learning-b", "0.4"],
     {"mode": "skill", "learning_b": 0.4}),
    (["--learning-alpha", "2"], {"learning_alpha": 2.0}),
    (["--min-games-per-player", "2"], {"min_games_per_player": 2}),
    (["--stagger-starts"], {"stagger_starts": True}),
    (["--seed", "3"], {"seed": 3}),
]


@pytest.mark.parametrize("flags,fields", FLAG_FIELDS,
                         ids=["-".join(flags) for flags, _ in FLAG_FIELDS])
def test_simulate_flag_sets_its_field(tmp_path, flags, fields):
    expected = simgen.SimConfig(n_players=6, games_per_player=4).as_dict()
    expected.update(fields)
    config = simulated_config(tmp_path, "--players", "6", "--games", "4",
                              *flags)
    assert config == expected
    assert [type(config[k]) for k in fields] == \
        [type(v) for v in fields.values()]


def test_simulate_without_flags_uses_simconfig_defaults(tmp_path):
    assert simulated_config(tmp_path) == simgen.SimConfig().as_dict()


def test_simulate_config_file_sets_the_fields(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n_players": 8, "games_per_player": 3,
                                "learning_alpha": 0.75}))
    config = simulated_config(tmp_path, "--config", str(path))
    assert config == simgen.SimConfig(n_players=8, games_per_player=3,
                                      learning_alpha=0.75).as_dict()


def test_simulate_config_file_with_setting_flags_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n_players": 8, "seed": 9}))
    code = run(["simulate", "--config", str(path), "--seed", "5",
                "--players", "20", "--stagger-starts",
                "--out", str(tmp_path / "x")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: --config: cannot be given with setting flags "
        "(--players, --stagger-starts, --seed)\n")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("flag,field", [
    ("--game", "game"),
    ("--table-size", "table_size"),
    ("--mode", "mode"),
    ("--learning-curve", "learning_curve"),
])
def test_simulate_bad_value_names_its_field(tmp_path, capsys, flag, field):
    value = "4" if flag == "--table-size" else "bogus"
    code = run(["simulate", flag, value, "--out", str(tmp_path / "x")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: must be ")
    assert not (tmp_path / "x").exists()


def test_analyze_reads_thresholds_before_any_log(tmp_path, capsys):
    th = tmp_path / "thresholds.json"
    th.write_text(json.dumps({"r_min": "high"}))
    bad = tmp_path / "bad.csv"
    bad.write_text("user_id\nu1\n")
    code = run(["analyze", str(bad), "--game", "poker", "--thresholds",
                str(th), "--out", str(tmp_path / "r")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"error: {th}: r_min: ")
    assert str(bad) not in err
