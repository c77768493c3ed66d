import dataclasses
import json
import os

import numpy as np
import pytest

from cardskill import __version__, report
from cardskill.metrics import SkillSeries
from cardskill.report import (
    atomic_write,
    build_manifest,
    render_verdict_json,
    write_reports,
)
from cardskill.simgen import SimConfig, simulate_timelines
from cardskill.stattests import (
    classify,
    learning_curve_test,
    persistence_test,
    qq_test,
    quantile_summary,
)

REPORT_FILES = ["learning.csv", "persistence.csv", "qq.csv", "quantiles.csv",
                "verdict.json"]


@pytest.fixture(scope="module")
def verdict():
    cohort = simulate_timelines(SimConfig(n_players=40, games_per_player=40,
                                          seed=4))
    rates = {u: sum(o.won for o in tl.outcomes) / len(tl.outcomes)
             for u, tl in cohort.items()}
    return classify(
        persistence_test(cohort, min_games=10, n_boot=50),
        learning_curve_test(cohort),
        qq_test([rates[u] for u in sorted(rates)]),
        quantiles=quantile_summary(
            [(len(cohort[u].outcomes), rates[u]) for u in sorted(cohort)], 4),
    )


@pytest.fixture(scope="module")
def manifest():
    return build_manifest(["cardskill"], {}, [], 0, 0, 1)


def test_verdict_json_bytes(verdict):
    manifest = build_manifest(
        command_line=["cardskill", "analyze"],
        config={"min_games": 10, "game": "poker", "split_date": None},
        input_paths=(), seed=7, data_start=1_669_852_800_000,
        data_end=1_675_209_599_999)
    data = render_verdict_json(verdict, manifest)
    manifest_text = (
        '  "manifest": {\n'
        '    "command_line": [\n'
        '      "cardskill",\n'
        '      "analyze"\n'
        '    ],\n'
        '    "config": {\n'
        '      "game": "poker",\n'
        '      "min_games": 10,\n'
        '      "split_date": null\n'
        '    },\n'
        '    "data_end": "2023-01-31T23:59:59.999Z",\n'
        '    "data_start": "2022-12-01T00:00:00.000Z",\n'
        '    "input_digests": {},\n'
        '    "seed": 7,\n'
        f'    "tool_version": "{__version__}"\n'
        '  },\n')
    assert manifest_text.encode() in data
    doc = {"schema_version": 1, **verdict.as_dict(),
           "manifest": json.loads(data)["manifest"]}
    assert data == (json.dumps(doc, sort_keys=True, indent=2)
                    + "\n").encode()


def test_manifest_without_data_range(verdict):
    manifest = build_manifest(command_line=["cardskill"], config={},
                              input_paths=(), seed=0, data_start=None,
                              data_end=None)
    doc = json.loads(render_verdict_json(verdict, manifest))
    assert doc["manifest"]["data_start"] is None
    assert doc["manifest"]["data_end"] is None


# sha256 of each report file of the verdict fixture, which has tied win
# rates, as the per-player objects wrote them before the results held columns.
REPORT_DIGESTS = {
    "learning.csv":
        "43a07ee1130eba4b1eeb86a6e2d78d9546b1bfe4c25b0ff3153638b00d376172",
    "persistence.csv":
        "91ace72e47520e715d16929fea892d6a295373b3b93d7054c63e3a3348f86dce",
    "qq.csv":
        "46f49d36cb14750512379ac9be5ea46f36315faab4acf766e87f74b0d4ab6381",
    "quantiles.csv":
        "5c0c841a244b1b97fe830e2ca0ba6d95fd3b563f8bf8d24eaee15d59d170b8df",
    "verdict.json":
        "4de8c5af3388882979c6a6d496a6875ba4c07fa65ccf63487b73acf46043617e",
}


def test_report_bytes_pinned(verdict, manifest, tmp_path):
    paths = write_reports(str(tmp_path), verdict, manifest)
    assert {os.path.basename(p): report.file_digest(p)
            for p in paths.values()} == REPORT_DIGESTS


def test_numpy_scalars_written_as_plain_numbers(verdict, manifest, tmp_path):
    """The columns are numpy arrays, and the learning points numpy scalars
    here; the files equal those of the same values as Python floats."""
    numpy = tmp_path / "numpy"
    pers, qq, learn = verdict.persistence, verdict.normality, verdict.learning
    write_reports(str(numpy), dataclasses.replace(
        verdict,
        learning=dataclasses.replace(learn, binned=SkillSeries(
            learn.binned.metric_name,
            tuple((x, np.float64(y)) for x, y in learn.binned.points),
            learn.binned.player_scope)),
    ), manifest)
    plain = tmp_path / "plain"
    write_reports(str(plain), dataclasses.replace(
        verdict,
        persistence=dataclasses.replace(
            pers, values_a=pers.values_a.tolist(),
            values_b=pers.values_b.tolist()),
        normality=dataclasses.replace(qq, **{
            name: getattr(qq, name).tolist()
            for name in ("ranks", "percentiles", "theoretical", "observed")}),
    ), manifest)
    for name in ("persistence.csv", "learning.csv", "qq.csv"):
        text = (numpy / name).read_text()
        assert "np." not in text
        assert text == (plain / name).read_text()


def test_failed_write_leaves_no_verdict(verdict, manifest, tmp_path,
                                        monkeypatch):
    out = tmp_path / "r"
    write_reports(str(out), verdict, manifest)
    assert sorted(os.listdir(out)) == REPORT_FILES
    calls = []

    def failing_write(path, data):
        calls.append(os.path.basename(path))
        if len(calls) == 3:
            raise OSError("disk full")
        atomic_write(path, data)

    monkeypatch.setattr(report, "atomic_write", failing_write)
    with pytest.raises(OSError):
        write_reports(str(out), verdict, manifest)
    assert len(calls) == 3
    assert "verdict.json" not in os.listdir(out)
    assert not [n for n in os.listdir(out) if n.endswith(".tmp")]


def test_atomic_write_failure_leaves_old_file_and_no_temp(tmp_path,
                                                          monkeypatch):
    path = tmp_path / "f.csv"
    atomic_write(str(path), b"old")

    def no_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", no_replace)
    with pytest.raises(OSError):
        atomic_write(str(path), b"new")
    assert os.listdir(tmp_path) == ["f.csv"]
    assert path.read_bytes() == b"old"
