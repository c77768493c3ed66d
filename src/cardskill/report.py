"""Machine-readable report emission: verdict.json plus per-figure CSVs.

Every file is written through a uniquely named temp file and a rename, so
no file is ever half written, and verdict.json is written last, so its
presence means the set beside it is complete. verdict.json is fully
deterministic for a given input and seed: the embedded manifest, the plain
dict build_manifest returns, dates the run by the data's own time range,
never the wall clock.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
from typing import Dict, Iterator, Optional, Sequence

import numpy as np

from . import __version__
from .records import format_timestamp
from .stattests import VerdictReport

SCHEMA_VERSION = 1


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def build_manifest(
    command_line: Sequence[str],
    config: Dict,
    input_paths: Sequence[str],
    seed: int,
    data_start: Optional[int],
    data_end: Optional[int],
) -> dict:
    """The run manifest that verdict.json embeds; data_start and data_end
    are the first and last outcome of the analyzed data, in ms."""
    def stamp(ms):
        return format_timestamp(ms) if ms is not None else None
    return {
        "command_line": list(command_line),
        "config": dict(config),
        "input_digests": {p: file_digest(p) for p in input_paths},
        "seed": seed,
        "tool_version": __version__,
        "data_start": stamp(data_start),
        "data_end": stamp(data_end),
    }


def atomic_write(path: str, data: bytes) -> None:
    """Replace path with data in one rename; concurrent writers never share
    a temp file, and a failed write leaves none behind."""
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        with open(tmp, "xb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def render_verdict_json(report: VerdictReport, manifest: dict) -> bytes:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "manifest": manifest,
        **report.as_dict(),
    }
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _csv_bytes(header: Sequence[str], rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def _num(x) -> str:
    """repr of x as a Python float, so a numpy scalar reads as a number."""
    return repr(float(x))


def _nums(column) -> Iterator[str]:
    return map(repr, np.asarray(column, dtype=float).tolist())  # _num of each


def write_reports(out_dir: str, report: VerdictReport,
                  manifest: dict) -> Dict[str, str]:
    """Write verdict.json and the four figure/table CSVs; returns paths.

    All five payloads are rendered before any file is touched. A stale
    verdict.json is removed first and the new one is written last."""
    groups = report.quantiles.groups if report.quantiles is not None else ()
    pers, qq = report.persistence, report.normality
    payloads = {
        "verdict.json": render_verdict_json(report, manifest),
        "persistence.csv": _csv_bytes(
            ["user_id", "metric_period_a", "metric_period_b"],
            zip(pers.users, _nums(pers.values_a), _nums(pers.values_b))),
        "learning.csv": _csv_bytes(
            ["bin", "mean_metric"],
            [(x, _num(y)) for x, y in report.learning.binned.points]),
        "qq.csv": _csv_bytes(
            ["rank", "percentile", "theoretical_q", "observed_q"],
            zip(*map(_nums, (qq.ranks, qq.percentiles, qq.theoretical,
                             qq.observed)))),
        "quantiles.csv": _csv_bytes(
            ["group", "cumulative_players", "mean_win_rate", "std_win_rate"],
            [(j, n, _num(mean), _num(std))
             for j, (n, mean, std) in enumerate(groups, start=1)]),
    }
    paths = {name.split(".")[0]: os.path.join(out_dir, name)
             for name in payloads}
    os.makedirs(out_dir, exist_ok=True)
    with contextlib.suppress(FileNotFoundError):
        os.remove(paths["verdict"])
    verdict = payloads.pop("verdict.json")
    for name, data in payloads.items():
        atomic_write(os.path.join(out_dir, name), data)
    atomic_write(paths["verdict"], verdict)
    return paths
