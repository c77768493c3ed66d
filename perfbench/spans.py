"""In-memory spans recorded around calls into cardskill's layers.

A span is (id, name, start, end, parent). Spans stay in memory until the
run ends; the traced pipeline child writes its list once, as JSON, and the
benchmark merges it with its own. Peak RSS is sampled when a span closes,
so a layer's ``*_peak_rss_mb`` is the process high-water mark up to the end
of that layer.
"""

from __future__ import annotations

import contextlib
import resource
import time
from collections import defaultdict
from typing import Dict, Iterable, List


def peak_rss_mb() -> float:
    """This process's peak resident set size so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        span = {"id": len(self.spans), "name": name,
                "parent": self._open[-1] if self._open else None,
                "start": time.perf_counter(), "end": None, "rss_mb": None}
        self.spans.append(span)
        self._open.append(span["id"])
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            span["rss_mb"] = peak_rss_mb()
            self._open.pop()

    def adopt(self, spans: Iterable[dict]) -> None:
        """Append spans recorded by another tracer, possibly in another
        process, renumbering their ids."""
        base = len(self.spans)
        for s in spans:
            self.spans.append(dict(
                s, id=base + s["id"],
                parent=None if s["parent"] is None else base + s["parent"]))


class _NullTracer:
    """Stands in for a Tracer on untraced runs; records nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()


NULL_TRACER = _NullTracer()


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Seconds per span name, minus the time covered by child spans.

    Layers run in one thread, so children of a span never overlap and the
    covered time is the sum of their durations.
    """
    covered: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += duration(s)
    out: Dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"]] += duration(s) - covered[s["id"]]
    return dict(out)


def last_rss_mb(spans: List[dict], name: str) -> float:
    """Peak RSS sampled at the end of the last span called ``name``."""
    marks = [s["rss_mb"] for s in spans if s["name"] == name]
    return marks[-1] if marks else 0.0
