"""Spans around the benchmark's calls into each engine layer.

A span records (name, start, end, parent, query id) plus optional counts;
spans stay in memory and are written out when the run ends.  Names are
``<module>.<function>`` with an optional variant (``semantics.eval_exp.qf``);
per-layer metrics append a statistic (``.ms_per_call``, ``.out_nodes``).
With tracing off, ``NullTracer`` makes every hook a plain call.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager


class NullTracer:
    enabled = False

    def call(self, name, fn, *args, **counts):
        return fn(*args)

    @contextmanager
    def span(self, name, **counts):
        yield counts

    def query(self, qid):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._qid = None

    def query(self, qid):
        self._qid = qid

    @contextmanager
    def span(self, name, **counts):
        """Time the body; counts go into the yielded record, also afterwards."""
        index = len(self.spans)
        record = {"name": name, "parent": self._open[-1] if self._open else None,
                  "query": self._qid, "start": 0.0, "end": 0.0, **counts}
        self.spans.append(record)
        self._open.append(index)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def add(self, name, seconds, **counts):
        """A span timed elsewhere, such as inside a child process."""
        self.spans.append({"name": name, "parent": self._open[-1] if self._open else None,
                           "query": self._qid, "start": 0.0, "end": seconds, **counts})

    def call(self, name, fn, *args, **counts):
        with self.span(name, **counts):
            return fn(*args)


def ms_per_call(spans: list[dict]) -> float:
    if not spans:
        return 0.0
    return 1000 * sum(s["end"] - s["start"] for s in spans) / len(spans)


def growth_per_k(spans: list[dict], min_k: int = 3) -> float:
    """Fitted time ratio from depth k-1 to k.

    Takes the median time per (series, k), where the series is the loop
    and start state, and fits log time = a_series + b * k by least squares
    with one slope shared by all series; returns exp(b).
    """
    cells: dict = {}
    for s in spans:
        if s["k"] >= min_k:
            cells.setdefault((s["series"], s["k"]), []).append(s["end"] - s["start"])
    by_series: dict = {}
    for (series, k), times in cells.items():
        by_series.setdefault(series, []).append((k, math.log(statistics.median(times))))
    num = den = 0.0
    for points in by_series.values():
        if len(points) < 2:
            continue
        kbar = statistics.fmean(k for k, _ in points)
        ybar = statistics.fmean(y for _, y in points)
        num += sum((k - kbar) * (y - ybar) for k, y in points)
        den += sum((k - kbar) ** 2 for k, _ in points)
    return math.exp(num / den) if den else 0.0


def per_k_curve(spans: list[dict]) -> dict:
    """Median milliseconds per (series, k), for the reference figures."""
    cells: dict = {}
    for s in spans:
        cells.setdefault(s["series"], {}).setdefault(s["k"], []).append(s["end"] - s["start"])
    return {series: {k: round(1000 * statistics.median(v), 3) for k, v in sorted(ks.items())}
            for series, ks in cells.items()}


def self_time_ms(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name: duration minus direct children's."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = {}
    for i, s in enumerate(spans):
        out[s["name"]] = out.get(s["name"], 0.0) + 1000 * (s["end"] - s["start"] - child[i])
    return {k: round(v, 3) for k, v in sorted(out.items())}
