"""In-memory spans for the traced run.

A span records one call the benchmark makes into the library: its
name, start and end (perf_counter seconds), the enclosing span and the
op it belongs to.  Spans stay in memory until the run ends.  The
untraced run uses NULL_TRACER, whose span() costs one context-manager
entry and records nothing.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    workload: str


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1
        self.workload = ""

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(sid, name, time.perf_counter(), 0.0, parent, self.op, self.workload)
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its child spans cover.
        Children of one parent run one after another, so their
        durations add up without overlap."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def durations(self, workload: str) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for s in self.spans:
            if s.workload == workload:
                out.setdefault(s.name, []).append(s.end - s.start)
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """Per (workload, span name): calls, median duration and total
        self time."""
        own = self.self_times()
        rows: dict[str, dict] = {}
        for s, self_s in zip(self.spans, own):
            row = rows.setdefault(f"{s.workload}:{s.name}", {"durs": [], "self_s": 0.0})
            row["durs"].append(s.end - s.start)
            row["self_s"] += self_s
        return {
            key: {
                "calls": len(r["durs"]),
                "median_s": statistics.median(r["durs"]),
                "self_total_s": r["self_s"],
            }
            for key, r in sorted(rows.items())
        }

    def dump(self) -> list[dict]:
        own = self.self_times()
        return [
            {
                "id": s.sid,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "op": s.op,
                "workload": s.workload,
                "self_s": self_s,
            }
            for s, self_s in zip(self.spans, own)
        ]


class NullTracer:
    op = -1
    workload = ""
    _ctx = nullcontext()

    def span(self, name: str):
        return self._ctx


NULL_TRACER = NullTracer()
