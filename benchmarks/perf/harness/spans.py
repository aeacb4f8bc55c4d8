"""In-memory span recorder for the traced run.

The benchmark measures every layer from outside, so spans are opened by
the harness around its calls into ``repro`` — name, start, end, the span
that caused it, and the request it belongs to.  Spans stay in memory
and are written out once, when the traced process ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Nested spans on one thread; a disabled recorder costs one branch."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def span(self, name: str, request: int | None = None):
        if not self.enabled:
            return nullcontext()
        return self._record(name, request)

    @contextmanager
    def _record(self, name: str, request: int | None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        if request is None and parent is not None:
            request = self.spans[parent].request
        record = Span(name, time.perf_counter(), 0.0, parent, request)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def total_by_name(self) -> dict[str, dict]:
        """``name -> {count, total_s, self_s}`` over every recorded span."""
        totals: dict[str, dict] = {}
        for record, own in zip(self.spans, self_times(self.spans)):
            entry = totals.setdefault(
                record.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += record.duration
            entry["self_s"] += own
        return totals

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": [vars(record) for record in self.spans],
                       "by_name": self.total_by_name()}, handle)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals.

    Children are clipped to the parent and overlapping children are
    counted once, so a parent fully covered by its children has self
    time zero, never a negative one.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for record in spans:
        if record.parent is not None:
            parent = spans[record.parent]
            start = max(record.start, parent.start)
            end = min(record.end, parent.end)
            if end > start:
                children.setdefault(record.parent, []).append((start, end))
    result = []
    for index, record in enumerate(spans):
        covered = 0.0
        cursor = record.start
        for start, end in sorted(children.get(index, ())):
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        result.append(record.duration - covered)
    return result
