"""Span recorder for the benchmark's outside-in timing.

Every call the benchmark makes into a layer of the program is wrapped in a
span: name, start, end, the span that caused it, the workload and the round.
Spans stay in memory and are written once, when the benchmark ends.  With
``keep=False`` (the end-to-end rounds, tracing off) a span still measures
its own duration for the caller but nothing is recorded.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Span:
    __slots__ = ("name", "parent", "round", "start", "end")

    def __init__(self, name: str, parent: int | None, round_: int | None):
        self.name = name
        self.parent = parent
        self.round = round_
        self.start = 0.0
        self.end = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    def __init__(self, workload: str, keep: bool):
        self.workload = workload
        self.keep = keep
        #: the timed round spans opened from now on belong to (None = outside
        #: any round: set-up, reference, compiler stages)
        self.round: int | None = None
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        span = Span(name, self._open[-1] if self._open else None, self.round)
        if self.keep:
            self._open.append(len(self.spans))
            self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            if self.keep:
                self._open.pop()

    def self_seconds(self) -> list[float]:
        """Per span: its duration minus the part its child spans cover."""
        own = [s.seconds for s in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.seconds
        return own

    def write(self, path: Path) -> None:
        rows = [
            {
                "id": i,
                "name": s.name,
                "parent": s.parent,
                "workload": self.workload,
                "round": s.round,
                "start": s.start,
                "end": s.end,
                "self_s": own,
            }
            for i, (s, own) in enumerate(zip(self.spans, self.self_seconds()))
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows) + "\n")
