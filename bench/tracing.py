"""In-memory spans for the traced benchmark run.

A span is one timed call into a layer: its name, start and end
(``perf_counter_ns``), the span that was open when it started, and the
repetition it belongs to. Spans stay in memory until ``write_jsonl`` at the
end of a run, so recording one costs a clock read and a list append.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    rep: int
    name: str
    start: int
    end: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """Collects spans; ``rep`` tags every span opened until it is changed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.rep = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        s = Span(
            len(self.spans),
            self._open[-1] if self._open else None,
            self.rep,
            name,
            time.perf_counter_ns(),
            attrs=attrs,
        )
        self.spans.append(s)
        self._open.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter_ns()
            self._open.pop()

    def record(self, name: str, start: int, end: int, **attrs) -> None:
        """Add a span the caller timed itself, as a child of the open span."""
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(len(self.spans), parent, self.rep, name, start, end, attrs))

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the part of it that its child spans cover.

    Child intervals are clipped to the parent and merged first, so children
    that overlap each other are not subtracted twice.
    """
    kids: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0
        run_start = run_end = None
        for a, b in sorted(kids.get(s.id, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out[s.id] = s.duration - covered
    return out


def percentile(values, q: float) -> tuple[float | None, int]:
    """(q-th percentile by linear interpolation, sample count); None if empty."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return None, 0
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo), n
