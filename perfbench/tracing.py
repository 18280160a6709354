"""In-memory spans for the traced benchmark run, and the statistics derived from them.

A span has a name, a start, an end, the span that was open when it began
(its parent) and the id of the workload run it belongs to. Spans are kept in
a list and written out once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

# A tail percentile is reported only where at least this many samples lie beyond it.
TAIL_SAMPLES = 10
_TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    error: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Records spans when enabled; when disabled, ``span`` only runs the body."""

    enabled: bool
    run_id: str = field(default_factory=lambda: uuid.uuid4().hex)
    spans: list[Span] = field(default_factory=list)
    _open: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        rec = Span(
            id=len(self.spans),
            name=name,
            parent=self._open[-1] if self._open else None,
            start=time.perf_counter(),
        )
        self.spans.append(rec)
        self._open.append(rec.id)
        try:
            yield rec
        except BaseException as exc:
            rec.error = type(exc).__name__
            raise
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def self_time(self, span: Span) -> float:
        """Duration minus the part of the interval its children cover."""
        covered = 0.0
        cursor = span.start
        for child in sorted(self.children(span), key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return span.duration - covered

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": s.id,
                            "name": s.name,
                            "parent": s.parent,
                            "start": s.start,
                            "end": s.end,
                            "self": self.self_time(s),
                            "error": s.error,
                        }
                    )
                    + "\n"
                )


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def tail(values: list[float]) -> tuple[float, float]:
    """Highest candidate percentile with at least TAIL_SAMPLES samples beyond it.

    Returns (percentile level, value); (0, 0) when the sample is too small.
    """
    n = len(values)
    for pct in _TAIL_CANDIDATES:
        if n * (100.0 - pct) / 100.0 >= TAIL_SAMPLES:
            return pct, percentile(values, pct)
    return 0.0, 0.0


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
