"""In-memory spans around calls into the package's modules.

Spans are recorded from the benchmark's side only: ``patched`` swaps the
names a module looked up at import time (``oconform.metrics.build_graph``
and so on) for timing wrappers, and puts the originals back on exit.  No
file of the package changes.  Each span keeps its name, start, end, the
index of the span that was open when it started, the operation id, and
optional counts taken from the call's result.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self._open: list[int] = []

    def call(self, name, fn, *args, counts=None, **kwargs):
        """Run ``fn`` inside a span; ``counts(result)`` adds counts to it."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        span = Span(name, 0.0, 0.0, parent, self.op)
        self.spans.append(span)
        self._open.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()
        if counts is not None:
            span.counts = counts(result)
        return result

    def wrap(self, name, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, counts=counts, **kwargs)
        return traced

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "op": s.op, **s.counts} for s in self.spans]


@contextlib.contextmanager
def patched(tracer: Tracer, targets):
    """Replace ``module.attr`` by a traced wrapper for each
    (module, attr, span name, counts) in ``targets``."""
    saved = []
    try:
        for module, attr, name, counts in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, counts))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
