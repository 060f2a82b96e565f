"""In-memory span recording and self-time arithmetic for the traced run.

A span is one call into a layer: its name, start and end (perf_counter
seconds), the index of the span that was open when it began (its parent,
-1 for a root) and the trial it belongs to. Spans stay in a list until the
benchmark writes them out at the end of the run.
"""

import time
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    trial: str | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one single-threaded phase of a run."""

    def __init__(self):
        self.spans: list = []
        self.trial: str | None = None
        self._open: list = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.trial))
        self._open.append(index)
        return index

    def end(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        if self._open.pop() != index:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        return span

    def wrap(self, name: str, fn, on_result=None):
        """`fn` with a span around every call; `on_result(span, args, result)`
        may attach attributes after a call that returned."""

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.end(index)
            if on_result is not None:
                on_result(span, args, result)
            return result

        return traced


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    children: dict = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - covered(children.get(i, ()), span.start, span.end)
        for i, span in enumerate(spans)
    ]
