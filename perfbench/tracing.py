"""In-memory spans recorded around calls into protobound's layers.

A span has a name (`<module>.<function>`), a start and end from
`time.perf_counter`, and the id of the span that was open when it began.
Spans stay in memory until the benchmark writes them out at the end.
`Untraced` offers the same interface and records nothing, so one pipeline
body serves the timed run and the traced run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class _TimedIterator:
    """Iterator wrapper that adds up the time spent producing items."""

    def __init__(self, iterable) -> None:
        self._it = iter(iterable)
        self.busy = 0.0

    def __iter__(self):
        return self

    def __next__(self):
        t = time.perf_counter()
        try:
            return next(self._it)
        finally:
            self.busy += time.perf_counter() - t


class Tracer:
    traced = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._open.append(span["id"])
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()

    @contextmanager
    def iter_span(self, name: str, iterable):
        """Span for a lazily consumed iterator. Its `busy` time counts only
        the calls that produced items, not the consumer's work between them."""
        with self.span(name) as span:
            timed = _TimedIterator(iterable)
            try:
                yield timed
            finally:
                span["busy"] = timed.busy

    @staticmethod
    def _duration(span: dict) -> float:
        return span.get("busy", span["end"] - span["start"])

    def durations(self, name: str) -> list[float]:
        return [self._duration(s) for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def records(self) -> list[dict]:
        """Spans with self time: duration minus the time child spans cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += self._duration(s)
        return [
            dict(s, self_s=self._duration(s) - child_time[s["id"]])
            for s in self.spans
        ]


class Untraced:
    """Same interface as `Tracer`; records nothing."""

    traced = False

    def span(self, name: str):
        return nullcontext()

    def iter_span(self, name: str, iterable):
        return nullcontext(iterable)
