"""Spans recorded around the benchmark's own calls into the library.

A span is ``[name, start, end, parent index, job id]``. Spans are kept in
memory and written out when the run ends. A span's self time is its
duration minus the time its child spans cover; jobs are single-threaded,
so children never overlap.
"""

from __future__ import annotations

import json
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job = None
        self._open: list[int] = []
        self._last_closed = None

    def wrap(self, name, fn):
        """``fn`` with every call recorded as a span named ``name``."""
        spans, open_spans = self.spans, self._open

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), None,
                          open_spans[-1] if open_spans else None, self.job])
            open_spans.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                open_spans.pop()
                spans[index][2] = perf_counter()
                self._last_closed = index

        return traced

    def inner_span(self, name, seconds) -> None:
        """Record a child of the span that closed last, ending when it ended.

        For time spent inside a call that the benchmark cannot wrap, when
        the call reports that time itself.
        """
        parent = self._last_closed
        end = self.spans[parent][2]
        self.spans.append([name, end - seconds, end, parent, self.job])

    def self_times(self):
        """Yield ``(span, self_seconds)`` for every span."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        for span, children in zip(self.spans, covered):
            yield span, span[2] - span[1] - children

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "job")
        with open(path, "w") as handle:
            json.dump([dict(zip(keys, span)) for span in self.spans], handle)


def untraced_inner_span(name, seconds) -> None:
    """Stand-in for :meth:`Tracer.inner_span` in an untraced run."""
