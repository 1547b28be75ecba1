"""In-memory spans and counts recorded around the benchmark's calls into the library.

A span is ``[name, start_ns, end_ns, parent_index]``; the parent is the span
open when it started (``-1`` at the root).  Spans are kept in a list and
written out once, when the run ends.  The benchmark is single-threaded and
runs ops in a closed loop, so child spans never overlap and a span's self
time is its duration minus the sum of its children's durations.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def start(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, perf_counter_ns(), 0, parent])

    def end(self) -> None:
        self.spans[self._open.pop()][2] = perf_counter_ns()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def merge(self, spans: list[list], counts: dict) -> None:
        """Adopt the spans and counts of a child process as a subtree of the open span."""
        base = len(self.spans)
        parent = self._open[-1] if self._open else -1
        for name, start, end, par in spans:
            self.spans.append([name, start, end, parent if par < 0 else base + par])
        self.counts.update(counts)


def self_times(spans: list[list]) -> dict[str, list[int]]:
    """Self time in ns of every span, grouped by span name."""
    child_ns = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, list[int]] = defaultdict(list)
    for i, (name, start, end, _) in enumerate(spans):
        out[name].append(end - start - child_ns[i])
    return out

