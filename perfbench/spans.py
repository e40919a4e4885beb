"""In-memory span recorder for the benchmark's traced run.

A span brackets one call, or one group of calls, from the benchmark into a
chebkit module.  Each span is kept as ``[name, start, end, parent, task]``
and the list is written out when the session ends.  A span's self time is
its duration minus the durations of its child spans.  A child is usually
nested inside its parent, but a decomposition probe may name as parent a
span that ran earlier: the probe then re-times a part of that call, and its
time is subtracted from the parent's in the same way.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Recorder:
    """Spans and work counters of one session.

    With ``enabled=False`` no span is stored, so the untraced run pays only
    for entering an empty context manager.  Counters are always kept; they
    cost a dictionary update per call.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.task: int | None = None
        self.stack: list[int] = []

    @contextmanager
    def run_task(self, task: int):
        """One task of the timed section; with tracing on, the root span of
        the task's calls."""
        self.task = task
        with self.span("task"):
            yield

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        if not self.enabled:
            yield None
            return
        sid = len(self.spans)
        if parent is None and self.stack:
            parent = self.stack[-1]
        record = [name, time.perf_counter(), None, parent, self.task]
        self.spans.append(record)
        self.stack.append(sid)
        try:
            yield sid
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per span name, each span's floored at zero (a probe
    that re-times part of a call can run slower than the call did)."""
    children = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent] += end - start
    totals: dict[str, float] = {}
    for (name, start, end, _, _), inner in zip(spans, children):
        totals[name] = totals.get(name, 0.0) + max(0.0, end - start - inner)
    return totals
