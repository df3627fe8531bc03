"""In-memory span tracer for the benchmark harness.

A span records a name of the form ``<module>.<call>``, its start and end on
``time.perf_counter``, the index of the span that was open when it started
(its parent) and the id of the system being processed, which every span of
one (order, variant) system shares. Spans stay in a list until the run ends
and the harness writes them out. A disabled tracer calls straight through,
so untraced runs record nothing.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    system: str | None

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span | None] = []
        self.system: str | None = None
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        system = self.system
        self.spans.append(None)
        self._open.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, system)

    def records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    that its children cover (overlapping children are counted once)."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children[i], key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.end - span.start - covered)
    return result


def module_self_times(spans) -> dict[str, float]:
    """Total self time per module (the part of a span name before the dot)."""
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span.module] += own
    return dict(totals)


def name_totals(spans) -> tuple[dict[str, float], dict[str, int]]:
    """Total duration and number of spans per span name."""
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span in spans:
        seconds[span.name] += span.end - span.start
        calls[span.name] += 1
    return dict(seconds), dict(calls)
