"""In-memory span recording and self-time arithmetic for the traced run.

A :class:`Tracer` records one :class:`Span` per call it wraps: a name,
start and end on the host clock, the span that was open when it started
(its parent) and a run id shared by every span inside one simulation run.
Hot leaf calls that happen thousands of times per run are *folded*: their
count and total time are accumulated instead of recorded one by one, and
the time is charged to the innermost open span, so memory stays bounded
and self times still add up.

A layer's self time is its spans' durations minus the part of each span's
interval covered by its child spans, minus the folded leaf time inside it.
Over a tree of spans that covers a root interval, the self times of all
layers (folded ones included) add up to the root's duration.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator


@dataclass
class Span:
    """One timed call: ``parent`` indexes :attr:`Tracer.spans`."""

    name: str
    start: float
    end: float | None = None
    parent: int | None = None
    run: str | None = None
    #: Seconds per folded leaf layer spent while this was the innermost span.
    folded: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} was never closed")
        return self.end - self.start


class Tracer:
    """Records spans and counts in memory; nothing is written until asked."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        #: Attributes of each run id (backend kind, observed or not).
        self.runs: dict[str, dict[str, Any]] = {}
        self._stack: list[int] = []

    def open(self, name: str, run: str | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        if run is None and parent is not None:
            run = self.spans[parent].run
        self.spans.append(Span(name, self.clock(), parent=parent, run=run))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")
        self._stack.pop()
        self.spans[index].end = self.clock()

    @contextmanager
    def span(self, name: str, run: str | None = None) -> Iterator[int]:
        index = self.open(name, run)
        try:
            yield index
        finally:
            self.close(index)

    def fold(self, name: str, seconds: float) -> None:
        """Account one folded leaf call to ``name`` and to the open span."""
        self.counts[name] += 1
        if self._stack:
            folded = self.spans[self._stack[-1]].folded
            folded[name] = folded.get(name, 0.0) + seconds

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``fn`` recorded as a span named ``name`` on every call."""

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def wrap_folded(
        self,
        fn: Callable[..., Any],
        name: str,
        hit: Callable[[Any], bool] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` folded into ``name``; ``hit(result)`` counts ``name.hits``."""

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            started = self.clock()
            result = fn(*args, **kwargs)
            self.fold(name, self.clock() - started)
            if hit is not None and hit(result):
                self.counts[name + ".hits"] += 1
            return result

        return wrapper

    def wrap_counted(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``fn`` counted under ``name``, not timed."""

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def to_dict(self) -> dict[str, Any]:
        """The recording as JSON-friendly data (written when the run ends)."""
        return {
            "spans": [
                {
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "run": s.run,
                    "folded": s.folded,
                }
                for s in self.spans
            ],
            "counts": dict(self.counts),
            "runs": self.runs,
        }


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if end > lo and start < hi
    )
    total = 0.0
    cursor = lo
    for start, end in clipped:
        start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
    return total


def subtree(spans: list[Span], root: int) -> list[int]:
    """Indices of ``root`` and every span opened inside it."""
    inside = {root}
    for index in range(root + 1, len(spans)):
        if spans[index].parent in inside:
            inside.add(index)
    return sorted(inside)


def self_times(spans: list[Span], indices: Iterable[int] | None = None) -> dict[str, float]:
    """Self time per layer name over ``indices`` (default: every span).

    Folded leaf layers appear under their own names.
    """
    chosen = range(len(spans)) if indices is None else list(indices)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for index in chosen:
        span = spans[index]
        if span.parent is not None:
            children[span.parent].append((span.start, span.start + span.duration))
    totals: dict[str, float] = defaultdict(float)
    for index in chosen:
        span = spans[index]
        inner = covered(children.get(index, ()), span.start, span.start + span.duration)
        totals[span.name] += span.duration - inner - sum(span.folded.values())
        for name, seconds in span.folded.items():
            totals[name] += seconds
    return dict(totals)
