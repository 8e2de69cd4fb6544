"""In-memory span recorder for the benchmark's traced run.

Spans are recorded from outside the engine: the benchmark replaces each
public function at the name its caller looks it up by (a module global or a
class attribute) with a wrapper that records one span per call, and wraps
generator ports as objects. Every span keeps its name, start, end, parent
span and the query it served. Nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

SETUP_QUERY = "setup"
GENERATOR_METHODS = (
    "generate_thought",
    "answer",
    "formulate_retrieval_query",
    "score_tokens",
    "complete",
)


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int  # span_id of the enclosing span, -1 at the top of a thread
    query_id: str
    failed: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Thread-safe span recorder; one instance per traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.query_id = SETUP_QUERY
        return local

    def call(self, name: str, fn: Callable, *args, query_id: str | None = None, **kwargs):
        """Run fn inside a span. query_id, when given, tags this span and
        everything it calls."""
        state = self._state()
        span_id = next(self._ids)
        parent = state.stack[-1] if state.stack else -1
        outer_query = state.query_id
        if query_id is not None:
            state.query_id = query_id
        state.stack.append(span_id)
        failed = True
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            end = self.clock()
            state.stack.pop()
            self.spans.append(
                Span(span_id, name, start, end, parent, state.query_id, failed)
            )
            state.query_id = outer_query

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        observe: Callable | None = None,
        query_of: Callable | None = None,
    ) -> None:
        """Replace owner.attr with a traced wrapper until restore().

        observe(args, result) sees every successful call; query_of(args)
        names the query a call serves."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            query_id = query_of(args) if query_of is not None else None
            result = tracer.call(name, original, *args, query_id=query_id, **kwargs)
            if observe is not None:
                observe(args, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Dump the spans as gzipped tab-separated lines, in start order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("span_id\tname\tstart\tend\tparent\tquery_id\tfailed\n")
            for s in sorted(self.spans, key=lambda s: s.start):
                out.write(
                    f"{s.span_id}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\t"
                    f"{s.parent}\t{s.query_id}\t{int(s.failed)}\n"
                )


class TracedGenerator:
    """Generator port whose every operation is a `generate.<op>` span."""

    def __init__(self, inner, tracer: Tracer):
        for op in GENERATOR_METHODS:
            setattr(self, op, functools.partial(tracer.call, f"generate.{op}", getattr(inner, op)))


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Per span: its duration minus the part its child spans cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.span_id: s.duration - _covered(children.get(s.span_id, []), s.start, s.end)
        for s in spans
    }
