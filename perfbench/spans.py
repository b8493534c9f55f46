"""In-memory span recording around calls into the program's layers.

The benchmark never instruments ``src/``: it replaces public methods
on the objects it builds (instance attributes shadow the class
methods, so the program's own ``self.<method>`` calls go through the
wrapper too) and, for ``matching_pairs``, the module global that
``repro.core.grouping`` calls.  Every wrapped call records one
:class:`Span`; spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional


class Span(NamedTuple):
    """One timed call: ``parent`` is -1 for a root span."""

    span_id: int
    parent: int
    name: str
    start: float
    end: float
    run_id: str


class LayerStats(NamedTuple):
    """Aggregate of every span sharing one name."""

    calls: int
    busy_s: float
    self_s: float


Observer = Callable[[tuple, dict, Any], None]


class Recorder:
    """Records nested spans of one single-threaded run.

    Args:
        run_id: Identifier stamped on every span of the run.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._next_id = 0

    def wrap(
        self, name: str, fn: Callable, observe: Optional[Observer] = None
    ) -> Callable:
        """Return ``fn`` wrapped so each call records a span ``name``.

        ``observe(args, kwargs, result)`` runs after a successful call,
        outside the span, to update :attr:`counts`.
        """

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(
                    Span(span_id, parent, name, start, end, self.run_id)
                )
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def wrap_attr(
        self, obj: Any, attr: str, name: str, observe: Optional[Observer] = None
    ) -> None:
        """Shadow ``obj.attr`` with a recording wrapper on the instance."""
        setattr(obj, attr, self.wrap(name, getattr(obj, attr), observe))

    @contextlib.contextmanager
    def patch_global(
        self, module: Any, attr: str, name: str
    ) -> Iterator[None]:
        """Wrap a module global for the duration of the block."""
        original = getattr(module, attr)
        setattr(module, attr, self.wrap(name, original))
        try:
            yield
        finally:
            setattr(module, attr, original)

    def layers(self) -> Dict[str, LayerStats]:
        """Calls, busy time and self time per span name."""
        return layer_stats(self.spans)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span._asdict()) + "\n")


def layer_stats(spans: List[Span]) -> Dict[str, LayerStats]:
    """Aggregate spans by name.

    A span's self time is its duration minus the part of its interval
    that its direct children cover.  Children of one parent never
    overlap in a single-threaded run, but the union is still taken, so
    the result cannot go negative.
    """
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    calls: Counter = Counter()
    busy: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    for span in spans:
        duration = span.end - span.start
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
            lo = max(child.start, reach, span.start)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        calls[span.name] += 1
        busy[span.name] += duration
        own[span.name] += max(0.0, duration - covered)
    return {
        name: LayerStats(calls[name], busy[name], own[name]) for name in calls
    }
