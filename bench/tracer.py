"""In-memory call tracer for the benchmark's traced runs.

A function imported with ``from .x import f`` is a separate binding in the
importing module, so the tracer wraps each binding a caller actually looks
up, not just the defining module's attribute. Every wrapped call records one
span: a name, its start and end, and the span that was open when it began.
Spans stay in memory; self time is a span's duration minus the durations of
its child spans. Wrappers exist only inside :meth:`Tracer.installed`, which
restores every original binding on exit, so untraced timings never pass
through them.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator

#: (owner, attribute, make_wrapper): owner is a module or class, and
#: make_wrapper builds the replacement from the original attribute value.
Binding = tuple[Any, str, Callable[[Callable[..., Any]], Callable[..., Any]]]


class Tracer:
    """Span recorder for one single-threaded traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._open: list[int] = []
        # One entry per span, in the order the spans opened.
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        #: Calls counted without a span (too frequent to time).
        self.counts: Counter[str] = Counter()
        #: Work size summed per span name, for per-unit self times.
        self.sizes: Counter[str] = Counter()

    def __len__(self) -> int:
        return len(self.start)

    def span(
        self,
        name: str,
        fn: Callable[..., Any],
        size: Callable[..., int] | None = None,
    ) -> Callable[..., Any]:
        """Wrap fn so each call records a span called name.

        size, when given, receives the call's arguments and returns the work
        size to add to ``sizes[name]``.
        """
        nid = self._name_ids.setdefault(name, len(self._names))
        if nid == len(self._names):
            self._names.append(name)
        clock = self._clock
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(self.start)
            self.name_id.append(nid)
            self.parent.append(open_spans[-1] if open_spans else -1)
            self.end.append(0.0)
            if size is not None:
                self.sizes[name] += size(*args, **kwargs)
            open_spans.append(index)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                open_spans.pop()

        return traced

    def counter(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap fn so each call increments ``counts[name]``; no span."""

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self, bindings: Iterable[Binding]) -> Iterator["Tracer"]:
        """Replace each binding with its wrapper; restore all on exit."""
        saved: list[tuple[Any, str, Any]] = []
        try:
            for owner, attr, make_wrapper in bindings:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, make_wrapper(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def calls(self) -> Counter[str]:
        """Number of spans per name."""
        out: Counter[str] = Counter()
        for nid in self.name_id:
            out[self._names[nid]] += 1
        return out

    def self_times(self) -> dict[str, float]:
        """Per name: total span duration minus the time its child spans cover."""
        n = len(self.start)
        child_time = [0.0] * n
        for i in range(n):
            parent = self.parent[i]
            if parent >= 0:
                child_time[parent] += self.end[i] - self.start[i]
        out = dict.fromkeys(self._names, 0.0)
        for i in range(n):
            out[self._names[self.name_id[i]]] += self.end[i] - self.start[i] - child_time[i]
        return out

    def inclusive_times(self) -> dict[str, float]:
        """Per name: total span duration, children included (no span nests its own name)."""
        out = dict.fromkeys(self._names, 0.0)
        for i in range(len(self.start)):
            out[self._names[self.name_id[i]]] += self.end[i] - self.start[i]
        return out

    def root_time(self) -> float:
        """Total duration of the spans opened while no other span was open."""
        return sum(
            self.end[i] - self.start[i] for i in range(len(self.start)) if self.parent[i] < 0
        )
