"""In-memory span recording around module and class attributes.

A Tracer keeps every span as (name, start, end, parent, group, tag) in a
list and writes nothing until the caller asks for the spans. `patch`
swaps an attribute for a recording wrapper; `restore` puts every original
object back, so code run after it is untraced. A span's self time is its
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "group", "tag")

    def __init__(self, name, start, end, parent, group, tag=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index of the enclosing span, -1 for a root
        self.group = group    # spans of one training step or one operation share it
        self.tag = tag        # free-form attribution, e.g. a model stage

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.group = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str, tag=None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.group, tag))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = self.clock()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")

    @contextmanager
    def span(self, name: str, tag=None):
        index = self.begin(name, tag)
        try:
            yield index
        finally:
            self.end(index)

    def current(self) -> Span | None:
        return self.spans[self._stack[-1]] if self._stack else None

    def new_group(self) -> int:
        self.group += 1
        return self.group

    def patch(self, owner, attr: str, make_wrapper) -> None:
        """Replace owner.attr with make_wrapper(original)."""
        original = getattr(owner, attr)
        setattr(owner, attr, make_wrapper(original))
        self._patched.append((owner, attr, original))

    def patch_span(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Record a span named `name` around every call of owner.attr.

        before(*args, **kwargs) runs ahead of the span and returns its tag;
        after(result, *args, **kwargs) runs once the span has closed.
        """
        def make(original):
            def wrapper(*args, **kwargs):
                tag = before(*args, **kwargs) if before is not None else None
                index = self.begin(name, tag)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.end(index)
                if after is not None:
                    after(result, *args, **kwargs)
                return result
            return wrapper
        self.patch(owner, attr, make)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its direct children's
    intervals, clipped to the span itself."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start = max(start, reach)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result.append(span.duration - covered)
    return result
