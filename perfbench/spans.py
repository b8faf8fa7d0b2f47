"""In-memory span recorder with self-time attribution.

A span is ``(name, start, end, parent)``: ``parent`` is the index of the
span that was open when this one began (-1 at top level). Spans are
appended to a list while the run executes and only summarised or
written out once it has ended, so recording costs two
``perf_counter`` calls and one list append per span.

A span's *self time* is its duration minus the durations of its direct
children. Decode nested inside epoch-view iteration therefore counts
only toward decode, and the top-level ``run`` span's self time is the
part of the run no named layer claimed.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, TypeVar

T = TypeVar("T")


class SpanRecorder:
    """Collects nested spans and named counters for one traced run."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent]`` per span, in begin order.
        self.spans: List[list] = []
        self.counters: Dict[str, float] = {}
        self._open: List[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        if self._open.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def timed_iter(
        self,
        name: str,
        iterable: Iterable[T],
        on_item: Optional[Callable[[T], None]] = None,
    ) -> Iterator[T]:
        """Re-yield ``iterable`` with one span around each ``next()``.

        The span covers only the producer's work for one item, never
        the consumer's work between items, so a generator's cost lands
        under whatever span the consumer had open when it pulled.
        """
        iterator = iter(iterable)
        while True:
            index = self.begin(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.end(index)
            if on_item is not None:
                on_item(item)
            yield item

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name, in seconds."""
        children = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        totals: Dict[str, float] = {}
        for (name, start, end, _parent), nested in zip(self.spans, children):
            totals[name] = totals.get(name, 0.0) + (end - start) - nested
        return totals

    def as_records(self) -> List[dict]:
        """Spans as JSON-ready dicts, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        return [
            {
                "name": name,
                "start": start - origin,
                "end": end - origin,
                "parent": parent,
            }
            for name, start, end, parent in self.spans
        ]
