"""Composable event stream pipelines.

:class:`EventStream` is a thin, lazily-evaluated wrapper over any iterable
of :class:`~repro.events.event.Event` that adds the combinators a workload
or example script needs: ``filter``, ``map``, ``take``, type selection, and
timestamp-ordered merging of several streams.  Streams are single-use, like
the iterators they wrap.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, Iterator, Sequence

from repro.events.event import Event


class EventStream:
    """A lazily evaluated stream of events.

    >>> s = EventStream([Event("A", 1, x=1), Event("B", 2, x=2)])
    >>> [e.event_type for e in s.of_type("A")]
    ['A']
    """

    def __init__(self, events: Iterable[Event]) -> None:
        self._events = iter(events)

    def __iter__(self) -> Iterator[Event]:
        return self._events

    @classmethod
    def empty(cls) -> "EventStream":
        return cls(())

    def filter(self, predicate: Callable[[Event], bool]) -> "EventStream":
        """Keep only events for which ``predicate`` is true."""
        return EventStream(e for e in self._events if predicate(e))

    def map(self, transform: Callable[[Event], Event]) -> "EventStream":
        """Apply ``transform`` to every event."""
        return EventStream(transform(e) for e in self._events)

    def of_type(self, *event_types: str) -> "EventStream":
        """Keep only events whose type is one of ``event_types``."""
        wanted = frozenset(event_types)
        return self.filter(lambda e: e.event_type in wanted)

    def take(self, count: int) -> "EventStream":
        """Truncate the stream to its first ``count`` events."""

        def _take() -> Iterator[Event]:
            it = self._events
            for _ in range(count):
                try:
                    yield next(it)
                except StopIteration:
                    return

        return EventStream(_take())

    def drop(self, count: int) -> "EventStream":
        """Skip the first ``count`` events."""

        def _drop() -> Iterator[Event]:
            it = self._events
            for _ in range(count):
                try:
                    next(it)
                except StopIteration:
                    return
            yield from it

        return EventStream(_drop())

    def collect(self) -> list[Event]:
        """Materialise the remaining events into a list."""
        return list(self._events)


def merge_streams(streams: Sequence[Iterable[Event]]) -> EventStream:
    """Merge several timestamp-ordered streams into one ordered stream.

    Input streams must each be non-decreasing in timestamp; the output is
    then globally non-decreasing.  Ties are broken by input stream index so
    the merge is deterministic.
    """

    def _merged() -> Iterator[Event]:
        # heapq.merge needs comparable sort keys; decorate with (ts, idx, n).
        def decorated(idx: int, stream: Iterable[Event]) -> Iterator[tuple[float, int, int, Event]]:
            for n, event in enumerate(stream):
                yield (event.timestamp, idx, n, event)

        decorated_streams = [decorated(i, s) for i, s in enumerate(streams)]
        for _, _, _, event in heapq.merge(*decorated_streams):
            yield event

    return EventStream(_merged())
