"""Stream-time utilities: sequence assignment and duration parsing.

CEPR measures count-based windows in *sequence numbers* — the global arrival
index assigned to each event at ingest — and time-based windows in event
*timestamps*.  :class:`SequenceAssigner` stamps sequence numbers and
enforces (or just observes) timestamp monotonicity.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator

from repro.events.event import Event


class OutOfOrderError(ValueError):
    """Raised when a stream violates timestamp monotonicity in strict mode."""


#: Multipliers converting a duration unit to seconds of stream time.
_UNIT_SECONDS: dict[str, float] = {
    "MILLISECOND": 0.001,
    "MILLISECONDS": 0.001,
    "MS": 0.001,
    "SECOND": 1.0,
    "SECONDS": 1.0,
    "S": 1.0,
    "MINUTE": 60.0,
    "MINUTES": 60.0,
    "MIN": 60.0,
    "HOUR": 3600.0,
    "HOURS": 3600.0,
    "H": 3600.0,
    "DAY": 86400.0,
    "DAYS": 86400.0,
}


def parse_duration(value: float, unit: str) -> float:
    """Convert ``value`` in ``unit`` to seconds of stream time.

    ``unit`` is case-insensitive and accepts singular, plural, and short
    forms (``"MINUTES"``, ``"minute"``, ``"min"``).

    >>> parse_duration(10, "MINUTES")
    600.0
    """
    multiplier = _UNIT_SECONDS.get(unit.upper())
    if multiplier is None:
        raise ValueError(
            f"unknown duration unit {unit!r}; expected one of "
            f"{sorted(set(_UNIT_SECONDS))}"
        )
    return float(value) * multiplier


class LatenessBuffer:
    """Reorders an out-of-order stream under a bounded-lateness contract.

    Real feeds deliver events slightly out of timestamp order.  If the
    disorder is bounded — an event is never more than ``max_lateness``
    seconds of stream time late — buffering and releasing behind a
    *watermark* of ``max_seen_timestamp - max_lateness`` restores exact
    timestamp order, at the cost of that much result latency.  The engine
    wires this in front of matching when constructed with
    ``max_lateness=...``; window semantics and pruning soundness (which
    assume non-decreasing timestamps) then hold on dirty feeds.

    Events later than the contract (their timestamp is already below the
    watermark when they arrive) would violate order if released; they are
    dropped and counted in :attr:`late_drops`.
    """

    def __init__(self, max_lateness: float) -> None:
        if max_lateness < 0:
            raise ValueError(f"max_lateness must be >= 0, got {max_lateness}")
        self.max_lateness = max_lateness
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = 0  # stable tie-break for equal timestamps
        self._max_seen = float("-inf")
        self._last_released = float("-inf")
        #: events dropped for violating the lateness contract.
        self.late_drops = 0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def watermark(self) -> float:
        """Events at or below this timestamp are safe to release."""
        return self._max_seen - self.max_lateness

    def push(self, event: Event) -> list[Event]:
        """Buffer ``event``; return events now releasable, in order."""
        if event.timestamp < self._last_released:
            self.late_drops += 1
            return []
        heapq.heappush(self._heap, (event.timestamp, self._counter, event))
        self._counter += 1
        if event.timestamp > self._max_seen:
            self._max_seen = event.timestamp

        released: list[Event] = []
        while self._heap and self._heap[0][0] <= self.watermark:
            _, _, ready = heapq.heappop(self._heap)
            self._last_released = ready.timestamp
            released.append(ready)
        return released

    def flush(self) -> list[Event]:
        """Release everything still buffered, in timestamp order."""
        released: list[Event] = []
        while self._heap:
            _, _, ready = heapq.heappop(self._heap)
            self._last_released = ready.timestamp
            released.append(ready)
        return released


class SequenceAssigner:
    """Assigns global sequence numbers and tracks stream time.

    Parameters
    ----------
    strict:
        When true, an event whose timestamp regresses below the previous
        event's timestamp raises :class:`OutOfOrderError`.  When false
        (default) regressions are counted in :attr:`out_of_order_count` but
        allowed through — matching semantics then follow arrival order.
    start:
        First sequence number to assign (default 0).
    """

    def __init__(self, strict: bool = False, start: int = 0) -> None:
        self.strict = strict
        self._next_seq = start
        self._last_timestamp: float | None = None
        #: Number of events observed with a regressing timestamp.
        self.out_of_order_count = 0

    @property
    def next_seq(self) -> int:
        """Sequence number the next event will receive."""
        return self._next_seq

    @property
    def last_timestamp(self) -> float | None:
        """Timestamp of the most recently assigned event, or ``None``."""
        return self._last_timestamp

    def assign(self, event: Event) -> Event:
        """Stamp ``event`` with the next sequence number (mutates ``event``)."""
        if self._last_timestamp is not None and event.timestamp < self._last_timestamp:
            self.out_of_order_count += 1
            if self.strict:
                raise OutOfOrderError(
                    f"event timestamp {event.timestamp} regresses below "
                    f"{self._last_timestamp} (seq {self._next_seq})"
                )
        event.seq = self._next_seq
        self._next_seq += 1
        self._last_timestamp = event.timestamp
        return event

    def assign_all(self, events: Iterable[Event]) -> Iterator[Event]:
        """Lazily stamp every event of an iterable."""
        for event in events:
            yield self.assign(event)

    def snapshot(self) -> dict:
        """JSON-safe snapshot of the assignment position (for checkpoints)."""
        return {
            "next_seq": self._next_seq,
            "last_timestamp": self._last_timestamp,
            "out_of_order_count": self.out_of_order_count,
        }

    def restore(self, state: dict) -> None:
        """Load a :meth:`snapshot` (strictness stays as constructed)."""
        from repro.engine.snapshot import restoring

        with restoring("sequencer"):
            self._next_seq = int(state["next_seq"])
            self._last_timestamp = state["last_timestamp"]
            self.out_of_order_count = int(state["out_of_order_count"])


class PreassignedSequencer(SequenceAssigner):
    """A sequencer that trusts sequence numbers stamped upstream.

    The sharded runtime assigns **global** sequence numbers once, at the
    dispatch point, and then fans events out to per-shard engines.  Each
    shard sees only a subsequence of the stream, so re-numbering locally
    would corrupt count-window semantics (``WITHIN n EVENTS`` measures
    global arrival positions).  An engine constructed with this sequencer
    keeps the incoming ``event.seq`` untouched and only tracks stream time.
    """

    def assign(self, event: Event) -> Event:
        if event.seq < 0:
            raise ValueError(
                "event reached a PreassignedSequencer without a sequence "
                "number; the dispatching runner must stamp events first"
            )
        if self._last_timestamp is not None and event.timestamp < self._last_timestamp:
            self.out_of_order_count += 1
            if self.strict:
                raise OutOfOrderError(
                    f"event timestamp {event.timestamp} regresses below "
                    f"{self._last_timestamp} (seq {event.seq})"
                )
        self._next_seq = event.seq + 1
        self._last_timestamp = event.timestamp
        return event
