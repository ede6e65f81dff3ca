"""Stream-time utilities: admission, sequence assignment and durations.

CEPR measures count-based windows in *sequence numbers* — the global arrival
index assigned to each event at ingest — and time-based windows in event
*timestamps*.  A runner's :class:`Ingress` decides which source events
enter the stream and in what order (schema, time order, the lateness
buffer); the dispatching engine's :class:`SequenceAssigner` numbers them.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator

from repro.events.event import Event
from repro.events.schema import SchemaError, SchemaRegistry


class OutOfOrderError(ValueError):
    """Raised when a stream violates timestamp monotonicity in strict mode."""


def rejected(error: ValueError, admitted: int) -> ValueError:
    """``error``, noting in ``error.admitted`` how many events of its
    ``submit_all`` call were admitted before the one it rejects."""
    error.admitted = admitted  # type: ignore[attr-defined]
    return error


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
    timestamp order, at the cost of that much result latency.  A runner's
    :class:`Ingress` wires this in front of numbering when built with
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
    """Assigns global sequence numbers, from ``start``: the dispatcher's
    counter, since a YIELD-derived event takes the next number on the
    engine that derives it (which events arrive is the :class:`Ingress`'s
    business)."""

    def __init__(self, start: int = 0) -> None:
        self._next_seq = start

    @property
    def next_seq(self) -> int:
        """Sequence number the next event will receive."""
        return self._next_seq

    def assign(self, event: Event) -> Event:
        """Stamp ``event`` with the next sequence number (mutates ``event``)."""
        event.seq = self._next_seq
        self._next_seq += 1
        return event

    def assign_all(self, events: Iterable[Event]) -> Iterator[Event]:
        """Lazily stamp every event of an iterable."""
        for event in events:
            yield self.assign(event)

    def snapshot(self) -> dict:
        """JSON-safe snapshot of the assignment position (for checkpoints)."""
        return {"next_seq": self._next_seq}

    def restore(self, state: dict) -> None:
        """Load a :meth:`snapshot`."""
        from repro.engine.snapshot import restoring

        with restoring("sequencer"):
            self._next_seq = int(state["next_seq"])


class PreassignedSequencer(SequenceAssigner):
    """A sequencer that trusts sequence numbers stamped upstream.

    The sharded runtime assigns **global** sequence numbers once, at the
    dispatch point, and then fans events out to per-shard engines.  Each
    shard sees only a subsequence of the stream, so re-numbering locally
    would corrupt count-window semantics (``WITHIN n EVENTS`` measures
    global arrival positions).  An engine constructed with this sequencer
    keeps the incoming ``event.seq`` untouched.
    """

    def assign(self, event: Event) -> Event:
        if event.seq < 0:
            raise ValueError(
                "event reached a PreassignedSequencer without a sequence "
                "number; the dispatching runner must stamp events first"
            )
        self._next_seq = event.seq + 1
        return event


class Ingress:
    """Admission: which source events enter the stream, and in what order
    (DESIGN.md, "Admission").  Every runner runs exactly one, in ``submit``.

    The schema check raises :class:`~repro.events.schema.SchemaError`;
    then with ``max_lateness`` the :class:`LatenessBuffer` reorders;
    without, a timestamp below the last admitted one raises
    :class:`OutOfOrderError` under ``strict_time`` and is counted
    otherwise.  A rejected event changes nothing.
    """

    def __init__(
        self,
        registry: "SchemaRegistry | None" = None,
        strict_schema: bool = False,
        strict_time: bool = False,
        max_lateness: float | None = None,
    ) -> None:
        self.registry = registry
        self.strict_schema = strict_schema
        self.strict_time = strict_time
        self.lateness = None if max_lateness is None else LatenessBuffer(max_lateness)
        #: the last source event released for numbering: the submit-side
        #: watermark, and what the time-order check compares against.
        self.last_timestamp: float | None = None
        self.out_of_order_count = 0
        #: source events accepted (held or dropped by the buffer included).
        self.events_admitted = 0

    def admit(self, event: Event) -> list[Event]:
        """Check one source event; return the events now due for
        numbering, in order (none while the lateness buffer holds it)."""
        if self.registry is not None:
            self.registry.validate(event, strict=self.strict_schema)
        if self.lateness is not None:
            self.events_admitted += 1
            return self._released(self.lateness.push(event))
        timestamp, last = event.timestamp, self.last_timestamp
        if last is not None and timestamp < last:
            if self.strict_time:
                raise OutOfOrderError(
                    f"event timestamp {timestamp} regresses below {last}"
                )
            self.out_of_order_count += 1
        self.last_timestamp = timestamp
        self.events_admitted += 1
        return [event]

    def admit_batch(
        self, events: list[Event]
    ) -> tuple[list[Event], int, ValueError | None]:
        """:meth:`admit` each of ``events``: the events now due, how many
        were admitted and the error rejecting the next, if one did (the
        events before it stay)."""
        due: list[Event] = []
        admitted = 0
        try:
            for event in events:
                due += self.admit(event)
                admitted += 1
        except (SchemaError, OutOfOrderError) as exc:
            return due, admitted, exc
        return due, admitted, None

    def flush(self) -> list[Event]:
        """End of stream: everything the lateness buffer still holds."""
        return [] if self.lateness is None else self._released(self.lateness.flush())

    def _released(self, events: list[Event]) -> list[Event]:
        if events:
            self.last_timestamp = events[-1].timestamp
        return events

    def mark(self) -> tuple[dict, dict | None]:
        """The whole admission state, for :meth:`rewind`."""
        buffer = self.lateness
        held = None if buffer is None else dict(vars(buffer), _heap=list(buffer._heap))
        return dict(vars(self)), held

    def rewind(self, mark: tuple[dict, dict | None]) -> None:
        """Return to a :meth:`mark`: as if nothing since was submitted."""
        own, held = mark
        vars(self).update(own)
        if held is not None:
            vars(self.lateness).update(held)

    def snapshot(self) -> dict:
        """This stage's sections of a checkpoint (for :func:`merge_admission`):
        the ``sequencer`` section's time-order fields, and ``lateness``."""
        from repro.engine.snapshot import encode_event

        buffer = self.lateness
        return {
            "sequencer": {
                "last_timestamp": self.last_timestamp,
                "out_of_order_count": self.out_of_order_count,
            },
            "lateness": None
            if buffer is None
            else {
                "heap": [[ts, n, encode_event(e)] for ts, n, e in buffer._heap],
                "counter": buffer._counter,
                "max_seen": buffer._max_seen,
                "last_released": buffer._last_released,
                "late_drops": buffer.late_drops,
            },
        }

    def restore(self, state: dict) -> None:
        """Load this stage's sections of an engine's or a fleet's
        checkpoint; nothing changes unless all of them load."""
        from repro.engine.snapshot import SnapshotFormatError, decode_event, restoring

        held, order = state["lateness"], state["sequencer"]
        if (held is None) != (self.lateness is None):
            raise SnapshotFormatError(
                "lateness-buffer configuration mismatch between snapshot "
                "and runner (max_lateness must match)"
            )
        with restoring("sequencer"):
            own = {
                "last_timestamp": order["last_timestamp"],
                "out_of_order_count": int(order["out_of_order_count"]),
            }
        buffer = None
        if held is not None:
            with restoring("lateness"):
                heap = [
                    (float(ts), int(n), decode_event(e)) for ts, n, e in held["heap"]
                ]
                heapq.heapify(heap)
                buffer = {
                    "_heap": heap,
                    "_counter": int(held["counter"]),
                    "_max_seen": float(held["max_seen"]),
                    "_last_released": float(held["last_released"]),
                    "late_drops": int(held["late_drops"]),
                }
        self.rewind((own, buffer))


def merge_admission(state: dict, admission: dict) -> dict:
    """``state``, a checkpoint without admission (an engine's behind a
    runner), with ``admission`` (an :meth:`Ingress.snapshot`) written in:
    the layout of an embedded engine's checkpoint."""
    state["sequencer"] = {**state["sequencer"], **admission["sequencer"]}
    state["lateness"] = admission["lateness"]
    return state
