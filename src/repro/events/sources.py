"""File-backed and replay event sources.

These sources adapt persisted event logs to :class:`~repro.events.stream.EventStream`:

* :class:`CSVSource` — one event per row; a designated column gives the
  event type and another the timestamp, remaining columns become payload.
* :class:`JSONLSource` — one JSON object per line with ``type``/``timestamp``
  keys plus payload (:func:`event_to_line`, which :func:`write_jsonl` and
  the :class:`~repro.store.log.EventLog` write too).
* :class:`ReplaySource` — wraps another source and replays it against a
  clock (real or simulated), for live-demo scenarios.
"""

from __future__ import annotations

import csv
import json
import time as _time
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.events.event import Event
from repro.events.jsonsafe import dumps, scrub, unscrub
from repro.events.stream import EventStream


def _coerce(value: str) -> Any:
    """Best-effort typed coercion of a CSV cell: int, then float, then str."""
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        pass
    lowered = value.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    return value


class CSVSource:
    """Read events from a CSV file.

    Parameters
    ----------
    path:
        File to read.
    type_column:
        Column holding the event type (default ``"type"``).  Alternatively
        pass ``event_type`` to tag every row with a fixed type.
    timestamp_column:
        Column holding the timestamp (default ``"timestamp"``).
    event_type:
        Fixed event type for all rows; when given, ``type_column`` is not
        consulted.
    """

    def __init__(
        self,
        path: str | Path,
        type_column: str = "type",
        timestamp_column: str = "timestamp",
        event_type: str | None = None,
    ) -> None:
        self.path = Path(path)
        self.type_column = type_column
        self.timestamp_column = timestamp_column
        self.event_type = event_type

    def __iter__(self) -> Iterator[Event]:
        with self.path.open(newline="") as handle:
            reader = csv.DictReader(handle)
            for row in reader:
                yield self._row_to_event(row)

    def _row_to_event(self, row: dict[str, str]) -> Event:
        if self.event_type is not None:
            event_type = self.event_type
        else:
            try:
                event_type = row.pop(self.type_column)
            except KeyError:
                raise ValueError(
                    f"{self.path}: missing type column {self.type_column!r}"
                ) from None
        try:
            timestamp = float(row.pop(self.timestamp_column))
        except KeyError:
            raise ValueError(
                f"{self.path}: missing timestamp column {self.timestamp_column!r}"
            ) from None
        payload = {key: _coerce(value) for key, value in row.items()}
        return Event(event_type, timestamp, **payload)

    def stream(self) -> EventStream:
        return EventStream(iter(self))


def event_to_line(event: Event) -> str:
    """One event as a strict-JSON line: ``type``, ``timestamp``, then the
    payload, whose non-finite floats are written as ``null`` and named in
    a ``"~nf"`` flag field (:mod:`repro.events.jsonsafe`)."""
    return dumps(
        {"type": event.event_type, "timestamp": event.timestamp, **scrub(event.payload)}
    )


def event_from_line(line: str) -> Event:
    """Inverse of :func:`event_to_line`.

    Raises ``json.JSONDecodeError`` for a line that is not JSON and
    ``KeyError`` for one without ``type`` or ``timestamp``.
    """
    record = unscrub(json.loads(line))
    return Event(record.pop("type"), float(record.pop("timestamp")), **record)


class JSONLSource:
    """Read events from a JSON-lines file.

    Each line must be an object with ``"type"`` and ``"timestamp"`` keys;
    all remaining keys become the payload (see :func:`event_from_line`).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def __iter__(self) -> Iterator[Event]:
        with self.path.open() as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    event = event_from_line(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{self.path}:{lineno}: invalid JSON: {exc}") from exc
                except KeyError as exc:
                    raise ValueError(f"{self.path}:{lineno}: missing key {exc}") from None
                yield event

    def stream(self) -> EventStream:
        return EventStream(iter(self))


def write_jsonl(path: str | Path, events: Iterable[Event]) -> int:
    """Persist events as JSON lines; returns the number written."""
    count = 0
    with Path(path).open("w") as handle:
        for event in events:
            handle.write(event_to_line(event) + "\n")
            count += 1
    return count


class ReplaySource:
    """Replay a recorded stream against a clock.

    The source sleeps so that inter-event gaps in stream time are
    reproduced in wall-clock time, scaled by ``speedup``.  Passing a custom
    ``sleep`` function (e.g. a no-op) makes it testable and usable in
    simulations.

    Parameters
    ----------
    events:
        The recorded stream (must be non-decreasing in timestamp).
    speedup:
        Replay speed multiplier; 2.0 plays twice as fast as recorded.
    sleep:
        Sleep function; defaults to :func:`time.sleep`.
    """

    def __init__(
        self,
        events: Iterable[Event],
        speedup: float = 1.0,
        sleep: Callable[[float], None] = _time.sleep,
    ) -> None:
        if speedup <= 0:
            raise ValueError(f"speedup must be positive, got {speedup}")
        self._events = events
        self.speedup = speedup
        self._sleep = sleep

    def __iter__(self) -> Iterator[Event]:
        previous_ts: float | None = None
        for event in self._events:
            if previous_ts is not None:
                gap = (event.timestamp - previous_ts) / self.speedup
                if gap > 0:
                    self._sleep(gap)
            previous_ts = event.timestamp
            yield event

    def stream(self) -> EventStream:
        return EventStream(iter(self))
