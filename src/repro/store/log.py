"""An append-only, time-indexed event log.

The log persists events as JSON lines and keeps a sparse in-memory time
index (one ``(timestamp, byte offset, line number)`` entry every
``index_stride`` records), so time-range scans seek close to the range
start instead of reading the whole file.  Timestamps must be
non-decreasing on append — the same contract the engine's windows assume —
which is what makes the sparse index valid.

This is the storage substrate behind back-testing and crash recovery:
record a live stream once, then re-run candidate queries over any time
slice of it (:class:`~repro.store.backtest.Backtester`), or replay the
tail past a checkpoint (:mod:`repro.store.checkpoint`).

Torn-tail recovery
------------------

The normal post-crash state of an append-only log is a *torn tail*: the
final ``write()`` was cut mid-record, leaving a trailing line that either
lacks its newline or is not decodable JSON.  Opening such a file recovers
instead of raising:

* a final line that decodes but lacks its terminating newline is kept —
  the record is complete, only the separator was lost, and the next
  append repairs it;
* a final line that does not decode (with or without a newline) is a torn
  write: it is dropped, the dropped byte count is exposed via
  :attr:`EventLog.recovered_tail_bytes`, and the next append truncates
  the file back to the last valid record before writing, so the torn
  bytes can never concatenate into the next record.

Corruption *before* the final line — an undecodable interior line, or
timestamps that regress — is not a torn write and still raises
:class:`LogCorruptError`.
"""

from __future__ import annotations

import bisect
import os
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.events.event import Event
from repro.events.sources import event_from_line, event_to_line
from repro.observability.instruments import STORE, bind_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observability.registry import MetricsRegistry


class LogCorruptError(ValueError):
    """Raised when a log line cannot be decoded as an event."""


def _decode(line: str, lineno: int, path: Path) -> Event:
    try:
        return event_from_line(line)
    except (KeyError, TypeError, ValueError) as exc:
        raise LogCorruptError(f"{path}:{lineno}: bad event record: {exc}") from exc


class EventLog:
    """Append-only persistent event log with sparse time indexing.

    Parameters
    ----------
    path:
        Backing file; created on first append, loaded (and indexed) when it
        already exists.  A torn final line — the normal state after a crash
        mid-append — is recovered, not an error (see the module docs).
    index_stride:
        One index entry is kept per this many records.  Smaller strides
        seek more precisely at the cost of memory.
    """

    def __init__(self, path: str | Path, index_stride: int = 256) -> None:
        if index_stride <= 0:
            raise ValueError(f"index_stride must be positive, got {index_stride}")
        self.path = Path(path)
        self.index_stride = index_stride
        self.count = 0
        # Session I/O counters (this process only; count covers the file).
        self.events_appended = 0
        self.events_read = 0
        self.scans = 0
        self.index_seeks = 0
        #: bytes of torn tail dropped when the file was opened (0 = clean).
        self.recovered_tail_bytes = 0
        self.first_timestamp: float | None = None
        self.last_timestamp: float | None = None
        # sparse index: parallel arrays of timestamps, byte offsets, and
        # 1-based physical line numbers (for accurate corruption reports)
        self._index_ts: list[float] = []
        self._index_offset: list[int] = []
        self._index_lineno: list[int] = []
        self._append_handle = None
        #: logical end of the valid region; bytes past it are torn tail.
        self._valid_size = 0
        #: physical lines occupied by the valid region (blank lines included).
        self._line_count = 0
        #: the last valid record decodes but lost its trailing newline.
        self._needs_newline = False
        if self.path.exists():
            self._build_index()

    # -- writing ------------------------------------------------------------------

    def append(self, event: Event) -> None:
        """Persist one event (timestamps must be non-decreasing)."""
        if self.last_timestamp is not None and event.timestamp < self.last_timestamp:
            raise ValueError(
                f"event timestamp {event.timestamp} regresses below "
                f"{self.last_timestamp}; the log requires non-decreasing time "
                f"(reorder with a LatenessBuffer first)"
            )
        if self._append_handle is None:
            self._open_for_append()
        if self.count % self.index_stride == 0:
            self._index_ts.append(event.timestamp)
            self._index_offset.append(self._append_handle.tell())
            self._index_lineno.append(self._line_count + 1)
        self._append_handle.write(event_to_line(event) + "\n")
        if self.first_timestamp is None:
            self.first_timestamp = event.timestamp
        self.last_timestamp = event.timestamp
        self.count += 1
        self._line_count += 1
        self.events_appended += 1
        self._valid_size = self._append_handle.tell()

    def _open_for_append(self) -> None:
        """Open the append handle, repairing any recovered torn tail first.

        A dropped tail is physically truncated away here (not at open
        time), so merely *reading* a crashed log never rewrites it; a
        complete-but-unterminated final record gets its newline completed
        before new records follow it.
        """
        if self.recovered_tail_bytes and self.path.exists():
            with self.path.open("r+b") as handle:
                handle.truncate(self._valid_size)
        self._append_handle = self.path.open("a")
        if self._needs_newline:
            self._append_handle.write("\n")
            self._needs_newline = False
            self._valid_size = self._append_handle.tell()

    def append_all(self, events: Iterable[Event]) -> int:
        """Append every event; returns how many were written."""
        written = 0
        for event in events:
            self.append(event)
            written += 1
        self.flush()
        return written

    def flush(self) -> None:
        if self._append_handle is not None:
            self._append_handle.flush()

    def close(self) -> None:
        if self._append_handle is not None:
            self._append_handle.close()
            self._append_handle = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- reading ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.count

    @property
    def time_range(self) -> tuple[float, float] | None:
        if self.first_timestamp is None or self.last_timestamp is None:
            return None
        return (self.first_timestamp, self.last_timestamp)

    def scan(
        self,
        start_ts: float | None = None,
        end_ts: float | None = None,
        types: Iterable[str] | None = None,
    ) -> Iterator[Event]:
        """Iterate events with ``start_ts <= timestamp < end_ts``.

        ``types`` optionally restricts to a set of event types.  The sparse
        index is used to seek near ``start_ts``; events before it in the
        same stride are skipped by comparison.  A recovered torn tail is
        never read.
        """
        self.flush()
        if not self.path.exists():
            return
        self.scans += 1
        wanted = frozenset(types) if types is not None else None
        offset, lineno = self._seek_position(start_ts)
        if offset > 0:
            self.index_seeks += 1
        valid_size = self._valid_size
        with self.path.open() as handle:
            handle.seek(offset)
            position = offset
            while position < valid_size:
                line = handle.readline()
                if not line:
                    break
                lineno += 1
                position += len(line.encode("utf-8"))
                stripped = line.strip()
                if not stripped:
                    continue
                event = _decode(stripped, lineno, self.path)
                self.events_read += 1
                if start_ts is not None and event.timestamp < start_ts:
                    continue
                if end_ts is not None and event.timestamp >= end_ts:
                    return
                if wanted is not None and event.event_type not in wanted:
                    continue
                yield event

    def _seek_position(self, start_ts: float | None) -> tuple[int, int]:
        """``(byte offset, lines before it)`` to start scanning from.

        The line count is the number of physical lines preceding the
        offset, so error reports carry true file line numbers even after
        an index seek.
        """
        if start_ts is None or not self._index_ts:
            return 0, 0
        # Rightmost index entry with timestamp strictly below start_ts.
        # An entry *at* start_ts cannot be used: with duplicate timestamps
        # the indexed event may not be the first one at that instant, and
        # seeking to it would skip its same-timestamp predecessors.
        position = bisect.bisect_left(self._index_ts, start_ts) - 1
        if position < 0:
            return 0, 0
        return self._index_offset[position], self._index_lineno[position] - 1

    # -- startup ------------------------------------------------------------------

    def _build_index(self) -> None:
        """Scan an existing file once to rebuild counters and the index.

        Interior corruption raises; a torn final line recovers (see the
        module docs for the exact policy).
        """
        file_size = os.path.getsize(self.path)
        with self.path.open() as handle:
            offset = 0
            lineno = 0
            pending: str | None = handle.readline()
            while pending:
                line, pending = pending, handle.readline()
                lineno += 1
                is_final = not pending
                terminated = line.endswith("\n")
                stripped = line.strip()
                if stripped:
                    try:
                        event = _decode(stripped, lineno, self.path)
                    except LogCorruptError:
                        if not is_final:
                            raise
                        # Torn tail: drop it and stop before the bad bytes.
                        self.recovered_tail_bytes = file_size - offset
                        self._line_count = lineno - 1
                        self._valid_size = offset
                        return
                    if (
                        self.last_timestamp is not None
                        and event.timestamp < self.last_timestamp
                    ):
                        raise LogCorruptError(
                            f"{self.path}:{lineno}: timestamps regress; "
                            f"log is corrupt"
                        )
                    if self.count % self.index_stride == 0:
                        self._index_ts.append(event.timestamp)
                        self._index_offset.append(offset)
                        self._index_lineno.append(lineno)
                    if self.first_timestamp is None:
                        self.first_timestamp = event.timestamp
                    self.last_timestamp = event.timestamp
                    self.count += 1
                    if is_final and not terminated:
                        # Complete record, lost separator: keep the data
                        # and complete the newline on the next append.
                        self._needs_newline = True
                offset += len(line.encode("utf-8"))
            self._line_count = lineno
            self._valid_size = offset

    def sync_size(self) -> int:
        """Current on-disk size in bytes (after flushing)."""
        self.flush()
        return os.path.getsize(self.path) if self.path.exists() else 0

    # -- observability ------------------------------------------------------------

    def register_metrics(self, registry: "MetricsRegistry") -> None:
        """Register this log's I/O counters (labelled by file name)."""
        bind_table(registry, STORE, self, log=self.path.name)
