"""Black-box flight recorder: a bounded ring of recent telemetry.

Long runs fail in ways the logs never capture: the interesting history is
the *last few seconds* before the crash — which events were in flight,
what the counters said, which frames the server was juggling.  The
:class:`FlightRecorder` keeps exactly that: a byte-budgeted ring of
pre-encoded JSON entries (spans, frames, metric snapshots, lifecycle
marks) that costs one ``json.dumps`` per record and nothing else, and can
dump a postmortem artifact at any moment — on a crash, on a CEPRSan
``SanitizerError`` trip, on ``SIGUSR2`` in ``cepr serve``, or on demand
via ``cepr flightrec dump``.

Design constraints:

* **Allocation-light.** Entries are stored as their final encoded strings,
  so the byte budget is exact (``sum(len(entry))``) and a dump is a string
  join, not a re-serialisation of live objects.
* **Bounded.** Recording past the budget evicts the oldest entries; the
  eviction count survives into the artifact so a truncated history says so.
* **Disabled = one ``None`` check.** Components capture
  :func:`current` once at construction; when no recorder is installed the
  hot path pays a single identity comparison.

The artifact is a single JSON document (see :meth:`FlightRecorder.dump`)
written atomically (temp file + rename) into the configured directory —
by convention the checkpoint dir, so postmortems land next to the state
they describe.
"""

from __future__ import annotations

import json
import os
import time
import threading
from collections import deque
from pathlib import Path
from typing import Any

from repro.events.jsonsafe import decode_state, encode_state

#: artifact format version (bump on incompatible schema changes).
ARTIFACT_VERSION = 1

#: artifact filename prefix (``cepr flightrec show/list`` globs on this).
ARTIFACT_PREFIX = "flightrec-"

#: default ring budget: enough for a few thousand entries without ever
#: mattering next to engine state.
DEFAULT_BYTE_BUDGET = 256 * 1024


class FlightRecorder:
    """Byte-budgeted ring buffer of encoded telemetry entries.

    Thread-safe: the engine consumer thread, shard workers, the asyncio
    loop, and signal handlers may all record concurrently.  The lock is a
    raw ``threading.Lock`` by necessity — :mod:`repro.observability` sits
    below :mod:`repro.sanitize` in the import graph, so it cannot use
    ``tracked_lock`` without a cycle, and the critical sections are a few
    deque operations with no nested acquisition.
    """

    def __init__(
        self,
        byte_budget: int = DEFAULT_BYTE_BUDGET,
        directory: str | os.PathLike | None = None,
    ) -> None:
        if byte_budget < 1:
            raise ValueError(f"byte_budget must be >= 1, got {byte_budget}")
        self.byte_budget = int(byte_budget)
        self.directory = Path(directory) if directory is not None else None
        self._entries: deque[str] = deque()
        self._bytes = 0
        self._lock = threading.Lock()  # san: allow-raw-lock
        #: entries ever recorded (accepted into the ring).
        self.recorded = 0
        #: entries evicted by the byte budget (or rejected as oversize).
        self.dropped = 0
        #: artifacts written by :meth:`dump`.
        self.dumps_written = 0

    # -- recording ---------------------------------------------------------------

    def record(self, kind: str, **data: Any) -> None:
        """Append one entry; evict oldest entries past the byte budget."""
        entry: dict[str, Any] = {"ts": round(time.time(), 6), "kind": kind}
        entry.update(data)
        try:
            encoded = encode_state(entry, default=str)
        except (TypeError, ValueError):
            encoded = json.dumps(
                {"ts": entry["ts"], "kind": kind, "encode_error": True},
                separators=(",", ":"),
            )
        with self._lock:
            if len(encoded) > self.byte_budget:
                # One entry larger than the whole ring: never admit it,
                # or it would silently flush all history.
                self.dropped += 1
                return
            self._entries.append(encoded)
            self._bytes += len(encoded)
            self.recorded += 1
            while self._bytes > self.byte_budget:
                evicted = self._entries.popleft()
                self._bytes -= len(evicted)
                self.dropped += 1

    # -- reading -----------------------------------------------------------------

    @property
    def bytes_used(self) -> int:
        """Exact bytes currently held by the ring."""
        with self._lock:
            return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> list[dict[str, Any]]:
        """Decode and return the retained entries, oldest first."""
        with self._lock:
            snapshot = list(self._entries)
        return [decode_state(entry) for entry in snapshot]

    # -- dumping -----------------------------------------------------------------

    def dump(
        self,
        reason: str,
        directory: str | os.PathLike | None = None,
    ) -> Path:
        """Write the postmortem artifact; return its path.

        The artifact is one JSON object::

            {"version": 1, "reason": ..., "pid": ..., "created_unix": ...,
             "byte_budget": ..., "recorded": ..., "dropped": ...,
             "entries": [oldest, ..., newest]}

        Entries are spliced in pre-encoded, so a dump does no per-entry
        re-serialisation.  Written atomically (temp + rename) so a crash
        mid-dump never leaves a half-written artifact that parses as
        truth.
        """
        target_dir = Path(directory) if directory is not None else self.directory
        if target_dir is None:
            target_dir = Path.cwd()
        target_dir.mkdir(parents=True, exist_ok=True)
        with self._lock:
            entries = list(self._entries)
            recorded = self.recorded
            dropped = self.dropped
        now = time.time()
        header = {
            "version": ARTIFACT_VERSION,
            "reason": reason,
            "pid": os.getpid(),
            "created_unix": round(now, 6),
            "byte_budget": self.byte_budget,
            "recorded": recorded,
            "dropped": dropped,
        }
        head = json.dumps(header, separators=(",", ":"))
        body = head[:-1] + ',"entries":[' + ",".join(entries) + "]}"
        safe_reason = "".join(
            ch if ch.isalnum() or ch in "-_" else "-" for ch in reason
        )
        name = f"{ARTIFACT_PREFIX}{int(now * 1000)}-{safe_reason}-{os.getpid()}.json"
        path = target_dir / name
        tmp = target_dir / (name + ".tmp")
        tmp.write_text(body, encoding="utf-8")
        os.replace(tmp, path)
        self.dumps_written += 1
        return path


# ---------------------------------------------------------------------------
# process-wide singleton
# ---------------------------------------------------------------------------

_current: FlightRecorder | None = None


def install_flight_recorder(
    byte_budget: int = DEFAULT_BYTE_BUDGET,
    directory: str | os.PathLike | None = None,
) -> FlightRecorder:
    """Arm the process-wide recorder (idempotent per install call)."""
    global _current
    _current = FlightRecorder(byte_budget=byte_budget, directory=directory)
    return _current


def current() -> FlightRecorder | None:
    """The armed recorder, or ``None`` when flight recording is off."""
    return _current


def uninstall_flight_recorder() -> None:
    """Disarm the process-wide recorder (new components see ``None``)."""
    global _current
    _current = None


def dump_if_armed(
    reason: str, directory: str | os.PathLike | None = None
) -> Path | None:
    """Dump the armed recorder, if any; swallow dump I/O failures.

    Crash paths call this: a postmortem must never turn one failure into
    two, so a full disk or missing directory degrades to ``None``.
    """
    recorder = _current
    if recorder is None:
        return None
    try:
        return recorder.dump(reason, directory=directory)
    except OSError:
        return None


def list_artifacts(directory: str | os.PathLike) -> list[Path]:
    """Flight-recorder artifacts under ``directory``, oldest first."""
    root = Path(directory)
    if not root.is_dir():
        return []
    return sorted(root.glob(ARTIFACT_PREFIX + "*.json"))


def load_artifact(path: str | os.PathLike) -> dict[str, Any]:
    """Parse one artifact; raises ``ValueError`` on schema mismatch."""
    doc = decode_state(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict) or "entries" not in doc:
        raise ValueError(f"{path}: not a flight-recorder artifact")
    if doc.get("version") != ARTIFACT_VERSION:
        raise ValueError(
            f"{path}: artifact version {doc.get('version')!r} "
            f"!= supported {ARTIFACT_VERSION}"
        )
    return doc
