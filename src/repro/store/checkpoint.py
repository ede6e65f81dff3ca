"""Atomic, versioned checkpoint files for crash-safe engine state.

A checkpoint is one JSON document capturing everything a
:class:`~repro.runtime.engine.CEPREngine` (or
:class:`~repro.runtime.sharded.ShardedEngineRunner`) needs to continue a
stream exactly where it left off: the engine ``snapshot()`` plus a
*position* — how many source events were consumed, and the ``(seq, ts)``
of the last one.  Recovery is restore + replay: load the latest valid
checkpoint into a freshly built engine, skip the consumed prefix of the
event source (or scan the :class:`~repro.store.log.EventLog` tail), and
keep pushing.  docs/RECOVERY.md walks through the guarantees.

Durability model
----------------

``save()`` never exposes a partially written file:

1. the document is written to a temp file **in the checkpoint directory**
   (same filesystem, so the rename below cannot degrade to copy+delete),
2. flushed and ``fsync``-ed,
3. atomically moved into place with ``os.replace``,
4. the directory entry is ``fsync``-ed, making the rename itself durable.

A crash during any step leaves either the previous checkpoint set intact
or a stray ``*.tmp`` file that is ignored (and cleaned on the next save).
On top of that, every document embeds a CRC-32 of its state payload;
``latest()`` walks checkpoints newest-first and **skips** anything that
fails to parse or verify instead of raising, so one bad file (torn disk
write, partial copy) degrades recovery by one checkpoint interval instead
of preventing it.
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from repro.events.jsonsafe import decode_state, encode_state
from repro.observability.instruments import CHECKPOINT, bind_table
from repro.observability.log import get_logger
from repro.runtime.metrics import LatencyRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observability.registry import MetricsRegistry

#: magic value identifying checkpoint documents.
CHECKPOINT_FORMAT = "cepr-checkpoint"
#: current document version; readers reject versions they don't know.
CHECKPOINT_VERSION = 1

_log = get_logger(__name__)

_PREFIX = "checkpoint-"
_SUFFIX = ".json"


class CheckpointError(ValueError):
    """Raised on invalid save arguments (never by ``latest()``)."""


@dataclass(frozen=True)
class Position:
    """Stream position a checkpoint was taken at.

    ``events_consumed`` counts *source* events fed to the engine/runner
    (before any lateness reordering), which is exactly the prefix to skip
    on replay; ``last_seq``/``last_ts`` locate the same point in sequence
    numbers and stream time for log-tail scans and sanity checks.
    """

    events_consumed: int
    last_seq: int
    last_ts: float

    @classmethod
    def from_json(cls, state: dict[str, Any]) -> "Position":
        return cls(
            events_consumed=int(state["events_consumed"]),
            last_seq=int(state["last_seq"]),
            last_ts=float(state["last_ts"]),
        )


@dataclass(frozen=True)
class Checkpoint:
    """One loaded (and verified) checkpoint."""

    path: Path
    position: Position
    state: dict[str, Any]


def _checksum(canonical: str) -> int:
    return zlib.crc32(canonical.encode("utf-8"))


def _canonical(state: Any) -> str:
    # Key order is canonicalised so the checksum is a function of the
    # state's *content*, not of dict construction order.
    return encode_state(state, sort_keys=True)


class CheckpointStore:
    """Writes and reads checkpoints in one directory (see module docs).

    Parameters
    ----------
    directory:
        Checkpoint directory; created if missing.
    keep:
        How many most-recent checkpoints to retain after each save.
        Retaining more than one means a latent corruption in the newest
        file costs one checkpoint interval, not the whole run.
    """

    def __init__(self, directory: str | Path, keep: int = 3) -> None:
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = keep
        self.saves = 0
        self.loads = 0
        #: checkpoint files skipped by ``latest()`` as unreadable/corrupt.
        self.invalid_skipped = 0
        self.pruned = 0
        self.last_save_bytes = 0
        self.save_latency = LatencyRecorder()

    # -- writing ------------------------------------------------------------------

    def save(self, state: dict[str, Any], position: Position) -> Path:
        """Atomically persist ``state`` at ``position``; returns the path.

        The checksum covers the canonical (key-sorted) encoding, so it is
        a function of the state's content; the document keeps the state's
        own key order, which restore relies on (a restored event's payload
        prints in arrival order).  Non-finite floats travel as
        :func:`~repro.events.jsonsafe.encode_state` writes them, so engine
        snapshots can be passed as-is.
        """
        if position.events_consumed < 0:
            raise CheckpointError(
                f"events_consumed must be >= 0, got {position.events_consumed}"
            )
        started = time.perf_counter()
        document = encode_state(
            {
                "format": CHECKPOINT_FORMAT,
                "version": CHECKPOINT_VERSION,
                "position": asdict(position),
                "checksum": _checksum(_canonical(state)),
                "state": state,
            }
        )
        final = self.directory / (
            f"{_PREFIX}{position.events_consumed:012d}{_SUFFIX}"
        )
        temp = final.with_suffix(final.suffix + ".tmp")
        with temp.open("w") as handle:
            handle.write(document)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, final)
        self._fsync_directory()
        self.saves += 1
        self.last_save_bytes = len(document.encode("utf-8"))
        self.save_latency.record(time.perf_counter() - started)
        self.prune()
        return final

    def _fsync_directory(self) -> None:
        # Makes the rename durable; not supported on every platform/FS.
        try:
            fd = os.open(self.directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - platform-dependent
            pass
        finally:
            os.close(fd)

    def prune(self) -> None:
        """Drop all but the ``keep`` newest checkpoints (and stray temps)."""
        for stale in self._checkpoint_paths()[self.keep :]:
            stale.unlink(missing_ok=True)
            self.pruned += 1
        for temp in self.directory.glob(f"{_PREFIX}*{_SUFFIX}.tmp"):
            temp.unlink(missing_ok=True)

    # -- reading ------------------------------------------------------------------

    def latest(self) -> Checkpoint | None:
        """The newest checkpoint that parses and verifies, or ``None``.

        Invalid files (torn writes, wrong format/version, checksum
        mismatch) are counted in :attr:`invalid_skipped` and skipped, so
        recovery falls back to the previous checkpoint instead of failing.
        """
        for path in self._checkpoint_paths():
            checkpoint = self._load(path)
            if checkpoint is not None:
                self.loads += 1
                return checkpoint
            self.invalid_skipped += 1
        return None

    def _checkpoint_paths(self) -> list[Path]:
        """Checkpoint files, newest (highest position) first."""
        return sorted(
            self.directory.glob(f"{_PREFIX}*{_SUFFIX}"), reverse=True
        )

    def _load(self, path: Path) -> Checkpoint | None:
        try:
            document = decode_state(path.read_text())
            if document.get("format") != CHECKPOINT_FORMAT:
                return None
            if document.get("version") != CHECKPOINT_VERSION:
                return None
            state = document["state"]
            if _checksum(_canonical(state)) != int(document["checksum"]):
                return None
            position = Position.from_json(document["position"])
        except (OSError, ValueError, KeyError, TypeError):
            return None
        return Checkpoint(path=path, position=position, state=state)

    # -- observability ------------------------------------------------------------

    def register_metrics(self, registry: "MetricsRegistry") -> None:
        """Register checkpoint counters/latency (labelled by directory)."""
        bind_table(registry, CHECKPOINT, self, store=self.directory.name)


class Recovery:
    """Crash recovery for one front end: resume once, then save every N.

    ``cepr run`` and ``cepr serve`` both drive their runner through this,
    so the flag rules, the resume path and the :class:`Position` a save
    records are written once.  ``directory=None`` disables checkpointing
    (:attr:`store` is ``None`` and nothing is ever due).
    """

    def __init__(
        self,
        directory: str | Path | None,
        every: int = 1000,
        resume: bool = False,
    ) -> None:
        if every < 1:
            raise ValueError(f"--checkpoint-every must be >= 1, got {every}")
        if resume and directory is None:
            raise ValueError("--resume requires --checkpoint-dir")
        self.store = CheckpointStore(directory) if directory is not None else None
        self.every = every
        self.resume = resume

    def restore(self, restore: Callable[[dict[str, Any]], None]) -> Position | None:
        """When resuming, load the latest valid checkpoint via ``restore``.

        Returns its position (the source prefix already consumed), or
        ``None`` when the stream starts from the beginning.
        """
        if self.store is None or not self.resume:
            return None
        checkpoint = self.store.latest()
        if checkpoint is None:
            _log.warning(
                "--resume: no valid checkpoint in %s, starting from the beginning",
                self.store.directory,
            )
            return None
        restore(checkpoint.state)
        _log.info(
            "resumed from %s: skipping %d already-consumed event(s)",
            checkpoint.path.name,
            checkpoint.position.events_consumed,
        )
        return checkpoint.position

    def due(self, before: int, after: int) -> bool:
        """Whether consuming events ``before`` -> ``after`` crossed a
        save boundary (a multiple of ``every``)."""
        return self.store is not None and before // self.every != after // self.every

    def save(self, state: dict[str, Any], events_consumed: int) -> Path:
        """Persist a runner snapshot taken after ``events_consumed`` events,
        at the position its ``sequencer`` section records."""
        assert self.store is not None
        sequencer = state["sequencer"]
        return self.store.save(
            state,
            Position(
                events_consumed=events_consumed,
                last_seq=int(sequencer["next_seq"]) - 1,
                last_ts=sequencer["last_timestamp"] or 0.0,
            ),
        )
