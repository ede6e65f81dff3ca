"""Pipe shards: a shard whose engine runs in a worker process.

:class:`~repro.runtime.sharded.ShardedEngineRunner` buys ordering and
merge determinism; :class:`PipeShard` buys it CPU parallelism, which
engines sharing one interpreter's GIL cannot have.  It is the fleet's
implementation of the shard interface (:class:`~repro.runtime.shard.Shard`),
whose ``push_batch`` and barrier calls travel as length-prefixed JSON
frames (:mod:`repro.events.frames`) over an OS pipe to
``python -m repro.runtime.process_worker`` — a fresh interpreter with its
own GIL that hosts a ``LocalShard`` and answers ``report`` with that
shard's :class:`~repro.runtime.report.ShardReport`, encoded.  The
coordinator writes them on the thread that calls it; a full pipe blocks
that write, which is the fleet's backpressure.

::

    coordinator ── "events" frames (one-way, one per chunk) ──► worker
                ── advance / flush / report / snapshot / ... ──►   │
                ◄──────────── ack (+ encoded ShardReport) ─────────┘

Consistency: exactly the shard contract — the coordinator knows what the
last ``report()`` said.  Failure model: a dead or erroring worker raises
:class:`WorkerProcessError` from the call that noticed, which latches as
the shard's failure exactly where a local engine's exception would;
recovery is the coordinator's ``restore`` (``respawn`` + replay the
shard's snapshot), see ``docs/PROCESS_RUNNER.md``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from typing import Any, BinaryIO, Mapping

from repro.engine.snapshot import SnapshotFormatError, encode_event
from repro.events.event import Event
from repro.events.frames import (
    ConnectionClosed,
    FrameError,
    encode_frame,
    read_frame_from,
)
from repro.events.jsonsafe import decode_state, encode_state
from repro.events.schema import encode_registry, registry_from_dict
from repro.language.ast_nodes import Query
from repro.language.parser import parse_query
from repro.language.printer import format_query
from repro.language.semantics import analyze
from repro.ranking.score import Scorer
from repro.runtime.config import RunnerConfig
from repro.runtime.report import ShardReport, decode_report
from repro.sanitize.locks import tracked_lock

#: Pipe frames carry engine snapshots, not client requests; the limit is
#: a corruption guard, not a protocol negotiation.
PIPE_MAX_FRAME_BYTES = 64 * 1024 * 1024


class WorkerProcessError(RuntimeError):
    """A worker process died or reported an internal error."""


# -- pipe framing (shared with repro.runtime.process_worker) -----------------------


def read_pipe_frame(stream: BinaryIO) -> dict[str, Any]:
    """Read one length-prefixed JSON frame from a blocking pipe stream."""
    return read_frame_from(stream.read, PIPE_MAX_FRAME_BYTES, decode_state)


def write_pipe_frame(stream: BinaryIO, doc: dict[str, Any]) -> None:
    """Write one frame and flush (pipes buffer; barriers need delivery)."""
    stream.write(encode_frame(doc, PIPE_MAX_FRAME_BYTES, encode_state))
    stream.flush()


def encode_config(config: RunnerConfig) -> dict[str, Any]:
    """``config`` as a JSON document, the registry in its dict form."""
    registry = config.registry
    return dict(
        vars(config),
        registry=None if registry is None else encode_registry(registry),
    )


def decode_config(doc: Mapping[str, Any]) -> RunnerConfig:
    """Inverse of :func:`encode_config`."""
    spec = doc["registry"]
    return RunnerConfig(
        **dict(doc, registry=None if spec is None else registry_from_dict(spec))
    )


# -- the shard ------------------------------------------------------------------------


class PipeShard:
    """A shard served by one worker process over stdin/stdout pipes.

    Same constructor as :class:`~repro.runtime.shard.LocalShard`.  Queries
    travel as canonical CEPR-QL text (the printer/parser round-trip is
    golden-tested), so the worker rebuilds the exact automaton analysed
    here; this side keeps only each query's scorer, to re-score the
    matches a report carries.

    One tracked lock guards the pipe: every write, and every write+read
    request/reply pair, holds it — so frames from the coordinator and
    from introspection (``explain``) never interleave, and a reply always
    answers the request just written.
    """

    def __init__(
        self,
        config: RunnerConfig,
        queries: Mapping[str, str | Query],
        preassigned: bool,
    ) -> None:
        asts = {
            name: parse_query(query) if isinstance(query, str) else query
            for name, query in queries.items()
        }
        self._scorers = {
            name: Scorer(analyze(ast, config.registry).rank_keys)
            for name, ast in asts.items()
        }
        self._init = {
            "op": "init",
            "config": encode_config(config),
            "preassigned": preassigned,
            "queries": {name: format_query(ast) for name, ast in asts.items()},
        }
        self._lock = tracked_lock("process.pipe")
        self._proc: subprocess.Popen | None = None
        self.pid: int | None = None
        self.respawn()

    # -- lifecycle -----------------------------------------------------------------

    def alive(self) -> bool:
        return self._proc is not None and self._proc.poll() is None

    def respawn(self) -> None:
        """Start a fresh worker (reaping the old one): same queries, no state."""
        self.close(force=True)
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parent.parent.parent)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing else src_root + os.pathsep + existing
        )
        self._proc = subprocess.Popen(  # san: allow-blocking
            [sys.executable, "-m", "repro.runtime.process_worker"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
        )
        self.pid = self._proc.pid
        self._request(self._init)

    def close(self, force: bool = False) -> None:
        """Reap the worker: graceful ``exit`` frame, or terminate (``force``)."""
        proc = self._proc
        if proc is None:
            return
        self._proc = None
        if proc.poll() is None:
            if force:
                proc.terminate()
            else:
                try:
                    with self._lock:
                        write_pipe_frame(proc.stdin, {"op": "exit"})
                except (OSError, ValueError, FrameError):
                    proc.terminate()
        for stream in (proc.stdin, proc.stdout):
            if stream is not None:
                try:
                    stream.close()
                except OSError:
                    pass
        try:
            proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - hung worker
            proc.kill()
            proc.wait(timeout=10.0)

    # -- framing -------------------------------------------------------------------

    def _require_proc(self) -> subprocess.Popen:
        proc = self._proc
        if proc is None:
            raise WorkerProcessError("worker process is not running")
        return proc

    def _request(self, doc: dict[str, Any], one_way: bool = False) -> dict[str, Any]:
        """One request/reply round-trip under the pipe lock (``one_way``:
        the ``events`` frame, which the worker does not answer)."""
        with self._lock:
            proc = self._require_proc()
            try:
                write_pipe_frame(proc.stdin, doc)
                reply = {} if one_way else read_pipe_frame(proc.stdout)
            except (OSError, ValueError, ConnectionClosed) as exc:
                raise WorkerProcessError(
                    f"worker pid={self.pid} died mid-{doc['op']} "
                    f"(exit code {proc.poll()!r})"
                ) from exc
        if reply.get("op") == "error":
            etype = reply.get("etype", "Exception")
            detail = (
                f"worker pid={self.pid}: {etype}: {reply.get('message', '')}\n"
                f"{reply.get('traceback', '')}"
            )
            if etype == "SnapshotFormatError":
                raise SnapshotFormatError(detail)
            raise WorkerProcessError(detail)
        return reply

    # -- the shard interface ----------------------------------------------------------

    def push_batch(self, events: list[Event]) -> None:
        """Ship one batch as a single one-way frame (no reply)."""
        self._request(
            {"op": "events", "events": [encode_event(e) for e in events]}, one_way=True
        )

    def advance_time(self, timestamp: float) -> None:
        self._request({"op": "advance", "ts": timestamp})

    def flush(self) -> None:
        self._request({"op": "flush"})

    def report(self) -> ShardReport:
        reply = self._request({"op": "report"})
        return decode_report(reply["report"], self._scorers)

    def snapshot(self) -> dict:
        return self._request({"op": "snapshot"})["state"]

    def restore(self, state: dict) -> None:
        self._request({"op": "restore", "state": state})

    def explain(self, query: str) -> str:
        return str(self._request({"op": "explain", "query": query})["text"])
