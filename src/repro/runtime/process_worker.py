"""Worker-process entry point for :class:`~repro.runtime.process.PipeShard`.

Runs as ``python -m repro.runtime.process_worker`` with the parent on
the other end of stdin/stdout, hosting one
:class:`~repro.runtime.shard.LocalShard` and translating pipe frames
(:mod:`repro.runtime.process`) into calls on it:

``init``
    Build the shard (its :class:`~repro.runtime.config.RunnerConfig`
    with the registry in dict form, whether the coordinator numbers its
    events, and queries shipped as canonical CEPR-QL text).  Replies
    ``ready``.
``events``
    One-way: decode and ``push_batch`` the batch.  Errors latch (like a
    local shard's event-path failure) and answer every later barrier.
``advance`` / ``flush`` / ``report`` / ``snapshot``
    Barrier request/reply.  ``report`` replies with the shard's
    :class:`~repro.runtime.report.ShardReport`, encoded — the only state
    the parent ever learns, telemetry included (the report's
    ``instruments`` rows: values only, no help text, no re-registration).
``restore``
    Load an engine snapshot (dropping un-reported emissions) and clear any
    latched failure.
``explain``
    Introspection: one query's plan rendering.
``exit``
    Leave; EOF on stdin does the same (a vanished parent must not leave
    orphan workers grinding on).

Frames in both directions carry the ``inf``/``nan`` engine state may
hold (``read_pipe_frame``/``write_pipe_frame``, :mod:`repro.events.jsonsafe`).

File descriptor hygiene: the frame stream is a private ``dup`` of fd 1
taken at startup, after which fd 1 is redirected onto stderr — so any
stray ``print`` (user predicate code, a dependency) garbles a log line,
never the frame stream.
"""

from __future__ import annotations

import os
import sys
import traceback
from typing import Any, BinaryIO

from repro.engine.snapshot import decode_event
from repro.events.frames import ConnectionClosed
from repro.runtime.process import decode_config, read_pipe_frame, write_pipe_frame
from repro.runtime.report import encode_report
from repro.runtime.shard import LocalShard


def _answer(shard: LocalShard, doc: dict[str, Any]) -> dict[str, Any]:
    """Run one request against the shard; returns the ack's extra fields."""
    op = doc["op"]
    if op == "advance":
        shard.advance_time(float(doc["ts"]))
    elif op == "flush":
        shard.flush()
    elif op == "report":
        return {"report": encode_report(shard.report())}
    elif op == "snapshot":
        return {"state": shard.snapshot()}
    elif op == "restore":
        shard.restore(doc["state"])
    elif op == "explain":
        return {"text": shard.explain(doc["query"])}
    else:
        raise ValueError(f"unknown worker op {op!r}")
    return {}


def _error_reply(exc: BaseException) -> dict[str, Any]:
    return {
        "op": "error",
        "etype": type(exc).__name__,
        "message": str(exc),
        "traceback": "".join(traceback.format_exception(exc)),
    }


def serve(frames_in: BinaryIO, frames_out: BinaryIO) -> int:
    """The worker loop; returns the process exit code."""
    shard: LocalShard | None = None
    #: latched event-path failure, answered to every barrier until a
    #: ``restore`` (the coordinator's per-shard failure discipline).
    failure: BaseException | None = None

    while True:
        try:
            doc = read_pipe_frame(frames_in)
        except ConnectionClosed:
            return 0  # parent is gone: exit quietly rather than orphan-grind
        op = doc["op"]
        if op == "exit":
            return 0
        if op == "events":
            if shard is not None and failure is None:
                try:
                    shard.push_batch(
                        [decode_event(state) for state in doc["events"]]
                    )
                except BaseException as exc:
                    failure = exc
            continue
        try:
            if op == "init":
                shard = LocalShard(
                    decode_config(doc["config"]), doc["queries"], doc["preassigned"]
                )
                reply = {"op": "ready", "pid": os.getpid()}
            else:
                assert shard is not None
                barrier = op in ("advance", "flush", "report", "snapshot")
                if barrier and failure is not None:
                    reply = _error_reply(failure)
                else:
                    reply = {"op": "ack", **_answer(shard, doc)}
                    if op == "restore":
                        failure = None
        except BaseException as exc:
            reply = _error_reply(exc)
        try:
            write_pipe_frame(frames_out, reply)
        except Exception:
            return 1


def main() -> int:
    # Claim the frame stream, then point fd 1 (and sys.stdout) at stderr
    # so stray prints can never corrupt framing.
    frames_out = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    frames_in = sys.stdin.buffer
    return serve(frames_in, frames_out)


if __name__ == "__main__":
    raise SystemExit(main())
