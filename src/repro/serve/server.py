"""``CEPRServer``: the asyncio TCP front end over an engine runner.

Threading model — three layers, one direction of blocking each:

* **Event loop** (this module): frame parsing, connection state, fan-out
  queues.  Never calls the engine directly; every blocking runtime call
  goes through ``asyncio.to_thread``.
* **Runner threads**: a :class:`~repro.runtime.concurrent.ThreadedEngineRunner`
  or a :class:`~repro.runtime.sharded.ShardedEngineRunner` over worker
  processes (chosen by the ``runner`` config, built via
  :func:`~repro.runtime.runner.create_runner`, driven only through the
  :class:`~repro.runtime.runner.Runner` protocol and the telemetry both
  classes share) consumes submitted events and delivers emissions to the
  per-query :class:`~repro.serve.subscriptions.QueryFeed` subscriptions,
  which trampoline back onto the loop.
* **Client connections**: each has a bounded outbound queue and a writer
  task.  Emission frames are offered without blocking (slow-consumer
  policy: drop-and-count or disconnect); acks/errors await queue space,
  which naturally stalls that client's request stream instead of the
  server.

Graceful drain (SIGTERM/SIGINT or :meth:`CEPRServer.request_drain`):
stop accepting connections, refuse further mutations with ``CEPR508``,
take a final checkpoint (when configured) *before* the terminal flush,
flush the runner so final emissions reach subscribers, then send every
connection a ``bye`` frame and close.  See docs/SERVING.md.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import time
from pathlib import Path
from typing import Any, Awaitable, Callable

from repro.events.event import Event
from repro.events.schema import SchemaError
from repro.events.time import OutOfOrderError
from repro.language.errors import CEPRError
from repro.observability.flightrec import current as flightrec_current
from repro.observability.flightrec import dump_if_armed
from repro.observability.instruments import SERVE, bind_table, stats_document
from repro.observability.log import get_logger
from repro.observability.tracing import trace_document
from repro.runtime.metrics import LatencyRecorder
from repro.runtime.config import queue_backed
from repro.runtime.runner import RunnerConfig, create_runner
from repro.runtime.serialize import event_from_json
from repro.serve.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ConnectionClosed,
    E_BAD_HELLO,
    E_DRAINING,
    E_INTERNAL,
    E_INVALID_ARGUMENT,
    E_INVALID_EVENT,
    E_QUERY_REJECTED,
    E_UNKNOWN_OP,
    E_UNKNOWN_QUERY,
    E_UNSUPPORTED,
    FrameError,
    ack_frame,
    encode_frame,
    error_frame,
    read_frame,
)
from repro.serve.subscriptions import QueryFeed, ServeStats

_log = get_logger(__name__)

#: Outbound frames are never size-capped: the limit guards the server
#: against hostile *clients*, not its own emission payloads.
_UNCAPPED = 2**31 - 1


class _Connection:
    """Per-client state: outbound queue, writer task, subscriptions."""

    def __init__(
        self,
        cid: int,
        writer: asyncio.StreamWriter,
        outbound_queue: int,
        slow_consumer: str,
        stats: ServeStats,
    ) -> None:
        self.cid = cid
        self.writer = writer
        self.outbox: asyncio.Queue = asyncio.Queue(maxsize=outbound_queue)
        self.outbox_capacity = outbound_queue
        self.outbox_high_water = 0
        self.slow_consumer = slow_consumer
        self.stats = stats
        self.closing = False
        self.dropped = 0
        self.subs: dict[int, str] = {}  # sub_id -> query name
        self._next_sub = 0
        self.writer_task: asyncio.Task | None = None
        #: opaque client context from HELLO, merged into every push.
        self.trace_context: dict[str, Any] | None = None

    def alloc_sub(self) -> int:
        self._next_sub += 1
        return self._next_sub

    # -- outbound ------------------------------------------------------------

    def offer(self, frame: dict[str, Any]) -> bool:
        """Non-blocking delivery (emission fan-out path)."""
        if self.closing:
            return False
        try:
            self.outbox.put_nowait(frame)
            depth = self.outbox.qsize()
            if depth > self.outbox_high_water:
                self.outbox_high_water = depth
            if depth > self.stats.subscriber_queue_high_water:
                self.stats.subscriber_queue_high_water = depth
            return True
        except asyncio.QueueFull:
            if self.slow_consumer == "drop":
                self.dropped += 1
                self.stats.emissions_dropped += 1
                return False
            self.stats.slow_consumer_disconnects += 1
            _log.warning(
                "connection %d: outbound queue full, disconnecting slow "
                "consumer",
                self.cid,
            )
            self.abort()
            return False

    def outbox_depth(self) -> int:
        """Current outbound-queue depth (subscriber-pressure input)."""
        return self.outbox.qsize()

    async def send(self, frame: dict[str, Any]) -> None:
        """Reliable delivery (acks/errors): waits for queue space."""
        if self.closing:
            return
        await self.outbox.put(frame)

    def abort(self) -> None:
        """Tear the connection down immediately (loop thread only)."""
        if self.closing:
            return
        self.closing = True
        # Unblock any send() waiting on a full queue.
        while True:
            try:
                self.outbox.get_nowait()
            except asyncio.QueueEmpty:
                break
        with contextlib.suppress(Exception):
            transport = self.writer.transport
            if transport is not None:
                transport.abort()

    async def finish(self, frame: dict[str, Any] | None = None) -> None:
        """Graceful close: flush ``frame`` (if any), then stop the writer."""
        if frame is not None and not self.closing:
            await self.outbox.put(frame)
        if not self.closing:
            await self.outbox.put(None)

    async def _writer_loop(self) -> None:
        try:
            while True:
                frame = await self.outbox.get()
                if frame is None:
                    break
                self.writer.write(encode_frame(frame, _UNCAPPED))
                await self.writer.drain()
                self.stats.frames_sent += 1
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        finally:
            self.closing = True
            with contextlib.suppress(Exception):
                self.writer.close()


class CEPRServer:
    """A CEPR engine (or sharded fleet) behind a TCP frame protocol.

    Parameters
    ----------
    queries:
        ``{name: query_text}`` registered before the server starts
        (``threaded`` servers also accept REGISTER frames at runtime).
    runner:
        The runtime behind the frame protocol, as one
        :class:`~repro.runtime.runner.RunnerConfig` (default: one
        engine).  It is resolved with
        :func:`~repro.runtime.runner.queue_backed`: a single engine runs
        ``threaded`` (dynamic REGISTER/UNREGISTER, TRACE), more shards a
        ``process`` fleet whose merged emissions are
        released on a ``poll_interval`` cadence and at barriers.  The
        runner is built (unstarted) here, so an invalid combination
        raises from the constructor.  ``sanitize`` also arms the serve
        loop's blocking-call watchdog (trips are log-and-count,
        surfaced as ``serve_sanitizer_trips_total``); ``shed_policy`` /
        ``latency_target`` steer overload control (docs/SHEDDING.md).
    checkpoint_dir / checkpoint_every / resume:
        Crash-recovery wiring (see docs/RECOVERY.md): snapshot every N
        ingested events and at drain; ``resume`` restores the latest
        valid checkpoint at startup.
    max_frame_bytes / read_timeout:
        Hostile-input guards: inbound frame size cap and the slow-loris
        payload timeout (idle connections between frames are fine).
    outbound_queue / slow_consumer:
        Per-connection fan-out queue bound and the policy when a
        subscriber falls behind: ``"disconnect"`` (default) or ``"drop"``
        (count and continue; clients detect gaps via the per-query
        ``seq`` stamp on emission frames).
    """

    def __init__(
        self,
        queries: dict[str, str] | None = None,
        *,
        runner: RunnerConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        checkpoint_dir: str | Path | None = None,
        checkpoint_every: int = 1000,
        resume: bool = False,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        read_timeout: float = 30.0,
        outbound_queue: int = 256,
        slow_consumer: str = "disconnect",
        poll_interval: float = 0.05,
    ) -> None:
        from repro.store.checkpoint import Recovery

        if slow_consumer not in ("disconnect", "drop"):
            raise ValueError(
                f"slow_consumer must be 'disconnect' or 'drop', "
                f"got {slow_consumer!r}"
            )
        self.queries = dict(queries or {})
        self.host = host
        self.port = port
        #: the resolved runner recipe (backend and shards settled).
        self.runner_config = queue_backed(runner or RunnerConfig())
        self.recovery = Recovery(checkpoint_dir, checkpoint_every, resume)
        self.checkpoint_dir = checkpoint_dir
        self.max_frame_bytes = max_frame_bytes
        self.read_timeout = read_timeout
        self.outbound_queue = outbound_queue
        self.slow_consumer = slow_consumer
        self.poll_interval = poll_interval
        sanitize = self.runner_config.sanitize
        if sanitize is None:
            from repro.sanitize.core import sanitizer_enabled

            sanitize = sanitizer_enabled()
        #: CEPRSan reporter for serving-layer checks (loop-stall watchdog).
        self.sanitizer = None
        self._watchdog = None
        if sanitize:
            from repro.sanitize.core import Sanitizer

            self.sanitizer = Sanitizer(scope="serve")

        self.stats = ServeStats()
        self.bound_port: int | None = None
        self._runner = create_runner(self.queries, self.runner_config)
        self._feeds: dict[str, QueryFeed] = {}
        self._connections: dict[int, _Connection] = {}
        self._next_cid = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._tcp_server: asyncio.base_events.Server | None = None
        self._poll_task: asyncio.Task | None = None
        self._drain_task: asyncio.Task | None = None
        self._drained: asyncio.Event | None = None
        self._draining = False
        self._ingest_lock: asyncio.Lock | None = None
        self._ingest_latency = LatencyRecorder()
        self._handlers: dict[
            str, Callable[[_Connection, dict], Awaitable[bool]]
        ] = {
            "ping": self._op_ping,
            "push": self._op_push,
            "push_batch": self._op_push_batch,
            "advance": self._op_advance,
            "sync": self._op_sync,
            "register": self._op_register,
            "unregister": self._op_unregister,
            "subscribe": self._op_subscribe,
            "unsubscribe": self._op_unsubscribe,
            "stats": self._op_stats,
            "trace": self._op_trace,
            "bye": self._op_bye,
        }

    @property
    def _single_engine(self) -> bool:
        return self.runner_config.backend == "threaded"

    # -- lifecycle -----------------------------------------------------------

    async def serve(
        self, on_ready: Callable[["CEPRServer"], None] | None = None
    ) -> None:
        """Run until drained (SIGTERM/SIGINT or :meth:`request_drain`)."""
        self._loop = asyncio.get_running_loop()
        self._drained = asyncio.Event()
        self._ingest_lock = asyncio.Lock()
        self._start_runtime()
        self._tcp_server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.bound_port = self._tcp_server.sockets[0].getsockname()[1]
        installed: list[signal.Signals] = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(signum, self.request_drain)
                installed.append(signum)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread or unsupported platform
        if hasattr(signal, "SIGUSR2") and flightrec_current() is not None:
            try:
                self._loop.add_signal_handler(
                    signal.SIGUSR2, self._dump_flight_recorder, "sigusr2"
                )
                installed.append(signal.SIGUSR2)
            except (NotImplementedError, RuntimeError, ValueError):
                pass
        if not self._single_engine:
            self._poll_task = self._loop.create_task(self._poll_loop())
        if self.sanitizer is not None:
            from repro.sanitize.aio import LoopStallWatchdog

            self._watchdog = LoopStallWatchdog(self.sanitizer).start()
        _log.info(
            "cepr serve listening on %s:%d (%d quer%s, shards=%d)",
            self.host,
            self.bound_port,
            len(self._feeds),
            "y" if len(self._feeds) == 1 else "ies",
            self.runner_config.shards,
        )
        if on_ready is not None:
            on_ready(self)
        try:
            await self._drained.wait()
        finally:
            if self._watchdog is not None:
                self._watchdog.stop()
                self._watchdog = None
            for signum in installed:
                with contextlib.suppress(Exception):
                    self._loop.remove_signal_handler(signum)
            if self._tcp_server is not None:
                self._tcp_server.close()
            with contextlib.suppress(Exception):
                await asyncio.to_thread(self._runner.stop)

    def request_drain(self) -> None:
        """Begin graceful drain (idempotent; loop thread only)."""
        if self._drain_task is None and self._loop is not None:
            self._drain_task = self._loop.create_task(self._drain())

    def request_drain_threadsafe(self) -> None:
        """Begin graceful drain from any thread."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self.request_drain)

    def _dump_flight_recorder(self, reason: str) -> None:
        """Schedule a flight-recorder dump off the loop (SIGUSR2 path)."""
        if self._loop is None:
            return
        self._loop.create_task(
            asyncio.to_thread(dump_if_armed, reason, self.checkpoint_dir)
        )

    def _start_runtime(self) -> None:
        assert self._loop is not None
        runner = self._runner
        for name in self.queries:
            feed = QueryFeed(name, self._loop, self.stats)
            # Unified attach: every backend exposes the Runner protocol's
            # subscribe (per-client `kinds` filters are applied at the
            # feed's fan-out, so the feed itself taps all kinds).
            feed.attach(lambda cb, name=name: runner.subscribe(name, cb))
            self._feeds[name] = feed
        runner.start()
        if hasattr(runner, "pressure"):
            # Fold the fullest subscriber outbound queue into the runner's
            # composite pressure score: the runner's own `pressure` gauge
            # is already registered (get-or-create registry), so instead of
            # a second gauge the runner consults this hook on every sample.
            # A fleet reports no pressure; subscriber saturation stays
            # visible there through `serve_subscriber_queue_depth`.
            runner.subscriber_pressure_provider = lambda: (
                self._max_outbox_depth(),
                self.outbound_queue,
            )
        position = self.recovery.restore(runner.restore)
        if position is not None:
            self.stats.events_ingested = position.events_consumed

    async def _poll_loop(self) -> None:
        """Fleet backends: release mergeable emissions on a cadence."""
        runner = self._runner
        while not self._draining:
            await asyncio.sleep(self.poll_interval)
            if self._draining:
                return
            with contextlib.suppress(RuntimeError):
                await asyncio.to_thread(runner.poll)

    async def _drain(self) -> None:
        """Flush, checkpoint, notify, close — the SIGTERM path.

        Every step is damage-tolerant: whatever state the runtime died
        in, ``_drained`` is always set so :meth:`serve` returns.
        """
        self._draining = True
        try:
            _log.info("draining: flushing %d quer(ies)", len(self._feeds))
            assert self._tcp_server is not None
            assert self._ingest_lock is not None
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
            if self._poll_task is not None:
                self._poll_task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await self._poll_task
            async with self._ingest_lock:
                # Checkpoint BEFORE the terminal flush: flushing emits
                # partial-window results a restored run must produce
                # again, so the snapshot captures the pre-flush state.
                if self.recovery.store is not None:
                    try:
                        await asyncio.to_thread(self._checkpoint_blocking)
                    except Exception:
                        _log.exception(
                            "drain checkpoint failed; continuing shutdown"
                        )
                with contextlib.suppress(Exception):
                    await asyncio.to_thread(self._runner.stop)
            # Every emission scheduled by the final flush was queued on
            # the loop before to_thread's completion callback, so by this
            # line the fan-out queues already hold the final frames.
            for connection in list(self._connections.values()):
                await connection.finish({"op": "bye", "reason": "drained"})
            writers = [
                connection.writer_task
                for connection in self._connections.values()
                if connection.writer_task is not None
            ]
            if writers:
                done, pending = await asyncio.wait(writers, timeout=10.0)
                for task in pending:
                    task.cancel()
        finally:
            # A drain is the last chance to flush the black box: a
            # SIGTERM'd server must leave its postmortem behind even when
            # nothing went wrong (no-op when the recorder is unarmed).
            with contextlib.suppress(Exception):
                await asyncio.to_thread(
                    dump_if_armed, "drain", self.checkpoint_dir
                )
            assert self._drained is not None
            self._drained.set()

    # -- checkpointing ---------------------------------------------------------

    def _checkpoint_blocking(self) -> None:
        """Sync the runtime and persist a snapshot (runner threads idle)."""
        self.recovery.save(self._runner.snapshot(), self.stats.events_ingested)
        self.stats.checkpoints_saved += 1

    # -- connection handling ---------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._next_cid += 1
        connection = _Connection(
            self._next_cid,
            writer,
            self.outbound_queue,
            self.slow_consumer,
            self.stats,
        )
        assert self._loop is not None
        connection.writer_task = self._loop.create_task(
            connection._writer_loop()
        )
        self._connections[connection.cid] = connection
        self.stats.connections_total += 1
        self.stats.connections_active += 1
        try:
            if await self._handshake(connection, reader):
                await self._serve_requests(connection, reader)
        finally:
            self.stats.connections_active -= 1
            self._connections.pop(connection.cid, None)
            for feed in self._feeds.values():
                feed.drop_connection(connection.cid)
            if not connection.closing:
                await connection.finish()
            if connection.writer_task is not None:
                # CancelledError too: abort() cancels the writer task, and
                # suppress(Exception) would let it escape into the loop's
                # exception handler as noise.
                with contextlib.suppress(Exception, asyncio.CancelledError):
                    await asyncio.wait_for(connection.writer_task, timeout=5.0)

    async def _handshake(
        self, connection: _Connection, reader: asyncio.StreamReader
    ) -> bool:
        """First frame must be a well-versioned HELLO, within the timeout."""
        try:
            frame = await asyncio.wait_for(
                read_frame(reader, self.max_frame_bytes, self.read_timeout),
                timeout=self.read_timeout,
            )
        except (ConnectionClosed, asyncio.TimeoutError):
            return False
        except FrameError as exc:
            self.stats.protocol_errors += 1
            await connection.send(error_frame(exc.code, str(exc)))
            return False
        if frame["op"] != "hello" or frame.get("version") != PROTOCOL_VERSION:
            self.stats.protocol_errors += 1
            await connection.send(
                error_frame(
                    E_BAD_HELLO,
                    f"expected hello with version={PROTOCOL_VERSION}, "
                    f"got op={frame['op']!r} "
                    f"version={frame.get('version')!r}",
                    frame.get("id"),
                )
            )
            return False
        trace_context = frame.get("trace")
        if trace_context is not None and not isinstance(trace_context, dict):
            self.stats.protocol_errors += 1
            await connection.send(
                error_frame(
                    E_BAD_HELLO,
                    f"hello 'trace' must be an object, "
                    f"got {type(trace_context).__name__}",
                    frame.get("id"),
                )
            )
            return False
        connection.trace_context = trace_context
        self.stats.frames_received += 1
        await connection.send(
            ack_frame(
                frame,
                version=PROTOCOL_VERSION,
                server="cepr",
                shards=self.runner_config.shards,
                queries=sorted(self._feeds),
            )
        )
        return True

    async def _serve_requests(
        self, connection: _Connection, reader: asyncio.StreamReader
    ) -> None:
        while not connection.closing:
            try:
                frame = await read_frame(
                    reader, self.max_frame_bytes, self.read_timeout
                )
            except ConnectionClosed:
                return
            except FrameError as exc:
                self.stats.protocol_errors += 1
                await connection.send(error_frame(exc.code, str(exc)))
                if exc.fatal:
                    return
                continue
            self.stats.frames_received += 1
            handler = self._handlers.get(frame["op"])
            if handler is None:
                self.stats.protocol_errors += 1
                await connection.send(
                    error_frame(
                        E_UNKNOWN_OP,
                        f"unknown op {frame['op']!r}",
                        frame.get("id"),
                    )
                )
                continue
            try:
                if await handler(connection, frame):
                    return
            except FrameError as exc:
                self.stats.protocol_errors += 1
                await connection.send(
                    error_frame(exc.code, str(exc), frame.get("id"))
                )
                if exc.fatal:
                    return
            except Exception as exc:  # pragma: no cover - defensive
                _log.exception("internal error handling %r", frame.get("op"))
                # Black-box postmortem: an internal error is exactly what
                # the flight recorder exists for (no-op when unarmed).
                await asyncio.to_thread(
                    dump_if_armed, "serve-internal-error", self.checkpoint_dir
                )
                await connection.send(
                    error_frame(
                        E_INTERNAL, f"internal error: {exc}", frame.get("id")
                    )
                )
                return

    # -- op handlers -----------------------------------------------------------

    async def _op_ping(self, connection: _Connection, frame: dict) -> bool:
        fields = {"t": frame["t"]} if "t" in frame else {}
        await connection.send(ack_frame(frame, **fields))
        return False

    def _decode_event(self, doc: Any) -> Event:
        if not isinstance(doc, dict):
            raise FrameError(
                E_INVALID_EVENT,
                f"event must be an object, got {type(doc).__name__}",
            )
        try:
            event = event_from_json(doc)
        except (KeyError, TypeError, ValueError) as exc:
            raise FrameError(
                E_INVALID_EVENT, f"invalid event document: {exc}"
            ) from exc
        if isinstance(event.timestamp, bool) or not isinstance(
            event.timestamp, (int, float)
        ):
            raise FrameError(
                E_INVALID_EVENT,
                f"event timestamp must be a number, "
                f"got {type(event.timestamp).__name__}",
            )
        return event

    def _require_live(self) -> None:
        if self._draining:
            raise FrameError(E_DRAINING, "server is draining; try elsewhere")

    def _merged_trace(
        self, connection: _Connection, frame: dict
    ) -> dict[str, Any] | None:
        """HELLO context overlaid with the frame's own ``trace`` object."""
        frame_trace = frame.get("trace")
        if frame_trace is not None and not isinstance(frame_trace, dict):
            raise FrameError(
                E_INVALID_ARGUMENT,
                f"'trace' must be an object, got {type(frame_trace).__name__}",
            )
        if connection.trace_context is None and frame_trace is None:
            return None
        merged = dict(connection.trace_context or {})
        if frame_trace:
            merged.update(frame_trace)
        return merged or None

    async def _op_push(self, connection: _Connection, frame: dict) -> bool:
        self._require_live()
        trace = self._merged_trace(connection, frame)
        event = self._decode_event(frame.get("event"))
        if trace is not None:
            event.trace = trace
        _, rejection = await self._ingest([event])
        if rejection is not None:
            raise FrameError(E_INVALID_EVENT, f"event rejected: {rejection}")
        await connection.send(ack_frame(frame, accepted=1))
        return False

    async def _op_push_batch(self, connection: _Connection, frame: dict) -> bool:
        self._require_live()
        trace = self._merged_trace(connection, frame)
        docs = frame.get("events")
        if not isinstance(docs, list):
            raise FrameError(
                E_INVALID_ARGUMENT, "push_batch requires an 'events' array"
            )
        events = [self._decode_event(doc) for doc in docs]
        if trace is not None:
            for event in events:
                event.trace = trace
        if events:
            admitted, rejection = await self._ingest(events)
            if rejection is not None:
                raise FrameError(
                    E_INVALID_EVENT,
                    f"event {admitted} of the batch rejected: {rejection}; "
                    f"the {admitted} event(s) before it were admitted",
                )
        await connection.send(ack_frame(frame, accepted=len(events)))
        return False

    async def _op_advance(self, connection: _Connection, frame: dict) -> bool:
        self._require_live()
        timestamp = frame.get("t")
        if isinstance(timestamp, bool) or not isinstance(
            timestamp, (int, float)
        ):
            raise FrameError(
                E_INVALID_ARGUMENT, "advance requires a numeric 't'"
            )
        assert self._ingest_lock is not None
        async with self._ingest_lock:
            await asyncio.to_thread(self._runner.advance_time, float(timestamp))
        await connection.send(ack_frame(frame))
        return False

    async def _op_sync(self, connection: _Connection, frame: dict) -> bool:
        """Read-your-writes barrier; also releases mergeable sharded output."""
        self._require_live()
        await asyncio.to_thread(self._runner.poll)
        # Emission dispatches scheduled before the barrier's completion
        # callback have already run, so this ack trails them in order.
        await connection.send(
            ack_frame(frame, events_ingested=self.stats.events_ingested)
        )
        return False

    async def _op_register(self, connection: _Connection, frame: dict) -> bool:
        self._require_live()
        if not self._single_engine:
            raise FrameError(
                E_UNSUPPORTED,
                "REGISTER is unsupported on a sharded fleet (placement is "
                "fixed at start); run with --runner threaded for dynamic "
                "queries",
            )
        text = frame.get("query")
        if not isinstance(text, str) or not text.strip():
            raise FrameError(
                E_INVALID_ARGUMENT, "register requires a 'query' string"
            )
        name = frame.get("name")
        if name is not None and not isinstance(name, str):
            raise FrameError(E_INVALID_ARGUMENT, "'name' must be a string")
        runner = self._runner
        try:
            handle = await asyncio.to_thread(
                runner.register_query, text, name
            )
        except CEPRError as exc:
            raise FrameError(
                E_QUERY_REJECTED, f"query rejected: {exc}"
            ) from exc
        assert self._loop is not None
        feed = QueryFeed(handle.name, self._loop, self.stats)
        await asyncio.to_thread(
            feed.attach, lambda cb: runner.subscribe(handle.name, cb)
        )
        self._feeds[handle.name] = feed
        await connection.send(ack_frame(frame, query=handle.name))
        return False

    async def _op_unregister(self, connection: _Connection, frame: dict) -> bool:
        self._require_live()
        if not self._single_engine:
            raise FrameError(
                E_UNSUPPORTED,
                "UNREGISTER is unsupported on a sharded fleet",
            )
        name = frame.get("name")
        if name not in self._feeds:
            raise FrameError(
                E_UNKNOWN_QUERY, f"no query named {name!r} is registered"
            )
        feed = self._feeds.pop(name)
        feed.notify_unsubscribed("unregistered")
        feed.subscription = None  # engine close_sinks owns it now
        await asyncio.to_thread(self._runner.unregister_query, name)
        await connection.send(ack_frame(frame, query=name))
        return False

    async def _op_subscribe(self, connection: _Connection, frame: dict) -> bool:
        name = frame.get("query")
        feed = self._feeds.get(name)
        if feed is None:
            raise FrameError(
                E_UNKNOWN_QUERY, f"no query named {name!r} is registered"
            )
        sub_id = connection.alloc_sub()
        try:
            feed.add_subscriber(
                connection, connection.cid, sub_id, frame.get("kinds")
            )
        except ValueError as exc:
            raise FrameError(
                E_INVALID_ARGUMENT, f"bad kinds filter: {exc}"
            ) from exc
        connection.subs[sub_id] = name
        await connection.send(ack_frame(frame, sub=sub_id, query=name))
        return False

    async def _op_unsubscribe(self, connection: _Connection, frame: dict) -> bool:
        removed = 0
        if "sub" in frame:
            sub_id = frame["sub"]
            name = connection.subs.pop(sub_id, None)
            if name is not None and name in self._feeds:
                removed += int(
                    self._feeds[name].remove_subscriber(connection.cid, sub_id)
                )
        elif "query" in frame:
            name = frame["query"]
            doomed = [
                sub_id
                for sub_id, query in connection.subs.items()
                if query == name
            ]
            for sub_id in doomed:
                del connection.subs[sub_id]
                if name in self._feeds:
                    removed += int(
                        self._feeds[name].remove_subscriber(
                            connection.cid, sub_id
                        )
                    )
        else:
            raise FrameError(
                E_INVALID_ARGUMENT, "unsubscribe requires 'sub' or 'query'"
            )
        await connection.send(ack_frame(frame, removed=removed))
        return False

    async def _op_stats(self, connection: _Connection, frame: dict) -> bool:
        doc = await asyncio.to_thread(
            lambda: stats_document(self._runner, self.metrics_registry())
        )
        await connection.send(ack_frame(frame, **doc))
        return False

    async def _op_trace(self, connection: _Connection, frame: dict) -> bool:
        if not self._single_engine:
            raise FrameError(
                E_UNSUPPORTED,
                "TRACE is unsupported on a sharded fleet (provenance is "
                "per-engine); run with --runner threaded",
            )
        name = frame.get("query")
        if name not in self._feeds:
            raise FrameError(
                E_UNKNOWN_QUERY, f"no query named {name!r} is registered"
            )
        index = frame.get("emission", -1)
        if isinstance(index, bool) or not isinstance(index, int):
            raise FrameError(
                E_INVALID_ARGUMENT, "'emission' must be an integer index"
            )
        doc = await asyncio.to_thread(self._trace_blocking, name, index)
        await connection.send(ack_frame(frame, trace=doc))
        return False

    def _trace_blocking(self, name: str, index: int) -> dict[str, Any]:
        """Build one emission's provenance document (runner thread)."""
        runner = self._runner
        with contextlib.suppress(RuntimeError):
            runner.sync()
        engine = runner.engine  # threaded backend only (gated in _op_trace)
        collector = engine.query(name).collector
        emissions = collector.emissions if collector is not None else []
        if not -len(emissions) <= index < len(emissions):
            raise FrameError(
                E_INVALID_ARGUMENT,
                f"query {name!r} has {len(emissions)} emission(s); "
                f"index {index} is out of range",
            )
        return trace_document(engine, emissions[index], name)

    async def _op_bye(self, connection: _Connection, frame: dict) -> bool:
        await connection.finish(ack_frame(frame))
        return True

    # -- ingest ---------------------------------------------------------------

    async def _ingest(self, events: list[Event]) -> tuple[int, ValueError | None]:
        """Submit ``events`` in order: how many the runner admitted, and
        the error its ingress rejected the next one with (``None`` when
        it admitted all).  The events before a rejected one stay admitted;
        the runner carries on."""
        assert self._ingest_lock is not None
        async with self._ingest_lock:
            admitted, rejection = await asyncio.to_thread(
                self._submit_blocking, events
            )
            before = self.stats.events_ingested
            self.stats.events_ingested += admitted
            if self.recovery.due(before, self.stats.events_ingested):
                await asyncio.to_thread(self._checkpoint_blocking)
        return admitted, rejection

    def _submit_blocking(self, events: list[Event]) -> tuple[int, ValueError | None]:
        started = time.perf_counter()
        rejection: ValueError | None = None
        try:
            admitted = self._runner.submit_all(events)
        except (SchemaError, OutOfOrderError) as exc:
            admitted, rejection = exc.admitted, exc  # type: ignore[attr-defined]
        self._ingest_latency.record(time.perf_counter() - started)
        return admitted, rejection

    # -- observability ----------------------------------------------------------

    def _max_outbox_depth(self) -> int:
        """Deepest per-connection outbound queue right now."""
        deepest = 0
        for feed in self._feeds.values():
            depth = feed.max_outbox_depth()
            if depth > deepest:
                deepest = depth
        return deepest

    def metrics_registry(self):
        """The runtime's registry plus the serving layer's series."""
        registry = self._runner.metrics_registry()
        bind_table(registry, SERVE, self)
        return registry
