"""Threaded ingestion: feed an engine from a producer thread safely.

``CEPREngine`` is single-threaded by design (one event at a time through
the operator chain).  :class:`ThreadedEngineRunner` puts that engine behind
a :class:`WorkerLoop` — one bounded ingest queue drained by one consumer
thread, the engine's owner: producers call :meth:`submit` from any
thread, which admits each event (the runner's
:class:`~repro.events.time.Ingress`) and queues what it releases; the
consumer drains the queue into the engine in ``push_batch`` batches, and
the engine feeds the query subscriptions on that thread.
The bounded queue gives natural backpressure — a slow query slows
producers instead of growing memory without bound — and is the only
ingest queue in the runtime, so this runner alone reports queue pressure
and sheds load.

Everything else the runner does is "run this on the consumer thread,
behind what is already queued" (:meth:`WorkerLoop.begin`):

* :meth:`sync` — a read-your-writes barrier (an empty callable);
* :meth:`advance_time`/:meth:`flush` — heartbeats and end-of-stream, so
  watermarks serialise with events;
* :meth:`snapshot`/:meth:`restore` and
  :meth:`subscribe`/:meth:`register_query`/:meth:`unregister_query` — the
  engine's own methods, run by its owner;
* :meth:`pause` — a context manager that parks the consumer at a safe
  point and yields the engine for exclusive access.

A failure on the consumer thread latches: the loop keeps draining (and
discarding) so producers and barriers never wedge, and every later
``submit`` or barrier raises it.  :meth:`stop` processes everything
already queued, flushes the engine, and joins the thread; after a
failure it kills the engine instead, so no later ``flush`` or ``close``
can drive it.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from contextlib import contextmanager
from itertools import islice
from typing import Any, Callable, Iterable, Iterator

from repro.events.event import Event
from repro.events.time import merge_admission, rejected
from repro.language.ast_nodes import Query
from repro.observability.instruments import (
    INGRESS,
    QUEUE,
    RUNNER_PROCESSED,
    RUNNER_SUBMITTED,
    SHED,
    TelemetryViews,
    bind,
    bind_table,
)
from repro.observability.pressure import PressureAssessor, PressureSample
from repro.observability.registry import MetricsRegistry
from repro.ranking.emission import Emission, EmissionKind
from repro.runtime.engine import CEPREngine
from repro.runtime.query import RegisteredQuery
from repro.runtime.shedding import ShedController, ShedStats
from repro.runtime.sinks import SinkLike, Subscription
from repro.sanitize.core import release_affinity
from repro.sanitize.locks import tracked_lock


# -- the worker loop ----------------------------------------------------------------


def _noop() -> None:
    return None


class Call:
    """One control operation: a callable bound for a loop's owner thread."""

    __slots__ = ("fn", "hold", "last", "done", "result", "error")

    def __init__(
        self, fn: Callable[[], Any], hold: threading.Event | None, last: bool
    ) -> None:
        self.fn = fn
        self.hold = hold
        self.last = last
        self.done = threading.Event()
        self.result: Any = None
        self.error: BaseException | None = None

    def wait(self, timeout: float | None = None) -> Any:
        """Block until acknowledged; returns (or re-raises) what ``fn`` did.

        ``None`` when the callable was skipped — after a latched failure
        or because the loop had already stopped; callers check for that.
        """
        if not self.done.wait(timeout):
            raise TimeoutError("worker loop did not reach the barrier in time")
        if self.error is not None:
            raise self.error
        return self.result


class _EventQueue(queue.Queue):
    """A FIFO whose size counts events: a list of n events fills n slots
    (one queued batch still goes in while a slot is free)."""

    def _init(self, maxsize: int) -> None:
        self.queue: deque = deque()
        self.events = 0

    def _qsize(self) -> int:
        return self.events

    def _put(self, item: Any) -> None:
        self.queue.append(item)
        self.events += len(item) if type(item) is list else 1

    def _get(self) -> Any:
        item = self.queue.popleft()
        self.events -= len(item) if type(item) is list else 1
        return item


class WorkerLoop:
    """One bounded ingest queue drained by one consumer (owner) thread.

    ``consume(batch)`` receives greedily drained batches of at most
    ``batch_size`` events; :meth:`begin` is the only control operation.
    """

    def __init__(
        self,
        consume: Callable[[list[Event]], None],
        max_queue: int,
        batch_size: int,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self._consume = consume
        self._queue: queue.Queue = _EventQueue(maxsize=max_queue)
        self.batch_size = batch_size
        self._thread: threading.Thread | None = None
        #: True once the owner thread has left the loop (nothing runs after).
        self._closed = False
        #: set by a :meth:`stop` that could not queue its final operation:
        #: the owner leaves before taking another item.
        self._abandoned = False
        #: exception latched on the event path (or by a final callable).
        self.failure: BaseException | None = None
        self.events_processed = 0
        #: deepest the ingest queue has been (post-enqueue depth).
        self.queue_high_water = 0

    def start(self) -> None:
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    @property
    def backlog(self) -> int:
        """Items queued, not yet processed (approximate)."""
        return self._queue.qsize()

    def put(self, item: Any, timeout: float | None = None) -> None:
        """Enqueue one event, or a list of events as one item (blocks
        when the queue is full).

        After the owner has left the loop the item is dropped, exactly
        like one queued behind the final operation.
        """
        if self._closed:
            return
        self._queue.put(item, timeout=timeout)
        depth = self._queue.qsize()
        if depth > self.queue_high_water:
            self.queue_high_water = depth

    def begin(
        self,
        fn: Callable[[], Any],
        hold: threading.Event | None = None,
        last: bool = False,
        timeout: float | None = None,
    ) -> Call:
        """Queue ``fn`` to run on the owner thread behind everything queued.

        The loop acknowledges (:meth:`Call.wait` returns) once ``fn`` has
        run — or been skipped because a failure is latched — and then, if
        ``hold`` is given, parks until it is set.  ``last`` makes this the
        loop's final operation.  A queue still full after ``timeout``
        raises :class:`queue.Full`, with nothing queued.
        """
        call = Call(fn, hold, last)
        if not self._closed:
            self._queue.put(call, timeout=timeout)
        if self._closed:
            call.done.set()  # the owner left before (or while) we queued
        return call

    def call(self, fn: Callable[[], Any], timeout: float | None = None) -> Any:
        return self.begin(fn).wait(timeout)

    def stop(
        self, final: Callable[[], Any] = _noop, timeout: float | None = None
    ) -> bool:
        """Ask the owner to run ``final`` (unless failed) and leave the loop.

        False when the queue stayed full for ``timeout``: the loop is then
        failed, and its owner leaves at its next safe point without
        running ``final`` (it is wedged, or there would have been room).
        """
        try:
            self.begin(final, last=True, timeout=timeout)
            return True
        except queue.Full:
            self.fail(TimeoutError("the ingest queue stayed full: not stopped in time"))
            self._abandoned = True
            try:  # wakes an owner that drained the queue meanwhile
                self._queue.put_nowait(Call(_noop, None, True))
            except queue.Full:
                pass  # the owner sees the flag before its next item
            return False

    def fail(self, error: BaseException) -> None:
        """Latch ``error`` from outside the owner (unless a failure is
        latched already): the owner finishes what it is running and skips
        everything after it."""
        if self.failure is None:
            self.failure = error

    def join(self, timeout: float | None = None) -> bool:
        """Wait for the owner thread; False if it is still running."""
        assert self._thread is not None
        self._thread.join(timeout)
        return not self._thread.is_alive()

    def _run(self) -> None:
        get, get_nowait, batch_size = (
            self._queue.get,
            self._queue.get_nowait,
            self.batch_size,
        )
        carried: Call | None = None
        while True:
            if self._abandoned:
                if carried is not None:
                    carried.done.set()
                break
            item = carried if carried is not None else get()
            carried = None
            if type(item) is not Call:
                # Batched hot path: greedily drain queued events so the
                # consumer amortises per-call overhead.
                batch = item if type(item) is list else [item]
                while len(batch) < batch_size:
                    try:
                        item = get_nowait()
                    except queue.Empty:
                        break
                    if type(item) is Call:
                        carried = item
                        break
                    if type(item) is list:
                        batch.extend(item)
                    else:
                        batch.append(item)
                if self.failure is None:
                    try:
                        self._consume(batch)
                        self.events_processed += len(batch)
                    except BaseException as exc:  # surfaced via .failure
                        self.failure = exc
                continue
            # Control operations always acknowledge, even after a failure,
            # so nobody can deadlock waiting on a dead engine.
            if self.failure is None:
                try:
                    item.result = item.fn()
                except BaseException as exc:
                    item.error = exc
            item.done.set()
            if item.hold is not None:
                item.hold.wait()
            if item.last:
                if self.failure is None:
                    self.failure = item.error
                break
        self._closed = True
        # Discard whatever queued behind the final operation so no producer
        # stays wedged in a full-queue put and no caller waits forever.
        while True:
            try:
                item = get_nowait()
            except queue.Empty:
                return
            if type(item) is Call:
                item.done.set()


def _remaining(deadline: float | None) -> float | None:
    return None if deadline is None else max(0.0, deadline - time.monotonic())


# -- the runner ----------------------------------------------------------------------


class ThreadedEngineRunner(TelemetryViews):
    """Runs a :class:`CEPREngine` on its own consumer thread.

    Parameters
    ----------
    engine:
        The engine to drive; after :meth:`start` it must only be touched
        through this runner (:meth:`pause` grants temporary exclusive
        access when direct manipulation is unavoidable).  Its query
        subscriptions are fed on the consumer thread.  The runner takes
        over its ``ingress``.
    max_queue:
        Bound of the ingest queue; :meth:`submit` blocks when full.
    batch_size:
        How many queued events the consumer greedily drains into one
        ``push_batch`` call (amortises per-push overhead under load).
    shed_controller:
        The :class:`~repro.runtime.shedding.ShedController` that decides
        which events to drop (default: policy ``"off"``, inert) — see
        docs/SHEDDING.md.  Drops happen on the consumer thread ahead of
        the engine, whose hot path never sees the controller.
    """

    def __init__(
        self,
        engine: CEPREngine,
        max_queue: int = 10_000,
        batch_size: int = 256,
        shed_controller: ShedController | None = None,
    ) -> None:
        self.engine = engine
        self.ingress, engine.ingress = engine.ingress, None
        #: held while the ingress admits (or is read) and its output queued.
        self._submit_lock = tracked_lock("threaded.submit")
        self.max_queue = max_queue
        self.batch_size = batch_size
        self._loop = WorkerLoop(self._consume_batch, max_queue, batch_size)
        self._started = False
        #: the loop has been asked to leave (by :meth:`stop` or :meth:`kill`).
        self._stopping = False
        #: the consumer has left and the runner is torn down.
        self._stopped = False
        #: the consumer's watermark: the last event it drained (ingest lag).
        self._processed_ts: float | None = None
        #: smoothed composite pressure with ok/overloaded hysteresis.
        self.pressure_assessor = PressureAssessor()
        #: optional ``() -> (depth, capacity)`` hook the serving layer
        #: installs so default pressure readings include its fullest
        #: subscriber outbound queue.
        self.subscriber_pressure_provider: (
            Callable[[], tuple[int, int]] | None
        ) = None
        #: load-shedding state machine (policy "off" is inert).
        self.shed_controller = (
            ShedController() if shed_controller is None else shed_controller
        )

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "ThreadedEngineRunner":
        if self._started:
            raise RuntimeError("runner already started")
        self._started = True
        # Sanitizer handoff: from here on the consumer thread owns the
        # engine (thread-affinity tracking re-claims on first mutation).
        release_affinity(self.engine)
        self._loop.start()
        return self

    def stop(self, timeout: float | None = 30.0) -> None:
        """Drain the queue, flush the engine, and join the thread.

        A consumer still running after ``timeout`` is still inside the
        engine: the runner is then *failed*, not stopped — every later
        call raises, none drives the engine from the caller's thread, and
        the consumer skips whatever is queued behind what it is running
        (the flush included) — and :class:`TimeoutError` is raised; so is
        it when a wedged consumer leaves the ingest queue too full to take
        the flush in time.  A later ``stop()`` joins the consumer and
        raises the failure.
        """
        if not self._started or self._stopped:
            return
        if not self._leave(timeout, flush=True):
            raise TimeoutError("consumer thread did not drain in time")
        if self._loop.failure is not None:
            # A failed engine is dead: no later flush or close may drive it.
            self.engine.kill()
        self._check_failure()

    def kill(self, timeout: float | None = 5.0) -> None:
        """Stop the consumer and kill the engine **without flushing**;
        returns within ``timeout`` even if the consumer is wedged with the
        ingest queue full.

        The engine is killed only once the consumer has left it.  A
        consumer still running after ``timeout`` leaves the runner failed,
        as a :meth:`stop` that times out does (the consumer skips whatever
        is queued behind what it is running); a later ``kill`` or ``stop``
        joins it and kills the engine then.
        """
        if self._started and not self._stopped and self._leave(timeout, flush=False):
            self.engine.kill()

    def _leave(self, timeout: float | None, flush: bool) -> bool:
        """Ask the consumer to leave the loop, after the end of stream if
        ``flush``, and join it; False, and the runner failed, while it
        still runs after ``timeout``."""
        deadline = None if timeout is None else time.monotonic() + timeout
        if not self._stopping:
            self._stopping = True
            final = self.engine.flush if flush else _noop
            # A producer holds the lock while it waits on a full queue.
            wait = -1 if timeout is None else timeout
            if flush and self._submit_lock.acquire(timeout=wait):
                final = self._final()
                self._submit_lock.release()
            self._loop.stop(final=final, timeout=_remaining(deadline))
        if self._loop.join(_remaining(deadline)):
            self._stopped = True
            return True
        self._loop.fail(TimeoutError("consumer thread did not stop in time"))
        return False

    def close(self) -> None:
        """Terminal teardown: stop (draining and flushing), then close sinks."""
        self.stop()
        self.engine.close()

    def __enter__(self) -> "ThreadedEngineRunner":
        return self.start() if not self._started else self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- producing ----------------------------------------------------------------

    def submit(self, event: Event, timeout: float | None = None) -> None:
        """Admit one event and queue what the ingress releases (blocks
        when the queue is full).  A rejected event raises here and the
        runner carries on; so does a :class:`queue.Full` after
        ``timeout``, with the ingress as if ``event`` never came."""
        ingress = self.ingress
        with self._submit_lock:
            self._ensure_running()
            mark = None if timeout is None else ingress.mark()
            released = ingress.admit(event)
            if released:
                try:
                    self._loop.put(released, timeout)
                except queue.Full:
                    ingress.rewind(mark)
                    raise

    @property
    def events_submitted(self) -> int:
        return self.ingress.events_admitted

    def submit_all(self, events: Iterable[Event]) -> int:
        """Admit ``events`` ``batch_size`` at a time, each batch pulled
        before the lock is taken, admitted under it and queued as one item
        (blocks when the queue is full).  A rejected event raises, with the
        events before it admitted and queued
        (:func:`~repro.events.time.rejected`)."""
        ingress, events, size, count = self.ingress, iter(events), self.batch_size, 0
        while True:
            chunk = list(islice(events, size))
            with self._submit_lock:
                self._ensure_running()
                released, admitted, rejection = ingress.admit_batch(chunk)
                if released:
                    self._loop.put(released)
            count += admitted
            if rejection is not None:
                raise rejected(rejection, count)
            if len(chunk) < size:
                return count

    @property
    def failure(self) -> BaseException | None:
        """Exception that failed the consumer thread, if any."""
        return self._loop.failure

    def _check_failure(self) -> None:
        if self._loop.failure is not None:
            raise RuntimeError("engine thread failed") from self._loop.failure

    def _ensure_running(self) -> None:
        self._check_failure()
        if not self._started or self._stopping:
            raise RuntimeError("runner is stopped")

    # -- control barriers ----------------------------------------------------------

    def _on_consumer(
        self, fn: Callable[[CEPREngine], Any], timeout: float | None = None
    ) -> Any:
        """Run ``fn(engine)`` on the consumer thread, behind what is queued."""
        self._ensure_running()
        result = self._loop.call(lambda: fn(self.engine), timeout)
        self._check_failure()
        return result

    def sync(self, timeout: float | None = None) -> None:
        """Barrier: return once everything submitted before it is processed.

        Gives callers read-your-writes over engine results without
        stopping the runner (the serving layer's ``sync`` op maps here).
        """
        self._on_consumer(lambda engine: None, timeout)

    def poll(self) -> list[Emission]:
        """:meth:`sync` while running; emissions are delivered eagerly,
        so none are held."""
        if not self._stopping:
            self.sync()
        return []

    def advance_time(
        self, timestamp: float, timeout: float | None = None
    ) -> list[Emission]:
        """Inject a heartbeat, serialised behind already-queued events.

        Subscriptions receive what it releases on the consumer thread,
        like every other emission; the same emissions are returned.
        """
        return self._on_consumer(
            lambda engine: engine.advance_time(timestamp), timeout
        )

    def flush(self) -> list[Emission]:
        """End-of-stream flush without stopping the runner.

        Runs behind everything queued; returns the released emissions.
        Idempotent; :meth:`stop` still flushes for callers that never
        call this.
        """
        with self._submit_lock:
            if not self._started or self._stopped:
                return self._final()()
            self._ensure_running()
            call = self._loop.begin(self._final())
        released = call.wait()
        self._check_failure()
        return released

    def _final(self) -> Callable[[], list[Emission]]:
        """End of stream for the engine's owner: what the ingress holds,
        then the flush.  Call under the submit lock."""
        held = self.ingress.flush()
        engine = self.engine
        if not held:
            return engine.flush
        return lambda: engine.push_batch(held) + engine.flush()

    @contextmanager
    def pause(self) -> Iterator[CEPREngine]:
        """Park the consumer at a safe point and yield the engine.

        While the ``with`` body runs, the consumer thread is blocked
        between events, so the engine may be touched directly.  Events
        submitted meanwhile queue up and are processed after resume.
        """
        self._ensure_running()
        resume = threading.Event()
        # Affinity handoff both ways across the pause: the pausing thread
        # owns the engine inside the with body, then ownership returns.
        parked = self._loop.begin(
            lambda: release_affinity(self.engine), hold=resume
        )
        try:
            parked.wait()
            self._check_failure()
            yield self.engine
        finally:
            release_affinity(self.engine)
            resume.set()

    # -- engine passthroughs ---------------------------------------------------------

    def _with_engine(self, fn: Callable[[CEPREngine], Any]) -> Any:
        """Run ``fn(engine)`` on its owner: the consumer while it runs, the
        caller before :meth:`start` and once the consumer has been joined.
        In between — a stop under way, or one that timed out — the
        consumer may be inside the engine, so nobody else may enter it."""
        if not self._started or self._stopped:
            return fn(self.engine)
        if self._stopping:
            self._check_failure()
            raise RuntimeError("runner is stopping")
        return self._on_consumer(fn)

    def subscribe(
        self,
        query_name: str,
        target: SinkLike,
        kinds: EmissionKind | str | list | tuple | None = None,
    ) -> Subscription:
        """Attach a subscription to one query, safely while running."""
        return self._with_engine(
            lambda engine: engine.subscribe(query_name, target, kinds=kinds)
        )

    def register_query(
        self, query: str | Query, name: str | None = None
    ) -> RegisteredQuery:
        """Register a query (on the consumer thread if already running)."""
        return self._with_engine(
            lambda engine: engine.register_query(query, name=name)
        )

    def unregister_query(self, name: str) -> None:
        """Remove a query (on the consumer thread if already running)."""
        self._with_engine(lambda engine: engine.unregister_query(name))

    # -- checkpointing ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """Consistent snapshot, taken behind everything queued: the
        engine's, and the ingress's at that queue position."""
        self._ensure_running()
        with self._submit_lock:
            call = self._loop.begin(self.engine.snapshot)
            admission = self.ingress.snapshot()
        state = call.wait()
        self._check_failure()
        return merge_admission(state, admission)

    def restore(self, state: dict) -> None:
        """Load a snapshot into the engine, on its owner thread, and into
        the ingress at that queue position."""
        self._ensure_running()
        with self._submit_lock:
            self.ingress.restore(state)
            call = self._loop.begin(lambda: self.engine.restore(state))
        call.wait()
        self._check_failure()

    # -- observability -------------------------------------------------------------

    @property
    def events_processed(self) -> int:
        """Events the consumer has drained from the queue."""
        return self._loop.events_processed

    @property
    def backlog(self) -> int:
        """Events queued but not yet processed (approximate)."""
        return self._loop.backlog

    @property
    def queue_capacity(self) -> int:
        return self.max_queue

    @property
    def queue_high_water(self) -> int:
        """Deepest the ingest queue has ever been (pressure signal)."""
        return self._loop.queue_high_water

    @property
    def ingest_lag_seconds(self) -> float:
        """Event-time skew between the submit and processing watermarks.

        Zero while the consumer keeps up, and until both watermarks exist
        (the skew between them is not yet defined); grows in event-time
        units when a backlog builds.
        """
        submitted, processed = self.ingress.last_timestamp, self._processed_ts
        if submitted is None or processed is None:
            return 0.0
        return max(0.0, submitted - processed)

    def pressure_sample(
        self, subscriber_depth: int = 0, subscriber_capacity: int = 0
    ) -> PressureSample:
        """Instantaneous pressure reading over the ingest queue.

        The serving layer's subscriber backlog is folded in when passed
        explicitly, or read from :attr:`subscriber_pressure_provider` when
        the arguments are left at their defaults (so the registry's
        ``pressure`` gauge sees it on every export).
        """
        if (
            not subscriber_capacity
            and self.subscriber_pressure_provider is not None
        ):
            subscriber_depth, subscriber_capacity = (
                self.subscriber_pressure_provider()
            )
        return PressureSample(
            ingest_lag_seconds=self.ingest_lag_seconds,
            queue_depth=self.backlog,
            queue_capacity=self.queue_capacity,
            queue_high_water=self.queue_high_water,
            subscriber_depth=subscriber_depth,
            subscriber_capacity=subscriber_capacity,
        )

    def pressure(
        self, subscriber_depth: int = 0, subscriber_capacity: int = 0
    ) -> PressureAssessor:
        """Fold a fresh sample into the assessor and return it."""
        self.pressure_assessor.observe(
            self.pressure_sample(subscriber_depth, subscriber_capacity)
        )
        return self.pressure_assessor

    def shed_stats(self) -> ShedStats:
        """Shedding counters (drops happen here, ahead of the engine)."""
        return self.shed_controller.stats

    def shed_stats_dict(self) -> dict[str, Any] | None:
        """JSON-safe shedding snapshot for STATS frames (None when off)."""
        controller = self.shed_controller
        return None if controller.policy == "off" else controller.to_dict()

    # Monitor passthroughs: a runner can stand in for its engine as a
    # monitor source, which is how `cepr stats --watch` surfaces queue
    # pressure (the bare engine has no ingest queue to be pressured).
    def query(self, name: str) -> RegisteredQuery:
        """Look up a registered query handle by name."""
        return self.engine.query(name)

    def queries(self):
        return self.engine.queries()

    @property
    def metrics(self):
        return self.engine.metrics

    def metrics_registry(self) -> MetricsRegistry:
        """The engine's registry plus this runner's queue instruments.

        Read from any thread, so it must not settle dormant queries'
        counters here: the consumer thread does, after every batch.
        """
        registry = self.engine._live_registry()
        bind(registry, RUNNER_SUBMITTED, self)
        bind_table(registry, INGRESS, self.ingress)
        bind_table(registry, QUEUE, self)
        if self.shed_controller.policy != "off":
            bind_table(registry, SHED, self)
        bind(registry, RUNNER_PROCESSED, self)
        return registry

    # -- consuming ----------------------------------------------------------------

    def _consume_batch(self, batch: list[Event]) -> None:
        """One drained batch, on the consumer thread."""
        self._processed_ts = batch[-1].timestamp
        controller = self.shed_controller
        if controller.adaptive_active:
            # Lossy pre-engine drops: the seq hint places the
            # not-yet-sequenced events in the right count-window
            # epoch for the bound probes (advisory only).
            pipelines = self.engine.pipelines()
            seq_hint = self.engine.metrics.events_pushed
            batch = [
                event
                for event in batch
                if controller.admit(event, pipelines, seq_hint=seq_hint)
            ]
        if batch:
            self.engine.push_batch(batch)
        if controller.policy != "off":
            # Per-batch control tick, on the consumer thread — the
            # controller owns a private assessor, so this never races
            # the registry's pressure gauge.
            controller.control(self.pressure_sample(), self.ingest_lag_seconds)
