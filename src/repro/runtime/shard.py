"""Shards, and the loop behind the threaded runner.

* a **shard** — the narrow interface the fleet coordinator drives
  (``push_batch``, ``advance_time``, ``flush``, ``report``, ``snapshot``,
  ``restore``, ``explain``, ``alive``/``pid``/``respawn``,
  ``close(force)``) on the caller's thread, having none of its own.
  :class:`LocalShard` wraps a
  :class:`~repro.runtime.engine.CEPREngine` in this process;
  :class:`~repro.runtime.process.PipeShard` speaks pipe frames to a
  worker process, which itself hosts a :class:`LocalShard`.  The only way
  a coordinator learns anything about a shard is the
  :class:`~repro.runtime.report.ShardReport` its ``report()`` returns.
* a :class:`WorkerLoop` — one bounded ingest queue drained by one
  consumer thread, the *owner* of the
  :class:`~repro.runtime.concurrent.ThreadedEngineRunner`'s engine.  Its
  only control operation is "run this callable on the owner thread, then
  acknowledge" (:meth:`WorkerLoop.begin`); barriers, heartbeats,
  flushes, snapshots, restores and pauses are all callers of it.

Failure model: an exception on the event path **latches** — in
:attr:`WorkerLoop.failure`, or on the fleet's shard — and its owner
re-raises it at the next submit or barrier.  The loop keeps draining
(and discarding) so no producer wedges on a full queue, and skips
control callables but still acknowledges them.
"""

from __future__ import annotations

import os
import queue
import threading
from collections import deque
from functools import partial
from typing import Any, Callable, Iterable, Mapping, Protocol

from repro.events.event import Event
from repro.events.time import PreassignedSequencer
from repro.language.ast_nodes import Query
from repro.observability.instruments import RUNNER, SHED, TelemetryViews, bind_table
from repro.observability.pressure import PressureAssessor, PressureSample
from repro.observability.registry import MetricsRegistry
from repro.ranking.emission import Emission
from repro.runtime.config import RunnerConfig, build_engine
from repro.runtime.report import ShardReport
from repro.runtime.shedding import ShedController, ShedStats
from repro.sanitize.core import release_affinity


class Shard(Protocol):
    """What a coordinator may ask of one shard.

    Every method but ``explain`` (read-only) and ``close`` (teardown) is
    called under the coordinator's dispatch lock, from whichever thread
    holds it.
    """

    #: process hosting the engine.
    pid: int | None

    def push_batch(self, events: list[Event]) -> None: ...

    def advance_time(self, timestamp: float) -> None: ...

    def flush(self) -> None: ...

    def report(self) -> ShardReport:
        """State as of now; emission deltas are handed over exactly once."""
        ...

    def snapshot(self) -> dict: ...

    def restore(self, state: dict) -> None:
        """Load an engine snapshot; un-reported emissions are dropped."""
        ...

    def explain(self, query: str) -> str: ...

    def alive(self) -> bool: ...

    def respawn(self) -> None:
        """Replace the engine with a fresh one: same queries, empty state."""
        ...

    def close(self, force: bool = False) -> None:
        """Release the engine (``force``: without waiting for it)."""
        ...


class LocalShard:
    """A shard that is a :class:`CEPREngine` in this process.

    The engine is built from ``config`` (a fleet shard's recipe); when
    ``preassigned`` it keeps the global sequence numbers the coordinator
    stamped instead of numbering events itself.  ``queries`` maps names
    to CEPR-QL text or parsed ASTs.  Each worker process hosts one; a
    fleet of them in this process is the test double of the merge stage.
    """

    def __init__(
        self,
        config: RunnerConfig,
        queries: Mapping[str, str | Query],
        preassigned: bool,
    ) -> None:
        self._recipe = (config, dict(queries), preassigned)
        self.pid = os.getpid()
        self.respawn()

    def respawn(self) -> None:
        config, queries, preassigned = self._recipe
        self.engine = build_engine(
            config, PreassignedSequencer() if preassigned else None
        )
        for name, query in queries.items():
            self.engine.register_query(query, name=name)
        # Registered once: a shard's queries and sinks never change, so
        # every report hands over this same live registry.
        self._instruments = self.engine.metrics_registry()
        self._alive = True
        #: query names in the order the last barrier delivered to them.
        self._barrier_order: list[str] = []

    def alive(self) -> bool:
        return self._alive

    def close(self, force: bool = False) -> None:
        self._alive = False

    def _handoff(self) -> None:
        """Sanitizer handoff: the coordinator's dispatch lock serialises
        shard calls, so whichever thread holds it may drive the engine."""
        release_affinity(self.engine)

    def push_batch(self, events: list[Event]) -> None:
        self._handoff()
        self.engine.push_batch(events)

    def advance_time(self, timestamp: float) -> None:
        self._barrier(partial(self.engine.advance_time, timestamp))

    def flush(self) -> None:
        self._barrier(self.engine.flush)

    def _barrier(self, run: Callable[[], list[Emission]]) -> None:
        """Run a heartbeat or the flush, noting whom each delivery went to:
        the first query, in registration order, whose next new collected
        emission it is (group members may be handed one shared object)."""
        handles = self.engine.queries()
        marks = [len(handle.collector.emissions) for handle in handles]
        self._handoff()
        delivered = run()
        fresh = {
            handle.name: deque(handle.collector.emissions[mark:])
            for handle, mark in zip(handles, marks)
        }
        self._barrier_order = []
        for emission in delivered:
            name = next(n for n, new in fresh.items() if new and new[0] is emission)
            self._barrier_order.append(name)
            fresh[name].popleft()

    def report(self) -> ShardReport:
        barrier_order, self._barrier_order = self._barrier_order, []
        return ShardReport(
            pid=self.pid,
            last_event_ts=self.engine.metrics.last_event_ts,
            instruments=self._instruments,
            queries={
                handle.name: handle.report()
                for handle in self.engine.queries()
            },
            barrier_order=barrier_order,
        )

    def snapshot(self) -> dict:
        return self.engine.snapshot()

    def restore(self, state: dict) -> None:
        for handle in self.engine.queries():
            if handle.collector is not None:
                handle.collector.clear()
        self._barrier_order = []
        self._handoff()
        self.engine.restore(state)

    def explain(self, query: str) -> str:
        return self.engine.query(query).explain()


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
        self._queue: queue.Queue = queue.Queue(maxsize=max_queue)
        self.batch_size = batch_size
        self._thread: threading.Thread | None = None
        #: True once the owner thread has left the loop (nothing runs after).
        self._closed = False
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

    def put(self, event: Event, timeout: float | None = None) -> None:
        """Enqueue one event (blocks when the queue is full).

        After the owner has left the loop the event is dropped, exactly
        like one queued behind the final operation.
        """
        if self._closed:
            return
        self._queue.put(event, timeout=timeout)
        depth = self._queue.qsize()
        if depth > self.queue_high_water:
            self.queue_high_water = depth

    def begin(
        self,
        fn: Callable[[], Any],
        hold: threading.Event | None = None,
        last: bool = False,
    ) -> Call:
        """Queue ``fn`` to run on the owner thread behind everything queued.

        The loop acknowledges (:meth:`Call.wait` returns) once ``fn`` has
        run — or been skipped because a failure is latched — and then, if
        ``hold`` is given, parks until it is set.  ``last`` makes this the
        loop's final operation.
        """
        call = Call(fn, hold, last)
        if not self._closed:
            self._queue.put(call)
        if self._closed:
            call.done.set()  # the owner left before (or while) we queued
        return call

    def call(self, fn: Callable[[], Any], timeout: float | None = None) -> Any:
        return self.begin(fn).wait(timeout)

    def drain(self, timeout: float | None = None) -> None:
        """Return once everything queued before this call is processed."""
        self.call(_noop, timeout)

    def stop(self, final: Callable[[], Any] = _noop) -> None:
        """Ask the owner to run ``final`` (unless failed) and leave the loop."""
        self.begin(final, last=True)

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
            item = carried if carried is not None else get()
            carried = None
            if type(item) is not Call:
                # Batched hot path: greedily drain queued events so the
                # consumer amortises per-call overhead.
                batch = [item]
                while len(batch) < batch_size:
                    try:
                        item = get_nowait()
                    except queue.Empty:
                        break
                    if type(item) is Call:
                        carried = item
                        break
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


# -- what the queue-backed runners share --------------------------------------------


class QueuedRunner(TelemetryViews):
    """Base of the runners that hold events between ``submit`` and an
    engine: the threaded runner's :class:`WorkerLoop` queue, the fleet's
    unsent shard chunks.

    Holds the submit side (``submit_all``, the accepted-event count and
    event-time watermark), the pressure signals, the shedding controller
    and the instruments over all of them.  Subclasses provide ``submit``,
    ``last_processed_ts``, ``backlog``, ``queue_capacity``,
    ``queue_high_water`` and ``metrics_registry()`` (of which the
    inherited telemetry views are functions).
    """

    #: event-time watermark: highest timestamp any shard/engine processed.
    last_processed_ts: float | None
    backlog: int
    queue_capacity: int
    queue_high_water: int

    def _init_queued(self, shed_controller: ShedController) -> None:
        self.events_submitted = 0
        #: submit-side event-time watermark: highest event timestamp
        #: accepted.  Compared against the processed watermark to measure
        #: ingest lag in event-time units.
        self.last_submitted_ts: float | None = None
        #: smoothed composite pressure with ok/overloaded hysteresis.
        self.pressure_assessor = PressureAssessor()
        #: optional ``() -> (depth, capacity)`` hook the serving layer
        #: installs so default pressure readings include its fullest
        #: subscriber outbound queue.
        self.subscriber_pressure_provider: (
            Callable[[], tuple[int, int]] | None
        ) = None
        #: load-shedding state machine (policy "off" is inert).
        self.shed_controller = shed_controller

    def submit(self, event: Event, timeout: float | None = None) -> None:
        raise NotImplementedError

    def submit_all(self, events: Iterable[Event]) -> int:
        count = 0
        for event in events:
            self.submit(event)
            count += 1
        return count

    def _note_submitted(self, timestamp: float) -> None:
        if self.last_submitted_ts is None or timestamp > self.last_submitted_ts:
            self.last_submitted_ts = timestamp

    def shed_stats(self) -> ShedStats:
        """Shedding counters (drops happen here, ahead of every engine)."""
        return self.shed_controller.stats

    def shed_stats_dict(self) -> dict[str, Any] | None:
        """JSON-safe shedding snapshot for STATS frames (None when off)."""
        controller = self.shed_controller
        return None if controller.policy == "off" else controller.to_dict()

    @property
    def ingest_lag_seconds(self) -> float:
        """Event-time skew between the submit and processing watermarks.

        Zero while the consumer keeps up, and until both watermarks exist
        (the skew between them is not yet defined); grows in event-time
        units when a backlog builds.
        """
        submitted, processed = self.last_submitted_ts, self.last_processed_ts
        if submitted is None or processed is None:
            return 0.0
        return max(0.0, submitted - processed)

    def pressure_sample(
        self, subscriber_depth: int = 0, subscriber_capacity: int = 0
    ) -> PressureSample:
        """Instantaneous pressure reading over this runner's queue(s).

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

    def _register_queue_instruments(self, registry: MetricsRegistry) -> None:
        bind_table(registry, RUNNER, self)
        if self.shed_controller.policy != "off":
            bind_table(registry, SHED, self)
