"""Threaded ingestion: feed an engine from a producer thread safely.

``CEPREngine`` is single-threaded by design (one event at a time through
the operator chain).  :class:`ThreadedEngineRunner` puts that engine behind
a :class:`~repro.runtime.shard.WorkerLoop`: producers call :meth:`submit`
from any thread, the loop's consumer thread — the engine's owner — drains
the queue into the engine in ``push_batch`` batches, and the engine feeds
the query subscriptions on that thread.  The bounded queue gives natural
backpressure — a slow query slows producers instead of growing memory
without bound.

Everything else the runner does is "run this on the consumer thread,
behind what is already queued" (:meth:`WorkerLoop.begin
<repro.runtime.shard.WorkerLoop.begin>`):

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
already queued, flushes the engine, and joins the thread.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.events.event import Event
from repro.language.ast_nodes import Query
from repro.observability.instruments import RUNNER_PROCESSED, bind
from repro.observability.registry import MetricsRegistry
from repro.ranking.emission import Emission, EmissionKind
from repro.runtime.engine import CEPREngine
from repro.runtime.query import RegisteredQuery
from repro.runtime.shard import QueuedRunner, WorkerLoop
from repro.runtime.shedding import ShedController
from repro.runtime.sinks import SinkLike, Subscription
from repro.sanitize.core import release_affinity


class ThreadedEngineRunner(QueuedRunner):
    """Runs a :class:`CEPREngine` on its own consumer thread.

    Parameters
    ----------
    engine:
        The engine to drive; after :meth:`start` it must only be touched
        through this runner (:meth:`pause` grants temporary exclusive
        access when direct manipulation is unavoidable).  Its query
        subscriptions are fed on the consumer thread.
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
        self.max_queue = max_queue
        self.batch_size = batch_size
        self._loop = WorkerLoop(self._consume_batch, max_queue, batch_size)
        self._started = False
        self._stopped = False
        self._init_queued(
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
        """Drain the queue, flush the engine, and join the thread."""
        if not self._started or self._stopped:
            return
        self._stopped = True
        self._loop.stop(final=self.engine.flush)
        if not self._loop.join(timeout):
            raise TimeoutError("consumer thread did not drain in time")
        self._check_failure()

    def kill(self, timeout: float | None = 5.0) -> None:
        """Stop the consumer and kill the engine **without flushing**."""
        if self._started and not self._stopped:
            self._stopped = True
            self._loop.stop()
            self._loop.join(timeout)
            self.engine.kill()

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
        """Enqueue one event (blocks when the queue is full)."""
        self._ensure_running()
        self._loop.put(event, timeout)
        self.events_submitted += 1
        self._note_submitted(event.timestamp)

    @property
    def failure(self) -> BaseException | None:
        """Exception that failed the consumer thread, if any."""
        return self._loop.failure

    def _check_failure(self) -> None:
        if self._loop.failure is not None:
            raise RuntimeError("engine thread failed") from self._loop.failure

    def _ensure_running(self) -> None:
        self._check_failure()
        if not self._started or self._stopped:
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
        if not self._stopped:
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
        return self._with_engine(lambda engine: engine.flush())

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
        if self._started and not self._stopped:
            return self._on_consumer(fn)
        return fn(self.engine)

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
        """Consistent engine snapshot, taken behind everything queued."""
        return self._on_consumer(lambda engine: engine.snapshot())

    def restore(self, state: dict) -> None:
        """Load a snapshot into the engine, on its owner thread."""
        self._on_consumer(lambda engine: engine.restore(state))

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
    def last_processed_ts(self) -> float | None:
        return self.engine.metrics.last_event_ts

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
        self._register_queue_instruments(registry)
        bind(registry, RUNNER_PROCESSED, self)
        return registry

    # -- consuming ----------------------------------------------------------------

    def _consume_batch(self, batch: list[Event]) -> None:
        """One drained batch, on the consumer thread."""
        controller = self.shed_controller
        if controller.adaptive_active:
            # Lossy pre-engine drops: the seq hint places the
            # not-yet-sequenced events in the right count-window
            # epoch for the bound probes (advisory only).
            queries = self.engine.queries()
            seq_hint = self.engine.metrics.events_pushed
            batch = [
                event
                for event in batch
                if controller.admit(event, queries, seq_hint=seq_hint)
            ]
        if batch:
            self.engine.push_batch(batch)
        if controller.policy != "off":
            # Per-batch control tick, on the consumer thread — the
            # controller owns a private assessor, so this never races
            # the registry's pressure gauge.
            controller.control(self.pressure_sample(), self.ingest_lag_seconds)
