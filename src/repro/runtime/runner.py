"""Unified Runner API: one protocol, one config, one factory.

Three execution backends can run a CEPR program, each trading isolation
for throughput differently:

``embedded``
    The :class:`~repro.runtime.engine.CEPREngine` itself, on the
    caller's thread: ``submit`` is ``push`` and emissions reach the
    subscriptions before it returns.  Zero moving parts; right for
    scripts, tests, and notebooks.
``threaded``
    :class:`~repro.runtime.concurrent.ThreadedEngineRunner` — one engine
    behind a :class:`~repro.runtime.concurrent.WorkerLoop` (bounded
    queue, one consumer thread); producers get backpressure, callers get
    barriers, subscriptions are fed eagerly on the consumer thread.  The
    only backend with an ingest queue, hence the only one that reports
    queue pressure and sheds load.
``process``
    :class:`~repro.runtime.sharded.ShardedEngineRunner` — a fleet of
    :class:`~repro.runtime.process.PipeShard` shards, each an engine in
    a worker *process* (own interpreter, own GIL), fed one chunk per
    length-prefixed pipe frame by a coordinator that runs on the
    caller's thread, partitioned by
    the analyzer's shardability certificate and merged deterministically
    from the shards' barrier-time reports.  It has no ingest queue: a
    full pipe blocks ``submit``.

They share one lifecycle — ``register_query`` / ``subscribe`` /
``start`` / ``submit`` / barriers (``sync``/``poll``/``advance_time``/
``flush``) / ``snapshot`` / ``restore`` / ``stop`` / ``close`` —
captured by the :class:`Runner` protocol and exercised by the
cross-backend conformance suite
(``tests/runtime/test_runner_conformance.py``).  Emissions leave a
runner one way: per-query subscriptions.  A sink subscribed to every
query sees the single engine's cross-query interleaving on every
backend; the barrier methods also return what they released.

Construction goes through :func:`create_runner`::

    from repro.runtime import RunnerConfig, create_runner

    runner = create_runner(QUERY_TEXT, RunnerConfig(backend="process", shards=4))
    runner.subscribe("best_trades", print)
    with runner:
        runner.submit_all(events)
        runner.flush()

Without a ``backend`` the shard count chooses one:
``RunnerConfig(shards=8)`` is an 8-process fleet, one shard
the ``embedded`` engine.  :func:`resolve` holds that rule and every
other backend×option rule; the CLI, the server and the backtester hand
it one config each instead of deciding for themselves.

The runner classes can also be constructed directly; the factory is the
place where backend choice stays a config value instead of a code change.
"""

from __future__ import annotations

from dataclasses import replace
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Protocol,
    runtime_checkable,
)

from repro.events.event import Event
from repro.language.ast_nodes import Query
from repro.observability.registry import MetricsRegistry
from repro.ranking.emission import Emission
from repro.runtime.concurrent import ThreadedEngineRunner
from repro.runtime.config import RunnerConfig, build_engine, resolve
from repro.runtime.sharded import ShardedEngineRunner
from repro.runtime.shedding import DEFAULT_LATENCY_TARGET_SECONDS, ShedController
from repro.runtime.sinks import SinkLike, Subscription


@runtime_checkable
class Runner(Protocol):
    """The lifecycle every execution backend implements.

    ``isinstance(obj, Runner)`` checks method presence (the protocol is
    runtime-checkable); the semantic contract — deterministic output
    identical across backends for the same program and stream — is
    enforced by the conformance and differential suites.
    """

    def start(self) -> "Runner":
        """Begin accepting events; returns self for chaining."""
        ...

    def stop(self, timeout: float | None = 30.0) -> None:
        """Drain queued work, flush the engine(s), release threads/processes."""
        ...

    def close(self) -> None:
        """Terminal teardown: stop if needed, then close sinks."""
        ...

    def submit(self, event: Event, timeout: float | None = None) -> None:
        """Ingest one event (blocks on backpressure where applicable)."""
        ...

    def submit_all(self, events: Iterable[Event]) -> int:
        """Ingest a stream; returns how many events it consumed from it.

        An event the ingress rejects raises, with the events before it
        admitted; the error's ``admitted`` counts them
        (:func:`~repro.events.time.rejected`)."""
        ...

    def sync(self) -> None:
        """Read-your-writes barrier over everything submitted so far."""
        ...

    def poll(self) -> list[Emission]:
        """:meth:`sync`, then release (and return) held emissions.

        Backends that deliver eagerly (``embedded``, ``threaded``) hold
        none and return ``[]``; the fleets release what is mergeable.
        """
        ...

    def advance_time(self, timestamp: float) -> list[Emission]:
        """Heartbeat: declare stream time has reached ``timestamp``.

        Returns the emissions this barrier released (also delivered to
        the subscriptions).
        """
        ...

    def flush(self) -> list[Emission]:
        """End of stream: release pending matches and held rankings.

        Returns the emissions released (also delivered to the
        subscriptions); ``[]`` once already flushed.
        """
        ...

    def subscribe(
        self,
        query_name: str,
        target: SinkLike,
        kinds: object = None,
    ) -> Subscription:
        """Attach a sink/callback to one query, filtered to ``kinds``."""
        ...

    def register_query(self, query: str | Query, name: str | None = None) -> Any:
        """Register a query; returns its handle (backend-specific type)."""
        ...

    def query(self, name: str) -> Any:
        """Look up a registered query handle by name."""
        ...

    def queries(self) -> list:
        """All registered query handles."""
        ...

    def snapshot(self) -> dict:
        """Consistent JSON-safe checkpoint of all mutable state."""
        ...

    def restore(self, state: dict) -> None:
        """Load a snapshot taken by an identically-configured runner."""
        ...

    def stats_by_query(self) -> dict:
        """Per-query counter dict (events routed, matches, emissions, ...)."""
        ...

    def metrics_registry(self) -> MetricsRegistry:
        """Live metrics registry covering engines and runner queues."""
        ...

    def cost_accounts(self) -> dict:
        """Per-query cost accounting snapshot."""
        ...


# -- factory ---------------------------------------------------------------------

#: Program forms ``create_runner`` accepts (besides ``None``).
ProgramLike = (
    "str | Query | Mapping[str, str | Query] | Iterable[str | Query]"
)


def _iter_program(
    program: object,
) -> Iterator[tuple[str | None, str | Query]]:
    if program is None:
        return
    if isinstance(program, (str, Query)):
        yield None, program
        return
    if isinstance(program, Mapping):
        for name, query in program.items():
            yield name, query
        return
    if isinstance(program, Iterable):
        for query in program:
            if not isinstance(query, (str, Query)):
                raise TypeError(
                    "program items must be CEPR-QL text or Query ASTs, "
                    f"got {type(query).__name__}"
                )
            yield None, query
        return
    raise TypeError(
        "program must be CEPR-QL text, a Query AST, an iterable of "
        f"either, or a name->query mapping; got {type(program).__name__}"
    )


def _build_threaded(config: RunnerConfig) -> ThreadedEngineRunner:
    return ThreadedEngineRunner(
        build_engine(config),
        max_queue=config.max_queue,
        batch_size=config.batch_size,
        shed_controller=ShedController(
            config.shed_policy,
            DEFAULT_LATENCY_TARGET_SECONDS
            if config.latency_target is None
            else config.latency_target,
        ),
    )


_BUILDERS: dict[str, Callable[[RunnerConfig], Any]] = {
    "embedded": build_engine,
    "threaded": _build_threaded,
    "process": ShardedEngineRunner,
}


def create_runner(
    program: object = None,
    config: RunnerConfig | None = None,
    **overrides,
) -> Runner:
    """Build a :class:`Runner` for ``program`` per ``config``.

    ``program`` may be CEPR-QL text, a parsed ``Query`` AST, an iterable
    of either, a ``{name: query}`` mapping, or ``None`` (register later
    via ``runner.register_query``).  ``config`` defaults to
    ``RunnerConfig()`` (the embedded backend: the
    :class:`~repro.runtime.engine.CEPREngine` itself); keyword ``overrides`` are
    applied on top with :func:`dataclasses.replace`, so the common cases
    stay one-liners::

        create_runner(text)                                   # embedded
        create_runner(text, shards=8)                         # process, 8
        create_runner(text, backend="threaded")
        create_runner(text, backend="process", shards=4)
        create_runner(text, RunnerConfig(backend="process"), shards=8)

    The runner is returned **unstarted**: register any further queries
    and subscribe to the ones whose emissions you want, then ``start()``
    (or use it as a context manager).  The config goes through
    :func:`resolve`, so unknown backends and backend/option mismatches
    raise ``ValueError`` here rather than failing later at runtime.
    """
    config = resolve(replace(config or RunnerConfig(), **overrides))
    runner = _BUILDERS[config.backend](config)
    for name, query in _iter_program(program):
        runner.register_query(query, name=name)
    return runner
