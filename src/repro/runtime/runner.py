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
    behind a :class:`~repro.runtime.shard.WorkerLoop` (bounded queue,
    one consumer thread); producers get backpressure, callers get
    barriers, subscriptions are fed eagerly on the consumer thread.
``process``
    :class:`~repro.runtime.sharded.ShardedEngineRunner` — a fleet of
    :class:`~repro.runtime.process.PipeShard` shards, each an engine in
    a worker *process* (own interpreter, own GIL) behind its own
    ``WorkerLoop``, fed over length-prefixed pipe frames, partitioned by
    the analyzer's shardability certificate and merged deterministically
    from the shards' barrier-time reports.

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

from dataclasses import dataclass, replace
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
from repro.events.schema import SchemaRegistry
from repro.language.ast_nodes import Query
from repro.observability.registry import MetricsRegistry
from repro.ranking.emission import Emission
from repro.runtime.concurrent import ThreadedEngineRunner
from repro.runtime.engine import CEPREngine
from repro.runtime.sharded import ShardedEngineRunner
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
        """Ingest a stream; returns how many events it consumed from it."""
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


@dataclass
class RunnerConfig:
    """Declarative construction recipe for :func:`create_runner`.

    ``backend`` and ``shards`` may be left ``None``; :func:`resolve`
    settles them and enforces every backend×option rule (see there).
    The other fields are shared, with two backend-specific meanings:

    * ``max_queue``/``batch_size`` bound the ingest queue of the
      queue-backed backends (``threaded``/``process``); ``embedded``
      has none and ignores them.
    * ``shed_policy``/``latency_target`` steer ``threaded``'s load
      shedding (docs/SHEDDING.md).

    Emissions reach callers through per-query subscriptions
    (``runner.subscribe``), fed synchronously on the caller's thread for
    ``embedded``, on the consumer thread for ``threaded``, and on the
    barrier-calling thread for ``process``.
    """

    backend: str | None = None
    shards: int | None = None
    registry: SchemaRegistry | None = None
    strict_schema: bool = False
    enable_pruning: bool = True
    strict_time: bool = False
    lenient_errors: bool = False
    max_lateness: float | None = None
    max_queue: int = 10_000
    batch_size: int = 256
    sanitize: bool | None = None
    shed_policy: str = "off"
    latency_target: float | None = None
    tracing: bool | None = None


#: Backends that run one engine, hence ignore ``shards``.
_SINGLE_ENGINE = ("embedded", "threaded")
#: Worker count of a fleet backend named without ``shards``.
_DEFAULT_FLEET_SHARDS = 4


def _backend_of(config: RunnerConfig) -> str:
    if config.backend is not None:
        return config.backend
    if config.shards is not None and config.shards > 1:
        return "process"
    return "embedded"


def resolve(config: RunnerConfig) -> RunnerConfig:
    """``config`` with ``backend`` and ``shards`` settled and checked.

    Every backend×option rule lives here (:func:`create_runner` applies
    it; front ends call it to fail before doing any work):

    * ``shards``, when given, is at least 1.
    * Without ``backend``, one shard (or none given) is ``embedded`` and
      more is ``process``.
    * The single-engine backends (``embedded``/``threaded``) run one
      shard whatever ``shards`` says, so one config can sweep all three
      backends (:func:`reject_ignored_shards` is the strict variant for
      user input); ``process`` defaults to 4 shards.
    * Only ``threaded`` sheds load: ``embedded`` has no ingest queue, and
      ``process`` shards report engine state only at barriers, so both
      reject a ``shed_policy`` other than ``"off"``.
    * Tracing is per-engine: the ``process`` merge stage cannot stitch
      cross-shard traces, so it rejects ``tracing=True``.

    Idempotent: a resolved config resolves to an equal one.
    """
    if config.shards is not None and config.shards < 1:
        raise ValueError(f"shards must be >= 1, got {config.shards}")
    backend = _backend_of(config)
    if backend not in _BACKENDS:
        raise ValueError(
            f"unknown runner backend {backend!r}; "
            f"expected one of {sorted(_BACKENDS)}"
        )
    if backend in _SINGLE_ENGINE:
        shards = 1
    else:
        shards = config.shards or _DEFAULT_FLEET_SHARDS
    if backend != "threaded" and config.shed_policy != "off":
        raise ValueError(
            f"backend {backend!r} does not shed load; "
            "use backend='threaded' for load shedding"
        )
    if config.tracing and backend not in _SINGLE_ENGINE:
        raise ValueError(
            f"backend {backend!r} does not support per-emission "
            "tracing (the merge stage cannot stitch cross-shard traces); "
            "use backend='embedded' or 'threaded'"
        )
    return replace(config, backend=backend, shards=shards)


def queue_backed(config: RunnerConfig) -> RunnerConfig:
    """:func:`resolve`, with the bare ``embedded`` engine upgraded to
    ``threaded``: for front ends that need an ingest queue between their
    producers and the engine (the server, the live monitor)."""
    if _backend_of(config) == "embedded":
        config = replace(config, backend="threaded")
    return resolve(config)


def reject_ignored_shards(config: RunnerConfig) -> None:
    """Raise when ``config`` names a single-engine backend *and* more
    than one shard.

    :func:`resolve` ignores ``shards`` there; a front end that took both
    values from a user calls this first, because for a user the pair is
    a contradiction rather than a sweep.
    """
    if config.backend in _SINGLE_ENGINE and (config.shards or 1) > 1:
        raise ValueError(
            f"backend {config.backend!r} is single-engine; shards="
            f"{config.shards} needs backend 'process'"
        )


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


def _engine_from(config: RunnerConfig) -> CEPREngine:
    return CEPREngine(
        registry=config.registry,
        strict_schema=config.strict_schema,
        enable_pruning=config.enable_pruning,
        strict_time=config.strict_time,
        lenient_errors=config.lenient_errors,
        max_lateness=config.max_lateness,
        tracing=config.tracing,
        sanitize=config.sanitize,
    )


def _build_threaded(config: RunnerConfig) -> ThreadedEngineRunner:
    return ThreadedEngineRunner(
        _engine_from(config),
        max_queue=config.max_queue,
        batch_size=config.batch_size,
        shed_policy=config.shed_policy,
        latency_target=config.latency_target,
    )


def _build_fleet(config: RunnerConfig) -> ShardedEngineRunner:
    return ShardedEngineRunner(
        shards=config.shards,
        registry=config.registry,
        strict_schema=config.strict_schema,
        enable_pruning=config.enable_pruning,
        strict_time=config.strict_time,
        lenient_errors=config.lenient_errors,
        max_lateness=config.max_lateness,
        max_queue=config.max_queue,
        batch_size=config.batch_size,
        sanitize=config.sanitize,
    )


_BACKENDS: dict[str, Callable[[RunnerConfig], Any]] = {
    "embedded": _engine_from,
    "threaded": _build_threaded,
    "process": _build_fleet,
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
    runner = _BACKENDS[config.backend](config)
    for name, query in _iter_program(program):
        runner.register_query(query, name=name)
    return runner
