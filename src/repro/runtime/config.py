"""The runner recipe: :class:`RunnerConfig`, its rules (:func:`resolve`)
and the engines it describes (:func:`build_engine`), below every
backend; :mod:`repro.runtime.runner` re-exports them."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.events.schema import SchemaRegistry
from repro.events.time import SequenceAssigner
from repro.runtime.engine import CEPREngine


@dataclass
class RunnerConfig:
    """Declarative construction recipe for
    :func:`~repro.runtime.runner.create_runner`.

    ``backend`` and ``shards`` may be left ``None``; :func:`resolve`
    settles them and enforces every backend×option rule (see there).
    The other fields are shared, with two backend-specific meanings:

    * ``max_queue``/``batch_size`` bound ``threaded``'s ingest queue
      and its ``push_batch`` batches; ``process`` has no ingest queue —
      it sends ``batch_size`` events per pipe frame and ignores
      ``max_queue`` — and ``embedded`` ignores both.
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


#: Every backend :func:`resolve` accepts.
_BACKENDS = ("embedded", "threaded", "process")
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

    Every backend×option rule lives here (``create_runner`` and a fleet
    built directly apply it; front ends call it to fail before doing any
    work):

    * ``shards``, when given, is at least 1.
    * Without ``backend``, one shard (or none given) is ``embedded`` and
      more is ``process``.
    * The single-engine backends (``embedded``/``threaded``) run one
      shard whatever ``shards`` says, so one config can sweep all three
      backends (:func:`reject_ignored_shards` is the strict variant for
      user input); ``process`` defaults to 4 shards.
    * Only ``threaded`` sheds load: it has the one ingest queue, while
      ``embedded`` and ``process`` have none (a fleet's backpressure is
      the pipe write), so both reject a ``shed_policy`` other than
      ``"off"``.
    * Tracing is per-engine: the ``process`` merge stage cannot stitch
      cross-shard traces, so it rejects ``tracing=True`` (and resolves
      ``None`` to ``False``).

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
    tracing = False if backend == "process" else config.tracing
    return replace(config, backend=backend, shards=shards, tracing=tracing)


def queue_backed(config: RunnerConfig) -> RunnerConfig:
    """:func:`resolve`, with the bare ``embedded`` engine upgraded to
    ``threaded``: for front ends that need something between their
    producers and the engine (the server, the live monitor) — an ingest
    queue, or a fleet's pipes, which pass through unchanged."""
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


def build_engine(
    config: RunnerConfig,
    sequencer: SequenceAssigner | None = None,
    admits: bool = True,
) -> CEPREngine:
    """The engine ``config`` describes — embedded, threaded (whose runner
    takes its ingress over), or without ``admits`` a fleet shard's, which
    its coordinator admits events for and whose ``sequencer`` may keep
    the coordinator's numbers."""
    engine = CEPREngine(
        registry=config.registry,
        strict_schema=config.strict_schema,
        enable_pruning=config.enable_pruning,
        strict_time=config.strict_time,
        lenient_errors=config.lenient_errors,
        max_lateness=config.max_lateness,
        sequencer=sequencer,
        tracing=config.tracing,
        sanitize=config.sanitize,
    )
    if not admits:
        engine.ingress = None
    return engine
