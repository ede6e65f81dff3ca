"""The telemetry spine: every exported series, and every view of them.

Counts stay where the hot path increments them — plain attributes on
``QueryMetrics``, ``MatcherStats``, ``StageProfile``,
``SharedExecutionIndex`` and ``EngineMetrics``, and on the runners, the
server, checkpoint stores, event logs and tracked locks around an
engine — and are *described once*, here: each :class:`Spec` names a
series, says how to read it off its source object, and says how N
shards' values combine (``agg``).  :func:`register` and
:func:`bind_table` turn the tables into callback-backed instruments of
a :class:`~repro.observability.registry.MetricsRegistry`, which is the
only form in which counters leave a component; a fleet's telemetry is
:meth:`~repro.observability.registry.MetricsRegistry.absorb` over its
shards' registries and nothing else.

Everything a caller reads — ``stats_by_query``, ``cost_accounts``,
``profiles_by_query``, ``shared_stats``, ``sanitizer_trips`` — is a pure
function *of a registry* (below), so an engine, a runner on any backend,
the monitor, the CLI and the serve STATS frame all compute it the same
way (:class:`TelemetryViews`), and the STATS document itself is one
function too (:func:`stats_document`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial
from typing import Any, Callable

from repro.observability.cost import CostAccount, rank_accounts
from repro.observability.profiling import StageProfile
from repro.observability.registry import Instrument, MetricsRegistry


@dataclass(frozen=True)
class Spec:
    """One exported series: its name, and how to read it off its source."""

    name: str
    help: str
    #: ``(source) -> number`` (a ``LatencyRecorder`` for histograms).  Reads
    #: go through the source on every collection — never through a captured
    #: sub-object — because restores replace ``matcher.stats`` wholesale.
    read: Callable[[Any], Any]
    kind: str = "counter"
    #: how shards' gauges combine; counters always sum, reservoirs pool.
    agg: str = "sum"
    #: source attribute that must be set for the series to exist.
    needs: str | None = None


def _stat(name: str) -> Callable[[Any], int]:
    """Reader of one ``MatcherStats`` field, through the query's pipeline."""
    return lambda query: getattr(query.pipeline.matcher.stats, name)


def _killed(query: Any) -> int:
    stats = query.pipeline.matcher.stats
    return (
        stats.runs_killed_strict
        + stats.runs_killed_negation
        + stats.runs_tripped
        + stats.runs_expired
    )


def _errors(query: Any) -> int:
    return (
        query.pipeline.matcher.stats.evaluation_errors
        + query.pipeline.ranker.scoring_errors
        + query.yield_errors
    )


#: engine-wide series; source is the ``CEPREngine``.
ENGINE: tuple[Spec, ...] = (
    Spec(
        "events_pushed_total",
        "Events ingested by the engine",
        lambda e: e.metrics.events_pushed,
    ),
    Spec(
        "derived_events_total",
        "YIELD-derived events fed back through the engine",
        lambda e: e.derived_events,
    ),
    # events_pushed_total / ingest_span_seconds.  Shard rates do not add
    # (a lightly loaded shard's span is short), so a fleet coordinator sets
    # this from the absorbed totals instead of keeping the absorbed sum.
    Spec(
        "throughput_eps",
        "Lifetime ingest rate (events/second)",
        lambda e: e.metrics.throughput,
        kind="gauge",
    ),
    Spec(
        "ingest_span_seconds",
        "Seconds between the first and the latest ingested event",
        lambda e: e.metrics.elapsed,
        kind="gauge",
        agg="max",
    ),
    Spec(
        "recent_throughput_eps",
        "Sliding-window ingest rate (events/second)",
        lambda e: e.metrics.recent_throughput,
        kind="gauge",
    ),
    # Structural gauge: every shard runs the same groups, so fleet = max.
    Spec(
        "shared_query_groups",
        "Query groups: pipelines the router runs, one per query text up to NAME and LIMIT",
        lambda e: len(e._router),
        kind="gauge",
        agg="max",
        needs="shared",
    ),
    Spec(
        "predicate_evals_saved_total",
        "Stage-0 gate consultations answered from the shared per-event memo",
        lambda e: e.shared.predicate_evals_saved,
        needs="shared",
    ),
    Spec(
        "predicate_evals_performed_total",
        "Stage-0 gate predicates evaluated on a shared memo miss",
        lambda e: e.shared.predicate_evals_performed,
        needs="shared",
    ),
    Spec(
        "events_gated_total",
        "Routed (query, event) pairs elided: skipped as inert, or not offered while dormant",
        lambda e: e.shared.events_gated,
        needs="shared",
    ),
    Spec(
        "sanitizer_trips_total",
        "Invariant violations detected by the sanitizer",
        lambda e: e.sanitizer.total_trips,
        needs="sanitizer",
    ),
    Spec(
        "trace_spans_total",
        "Spans recorded by the attached tracer",
        lambda e: e.tracer.recorded,
        needs="tracer",
    ),
    Spec(
        "trace_spans_dropped_total",
        "Spans evicted from the trace ring buffer",
        lambda e: e.tracer.dropped,
        needs="tracer",
    ),
)

#: every runner's admission stage; source is its ``Ingress``.
INGRESS: tuple[Spec, ...] = (
    Spec(
        "late_drops_total",
        "Events dropped for violating the lateness bound",
        lambda i: i.lateness.late_drops,
        needs="lateness",
    ),
)

#: one series per engine-scope sanitizer check, labelled ``check``; source
#: is ``(sanitizer, check)``.  The checks are enumerated (docs/SANITIZER.md)
#: so a shard's registry is complete without re-registration.
SANITIZER_CHECK = Spec(
    "sanitizer_check_trips_total",
    "Sanitizer trips by invariant check",
    lambda source: source[0].trips[source[1]],
)
SANITIZER_CHECKS = (
    "cross-thread-mutation",
    "dangling-binding",
    "matcher-activity-cache",
    "ranking-order",
    "run-monotonicity",
    "run-reader",
    "score-bound",
    "seq-monotonicity",
    "shared-index-coherence",
    "snapshot-roundtrip",
)

#: per-query series, labelled ``query``; source is the ``RegisteredQuery``:
#: its own emissions and revisions, the rest its group's pipeline's.
QUERY: tuple[Spec, ...] = (
    Spec(
        "query_events_routed_total",
        "Events routed to this query's operator chain",
        lambda q: q.pipeline.metrics.events_routed,
    ),
    Spec(
        "query_matches_total",
        "Matches completed (and confirmed)",
        lambda q: q.pipeline.metrics.matches,
    ),
    Spec(
        "query_emissions_total",
        "Emissions released to sinks",
        lambda q: q.emissions,
    ),
    Spec(
        "query_revisions_total",
        "Ranking revisions issued (the ranker's revision counter)",
        lambda q: q.revision,
    ),
    Spec("runs_created_total", "Runs started at stage 0", _stat("runs_created")),
    Spec(
        "runs_extended_total",
        "Run extensions (binds and Kleene takes)",
        _stat("runs_extended"),
    ),
    Spec(
        "runs_pruned_total",
        "Partial runs cut by score-bound pruning",
        _stat("runs_pruned"),
    ),
    Spec(
        "completions_skipped_total",
        "Completions skipped as strictly worse than their epoch's k-th score",
        _stat("completions_skipped"),
    ),
    Spec(
        "runs_dominated_total",
        "Trailing-Kleene runs dropped as beaten by k runs of their partition under every future",
        _stat("runs_dominated"),
    ),
    Spec(
        "runs_expired_total",
        "Runs dropped by window or epoch expiry",
        _stat("runs_expired"),
    ),
    Spec(
        "runs_killed_total",
        "Runs ended by strict contiguity, negation, trip or expiry",
        _killed,
    ),
    Spec(
        "partition_skips_total",
        "Relevant events carrying no partition key",
        _stat("events_skipped_no_key"),
    ),
    Spec(
        "evaluation_errors_total",
        "Predicate evaluations failed under the lenient policy",
        _errors,
    ),
    Spec(
        "shared_hits_total",
        "Stage-0 gate consultations answered from the shared per-event memo",
        _stat("shared_hits"),
    ),
    Spec(
        "shared_misses_total",
        "Stage-0 gate consultations that evaluated the gate",
        _stat("shared_misses"),
    ),
    Spec(
        "query_cpu_seconds_total",
        "CPU seconds spent inside this query's operator chain",
        lambda q: q.pipeline.profile.total_seconds,
    ),
    # The matcher's O(1) activity caches, not a recount over its partition
    # table: exports read these from other threads than the engine's owner.
    Spec(
        "live_runs",
        "Partial runs currently alive",
        lambda q: q.pipeline.matcher._live_runs_cached,
        kind="gauge",
    ),
    Spec(
        "pending_matches",
        "Complete matches waiting out a trailing negation",
        lambda q: q.pipeline.matcher._pendings_cached,
        kind="gauge",
    ),
    Spec(
        "peak_live_runs",
        "High-water mark of live partial runs",
        _stat("peak_live_runs"),
        kind="gauge",
        agg="max",
    ),
    Spec(
        "ranker_held_matches",
        "Matches the ranker holds: open epochs' top-k buffers, or the sliding k-skyband",
        lambda q: q.pipeline.ranker.held_matches(),
        kind="gauge",
    ),
    Spec(
        "latency_seconds",
        "Per-event pipeline latency",
        lambda q: q.pipeline.metrics.latency,
        kind="histogram",
    ),
)

#: per-stage series, labelled ``query`` + ``stage``; source is a ``StageTimer``.
STAGE: tuple[Spec, ...] = (
    Spec(
        "stage_seconds_total",
        "Wall time per pipeline stage, estimated from its timed events",
        lambda t: t.total,
    ),
    Spec(
        "stage_events_total",
        "Events through each pipeline stage, timed or not",
        lambda t: t.count,
    ),
    Spec(
        "stage_max_seconds",
        "Slowest timed event per pipeline stage",
        lambda t: t.maximum,
        kind="gauge",
        agg="max",
    ),
)

#: per-sink series, labelled ``query`` + ``sink`` + ``slot``.
SINK = Spec(
    "sink_emissions_total",
    "Emissions delivered to each sink",
    lambda s: s.emissions_accepted,
)

#: fleet-only per-query gauges a sharded coordinator sets (not engine
#: counts); source is the ``ShardedQuery``.
QUERY_SHARDS = Spec(
    "query_shards",
    "Shard engines running this query",
    lambda view: view.shards,
    kind="gauge",
)
QUERY_SOLO_FALLBACK = Spec(
    "query_solo_fallback",
    "1 when a sharding request fell back to one engine",
    lambda view: float(view.solo_fallback),
    kind="gauge",
)

#: every runner's front door; source is the runner.
RUNNER_SUBMITTED = Spec(
    "runner_events_submitted_total",
    "Events accepted at the runner's front door",
    lambda r: r.events_submitted,
)

#: the threaded runner's ingest queue and pressure; source is the runner.
QUEUE: tuple[Spec, ...] = (
    Spec(
        "runner_backlog",
        "Events queued, not yet drained into the engine",
        lambda r: r.backlog,
        kind="gauge",
    ),
    Spec(
        "runner_queue_capacity",
        "Bound of the ingest queue",
        lambda r: r.queue_capacity,
        kind="gauge",
    ),
    Spec(
        "runner_queue_high_water",
        "Deepest the ingest queue has been",
        lambda r: r.queue_high_water,
        kind="gauge",
        agg="max",
    ),
    Spec(
        "runner_ingest_lag_seconds",
        "Event-time skew between submit and processing watermarks",
        lambda r: r.ingest_lag_seconds,
        kind="gauge",
        agg="max",
    ),
    Spec(
        "pressure",
        "Composite backpressure score in [0, 1] (smoothed)",
        lambda r: r.pressure().level,
        kind="gauge",
        agg="max",
    ),
)

#: the load-shedding controller, when its policy is not "off"; source is
#: the runner.
SHED: tuple[Spec, ...] = (
    Spec(
        "shed_events_total",
        "Events dropped/elided by the load-shedding controller",
        lambda r: r.shed_stats().shed_events_total,
    ),
    Spec(
        "shed_safe_total",
        "Sheds provably unable to change output (inert or certified)",
        lambda r: r.shed_stats().shed_safe_total,
    ),
    Spec(
        "shed_drop_rate",
        "Current adaptive drop probability (0..1)",
        lambda r: r.shed_controller.drop_rate,
        kind="gauge",
        agg="max",
    ),
    Spec(
        "shed_recall_estimate",
        "Measured lower-bound recall of the shedded stream",
        lambda r: r.shed_stats().recall_estimate,
        kind="gauge",
    ),
    Spec(
        "shed_engaged",
        "1 while the shedding controller is engaged",
        lambda r: r.shed_controller.engaged,
        kind="gauge",
        agg="max",
    ),
)

#: the threaded runner's consumer; source is the runner.
RUNNER_PROCESSED = Spec(
    "runner_events_processed_total",
    "Events drained from the queue into the engine",
    lambda r: r.events_processed,
)

#: a fleet coordinator's own series; source is the ``ShardedEngineRunner``.
FLEET: tuple[Spec, ...] = (
    Spec(
        "runner_shards",
        "Shards in the fleet, each an engine in its own worker process",
        lambda f: len(f._workers),
        kind="gauge",
    ),
    Spec(
        "runner_recent_throughput_eps",
        "Sliding-window dispatch rate (events/second)",
        lambda f: f.metrics.recent_throughput,
        kind="gauge",
    ),
)

#: labelled ``shard``; source is the fleet's per-shard worker.
SHARD = Spec(
    "shard_events_processed_total",
    "Events each shard's engine took in, as of its last report",
    lambda worker: worker.events_processed,
)

#: the serving layer; source is the ``CEPRServer``.
SERVE: tuple[Spec, ...] = (
    Spec(
        "serve_connections_total",
        "Client connections accepted since start",
        lambda s: s.stats.connections_total,
    ),
    Spec(
        "serve_connections_active",
        "Client connections currently open",
        lambda s: s.stats.connections_active,
        kind="gauge",
    ),
    Spec(
        "serve_frames_received_total",
        "Well-formed request frames received",
        lambda s: s.stats.frames_received,
    ),
    Spec(
        "serve_frames_sent_total",
        "Frames written to clients (acks, errors, emissions)",
        lambda s: s.stats.frames_sent,
    ),
    Spec(
        "serve_events_ingested_total",
        "Events accepted over the wire into the runtime",
        lambda s: s.stats.events_ingested,
    ),
    Spec(
        "serve_emissions_fanned_out_total",
        "Emission frames enqueued to subscribers",
        lambda s: s.stats.emissions_fanned_out,
    ),
    Spec(
        "serve_emissions_dropped_total",
        "Emission frames dropped by the slow-consumer 'drop' policy",
        lambda s: s.stats.emissions_dropped,
    ),
    Spec(
        "serve_slow_consumer_disconnects_total",
        "Connections closed by the slow-consumer 'disconnect' policy",
        lambda s: s.stats.slow_consumer_disconnects,
    ),
    Spec(
        "serve_protocol_errors_total",
        "Frames rejected with a typed CEPR5xx error",
        lambda s: s.stats.protocol_errors,
    ),
    Spec(
        "serve_checkpoints_saved_total",
        "Checkpoints persisted (periodic and drain-time)",
        lambda s: s.stats.checkpoints_saved,
    ),
    Spec(
        "serve_subscriptions_active",
        "Live (connection, query) subscription pairs",
        lambda s: sum(feed.subscriber_count for feed in s._feeds.values()),
        kind="gauge",
    ),
    Spec(
        "serve_draining",
        "1 while the server is draining, else 0",
        lambda s: s._draining,
        kind="gauge",
    ),
    Spec(
        "serve_subscriber_queue_depth",
        "Deepest per-connection outbound queue right now",
        lambda s: s._max_outbox_depth(),
        kind="gauge",
        agg="max",
    ),
    Spec(
        "serve_subscriber_queue_high_water",
        "Deepest any subscriber outbound queue has ever been",
        lambda s: s.stats.subscriber_queue_high_water,
        kind="gauge",
        agg="max",
    ),
    Spec(
        "serve_ingest_seconds",
        "Wall time of each blocking submit batch",
        lambda s: s._ingest_latency,
        kind="histogram",
    ),
    Spec(
        "serve_sanitizer_trips_total",
        "Serving-layer sanitizer trips (loop-stall watchdog)",
        lambda s: s.sanitizer.total_trips,
        needs="sanitizer",
    ),
)

#: labelled ``store`` (the directory name); source is a ``CheckpointStore``.
CHECKPOINT: tuple[Spec, ...] = (
    Spec("checkpoint_saves_total", "Checkpoints written", lambda c: c.saves),
    Spec(
        "checkpoint_loads_total",
        "Checkpoints loaded for recovery",
        lambda c: c.loads,
    ),
    Spec(
        "checkpoint_invalid_skipped_total",
        "Corrupt/unreadable checkpoint files skipped by recovery",
        lambda c: c.invalid_skipped,
    ),
    Spec(
        "checkpoint_pruned_total",
        "Old checkpoints removed by retention",
        lambda c: c.pruned,
    ),
    Spec(
        "checkpoint_last_save_bytes",
        "Size of the most recently written checkpoint",
        lambda c: c.last_save_bytes,
        kind="gauge",
        agg="max",
    ),
    Spec(
        "checkpoint_save_seconds",
        "Latency of checkpoint saves",
        lambda c: c.save_latency,
        kind="histogram",
    ),
)

#: labelled ``log`` (the file name); source is an ``EventLog``.
STORE: tuple[Spec, ...] = (
    Spec(
        "store_events_appended_total",
        "Events appended to the log this session",
        lambda log: log.events_appended,
    ),
    Spec(
        "store_events_read_total",
        "Event records decoded by scans",
        lambda log: log.events_read,
    ),
    Spec("store_scans_total", "Time-range scans started", lambda log: log.scans),
    Spec(
        "store_index_seeks_total",
        "Scans that skipped ahead via the sparse time index",
        lambda log: log.index_seeks,
    ),
    Spec(
        "store_recovered_tail_bytes_total",
        "Torn-tail bytes dropped when the log was opened",
        lambda log: log.recovered_tail_bytes,
    ),
    Spec(
        "store_events",
        "Events in the log (including prior sessions)",
        lambda log: log.count,
        kind="gauge",
        agg="max",
    ),
    Spec(
        "store_size_bytes",
        "On-disk size of the log",
        lambda log: log.sync_size(),
        kind="gauge",
        agg="max",
    ),
)

#: labelled ``lock`` (plus the caller's labels); source is a ``TrackedLock``.
LOCK: tuple[Spec, ...] = (
    Spec(
        "lock_acquisitions_total",
        "Tracked-lock acquisitions",
        lambda lock: lock.acquisitions,
    ),
    Spec(
        "lock_contended_total",
        "Tracked-lock acquisitions that had to wait",
        lambda lock: lock.contended,
    ),
    Spec(
        "lock_wait_seconds",
        "Wait time per tracked-lock acquisition (zero when uncontended)",
        lambda lock: lock.wait_times,
        kind="histogram",
    ),
)

#: every table, with the labels its series carry.
CATALOGUE: tuple[tuple[str, tuple[Spec, ...]], ...] = (
    ("", ENGINE),
    ("", INGRESS),
    ("check", (SANITIZER_CHECK,)),
    ("query", QUERY),
    ("query, stage", STAGE),
    ("query, sink, slot", (SINK,)),
    ("query (fleets only)", (QUERY_SHARDS, QUERY_SOLO_FALLBACK)),
    ("", (RUNNER_SUBMITTED, *QUEUE, *SHED, RUNNER_PROCESSED, *FLEET)),
    ("shard", (SHARD,)),
    ("", SERVE),
    ("store", CHECKPOINT),
    ("log", STORE),
    ("lock", LOCK),
)

#: help text by series name: what a registry decoded off the wire is given.
HELP = {spec.name: spec.help for _, specs in CATALOGUE for spec in specs}


def catalogue_markdown() -> str:
    """The metric catalogue table of docs/OBSERVABILITY.md (test-checked)."""
    lines = [
        "| series | kind | labels | fleet merge | meaning |",
        "|---|---|---|---|---|",
    ]
    for labels, specs in CATALOGUE:
        for spec in specs:
            merge = {"counter": "sum", "histogram": "pool"}.get(spec.kind, spec.agg)
            lines.append(
                f"| `{spec.name}` | {spec.kind} | {labels} | {merge} | {spec.help} |"
            )
    return "\n".join(lines)


# -- registration -------------------------------------------------------------------


def bind(registry: MetricsRegistry, spec: Spec, source: Any, **labels: str) -> None:
    """Get-or-create ``spec``'s instrument over ``source`` (idempotent)."""
    if registry.get(spec.name, **labels) is not None:
        return  # re-registration passes run per export: keep them cheap
    if spec.kind == "histogram":
        registry.histogram(spec.name, spec.help, recorder=spec.read(source), **labels)
    elif spec.kind == "gauge":
        registry.gauge(
            spec.name, spec.help, fn=partial(spec.read, source), agg=spec.agg, **labels
        )
    else:
        registry.counter(spec.name, spec.help, fn=partial(spec.read, source), **labels)


def bind_table(
    registry: MetricsRegistry, specs: tuple[Spec, ...], source: Any, **labels: str
) -> None:
    """:func:`bind` every row of ``specs`` whose ``needs`` ``source`` has."""
    for spec in specs:
        if spec.needs is None or getattr(source, spec.needs) is not None:
            bind(registry, spec, source, **labels)


def register_query(registry: MetricsRegistry, query: Any) -> None:
    """(Re-)register one ``RegisteredQuery``'s series under its name."""
    name = query.name
    for spec in QUERY:
        bind(registry, spec, query, query=name)
    for stage, timer in query.pipeline.profile.timers():
        for spec in STAGE:
            bind(registry, spec, timer, query=name, stage=stage)
    for slot, sink in enumerate(query.sinks):
        if hasattr(sink, "emissions_accepted"):
            bind(
                registry,
                SINK,
                sink,
                query=name,
                sink=type(sink).__name__,
                slot=str(slot),
            )


def register(registry: MetricsRegistry, engine: Any) -> None:
    """(Re-)register everything ``engine`` counts; idempotent.

    Picks up queries and sinks added since the last pass and drops the
    series of a detached component (a tracer switched off).
    """
    for spec in ENGINE:
        if spec.needs is None or getattr(engine, spec.needs) is not None:
            bind(registry, spec, engine)
        elif registry.get(spec.name) is not None:
            registry.prune(name=spec.name)
    if engine.ingress is not None:
        bind_table(registry, INGRESS, engine.ingress)
    if engine.sanitizer is not None:
        for check in SANITIZER_CHECKS:
            bind(registry, SANITIZER_CHECK, (engine.sanitizer, check), check=check)
    # Sinks churn (subscriptions attach and cancel), so their slot labels
    # are rebuilt from scratch on every registration pass.
    registry.prune(name=SINK.name)
    for query in engine.queries():
        register_query(registry, query)


# -- views: pure functions of a registry --------------------------------------------
#
# One naming convention ties views to series: a view's key for a series is
# the series name without its scope prefix (``query_``; ``shared_`` for the
# engine-wide sharing gauges) and without the ``_total`` suffix.  So the
# ``runs_pruned`` stats column and ``CostAccount.runs_pruned`` are
# ``runs_pruned_total``, ``CostAccount.cpu_seconds`` is
# ``query_cpu_seconds_total``, and no view keeps a second spelling table.


def _key(name: str) -> str:
    return name.removeprefix("query_").removesuffix("_total")


def _by_query(registry: MetricsRegistry) -> dict[str, dict[Any, Instrument]]:
    """Query-labelled instruments by query (first-registration order), under
    their view key — ``(key, stage)`` for the per-stage series."""
    grouped: dict[str, dict[Any, Instrument]] = {}
    for instrument in registry:
        labels = instrument.labels
        if "query" in labels:
            key: Any = _key(instrument.name)
            if "stage" in labels:
                key = (key, labels["stage"])
            grouped.setdefault(labels["query"], {})[key] = instrument
    return {
        query: series
        for query, series in grouped.items()
        if "events_routed" in series  # an engine has reported on it
    }


#: ``stats_by_query`` count columns, in row order.  Rows carry the series
#: that exist, so the last two appear exactly on fleets.
_STATS_COLUMNS = (
    "events_routed",
    "matches",
    "emissions",
    "revisions",
    "runs_created",
    "runs_pruned",
    "completions_skipped",
    "runs_dominated",
    "peak_live_runs",
    "live_runs",
    # Events that matched the query's types but carried no partition key:
    # silently losing them would mask upstream data problems.
    "partition_skips",
    "shards",
    "solo_fallback",
)


def stats_by_query(registry: MetricsRegistry) -> dict[str, dict[str, float]]:
    """Per-query counter rows, for the monitor, the CLI and benchmarks."""
    rows: dict[str, dict[str, float]] = {}
    for query, series in _by_query(registry).items():
        row: dict[str, float] = {
            key: int(series[key].value) for key in _STATS_COLUMNS if key in series
        }
        latency = series["latency_seconds"]
        mean = latency.sum / latency.count if latency.count else 0.0
        row["latency_mean_us"] = mean * 1e6
        row["latency_p50_us"] = latency.quantile(0.5) * 1e6
        row["latency_p99_us"] = latency.quantile(0.99) * 1e6
        rows[query] = row
    return rows


def cost_accounts(registry: MetricsRegistry) -> dict[str, CostAccount]:
    """Per-query :class:`CostAccount` records, keyed by query name."""
    accounts: dict[str, CostAccount] = {}
    for query, series in _by_query(registry).items():
        account = accounts[query] = CostAccount(query=query)
        if "shards" in series:
            account.parts = int(series["shards"].value)
        for field in fields(account):
            if field.name in series:
                value = series[field.name].value
                if field.name != "cpu_seconds":
                    value = int(value)
                setattr(account, field.name, value)
    return accounts


def profiles_by_query(registry: MetricsRegistry) -> dict[str, StageProfile]:
    """Per-query match/rank/emit :class:`StageProfile`, keyed by query name."""
    profiles: dict[str, StageProfile] = {}
    for query, series in _by_query(registry).items():
        profile = profiles[query] = StageProfile()
        for stage, timer in profile.timers():
            timer.count = int(series["stage_events", stage].value)
            timer.total = series["stage_seconds", stage].value
            timer.maximum = series["stage_max_seconds", stage].value
    return profiles


def shared_stats(registry: MetricsRegistry) -> dict[str, int]:
    """Sharing counters (empty when shared execution is off)."""
    return {
        _key(spec.name).removeprefix("shared_"): int(instrument.value)
        for spec in ENGINE
        if spec.needs == "shared"
        and (instrument := registry.get(spec.name)) is not None
    }


def sanitizer_trips(registry: MetricsRegistry) -> dict[str, int] | None:
    """Sanitizer trip counts by check (``None`` when the sanitizer is off)."""
    if registry.get("sanitizer_trips_total") is None:
        return None
    return {
        instrument.labels["check"]: int(instrument.value)
        for instrument in registry
        if instrument.name == SANITIZER_CHECK.name and instrument.value
    }


def stats_document(
    source: Any, registry: MetricsRegistry | None = None
) -> dict[str, Any]:
    """The STATS document of an engine or runner: ``registry`` (default:
    the source's own) exported as ``metrics`` and ``prom``, its cost
    accounts most-expensive-first, and — for the threaded runner; a bare
    engine and a fleet have no ingest queue — the ``pressure`` assessment
    and the ``shedding`` snapshot.  ``cepr serve`` answers STATS with it (its
    registry carries the serving layer's series too); ``cepr stats`` and
    ``top`` render it, replayed or remote."""
    if registry is None:
        registry = source.metrics_registry()
    pressure = shedding = None
    if hasattr(source, "pressure"):
        assessor = source.pressure()
        pressure = {
            **assessor.to_dict(),
            # Normalise the sample's lag component against the assessor's
            # actual budget, not the module default.
            "sample": source.pressure_sample().to_dict(assessor.lag_budget),
        }
        shedding = source.shed_stats_dict()
    accounts = rank_accounts(cost_accounts(registry).values())
    return {
        "metrics": registry.to_json(),
        "prom": registry.to_prometheus(),
        "cost_accounts": [account.to_dict() for account in accounts],
        "pressure": pressure,
        "shedding": shedding,
    }


class TelemetryViews:
    """The five views, for anything with a ``metrics_registry()``.

    Inherited by the engine and every runner, so each backend's method of
    a given name is the same call on the same function.
    """

    def metrics_registry(self) -> MetricsRegistry:
        raise NotImplementedError

    def stats_by_query(self) -> dict[str, dict[str, float]]:
        """Per-query counter rows (see :func:`stats_by_query`)."""
        return stats_by_query(self.metrics_registry())

    def cost_accounts(self) -> dict[str, CostAccount]:
        """Per-query cost accounts, rebuilt from the registry on every call
        (so an unregistered query can never linger here)."""
        return cost_accounts(self.metrics_registry())

    def profiles_by_query(self) -> dict[str, StageProfile]:
        """Per-query stage profiles (value snapshots)."""
        return profiles_by_query(self.metrics_registry())

    def shared_stats(self) -> dict[str, int]:
        """Sharing counters; empty with ``shared_execution=False``."""
        return shared_stats(self.metrics_registry())

    def sanitizer_trips(self) -> dict[str, int] | None:
        """Sanitizer trips by check (``None`` when disabled)."""
        return sanitizer_trips(self.metrics_registry())
