"""Shared builders for the benchmark suite (E1–E10).

Each experiment benchmarks a *configuration function* built here, so the
pytest-benchmark targets and the table-printing harness
(``python benchmarks/harness.py``) measure exactly the same code paths.
All workloads are seeded: a given configuration always processes the same
event stream.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

from repro import CEPREngine
from repro.baselines.match_then_rank import MatchThenRankQuery
from repro.baselines.unranked import UnrankedQuery
from repro.events.event import Event
from repro.events.schema import SchemaRegistry
from repro.workloads.generic import GenericWorkload
from repro.workloads.sensor import VitalsWorkload
from repro.workloads.stock import StockWorkload
from repro.workloads.traffic import TrafficWorkload


def fresh_events(events: list[Event]) -> list[Event]:
    """Deep-copy a stream so repeated runs never share seq numbers."""
    return [Event(e.event_type, e.timestamp, **e.payload) for e in events]


@dataclass
class RunResult:
    """What one measured engine run produced."""

    seconds: float
    events: int
    matches: int = 0
    emissions: int = 0
    runs_created: int = 0
    runs_pruned: int = 0
    peak_live_runs: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def events_per_second(self) -> float:
        return self.events / self.seconds if self.seconds > 0 else 0.0


# ---------------------------------------------------------------------------
# stream builders (cached per parameter set by the callers)
# ---------------------------------------------------------------------------


def stock_stream(count: int, seed: int = 2016) -> tuple[list[Event], SchemaRegistry]:
    workload = StockWorkload(seed=seed)
    return list(workload.events(count)), workload.registry()


def generic_stream(
    count: int, alphabet: int = 4, seed: int = 7
) -> tuple[list[Event], SchemaRegistry]:
    workload = GenericWorkload(seed=seed, alphabet_size=alphabet)
    return list(workload.events(count)), workload.registry()


def vitals_stream(count: int, seed: int = 5) -> tuple[list[Event], SchemaRegistry]:
    workload = VitalsWorkload(seed=seed, anomaly_rate=0.02)
    return list(workload.events(count)), workload.registry()


def traffic_stream(count: int, seed: int = 3) -> tuple[list[Event], SchemaRegistry]:
    workload = TrafficWorkload(seed=seed, incident_rate=0.006, incident_length=150)
    return list(workload.events(count)), workload.registry()


# ---------------------------------------------------------------------------
# measured runners
# ---------------------------------------------------------------------------


def run_cepr_raw(
    query: str,
    events: list[Event],
    registry: SchemaRegistry | None = None,
    enable_pruning: bool = True,
) -> RunResult:
    """Run the integrated matcher→scorer→ranker chain without the engine
    facade (no per-event metrics), mirroring the baselines' raw loops so
    algorithm comparisons (E1/E2) are apples-to-apples."""
    from repro.events.time import SequenceAssigner
    from repro.language.parser import parse_query
    from repro.language.semantics import analyze
    from repro.runtime.query import RegisteredQuery

    stream = fresh_events(events)
    analyzed = analyze(parse_query(query), registry)
    registered = RegisteredQuery(
        "bench",
        analyzed,
        registry=registry,
        enable_pruning=enable_pruning,
        collect_results=False,
    )
    matcher, ranker = registered.matcher, registered.ranker
    assigner = SequenceAssigner()
    emissions = 0
    started = time.perf_counter()
    for event in stream:
        assigner.assign(event)
        matches = matcher.process(event)
        emissions += len(ranker.observe(event, matches))
    last = stream[-1] if stream else None
    final = matcher.flush()
    if last is not None:
        emissions += len(ranker.observe_final(final, last.seq, last.timestamp))
    elapsed = time.perf_counter() - started
    stats = matcher.stats
    return RunResult(
        seconds=elapsed,
        events=len(stream),
        matches=stats.matches_completed,
        emissions=emissions,
        runs_created=stats.runs_created,
        runs_pruned=stats.runs_pruned,
        peak_live_runs=stats.peak_live_runs,
        extra={
            "completions_skipped": stats.completions_skipped,
            "runs_dominated": stats.runs_dominated,
        },
    )


def run_cepr(
    query: str,
    events: list[Event],
    registry: SchemaRegistry | None = None,
    enable_pruning: bool = True,
) -> RunResult:
    """Run one CEPR query over a copy of ``events`` and collect stats."""
    stream = fresh_events(events)
    engine = CEPREngine(registry=registry, enable_pruning=enable_pruning)
    handle = engine.register_query(query, collect_results=False)
    started = time.perf_counter()
    engine.run(stream)
    elapsed = time.perf_counter() - started
    stats = handle.matcher.stats
    return RunResult(
        seconds=elapsed,
        events=len(stream),
        matches=handle.pipeline.metrics.matches,
        emissions=handle.emissions,
        runs_created=stats.runs_created,
        runs_pruned=stats.runs_pruned,
        peak_live_runs=stats.peak_live_runs,
    )


def run_observability(
    query: str,
    events: list[Event],
    registry: SchemaRegistry | None = None,
    tracing: bool = False,
) -> RunResult:
    """Run the full engine facade, optionally with span tracing on.

    The default configuration times every event per stage;
    ``tracing=True`` additionally records a span per pipeline step.
    """
    stream = fresh_events(events)
    engine = CEPREngine(registry=registry, tracing=tracing)
    handle = engine.register_query(query, collect_results=False)
    started = time.perf_counter()
    engine.run(stream)
    elapsed = time.perf_counter() - started
    return RunResult(
        seconds=elapsed,
        events=len(stream),
        matches=handle.pipeline.metrics.matches,
        emissions=handle.emissions,
    )


def run_checkpointed(
    query: str,
    events: list[Event],
    registry: SchemaRegistry | None = None,
    checkpoint_every: int | None = None,
    checkpoint_dir=None,
) -> RunResult:
    """Run one query with (or without) periodic durable checkpoints.

    The event loop is identical in both configurations — one ``push`` per
    event plus a modulo test — so the measured difference is exactly what
    checkpointing costs: the engine snapshot, JSON encoding, and the
    fsync'd atomic write.
    """
    from repro.store.checkpoint import CheckpointStore, Position

    stream = fresh_events(events)
    engine = CEPREngine(registry=registry)
    handle = engine.register_query(query, collect_results=False)
    store = (
        CheckpointStore(checkpoint_dir)
        if checkpoint_every is not None
        else None
    )
    started = time.perf_counter()
    consumed = 0
    for event in stream:
        engine.push(event)
        consumed += 1
        if store is not None and consumed % checkpoint_every == 0:
            store.save(
                engine.snapshot(),
                Position(
                    events_consumed=consumed,
                    last_seq=consumed,
                    last_ts=event.timestamp,
                ),
            )
    engine.flush()
    elapsed = time.perf_counter() - started
    return RunResult(
        seconds=elapsed,
        events=len(stream),
        matches=handle.pipeline.metrics.matches,
        emissions=handle.emissions,
        extra={"checkpoints": store.saves if store is not None else 0},
    )


def run_match_then_rank(
    query: str, events: list[Event], registry: SchemaRegistry | None = None
) -> RunResult:
    stream = fresh_events(events)
    baseline = MatchThenRankQuery(query, registry)
    started = time.perf_counter()
    baseline.run(stream)
    elapsed = time.perf_counter() - started
    stats = baseline.matcher.stats
    return RunResult(
        seconds=elapsed,
        events=len(stream),
        matches=stats.matches_completed,
        emissions=len(baseline.emissions),
        runs_created=stats.runs_created,
        peak_live_runs=stats.peak_live_runs,
        extra={"matches_buffered": baseline.matches_buffered},
    )


def run_unranked(
    query: str, events: list[Event], registry: SchemaRegistry | None = None
) -> RunResult:
    stream = fresh_events(events)
    baseline = UnrankedQuery(query, registry)
    started = time.perf_counter()
    baseline.run(stream)
    elapsed = time.perf_counter() - started
    stats = baseline.matcher.stats
    return RunResult(
        seconds=elapsed,
        events=len(stream),
        matches=stats.matches_completed,
        runs_created=stats.runs_created,
        peak_live_runs=stats.peak_live_runs,
    )


def run_cepr_sharded(
    query: str,
    events: list[Event],
    shards: int,
    registry: SchemaRegistry | None = None,
    enable_pruning: bool = True,
    batch_size: int = 256,
    in_process: bool = False,
) -> RunResult:
    """Run one query through a fleet and collect fleet stats.

    Timing covers submit-through-flush (the merge barrier included), so
    the recorded throughput is end-to-end, not just enqueue speed.  The
    fleet is worker processes (``backend="process"``); ``in_process``
    runs the same coordinator over the in-process ``LocalShard`` double
    instead, whose engines run one after another on the submitting
    thread (E17's comparator).
    """
    from repro.runtime.runner import create_runner
    from repro.runtime.shard import LocalShard

    stream = fresh_events(events)
    runner = create_runner(
        backend="process",
        shards=shards,
        registry=registry,
        enable_pruning=enable_pruning,
        batch_size=batch_size,
    )
    if in_process:
        runner.shard_type = LocalShard
    view = runner.register_query(query)
    runner.start()
    started = time.perf_counter()
    try:
        runner.submit_all(stream)
        runner.flush()
    finally:
        runner.stop()
    elapsed = time.perf_counter() - started
    stats = runner.stats_by_query()[view.name]
    return RunResult(
        seconds=elapsed,
        events=len(stream),
        matches=stats["matches"],
        emissions=stats["emissions"],
        runs_created=stats["runs_created"],
        runs_pruned=stats["runs_pruned"],
        peak_live_runs=stats["peak_live_runs"],
        extra={
            "shards": shards,
            "final_ranking": [
                (m.last_seq, m.rank_values) for m in view.final_ranking()
            ],
        },
    )


def run_multi_query(
    queries: Iterable[str],
    events: list[Event],
    registry=None,
    broadcast: bool = False,
    shared: bool = True,
) -> RunResult:
    """Run N concurrent queries over one stream.

    ``broadcast=True`` disables type-based routing *and* cross-query
    sharing: every event is offered to every query (each still rejects
    irrelevant types itself).  This is the dispatch strategy a router-less
    engine would use, and the baseline the E8 experiment compares routing
    against.  ``shared=False`` keeps the router but turns shared
    execution off (predicate index, gate memo, dormancy, query groups) —
    the independent baseline of the shared-execution scaling curve.

    ``extra`` carries the engine's sharing counters, the per-event cost
    in microseconds, and the (query, event) pairs the engine processed —
    routed minus the ones the sharing layer elided, a member of a query
    group counting the pairs its group's pipeline processed — so the
    harness can print evaluations saved and work done alongside
    throughput.
    """
    stream = fresh_events(events)
    engine = CEPREngine(
        registry=registry, shared_execution=shared and not broadcast
    )
    handles = [engine.register_query(q, collect_results=False) for q in queries]
    if broadcast:
        pipelines = engine.pipelines()
        engine._router.route = lambda _event: pipelines  # type: ignore[method-assign]
    started = time.perf_counter()
    engine.run(stream)
    elapsed = time.perf_counter() - started
    counters = engine.shared_stats()
    return RunResult(
        seconds=elapsed,
        events=len(stream),
        matches=sum(h.pipeline.metrics.matches for h in handles),
        emissions=sum(h.emissions for h in handles),
        runs_created=sum(h.matcher.stats.runs_created for h in handles),
        extra={
            "per_event_us": (elapsed / len(stream) * 1e6) if stream else 0.0,
            # One match-stage sample per processed pair; the members of a
            # query group share their pipeline's profile.
            "pairs_processed": sum(h.pipeline.profile.match.count for h in handles),
            **counters,
        },
    )


# ---------------------------------------------------------------------------
# canonical queries
# ---------------------------------------------------------------------------


def stock_rank_query(window: int = 100, k: int | None = 5) -> str:
    limit = f"LIMIT {k}" if k is not None else ""
    return f"""
        PATTERN SEQ(Buy b, Sell s)
        WHERE b.symbol == s.symbol AND s.price > b.price
        WITHIN {window} EVENTS
        USING SKIP_TILL_ANY
        PARTITION BY symbol
        RANK BY s.price - b.price DESC
        {limit}
        EMIT ON WINDOW CLOSE
    """


def generic_rank_query(
    window: int = 50,
    k: int | None = 5,
    strategy: str = "SKIP_TILL_ANY",
    length: int = 2,
) -> str:
    """SEQ over the first ``length`` letters, ranked by last-minus-first."""
    letters = [chr(ord("A") + i) for i in range(length)]
    variables = [letter.lower() for letter in letters]
    pattern = ", ".join(f"{t} {v}" for t, v in zip(letters, variables))
    limit = f"LIMIT {k}" if k is not None else ""
    return f"""
        PATTERN SEQ({pattern})
        WITHIN {window} EVENTS
        USING {strategy}
        RANK BY {variables[-1]}.value - {variables[0]}.value DESC
        {limit}
        EMIT ON WINDOW CLOSE
    """


def kleene_skyband_query(window: int = 50, k: int = 5) -> str:
    """E6's ranked query under ``SKIP_TILL_ANY`` and without ``prev()``,
    thresholded low enough that a patient's spike runs overlap: every
    subset of the spikes is a run unless run dominance drops it."""
    return f"""
        PATTERN SEQ(HeartRate onset, HeartRate spikes+)
        WHERE onset.value > 75 AND spikes.value > 75
        WITHIN {window} EVENTS
        USING SKIP_TILL_ANY
        PARTITION BY patient
        RANK BY max(spikes.value) DESC, count(spikes) DESC
        LIMIT {k}
        EMIT ON WINDOW CLOSE
    """


def kleene_rank_query(window: int = 50, k: int | None = 5) -> str:
    return f"""
        PATTERN SEQ(HeartRate onset, HeartRate spikes+)
        WHERE onset.value > 100 AND spikes.value > 100
              AND spikes.value >= prev(spikes.value)
        WITHIN {window} EVENTS
        PARTITION BY patient
        RANK BY max(spikes.value) DESC, count(spikes) DESC
        {f"LIMIT {k}" if k else ""}
        EMIT ON WINDOW CLOSE
    """
