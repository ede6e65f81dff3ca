"""Shard reports: the one thing a shard tells its coordinator.

A :class:`ShardReport` is produced by ``Shard.report()`` at a barrier and
is the coordinator's whole view of that shard until the next one: the
emissions each query released since the previous report (a **delta**,
handed over once), the epochs its rankers still hold open (the merge
stage's release condition), and the counters every fleet aggregate is
built from.  A local shard fills it with references to the live objects;
a pipe shard decodes it from a barrier reply frame.  Either way the
coordinator-side state is at least as fresh as the last barrier.

This module is also the report's wire format (:func:`encode_report` /
:func:`decode_report`) and the format a shard ships its metrics-registry
instruments in — the only two documents that cross a shard boundary
besides events and engine snapshots.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Mapping

from repro.engine.matcher import MatcherStats
from repro.engine.snapshot import decode_emission, encode_emission
from repro.observability.profiling import StageProfile
from repro.observability.registry import MetricsRegistry
from repro.ranking.emission import Emission
from repro.ranking.score import Scorer
from repro.runtime.metrics import EngineMetrics, LatencyRecorder, QueryMetrics


@dataclass
class QueryReport:
    """One query on one shard, as of a barrier."""

    name: str
    metrics: QueryMetrics = field(default_factory=QueryMetrics)
    stats: MatcherStats = field(default_factory=MatcherStats)
    #: per-stage wall time (``None`` when profiling is off).
    profile: StageProfile | None = None
    #: emissions released since the previous report; whoever reads the
    #: report owns them (the shard has already forgotten them).
    emissions: list[Emission] = field(default_factory=list)
    #: tumbling epochs the ranker still buffers (merge ``min_open``).
    open_epochs: tuple[int, ...] = ()
    live_runs: int = 0
    pending: int = 0


@dataclass
class ShardReport:
    """One shard, as of a barrier."""

    #: process hosting the shard's engine.
    pid: int
    #: ``events_pushed`` and the processed event-time watermark.
    engine: EngineMetrics = field(default_factory=EngineMetrics)
    shared: dict[str, int] = field(default_factory=dict)
    #: sanitizer trip counts by check (``None`` when disabled).
    sanitizer_trips: dict[str, int] | None = None
    queries: dict[str, QueryReport] = field(default_factory=dict)


# -- wire format ------------------------------------------------------------------


def _encode_recorder(recorder: LatencyRecorder) -> dict[str, Any]:
    return {
        "count": recorder.count,
        "total": recorder.total,
        "maximum": recorder.maximum,
        "samples": list(recorder._samples),
    }


def _decode_recorder(state: Mapping[str, Any]) -> LatencyRecorder:
    recorder = LatencyRecorder()
    recorder.count = int(state["count"])
    recorder.total = float(state["total"])
    recorder.maximum = float(state["maximum"])
    recorder._samples = [float(value) for value in state["samples"]]
    return recorder


def _encode_profile(profile: StageProfile | None) -> dict | None:
    if profile is None:
        return None
    return {
        name: [timer.count, timer.total, timer.maximum]
        for name, timer in profile.timers()
    }


def _decode_profile(state: Mapping[str, Any] | None) -> StageProfile | None:
    if state is None:
        return None
    profile = StageProfile()
    for name, timer in profile.timers():
        count, total, maximum = state[name]
        timer.count, timer.total, timer.maximum = (
            int(count),
            float(total),
            float(maximum),
        )
    return profile


def encode_report(report: ShardReport) -> dict[str, Any]:
    """JSON-safe document for one report (floats may be non-finite)."""
    queries = {}
    for name, query in report.queries.items():
        metrics = query.metrics
        queries[name] = {
            "emissions": [encode_emission(e) for e in query.emissions],
            "open_epochs": list(query.open_epochs),
            "metrics": {
                "events_routed": metrics.events_routed,
                "matches": metrics.matches,
                "emissions": metrics.emissions,
                "revisions": metrics.revisions,
                "latency": _encode_recorder(metrics.latency),
            },
            "stats": asdict(query.stats),
            "live_runs": query.live_runs,
            "pending": query.pending,
            "profile": _encode_profile(query.profile),
        }
    return {
        "pid": report.pid,
        "events_pushed": report.engine.events_pushed,
        "last_event_ts": report.engine.last_event_ts,
        "shared": report.shared,
        "sanitizer": report.sanitizer_trips,
        "queries": queries,
    }


def decode_report(
    doc: Mapping[str, Any], scorers: Mapping[str, Scorer]
) -> ShardReport:
    """Inverse of :func:`encode_report`; ``scorers`` re-score the matches."""
    engine = EngineMetrics()
    engine.events_pushed = int(doc["events_pushed"])
    last_ts = doc["last_event_ts"]
    engine.last_event_ts = None if last_ts is None else float(last_ts)
    queries = {}
    for name, item in doc["queries"].items():
        counters = item["metrics"]
        queries[name] = QueryReport(
            name=name,
            metrics=QueryMetrics(
                events_routed=int(counters["events_routed"]),
                matches=int(counters["matches"]),
                emissions=int(counters["emissions"]),
                revisions=int(counters["revisions"]),
                latency=_decode_recorder(counters["latency"]),
            ),
            stats=MatcherStats(
                **{key: int(value) for key, value in item["stats"].items()}
            ),
            profile=_decode_profile(item["profile"]),
            emissions=[
                decode_emission(state, scorers[name])
                for state in item["emissions"]
            ],
            open_epochs=tuple(int(epoch) for epoch in item["open_epochs"]),
            live_runs=int(item["live_runs"]),
            pending=int(item["pending"]),
        )
    trips = doc["sanitizer"]
    return ShardReport(
        pid=int(doc["pid"]),
        engine=engine,
        shared={key: int(value) for key, value in doc["shared"].items()},
        sanitizer_trips=(
            None
            if trips is None
            else {key: int(value) for key, value in trips.items()}
        ),
        queries=queries,
    )


def encode_instruments(registry: MetricsRegistry) -> list[dict[str, Any]]:
    """Value snapshot of every instrument in a shard engine's registry."""
    items: list[dict[str, Any]] = []
    for instrument in registry.instruments():
        row: dict[str, Any] = {
            "kind": instrument.kind,
            "name": instrument.name,
            "help": instrument.help,
            "labels": dict(instrument.labels),
        }
        if instrument.kind == "histogram":
            row["recorder"] = _encode_recorder(instrument.recorder)
        else:
            row["value"] = instrument.value
            if instrument.kind == "gauge":
                row["agg"] = instrument.agg
        items.append(row)
    return items


def decode_instruments(items: list[Mapping[str, Any]]) -> MetricsRegistry:
    """Rebuild a registry of plain values from :func:`encode_instruments`."""
    registry = MetricsRegistry()
    for item in items:
        labels = {str(key): str(value) for key, value in item["labels"].items()}
        kind = item["kind"]
        if kind == "counter":
            registry.counter(item["name"], item["help"], **labels).override(
                float(item["value"])
            )
        elif kind == "gauge":
            registry.gauge(
                item["name"], item["help"], agg=item["agg"], **labels
            ).set(float(item["value"]))
        else:
            registry.histogram(
                item["name"], item["help"], **labels
            ).recorder = _decode_recorder(item["recorder"])
    return registry
